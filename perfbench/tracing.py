"""Span and counter tracing of rollstock's layers, from outside the package.

The tracer replaces the module attributes through which callers reach a
layer (``analysis.solve_lp``, ``reduction.build``, ...) with wrappers that
record a span per call and read counters off the returned objects. Nothing
in ``src/`` is edited; ``restore`` puts the original functions back.

A span's self time is its duration minus the durations of its direct child
spans. Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    item: int          # index of the benchmark item the call belongs to
    parent: int        # index of the enclosing span, -1 at the top level
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.item = -1
        self.enabled = True     # when False, wrapped calls go straight through
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, owner, attr: str, name, on_result=None, on_error=None) -> None:
        """Route calls of ``owner.attr`` through a span.

        ``name`` is a span name or a function of ``(args, kwargs)`` giving
        one. ``on_result(tracer, result, args, kwargs)`` and
        ``on_error(tracer, exc)`` update counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = Span(name(args, kwargs) if callable(name) else name,
                        tracer.item,
                        tracer._stack[-1] if tracer._stack else -1,
                        time.perf_counter())
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c)
        return out

    def total_times(self) -> dict[str, float]:
        """Seconds per span name over outermost spans of that name only."""
        out: dict[str, float] = {}
        for s in self.spans:
            p, nested = s.parent, False
            while p >= 0 and not nested:
                nested = self.spans[p].name == s.name
                p = self.spans[p].parent
            if not nested:
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counters": self.counters}, fh)


def _solver_span(kind: str):
    return lambda args, kwargs: "solver.exact" if kwargs.get("exact") else kind


def _on_graph(tracer, graph, args, kwargs):
    tracer.count("hypergraph.hyperarcs", len(graph.hyperarcs))


def _on_contract(tracer, cg, args, kwargs):
    tracer.count("composition.cuts", len(cg.cuts))


def _on_model(tracer, model, args, kwargs):
    cols, rows = model.stats()
    tracer.count("formulation.rows", rows)
    tracer.count("formulation.cols", cols)
    tracer.count("formulation.nnz", sum(len(r.coeffs) for r in model.rows))


def _on_lp(tracer, sol, args, kwargs):
    prefix = "solver.exact" if kwargs.get("exact") else "solver.lp"
    tracer.count(prefix + "_calls")
    tracer.count(prefix + "_iters", sol.iterations)


def _on_ip(tracer, sol, args, kwargs):
    prefix = "solver.exact" if kwargs.get("exact") else "solver.ip"
    tracer.count(prefix + "_calls")
    tracer.count(prefix + "_nodes", sol.nodes)
    if sol.status == "NodeLimit":
        tracer.count("solver.failures")


def _on_solver_error(tracer, exc):
    from rollstock.errors import NumericalFailure

    if isinstance(exc, NumericalFailure):
        tracer.count("solver.failures")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point that the benchmark or a caller uses."""
    from rollstock import (analysis, formulation, genbench, instance,
                           reduction, solver)

    for owner in (instance, reduction):
        tracer.wrap(owner, "validate", "instance.load")
    tracer.wrap(instance, "loads", "instance.load")
    tracer.wrap(genbench, "generate", "genbench.generate")
    for owner in (analysis, reduction):
        tracer.wrap(owner, "build", "hypergraph.build", _on_graph)
        tracer.wrap(owner, "contract", "composition.contract", _on_contract)
    for owner in (analysis, reduction, formulation):
        tracer.wrap(owner, "assemble", "formulation.assemble", _on_model)
    tracer.wrap(formulation, "write_lp", "formulation.lp_io")
    tracer.wrap(formulation, "parse_lp", "formulation.lp_io")
    tracer.wrap(solver, "model_arrays", "solver.model_arrays")
    tracer.wrap(analysis, "solve_lp", _solver_span("solver.lp"), _on_lp,
                _on_solver_error)
    for owner in (analysis, reduction):
        tracer.wrap(owner, "solve_ip", _solver_span("solver.ip"), _on_ip,
                    _on_solver_error)
    tracer.wrap(solver, "enumerate_oracle", "solver.oracle")
    tracer.wrap(analysis, "compare", "analysis.compare")
    tracer.wrap(analysis, "cost_breakdown", "analysis.breakdown")
    tracer.wrap(analysis, "replay_in_full", "analysis.replay")
    tracer.wrap(analysis, "verify_corollary_projection", "analysis.projection")
    tracer.wrap(reduction, "verify_reduction", "reduction.verify")
    tracer.wrap(reduction, "parse_dimacs", "reduction.parse")
    tracer.wrap(reduction, "reduce_3sat", "reduction.reduce")
    tracer.wrap(reduction, "brute_force_sat", "reduction.brute_force")
    tracer.wrap(reduction, "decode_assignment", "reduction.decode")

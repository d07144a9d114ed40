"""The four benchmark workloads: inputs, one item of user work, answer checks.

Each workload turns the seed into input text (instance JSON or DIMACS), the
way a user hands rollstock files; loading that text is part of set-up. One
*item* is one unit of user work, run by ``run``; ``check`` verifies its answer
against an independent reference outside the timed region. ``check`` returns
``None`` for a correct answer and otherwise the reason the item failed.

Why each workload exists, and which inputs it leaves out, is in README.md
next to the measured baselines. In short:

* ``sweep``: ``analysis.compare`` (five variants, closure, float), what
  ``rollstock compare`` and acceptance criterion 1 do. Float simplex is most
  of the time and every IP closes at the root.
* ``sat``: ``reduction.verify_reduction`` on criterion-6 style formulas; the
  only workload where branch and bound searches beyond the root and proves
  infeasibility.
* ``exact``: ``analysis.compare(exact=True)``; exact rational work dominates,
  so a change to the exact certifier shows here and nowhere else.
* ``models``: build, contract, assemble, ``model_arrays`` and an LP-format
  round trip of all seven variants, plus the enumeration oracle and the
  projection check on a tiny instance. No LP is solved, so an LP-engine
  change must read "no change" here.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from reference import Highs, rel_close

SEVEN = ("hD", "hA", "hAbar", "HD", "HA", "HAbar", "C")
REL_TOL = 1e-6      # float answers against HiGHS, as in the acceptance suite
EXACT_TOL = 1e-9    # exact answers against HiGHS
TINY_TRIPS = 8      # instances the oracle and projection check enumerate


def _sweep_config(g: int, lines: int, trips_per_line: int):
    """The acceptance-sweep instance shape at a fixed size."""
    from rollstock.genbench import GenConfig

    return GenConfig(seed=g, lines=lines, trips_per_line=trips_per_line,
                     unit_types=2, n_max=2, stations=3)


def _instance_texts(configs) -> list[tuple[str, str]]:
    from rollstock import genbench, instance

    out = []
    for cfg in configs:
        inst = genbench.generate(cfg)
        out.append((f"{cfg.seed}:{cfg.lines}x{cfg.trips_per_line}"
                    f"/{cfg.stations}st/sj{cfg.split_join_fraction}",
                    instance.dumps(inst)))
    return out


def _load_instance(text: str):
    from rollstock import instance

    inst = instance.loads(text)
    bad = instance.validate(inst)
    if bad:
        raise ValueError(f"generated instance is invalid: {bad[:3]}")
    return inst


class Workload:
    name = ""
    trace_items = 0     # items in the fixed traced pass

    def __init__(self):
        self.highs = Highs()
        self._refs: dict[str, object] = {}

    def inputs(self, seed: int) -> list[tuple[str, str]]:
        raise NotImplementedError

    def load(self, text: str):
        raise NotImplementedError

    def run(self, payload):
        raise NotImplementedError

    def check(self, key: str, payload, result) -> str | None:
        raise NotImplementedError

    def reference(self, key: str, compute):
        """Reference answer of one input, computed once per run."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


class _CompareWorkload(Workload):
    exact = False

    def load(self, text: str):
        return _load_instance(text)

    def run(self, payload):
        from rollstock import analysis

        return analysis.compare(payload, exact=self.exact)

    def _highs_values(self, inst) -> dict[str, tuple]:
        """HiGHS (LP, IP) of each variant, built as ``compare`` builds it."""
        from rollstock import analysis, formulation

        out = {}
        for variant in ("hD", "hA", "HD", "HA", "C"):
            model = formulation.assemble(
                analysis.build_variant(inst, variant, closure=True),
                formulation.ModelOptions(connection_constraints=True))
            out[variant] = (self.highs.solve(model.relaxed(), integer=False),
                            self.highs.solve(model, integer=True))
        return out

    def check(self, key, inst, report) -> str | None:
        if len(report.rows) != 5:
            return f"{len(report.rows)} variant rows"
        for row in report.rows:
            if row.error:
                return f"{row.variant}: {row.error}"
            if row.lp_status != "Optimal" or row.ip_status != "Optimal":
                return f"{row.variant}: LP {row.lp_status}, IP {row.ip_status}"
        if len(report.verdicts) != 10:
            return f"{len(report.verdicts)} verdicts"
        bad = [v for v in report.verdicts if v.verdict == "VIOLATION"]
        if bad:
            return f"violation of relation {bad[0].relation} ({bad[0].mp})"
        ref = self.reference(key, lambda: self._highs_values(inst))
        tol = EXACT_TOL if self.exact else REL_TOL
        for row in report.rows:
            for mode, ours, (status, theirs) in (
                    ("LP", row.lp_value, ref[row.variant][0]),
                    ("IP", row.ip_value, ref[row.variant][1])):
                if status != "Optimal":
                    return f"{row.variant} {mode}: HiGHS {status}"
                if self.exact and not isinstance(ours, Fraction):
                    return f"{row.variant} {mode}: {type(ours).__name__} value"
                if not rel_close(float(ours), theirs, tol):
                    return f"{row.variant} {mode}: {float(ours)!r} vs HiGHS {theirs!r}"
        if self.exact:
            by = {row.variant: row for row in report.rows}
            for mode in ("lp_value", "ip_value"):
                vals = {getattr(by[v], mode) for v in ("HA", "HD", "C")}
                if len(vals) != 1:
                    return f"exact {mode}: HA, HD, C differ: {sorted(vals)}"
        return None


class Sweep(_CompareWorkload):
    name = "sweep"
    trace_items = 8

    def inputs(self, seed):
        return _instance_texts(
            _sweep_config(1000 * seed + k, lines=2, trips_per_line=3)
            for k in range(60))


class Exact(_CompareWorkload):
    name = "exact"
    exact = True
    trace_items = 4

    def inputs(self, seed):
        return _instance_texts(
            _sweep_config(1000 * seed + k, lines=1, trips_per_line=2)
            for k in range(30))


def _dimacs(n_vars: int, clauses) -> str:
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in cl) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def _satisfiable(n_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
               for cl in clauses):
            return True
    return False


class Sat(Workload):
    name = "sat"
    trace_items = 24

    def inputs(self, seed):
        rng = random.Random(seed)
        out = []
        # Two variables, four clauses, each clause padded with a repeated
        # literal (as in criterion 6): every sign pair makes the formula
        # unsatisfiable; a repeated pair in place of one leaves it satisfiable.
        # One in five is satisfiable: those cost half as much, and a minority
        # keeps the median inside one mode.
        pairs = list(itertools.product((1, -1), repeat=2))
        for i in range(300):
            unsat = i % 5 != 4
            signs = pairs if unsat else pairs[:3] + [rng.choice(pairs[:3])]
            x, y = rng.sample((1, 2), 2)
            clauses = [(a * x, a * x, b * y) if rng.random() < 0.5
                       else (a * x, b * y, b * y) for a, b in signs]
            rng.shuffle(clauses)
            kind = "unsat" if unsat else "sat"
            out.append((f"{kind}2v4c:{i}", _dimacs(2, clauses)))
        return out

    def load(self, text):
        from rollstock import reduction

        return reduction.parse_dimacs(text)

    def run(self, formula):
        from rollstock import reduction

        return reduction.verify_reduction(formula)

    def _highs_feasible(self, formula) -> bool:
        from rollstock import composition, formulation, hypergraph, reduction

        inst, _ = reduction.reduce_3sat(formula)
        model = formulation.assemble(composition.contract(
            hypergraph.build(inst, "HD")))
        return self.highs.solve(model, integer=True)[0] == "Optimal"

    def check(self, key, formula, verdict) -> str | None:
        if not verdict.agrees:
            return f"verdict disagrees: sat={verdict.sat} feasible={verdict.feasible}"
        sat = _satisfiable(formula.n_vars, formula.clauses)
        if verdict.sat != sat:
            return f"sat={verdict.sat}, brute force says {sat}"
        if verdict.feasible:
            a = verdict.assignment
            if not all(any((lit > 0) == a[abs(lit)] for lit in cl)
                       for cl in formula.clauses):
                return "decoded assignment does not satisfy the formula"
        feasible = self.reference(key, lambda: self._highs_feasible(formula))
        if verdict.feasible != feasible:
            return f"feasible={verdict.feasible}, HiGHS says {feasible}"
        return None


class Models(Workload):
    name = "models"
    trace_items = 4

    def inputs(self, seed):
        """Pairs of a ladder instance and a tiny one; one item takes a pair."""
        from rollstock.genbench import GenConfig

        configs = []
        for k in range(40):
            configs.append(GenConfig(seed=1000 * seed + k, lines=4,
                                     trips_per_line=8, stations=4,
                                     split_join_fraction=0.3))
            configs.append(_sweep_config(1000 * seed + k, lines=2,
                                         trips_per_line=2))
        texts = _instance_texts(configs)
        return [(f"{k1}+{k2}", json.dumps([t1, t2]))
                for (k1, t1), (k2, t2) in zip(texts[::2], texts[1::2])]

    def load(self, text):
        return tuple(_load_instance(t) for t in json.loads(text))

    def run(self, pair):
        from rollstock import analysis, formulation, solver

        out = []
        for inst in pair:
            models, parsed, oracles = [], [], []
            for variant in SEVEN:
                model = formulation.assemble(
                    analysis.build_variant(inst, variant, closure=False))
                solver.model_arrays(model)
                models.append(model)
                parsed.append(formulation.parse_lp(formulation.write_lp(model)))
                if len(inst.trips) <= TINY_TRIPS:
                    oracles.append(solver.enumerate_oracle(inst, variant))
            projection = (analysis.verify_corollary_projection(inst)
                          if len(inst.trips) <= TINY_TRIPS else None)
            out.append((models, parsed, oracles, projection))
        return out

    def check(self, key, pair, result) -> str | None:
        from rollstock import formulation

        for part, (inst, (models, parsed, oracles, projection)) in enumerate(
                zip(pair, result)):
            for variant, model, back in zip(SEVEN, models, parsed):
                if not formulation.models_equal(model, back):
                    return f"{inst.name} {variant}: LP-format round trip differs"
            if len(inst.trips) <= TINY_TRIPS and len(oracles) != len(SEVEN):
                return f"{inst.name}: {len(oracles)} oracle results"
            for variant, model, orc in zip(SEVEN, models, oracles):
                status, value = self.reference(
                    f"{key}:{part}:{variant}",
                    lambda: self.highs.solve(model, integer=True))
                if orc.status != status:
                    return f"{inst.name} {variant}: oracle {orc.status}, HiGHS {status}"
                if status == "Optimal" and abs(orc.objective - value) > 1e-6:
                    return (f"{inst.name} {variant}: oracle {orc.objective!r} "
                            f"vs HiGHS {value!r}")
            if projection is not None and not projection["equal"]:
                return f"{inst.name}: projected solution sets differ: {projection}"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Sat, Exact, Models)}

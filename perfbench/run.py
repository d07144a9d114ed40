"""rollstock benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets up, then runs items one after another until
they have taken ``--seconds`` seconds, checks each answer after its item,
and reports the end-to-end metrics. With ``--trace 1`` it runs the fixed traced pass (the
first ``trace_items`` items) of every workload, whichever ``--workload`` is
named, once untraced and once traced, checks every answer, and reports the
per-layer metrics of each workload's layers; the spans are written to
``.perfbench/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report. Workloads and metrics are described in
``perfbench/README.md``.
"""

import os

# The dense simplex calls BLAS. Pin it to one thread before numpy is first
# imported, so that a second BLAS thread on shared CPUs is not measured.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def setup(workload, seed: int) -> list[tuple[str, object]]:
    """Generate the seed's input texts and load them, as a user would."""
    return [(key, workload.load(text)) for key, text in workload.inputs(seed)]


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import and set up."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    items beyond it; the maximum when there are ten items or fewer."""
    xs = sorted(latencies)
    j = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs)


def run_items(workload, items, busy_s: float | None, limit: int | None,
              tracer=None):
    """Run items in order, cycling, until they have taken ``busy_s`` seconds
    or ``limit`` items have run; check each answer right after its item.

    Returns (records, busy seconds); a record is (input key, latency, reason
    the item failed or None). The check runs outside the item's latency and
    outside the busy time, with tracing paused. The item in flight when the
    time is up runs to completion.
    """
    records = []
    busy = 0.0
    i = 0
    while (busy_s is None or busy < busy_s) and (limit is None or i < limit):
        key, payload = items[i % len(items)]
        if tracer is not None:
            tracer.item = i
        started = time.perf_counter()
        try:
            result, error = workload.run(payload), None
        except Exception as exc:  # a raising item is a failed item
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        busy += latency
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            error = workload.check(key, payload, result)
        if tracer is not None:
            tracer.enabled = True
        records.append((key, latency, error))
        i += 1
    return records, busy


def report_failures(records) -> int:
    failed = 0
    for key, _latency, error in records:
        if error is not None:
            print(f"  FAILED {key}: {error}")
            failed += 1
    return failed


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in SRC.rglob("*.py"))


def metadata(args) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "src_lines": src_lines(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, reference solver included."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload) -> tuple[dict, int, int]:
    setup_s = measure_setup(args)
    items = setup(workload, args.seed)
    workload.highs.load()
    records, busy = run_items(workload, items, args.seconds, None)
    attempted, failed = len(records), report_failures(records)
    latencies = [r[1] for r in records]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "items_per_s": ((attempted - failed) / busy, "1/s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "item_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{args.workload} seed {args.seed}: {attempted} items attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f}), "
          f"{len(items)} distinct inputs, {busy:.3f} s in items")
    print(f"  item_tail_s is the p{tail_pct:.1f} latency of {attempted} items")
    return metrics, attempted, failed


# Span behind each per-layer time; a count is read from the tracer's counter
# of the same name.
SPANS = {
    "instance.load_s": "instance.load",
    "genbench.generate_s": "genbench.generate",
    "hypergraph.build_s": "hypergraph.build",
    "composition.contract_s": "composition.contract",
    "formulation.assemble_s": "formulation.assemble",
    "formulation.lp_io_s": "formulation.lp_io",
    "solver.model_arrays_s": "solver.model_arrays",
    "solver.lp_s": "solver.lp",
    "solver.ip_s": "solver.ip",
    "solver.exact_s": "solver.exact",
    "solver.oracle_s": "solver.oracle",
    "analysis.compare_self_s": "analysis.compare",
    "analysis.breakdown_s": "analysis.breakdown",
    "analysis.replay_s": "analysis.replay",
    "analysis.projection_s": "analysis.projection",
    "reduction.reduce_s": "reduction.reduce",
    "reduction.brute_force_s": "reduction.brute_force",
    "reduction.decode_s": "reduction.decode",
}
_MODEL_LAYERS = (
    "instance.load_s", "hypergraph.build_s", "hypergraph.hyperarcs",
    "composition.contract_s", "composition.cuts", "formulation.assemble_s",
    "formulation.rows", "formulation.cols", "formulation.nnz",
    "solver.model_arrays_s",
)
# The layers each workload calls. A workload reports only these, so that no
# reported time is a 0 that no change could move.
LAYERS = {
    "sweep": _MODEL_LAYERS + (
        "genbench.generate_s", "solver.lp_s", "solver.lp_calls",
        "solver.lp_iters", "solver.ip_s", "solver.ip_calls", "solver.ip_nodes",
        "solver.failures", "analysis.compare_self_s", "analysis.breakdown_s",
        "analysis.replay_s"),
    "sat": _MODEL_LAYERS + (
        "solver.ip_s", "solver.ip_calls", "solver.ip_nodes", "solver.failures",
        "reduction.reduce_s", "reduction.brute_force_s", "reduction.decode_s"),
    "exact": _MODEL_LAYERS + (
        "genbench.generate_s", "solver.exact_s", "solver.exact_calls",
        "solver.exact_iters", "solver.exact_nodes", "solver.failures",
        "analysis.compare_self_s", "analysis.breakdown_s", "analysis.replay_s"),
    "models": _MODEL_LAYERS + (
        "genbench.generate_s", "formulation.lp_io_s", "solver.oracle_s",
        "analysis.projection_s"),
}
SOLVER_SPANS = ("solver.lp", "solver.ip", "solver.exact", "solver.oracle")


def traced_pass(name: str, workload, seed: int) -> tuple[dict, int, int]:
    """Per-layer metrics of one workload's traced pass.

    Sets up once untraced and once traced, then runs the first
    ``trace_items`` items once with tracing off and once with it on.
    """
    import tracing

    items = setup(workload, seed)           # imports and warms the loaders
    workload.highs.load()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        setup(workload, seed)               # the traced set-up
        tracer.enabled = False
        n = workload.trace_items
        plain, plain_s = run_items(workload, items, None, n)
        tracer.enabled = True
        traced, traced_s = run_items(workload, items, None, n, tracer)
    finally:
        tracer.restore()
    records = plain + traced
    attempted, failed = len(records), report_failures(records)

    self_s = tracer.self_times()
    metrics = {}
    for layer in LAYERS[name]:
        if layer in SPANS:
            metrics[layer] = (self_s.get(SPANS[layer], 0.0), "s")
        else:
            metrics[layer] = (tracer.counters.get(layer, 0), "count")
    totals = tracer.total_times()
    solver_s = sum(totals.get(span, 0.0) for span in SOLVER_SPANS)
    highs_s = workload.highs.seconds    # each input is solved once
    metrics["reference.highs_s"] = (highs_s, "s")
    metrics["reference.highs_ratio"] = (solver_s / highs_s, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"trace-{name}-{seed}.json")
    print(f"{name} seed {seed}: traced pass of {n} items, run untraced "
          f"({plain_s:.3f} s in items) and traced ({traced_s:.3f} s, "
          f"{len(tracer.spans)} spans); {attempted} attempted, {failed} failed")
    return metrics, attempted, failed


def per_layer(seed: int) -> tuple[dict, int, int]:
    """Traced passes of all four workloads, metrics prefixed by workload.

    Every traced run covers every workload, so that each layer is measured
    in every traced run, on the workload that calls it.
    """
    from workloads import WORKLOADS

    metrics, attempted, failed = {}, 0, 0
    for name, cls in WORKLOADS.items():
        m, a, f = traced_pass(name, cls(), seed)
        metrics.update({f"{name}.{k}": v for k, v in m.items()})
        attempted += a
        failed += f
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "sat", "exact", "models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rollstock" / "__init__.py").is_file():
        print(f"perfbench: no rollstock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import rollstock  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        setup(workload, args.seed)
        return 0
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    if args.trace:
        metrics, attempted, failed = per_layer(args.seed)
    else:
        metrics, attempted, failed = end_to_end(args, workload)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

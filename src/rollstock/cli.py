"""Command-line interface.

Commands: validate, build, solve, compare, project, reduce-3sat,
verify-reduction, gen, export-lp. Exit codes: 0 success, 1 infeasible,
violations found, a malformed instance (every command but validate refuses
an instance that validate rejects) or a malformed DIMACS formula, 2 usage
errors (among them neither or both of --instance and --canonical, an
out-of-range gen option, compare with --variant, which only solve and
export-lp take, solve --plot with --lp or --variant C, and solve or
export-lp with --variant C --no-connection-constraints); an Undecided
theorem relation does not fail. Human-readable output on
stdout, JSON with --json; --deterministic suppresses timing fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, genbench, instance as inst_mod, reduction
from .errors import ConfigError, MalformedInstance, RollstockError
from .formulation import ModelOptions, assemble, export_lp_file
from .solver import solve_ip, solve_lp

ALL = analysis.ALL_VARIANTS


def _load_instance(args, valid: bool = True) -> inst_mod.Instance:
    """The instance; with ``valid``, refused with its first violation."""
    if args.canonical is not None:
        instance = inst_mod.canonical(args.canonical)
    else:
        instance = inst_mod.load(args.instance)
    if valid and (violations := inst_mod.validate(instance)):
        raise MalformedInstance(f"invalid instance: {violations[0]}")
    return instance


def cmd_validate(args) -> int:
    instance = _load_instance(args, valid=False)
    violations = inst_mod.validate(instance)
    if args.json:
        print(json.dumps([{"code": v.code, "entity": v.entity,
                           "message": v.message} for v in violations], indent=2))
    else:
        for v in violations:
            print(v)
        if not violations:
            print(f"{instance.name}: valid "
                  f"({len(instance.trips)} trips, "
                  f"{len(instance.connections)} connections)")
    return 1 if violations else 0


def _usage_fault(args) -> str | None:
    """Why a solve or export-lp command line names no model to make, if it does."""
    if args.variant == "C" and args.no_connection_constraints:
        return "the composition model cannot drop the connection constraints"
    if getattr(args, "plot", None) and (args.lp or args.variant == "C"):
        return ("--plot draws the integer rotations of a hypergraph variant, so it "
                "takes neither --lp nor --variant C")
    return None


def cmd_build(args) -> int:
    instance = _load_instance(args)
    graph = analysis.build_variant(instance, args.variant, args.closure)
    sys.stdout.write(graph.dump())
    return 0


def cmd_solve(args) -> int:
    instance = _load_instance(args)
    graph = analysis.build_variant(instance, args.variant, args.closure)
    opts = ModelOptions(connection_constraints=not args.no_connection_constraints)
    model = assemble(graph, opts)
    if args.lp:
        sol = solve_lp(model.relaxed(), tol=args.tol, exact=args.exact_rational)
    else:
        sol = solve_ip(model, tol=args.tol, node_limit=args.node_limit,
                       exact=args.exact_rational)
    out = {"instance": instance.name, "variant": args.variant,
           "mode": "LP" if args.lp else "IP", "status": sol.status}
    if not args.lp:  # search counts, which repeat exactly from run to run
        out["nodes"], out["iterations"] = sol.nodes, sol.iterations
    if sol.status == "Optimal":
        out["objective"] = float(sol.objective)
        bd = analysis.cost_breakdown(instance, graph, sol.values)
        out["breakdown"] = {
            "composition": float(bd.composition_cost),
            "coupling": float(bd.coupling_cost),
            "deviation": float(bd.deviation_cost),
            "total": float(bd.total),
        }
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"{out['instance']} {out['variant']} {out['mode']}: {sol.status}"
              + (f" objective={out['objective']:.4f}" if "objective" in out else ""))
        if "breakdown" in out:
            b = out["breakdown"]
            print(f"  composition={b['composition']:.4f} "
                  f"coupling={b['coupling']:.4f} deviation={b['deviation']:.4f}")
    if args.plot and sol.status == "Optimal":
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(analysis.rotation_svg(instance, graph, sol.values))
    return 0 if sol.status == "Optimal" else 1


def cmd_compare(args) -> int:
    instance = _load_instance(args)
    variants = analysis.SEVEN_VARIANTS if args.all else tuple(args.variants or ALL)
    report = analysis.compare(
        instance, variants, closure=args.closure,
        connection_constraints=not args.no_connection_constraints,
        exact=args.exact_rational, tol=args.tol, node_limit=args.node_limit,
        with_timings=not args.deterministic)
    if args.json:
        sys.stdout.write(analysis.render_json(report,
                                              with_timings=not args.deterministic))
    else:
        sys.stdout.write(analysis.render_text(report,
                                              with_timings=not args.deterministic))
    bad = any(v.verdict == "VIOLATION" for v in report.verdicts) or \
        any(r.error for r in report.rows)
    return 1 if bad else 0


def cmd_project(args) -> int:
    instance = _load_instance(args)
    report = analysis.verify_corollary_projection(
        instance, trip_limit=args.trip_limit,
        connection_constraints=not args.no_connection_constraints)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["equal"] else 1


def cmd_reduce_3sat(args) -> int:
    with open(args.cnf, "r", encoding="utf-8") as fh:
        formula = reduction.parse_dimacs(fh.read())
    instance, cert = reduction.reduce_3sat(formula)
    inst_mod.save(instance, args.out)
    if args.certificate:
        payload = {
            "clause_trips": {str(k): list(v) for k, v in cert.clause_trips.items()},
            "literal_trips": {str(k): v for k, v in cert.literal_trips.items()},
            "occurrences": {str(k): [list(o) for o in v]
                            for k, v in cert.occurrences.items()},
            "true_comp": cert.true_comp,
            "false_comp": cert.false_comp,
        }
        with open(args.certificate, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}: {len(instance.trips)} trips, "
          f"{len(instance.connections)} connections")
    return 0


def cmd_verify_reduction(args) -> int:
    with open(args.cnf, "r", encoding="utf-8") as fh:
        formula = reduction.parse_dimacs(fh.read())
    verdict = reduction.verify_reduction(formula, node_limit=args.node_limit)
    out = {"sat": verdict.sat, "feasible": verdict.feasible,
           "agrees": verdict.agrees}
    if verdict.assignment is not None:
        out["assignment"] = {str(k): v for k, v in verdict.assignment.items()}
        out["assignment_ok"] = verdict.assignment_ok
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if verdict.agrees else 1


def cmd_gen(args) -> int:
    cfg = genbench.GenConfig(seed=args.seed, lines=args.lines,
                             trips_per_line=args.trips_per_line,
                             unit_types=args.unit_types, n_max=args.n_max,
                             stations=args.stations,
                             split_join_fraction=args.split_fraction)
    try:
        cfg.check()
    except ConfigError as e:  # an out-of-range option value is a usage error
        print(f"rollstock gen: error: {e}", file=sys.stderr)
        return 2
    instance = genbench.generate(cfg)
    inst_mod.save(instance, args.out)
    print(f"wrote {args.out}: {len(instance.trips)} trips, "
          f"{len(instance.connections)} connections")
    return 0


def cmd_export_lp(args) -> int:
    instance = _load_instance(args)
    graph = analysis.build_variant(instance, args.variant, args.closure)
    opts = ModelOptions(connection_constraints=not args.no_connection_constraints)
    model = assemble(graph, opts)
    if args.lp:
        model = model.relaxed()
    export_lp_file(model, args.out)
    print(f"wrote {args.out}: {model.stats()[0]} variables, "
          f"{model.stats()[1]} rows")
    return 0


def _nonnegative(kind):
    """An argparse type that reads ``kind`` and refuses a negative, infinite or
    NaN value."""
    def read(text: str):
        if not 0 <= (value := kind(text)) < math.inf:
            raise argparse.ArgumentTypeError(f"{text} is not finite and nonnegative")
        return value
    read.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return read


def _add_instance_args(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="instance JSON file")
    source.add_argument("--canonical", choices=inst_mod.CANONICAL_NAMES,
                        help="built-in instance name")


def _add_model_args(p, variant: bool = True):
    if variant:  # compare takes --variants or --all instead
        p.add_argument("--variant", default="C", choices=analysis.SEVEN_VARIANTS)
    p.add_argument("--closure", action="store_true",
                   help="use the closure of direct connection arcs")
    p.add_argument("--no-connection-constraints", action="store_true")


def _add_solve_args(p):
    p.add_argument("--tol", type=_nonnegative(float), default=1e-7)
    p.add_argument("--node-limit", type=_nonnegative(int), default=200000)
    p.add_argument("--exact-rational", action="store_true",
                   help="certify the final basis in exact rational arithmetic")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rollstock",
                                 description="rolling stock scheduling models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check instance invariants")
    _add_instance_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("build", help="dump a model hypergraph")
    _add_instance_args(p)
    p.add_argument("--variant", default="hD", choices=analysis.SEVEN_VARIANTS)
    p.add_argument("--closure", action="store_true")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("solve", help="solve one model variant")
    _add_instance_args(p)
    _add_model_args(p)
    _add_solve_args(p)
    p.add_argument("--lp", action="store_true", help="LP relaxation only")
    p.add_argument("--json", action="store_true")
    p.add_argument("--plot", metavar="PATH",
                   help="write the rotation SVG of an integer hypergraph solution")
    p.set_defaults(fn=cmd_solve)

    # no abbreviations: --variant would read as --variants
    p = sub.add_parser("compare", help="solve and relate all variants",
                       allow_abbrev=False)
    _add_instance_args(p)
    _add_model_args(p, variant=False)
    _add_solve_args(p)
    p.add_argument("--all", action="store_true")
    p.add_argument("--variants", nargs="*", choices=analysis.SEVEN_VARIANTS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress timing fields")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("project", help="integer solution-set projection check")
    _add_instance_args(p)
    p.add_argument("--trip-limit", type=_nonnegative(int), default=8)
    p.add_argument("--no-connection-constraints", action="store_true")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("reduce-3sat", help="encode a DIMACS CNF as an instance")
    p.add_argument("cnf")
    p.add_argument("--out", required=True)
    p.add_argument("--certificate")
    p.set_defaults(fn=cmd_reduce_3sat)

    p = sub.add_parser("verify-reduction",
                       help="check satisfiability against feasibility")
    p.add_argument("cnf")
    p.add_argument("--node-limit", type=_nonnegative(int), default=400000)
    p.set_defaults(fn=cmd_verify_reduction)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lines", type=int, default=2)
    p.add_argument("--trips-per-line", type=int, default=4)
    p.add_argument("--unit-types", type=int, default=2)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--stations", type=int, default=3)
    p.add_argument("--split-fraction", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("export-lp", help="write a model as an LP file")
    _add_instance_args(p)
    _add_model_args(p)
    p.add_argument("--lp", action="store_true", help="export the relaxation")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_lp)

    return ap


def run(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.fn in (cmd_solve, cmd_export_lp) and (fault := _usage_fault(args)):
        print(f"rollstock {args.command}: error: {fault}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except RollstockError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

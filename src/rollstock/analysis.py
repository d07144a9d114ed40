"""Cross-model analysis: solution maps, value relations, cost breakdowns.

The five models are provably related: with the closure of direct arcs the
direct-arc variants match the depot variants, the composition model always
matches the full depot variant, and the small variants are relaxations of
the full ones. This module implements the constructive maps behind those
relations (re-routing direct arcs over depot paths, aggregating composition
copies, completing composition flows with depot arcs), verifies the value
relations on actual solves, replays small-variant solutions against the
full model to certify illegal couplings, recomputes solution costs by
component, and bundles everything into comparison reports.
"""

from __future__ import annotations

import itertools
import json
import time as _time
from dataclasses import dataclass
from fractions import Fraction

from .composition import CompositionGraph, compose
from .errors import CutViolated, LimitExceeded
from .formulation import ModelOptions, assemble
from .hypergraph import (EventNode, Hypergraph, build, change_index, change_key,
                         connection_changes, decompose_paths)
from .instance import Instance
from .ledger import Ledger, arc_pulls, levels, through_depot, walk
# perfbench/tracing.py wraps analysis.solve_lp and .contract, so the names stay here
from .composition import contract  # noqa: F401
from .solver import solve_ip, solve_lp  # noqa: F401

INFEASIBLE = float("inf")


@dataclass(frozen=True)
class CostBreakdown:
    composition_cost: object
    coupling_cost: object
    deviation_cost: object

    @property
    def total(self):
        return self.composition_cost + self.coupling_cost + self.deviation_cost


@dataclass(frozen=True)
class TheoremVerdict:
    relation: str   # a | b | c | d | e
    mp: str         # LP | IP
    lhs_name: str
    rhs_name: str
    lhs: object
    rhs: object
    verdict: str    # EqualityHolds | InequalityHolds | StrictGap | VIOLATION | Undecided


@dataclass
class VariantResult:
    variant: str
    n_vars: int = 0
    n_rows: int = 0
    lp_value: object = None
    ip_value: object = None
    lp_status: str = ""
    ip_status: str = ""
    breakdown: CostBreakdown | None = None
    replay_ok: bool | None = None
    replay_reason: str = ""
    replace_changes: int = 0
    seconds: float = 0.0
    error: str = ""


@dataclass
class ComparisonReport:
    instance: str
    rows: list[VariantResult]
    verdicts: list[TheoremVerdict]
    closure: bool
    connection_constraints: bool


# ---------------------------------------------------------------------------
# solution maps (Theorem-1 proof constructions)
# ---------------------------------------------------------------------------

def _park_levels(x: dict, ledger: Ledger, g_hd: Hypergraph) -> dict:
    """Complete an HD flow ``x`` with its parking arcs: each segment of a
    depot timeline carries the depot's running level after the ledger's
    moves up to the segment's start."""
    timelines: dict[tuple[str, str], list] = {}
    for h in g_hd.hyperarcs:
        if h.kind == "Parking":
            tail = h.base_arcs[0][0]  # the initial node or an inner one
            timelines.setdefault((tail.station, tail.unit_type), []).append(
                (float("-inf") if tail.role == "initial" else tail.time, h.id))
    for depot in ledger.instance.all_depots():
        key = (depot.station, depot.unit_type)
        steps = list(levels(depot.start_inventory, ledger.events.get(key, [])))
        level = depot.start_inventory
        idx = 0
        for t_tail, hid in sorted(timelines[key]):
            while idx < len(steps) and steps[idx][0] <= t_tail:
                level = steps[idx][1]
                idx += 1
            if level < -1e-9:
                raise CutViolated(f"depot {key} inventory drops to {level}")
            if level:
                x[hid] = x.get(hid, 0) + level
    return x


def _slot(node: EventNode) -> tuple[str, int, str]:
    return node.trip, node.position, node.unit_type


def map_HA_to_HD(g_ha: Hypergraph, values: dict, g_hd: Hypergraph) -> dict:
    """Re-route direct-arc flow along pull-in, parking, pull-out paths.

    Trip, change and deviation flow carries over. Each pull-in, pull-out
    and direct arc puts its flow on HD's pull arcs at the same event nodes
    and files it as depot moves in a :class:`Ledger`; the parking arcs then
    carry the ledger's running depot levels, which hold the all-day
    parking of the HA timeline too.
    """
    if g_ha.variant not in ("HA", "HAbar") or g_hd.variant != "HD":
        raise ValueError("expects an HA or HAbar flow and the HD graph")
    pin_at = {h.base_arcs[0][0]: h.id for h in g_hd.hyperarcs if h.kind == "PullIn"}
    pout_at = {h.base_arcs[0][1]: h.id for h in g_hd.hyperarcs if h.kind == "PullOut"}
    x: dict = {}
    ledger = Ledger(g_ha.instance)
    for h in g_ha.hyperarcs:
        v = values.get(h.id, 0)
        if not v or h.kind == "Parking":
            continue
        if h.kind in ("TripService", "ConnectionChange", "InventoryDeviation"):
            x[h.id] = x.get(h.id, 0) + v
            continue
        src, dst = h.base_arcs[0]  # a PullIn, PullOut or DirectConnection
        pulled_in = [src] if h.kind != "PullOut" else []
        pulled_out = [dst] if h.kind != "PullIn" else []
        for nodes, at in ((pulled_in, pin_at), (pulled_out, pout_at)):
            for node in nodes:
                x[at[node]] = x.get(at[node], 0) + v
        ledger.add(list(map(_slot, pulled_in)), list(map(_slot, pulled_out)), count=v)
    return _park_levels(x, ledger, g_hd)


def map_H_to_h(g_full: Hypergraph, values: dict, g_small: Hypergraph) -> dict:
    """Aggregate flow over all composition-labeled copies: each full hyperarc's
    flow goes to the small hyperarc of the same connection (if any) whose base
    arcs it has once the composition labels are dropped."""
    def strip(node):
        return node._replace(comp="") if isinstance(node, EventNode) else node

    def key(h) -> tuple:
        return (h.tags.get("connection"),
                frozenset((strip(a), strip(b)) for a, b in h.base_arcs))

    target = {key(h): h.id for h in g_small.hyperarcs}
    x: dict = {}
    for h in g_full.hyperarcs:
        v = values.get(h.id, 0)
        if v:
            hid = target[key(h)]
            x[hid] = x.get(hid, 0) + v
    return x


def extend_C_to_HD(cg: CompositionGraph, values: dict, g_hd: Hypergraph) -> dict:
    """Complete a composition-model solution with depot arcs.

    The depot completion exists exactly when the cut constraints hold; the
    per-position pull arcs are forced by the selected arcs, and, as in
    :func:`map_HA_to_HD`, the parking flows are the running inventory levels
    of the depot ledger.
    """
    instance = cg.instance
    x: dict = {}
    ledger = Ledger(instance)
    for a in cg.hyperarcs:
        v = values.get(a.id, 0)
        if not v:
            continue
        x[a.id] = v
        comp_of = {node.trip: node.comp for arc in a.base_arcs for node in arc}
        pulled_in, pulled_out = arc_pulls(instance, a.tags)
        ledger.add(pulled_in, pulled_out, count=v)
        for prefix, positions in (("pin", pulled_in), ("pout", pulled_out)):
            for (t, n, _r) in positions:
                arc = f"{prefix}.{t}.{comp_of[t]}.{n}"
                x[arc] = x.get(arc, 0) + v
    for vid, v in values.items():
        if vid.startswith("dev.") and v:
            x[vid] = v
    return _park_levels(x, ledger, g_hd)


# ---------------------------------------------------------------------------
# feasibility replay of small-variant solutions
# ---------------------------------------------------------------------------

def replay_in_full(instance: Instance, g_small: Hypergraph, values: dict,
                   tol: float = 1e-6) -> tuple[bool, str]:
    """Check whether a small-variant integer solution lifts to the full model.

    The lift gives each trip one of the compositions in its selected trip
    arc's ``sources`` tag, taken from the one walk over trip choices
    (:func:`rollstock.ledger.walk`). A selected merged connection arc
    accepts the lift when its ``sources`` hold the change between the
    assigned compositions: ``build`` merges the changes of a connection by
    their continuing movements, so that is a legal change with exactly the
    arc's movements. Failure certifies an illegal coupling.
    """
    def selected(index: dict) -> dict:
        return {k: g_small.by_id[hid].tags["sources"] for k, hids in index.items()
                for hid in hids if values.get(hid, 0) > 1 - tol}

    compositions = selected(g_small.trip_arcs)
    if len(compositions) != len(instance.trips):
        return False, "not every trip runs exactly one composition"
    merged = selected(g_small.connection_arcs)

    def accepted(conn, chosen) -> list:
        if conn.id not in merged:
            return [None]  # no change selected (connection constraints off)
        key = change_key(conn.id, tuple(chosen[t] for t in conn.predecessors),
                         tuple(chosen[t] for t in conn.successors))
        return [key] if key in merged[conn.id] else []

    for _ in walk(instance, compositions, accepted):
        return True, ""
    return False, ("no composition labeling admits the selected changes; "
                   "the aggregated solution uses an illegal coupling")


# ---------------------------------------------------------------------------
# cost breakdown
# ---------------------------------------------------------------------------

def cost_breakdown(instance: Instance, graph, values: dict,
                   exact: bool = False) -> CostBreakdown:
    """Recompute cost components from the selected movements.

    Composition cost is mileage plus seat shortage of the operated trips;
    coupling cost counts shunt actions (block moves in the full variants,
    the additive per-arc attribution in the small ones); deviation cost
    prices the ending-inventory slack. The total equals the model objective.
    """
    from .solver.simplex import to_fraction

    def num(v):
        return to_fraction(v) if exact else v

    zero = Fraction(0) if exact else 0.0
    comp_cost = zero
    coup_cost = zero
    dev_cost = zero
    rate = num(instance.costs.shunting_per_action)
    dev_rate = num(instance.costs.ending_deviation_per_unit)
    comps = instance.composition_by_id

    items = [(h.id, h.kind, h.tags) for h in graph.hyperarcs]
    if isinstance(graph, CompositionGraph):
        items += [(f"dev.{e.station}.{e.unit_type}.{side}", "InventoryDeviation", {})
                  for e in graph.end_inventories for side in ("surplus", "deficit")]

    small = isinstance(graph, Hypergraph) and graph.level == "h"
    for hid, kind, tags in items:
        v = values.get(hid, 0)
        if not v:
            continue
        if kind in ("TripService", "TripArc"):
            trip = instance.trip_by_id[tags["trip"]]
            if "comp" in tags:
                comp = comps[tags["comp"]]
            else:
                comp = next(comps[p] for p in trip.allowed_compositions
                            if comps[p].units == tags["seq"])
            comp_cost += v * num(instance.trip_cost(trip, comp))
        elif kind in ("ConnectionChange", "CompositionArc"):
            if "actions" in tags:
                coup_cost += v * tags["actions"] * rate
            else:
                conn = instance.connection_by_id[tags["connection"]]
                coup_cost += v * (zero if conn.kind == "OneToOne" else rate)
        elif kind in ("PullIn", "PullOut", "DirectConnection"):
            if small:
                coup_cost += v * num(graph.by_id[hid].cost)
        elif kind == "InventoryDeviation":
            dev_cost += v * dev_rate
    return CostBreakdown(comp_cost, coup_cost, dev_cost)


# ---------------------------------------------------------------------------
# solving helpers
# ---------------------------------------------------------------------------

def build_variant(instance: Instance, variant: str, closure: bool = True,
                  graphs: dict | None = None, changes: dict | None = None):
    """Graph of a variant, 'C' built with no HD graph. A caller that builds
    several variants of one instance passes one ``graphs`` dict, which gets
    each graph by name as it is first built, and ``changes`` from
    ``connection_changes``."""
    name = _closed(variant, closure)
    graphs = {} if graphs is None else graphs
    if name not in graphs:
        graphs[name] = (compose(instance, changes) if name == "C"
                        else build(instance, name, changes))
    return graphs[name]


def _closed(variant: str, closure: bool) -> str:
    """The variant whose graph and model ``variant`` has: hA/HA under the
    closure are hAbar/HAbar."""
    return variant + "bar" if variant in ("hA", "HA") and closure else variant


def _lp_value(sol):
    """Objective of an LP answer; +inf if infeasible, -inf if unbounded."""
    return sol.objective if sol.status == "Optimal" else (
        INFEASIBLE if sol.status == "Infeasible" else -INFEASIBLE)


def _proven(value, sol):
    """``value`` if the solve proved it, None for a node-limit incumbent."""
    return None if sol.status == "NodeLimit" else value


def _verdict(expect: str, lhs, rhs, tol) -> str:
    if lhs is None or rhs is None:
        return "Undecided"  # never judge a relation on an unproven value
    if lhs == INFEASIBLE and rhs == INFEASIBLE:
        return "EqualityHolds"
    if lhs == INFEASIBLE:
        return "InequalityHolds" if expect == "ge" else "VIOLATION"
    if rhs == INFEASIBLE:
        return "VIOLATION" if expect in ("ge", "eq") else "StrictGap"
    diff = lhs - rhs
    scale = 1 + abs(lhs) + abs(rhs)
    equal = abs(diff) <= tol * scale if tol else diff == 0
    if expect == "eq":
        return "EqualityHolds" if equal else "VIOLATION"
    if expect == "ge":  # lhs >= rhs
        if equal:
            return "EqualityHolds"
        return "InequalityHolds" if diff > 0 else "VIOLATION"
    if expect == "le":  # lhs <= rhs
        if equal:
            return "InequalityHolds"
        return "StrictGap" if diff < 0 else "VIOLATION"
    raise ValueError(expect)


def verify_theorem1(values: dict, mp: str, closure: bool = True,
                    exact: bool = False, tol: float = 1e-6) -> list[TheoremVerdict]:
    """Judge the five value relations on the ``mp`` values of the variants'
    models, solved with their connection constraints.

    Relations: a) HA >= HD, b) hA >= hD (both with equality under the
    closure), c) hA <= HA, d) hD <= HD, e) HD = C. A relation with a side
    that no solve proved (``None`` in ``values``) is ``Undecided``.
    """
    v = values
    cmp_tol = 0 if exact else tol
    spec = [
        ("a", "HA", "HD", "eq" if closure else "ge"),
        ("b", "hA", "hD", "eq" if closure else "ge"),
        ("c", "hA", "HA", "le"),
        ("d", "hD", "HD", "le"),
        ("e", "HD", "C", "eq"),
    ]
    out = []
    for rel, lhs_name, rhs_name, expect in spec:
        out.append(TheoremVerdict(
            rel, mp, lhs_name, rhs_name, v[lhs_name], v[rhs_name],
            _verdict(expect, v[lhs_name], v[rhs_name], cmp_tol)))
    return out


# ---------------------------------------------------------------------------
# Corollary: solution-set projection equality
# ---------------------------------------------------------------------------

def _integer_solution_sets(instance: Instance, trip_limit: int = 8,
                           connection_constraints: bool = True):
    """All integer solutions of HAbar / HD / C projected onto the shared
    trip and change coordinates, as three sets of frozensets of arc ids.

    The one walk over trip compositions (:func:`rollstock.ledger.walk`)
    gives every selection; HD and HAbar judge it with the depot ledger, C
    with its cut rows, summed over the selection's arcs by arc id."""
    if len(instance.trips) > trip_limit:
        raise LimitExceeded(f"{len(instance.trips)} trips exceeds projection limit")
    comps = instance.composition_by_id
    per_conn = connection_changes(instance)
    changes = change_index(per_conn)
    depots = {(d.station, d.unit_type): d for d in instance.all_depots()}
    cuts = compose(instance, per_conn).cuts
    column: dict[str, list[tuple[int, int]]] = {}  # (cut row, coefficient) per arc
    for i, cut in enumerate(cuts):
        for aid, n in [*cut.ins, *((aid, -n) for aid, n in cut.outs)]:
            column.setdefault(aid, []).append((i, n))

    def conn_options(conn, chosen) -> list:
        ch = changes[conn.id].get((tuple(chosen[t] for t in conn.predecessors),
                                   tuple(chosen[t] for t in conn.successors)))
        opts = [] if ch is None else [(ch.key, ch.uncoupled, ch.coupled)]
        if not connection_constraints:
            opts.append((None, *through_depot(conn, {
                t: comps[chosen[t]].units for t in (*conn.predecessors, *conn.successors)})))
        return opts

    sets = {"HAbar": set(), "HD": set(), "C": set()}
    trip_options = {t.id: sorted(t.allowed_compositions) for t in instance.trips}
    for chosen, options, _ in walk(instance, trip_options, conn_options):
        units_of = {t: comps[p].units for t, p in chosen.items()}
        trip_arcs = [f"trip.{t}.{p}" for t, p in chosen.items()]
        for pick in itertools.product(*(options[c.id] for c in instance.connections)):
            key = frozenset(trip_arcs + [aid for (aid, _, _) in pick if aid])
            ledger = Ledger.of_selection(instance, units_of,
                                         [(pi, po) for (_, pi, po) in pick])
            if ledger.prefix_ok(depots):
                sets["HD"].add(key)
            if ledger.matching_ok(depots):
                sets["HAbar"].add(key)
            if connection_constraints:
                level = [cut.start for cut in cuts]
                for i, n in itertools.chain(*(column.get(aid, ()) for aid in key)):
                    level[i] += n
                if min(level, default=0) >= 0:
                    sets["C"].add(key)
    return sets


def verify_corollary_projection(instance: Instance, trip_limit: int = 8,
                                connection_constraints: bool = True) -> dict:
    """Compare the projected integer solution sets of HAbar, HD, and C."""
    sets = _integer_solution_sets(instance, trip_limit, connection_constraints)
    report = {
        "n_HAbar": len(sets["HAbar"]),
        "n_HD": len(sets["HD"]),
        "n_C": len(sets["C"]) if connection_constraints else None,
        "HAbar_eq_HD": sets["HAbar"] == sets["HD"],
    }
    if connection_constraints:
        report["HD_eq_C"] = sets["HD"] == sets["C"]
        report["equal"] = report["HAbar_eq_HD"] and report["HD_eq_C"]
    else:
        report["equal"] = report["HAbar_eq_HD"]
    return report


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------

ALL_VARIANTS = ("hD", "hA", "HD", "HA", "C")
SEVEN_VARIANTS = ("hD", "hA", "hAbar", "HD", "HA", "HAbar", "C")


def compare(instance: Instance, variants=ALL_VARIANTS, closure: bool = True,
            connection_constraints: bool = True, exact: bool = False,
            tol: float = 1e-7, node_limit: int = 200000,
            with_timings: bool = True) -> ComparisonReport:
    """Solve the requested variants (LP and IP) and tabulate the outcome.

    Each connection's changes are enumerated once and each distinct graph
    is built once, for this call only, C with no HD graph (not from the HD
    row's). Each distinct model is assembled and solved once, by branch and
    bound; its LP column is the relaxation solved at the root node. Plain
    ``hA``/``HA`` rows follow the ``closure`` flag (and share the model and
    solution of an ``hAbar``/``HAbar`` row under it); explicit ones always
    use the closure. The theorem relations are judged only on models that
    keep their connection constraints: C cannot drop them, and without them
    the full models move units through the depot for free.
    """
    rows = []
    values_lp: dict[str, object] = {}
    values_ip: dict[str, object] = {}
    graphs, solved, changes = {}, {}, None  # kept for this call only
    for variant in variants:
        row = VariantResult(variant=variant)
        started = _time.perf_counter()
        use_closure = closure or variant.endswith("bar")
        try:
            changes = changes or connection_changes(instance)  # fails per row, as build does
            key = _closed(variant, use_closure)
            if key not in solved:
                graph = build_variant(instance, variant, use_closure, graphs, changes)
                model = assemble(graph, ModelOptions(connection_constraints
                                                     or variant == "C"))
                solved[key] = graph, model, solve_ip(model, tol=tol, exact=exact,
                                                     node_limit=node_limit)
            graph, model, ip_sol = solved[key]
            lp_sol = ip_sol.root
            lp_val = _lp_value(lp_sol)
            ip_val = INFEASIBLE if ip_sol.status == "Infeasible" else ip_sol.objective
            row.n_vars, row.n_rows = model.stats()
            row.lp_value, row.ip_value = lp_val, ip_val
            row.lp_status, row.ip_status = lp_sol.status, ip_sol.status
            values_lp[variant] = _proven(lp_val, lp_sol)
            values_ip[variant] = _proven(ip_val, ip_sol)
            if ip_sol.status == "Optimal":
                row.breakdown = cost_breakdown(instance, graph, ip_sol.values,
                                               exact=exact)
                if isinstance(graph, Hypergraph):
                    row.replace_changes = sum(
                        1 for h in graph.hyperarcs
                        if h.kind == "ConnectionChange" and h.tags.get("replace")
                        and ip_sol.values.get(h.id, 0) > 0.5)
                if isinstance(graph, Hypergraph) and graph.level == "h":
                    ok, reason = replay_in_full(instance, graph, ip_sol.values)
                    row.replay_ok, row.replay_reason = ok, reason
        except Exception as e:  # report per-variant failures, keep going
            row.error = f"{type(e).__name__}: {e}"
        row.seconds = _time.perf_counter() - started if with_timings else 0.0
        rows.append(row)

    verdicts: list[TheoremVerdict] = []
    needed = {"hA", "HA", "hD", "HD", "C"}
    if connection_constraints and needed <= set(values_ip):
        verdicts += verify_theorem1(values_lp, "LP", closure, exact)
        verdicts += verify_theorem1(values_ip, "IP", closure, exact)
    return ComparisonReport(instance.name, rows, verdicts, closure,
                            connection_constraints)


def _fmt_val(v) -> str:
    if v is None:
        return "-"
    if v == INFEASIBLE:
        return "infeasible"
    if isinstance(v, Fraction):
        return f"{float(v):.4f}"
    return f"{v:.4f}"


def render_text(report: ComparisonReport, with_timings: bool = True) -> str:
    head = ["variant", "vars", "rows", "LP", "IP", "comp", "coup", "dev",
            "replay"]
    if with_timings:
        head.append("sec")
    lines = [f"instance {report.instance}  closure={report.closure}  "
             f"connection_constraints={report.connection_constraints}"]
    table = [head]
    for r in report.rows:
        if r.error:
            row = [r.variant, "-", "-", r.error, "", "", "", "", ""]
        else:
            bd = r.breakdown
            row = [r.variant, str(r.n_vars), str(r.n_rows),
                   _fmt_val(r.lp_value), _fmt_val(r.ip_value),
                   _fmt_val(bd.composition_cost) if bd else "-",
                   _fmt_val(bd.coupling_cost) if bd else "-",
                   _fmt_val(bd.deviation_cost) if bd else "-",
                   {None: "-", True: "ok", False: "ILLEGAL"}[r.replay_ok]]
        if with_timings:
            row.append(f"{r.seconds:.2f}")
        table.append(row)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if report.verdicts:
        lines.append("")
        lines.append("theorem relations:")
        for v in report.verdicts:
            lines.append(f"  {v.relation}/{v.mp}: {v.lhs_name}={_fmt_val(v.lhs)} "
                         f"{v.rhs_name}={_fmt_val(v.rhs)} -> {v.verdict}")
    return "\n".join(lines) + "\n"


def render_json(report: ComparisonReport, with_timings: bool = True) -> str:
    def num(v):
        if v is None:
            return None
        if v == INFEASIBLE:
            return "infeasible"
        return float(v)

    payload = {
        "instance": report.instance,
        "closure": report.closure,
        "connection_constraints": report.connection_constraints,
        "rows": [
            {
                "variant": r.variant,
                "vars": r.n_vars,
                "rows": r.n_rows,
                "lp": num(r.lp_value),
                "ip": num(r.ip_value),
                "lp_status": r.lp_status,
                "ip_status": r.ip_status,
                "breakdown": {
                    "composition": num(r.breakdown.composition_cost),
                    "coupling": num(r.breakdown.coupling_cost),
                    "deviation": num(r.breakdown.deviation_cost),
                    "total": num(r.breakdown.total),
                } if r.breakdown else None,
                "replay_ok": r.replay_ok,
                "replace_changes": r.replace_changes,
                "error": r.error or None,
                **({"seconds": round(r.seconds, 4)} if with_timings else {}),
            }
            for r in report.rows
        ],
        "verdicts": [
            {"relation": v.relation, "mp": v.mp, "lhs": v.lhs_name,
             "rhs": v.rhs_name, "lhs_value": num(v.lhs),
             "rhs_value": num(v.rhs), "verdict": v.verdict}
            for v in report.verdicts
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# rotation diagram
# ---------------------------------------------------------------------------

def rotation_svg(instance: Instance, graph: Hypergraph, values: dict) -> str:
    """Static time-space diagram of the decomposed unit rotations."""
    int_values = {k: int(round(v)) for k, v in values.items()}
    paths = decompose_paths(graph, int_values)
    stations = instance.stations
    y_of = {s: 40 + 60 * i for i, s in enumerate(stations)}
    t_min = min((t.dep_time for t in instance.trips), default=0)
    t_max = max((t.arr_time for t in instance.trips), default=1)
    span = max(1, t_max - t_min)
    width, height = 900, 40 + 60 * len(stations) + 40

    def x_of(tau):
        return 60 + 780 * (tau - t_min) / span

    colors = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#f39c12", "#16a085"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for s, y in y_of.items():
        parts.append(f'<line x1="50" y1="{y}" x2="870" y2="{y}" '
                     'stroke="#ccc"/>')
        parts.append(f'<text x="8" y="{y + 4}" font-size="12">{s}</text>')
    for k, path in enumerate(paths):
        color = colors[k % len(colors)]
        points = []
        for node in path:
            if isinstance(node, EventNode):
                trip = instance.trip_by_id[node.trip]
                if node.side == "dep":
                    points.append((x_of(trip.dep_time), y_of[trip.dep_station]))
                else:
                    points.append((x_of(trip.arr_time), y_of[trip.arr_station]))
            elif node.role == "mid":
                points.append((x_of(node.time), y_of[node.station]))
        if len(points) >= 2:
            pts = " ".join(f"{x:.1f},{y + 3 * (k % 5) - 6:.1f}" for x, y in points)
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

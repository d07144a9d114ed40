"""Exhaustive ground-truth oracle for tiny instances.

Enumerates every composition choice per trip and every composition change
per connection (merged arcs for the small variants, the option of using no
change when the connection constraints are dropped) depth first, cutting
branches whose trip cost already exceeds the incumbent. Each selection is
judged by the depot ledger (:mod:`rollstock.ledger`): prefix inventory
counts for the depot variants, an explicit unit matching for the direct-arc
variants. The cheapest feasible assignment is the integer optimum of the
corresponding model; branch and bound must reproduce it exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import LimitExceeded
from ..hypergraph import _small_pull_costs, change_index, enumerate_changes, variant_parts
from ..instance import Instance, closure_arcs
from ..ledger import Ledger, through_depot


@dataclass
class OracleResult:
    status: str              # Optimal | Infeasible
    objective: float | None = None
    trip_choices: dict[str, object] | None = None
    change_choices: dict[str, object] | None = None


@dataclass(frozen=True)
class _SmallArc:
    """Merged small-variant connection hyperarc."""

    tails: frozenset  # (trip, pos, type)
    heads: frozenset
    cost: float


def _small_groups(instance: Instance, conn) -> list[_SmallArc]:
    """One merged arc per distinct set of continuing movements."""
    groups = sorted({tuple(sorted(((tp, a, r), (ts, b, r))
                                  for (tp, a, ts, b, r) in ch.continuing))
                     for ch in enumerate_changes(instance, conn)})
    cost = 0.0 if conn.kind == "OneToOne" else instance.costs.shunting_per_action
    return [_SmallArc(frozenset(t for t, _ in pairs), frozenset(h for _, h in pairs), cost)
            for pairs in groups]


def _slots(units: tuple[str, ...]) -> frozenset:
    return frozenset((n, r) for n, r in enumerate(units, start=1))


def enumerate_oracle(instance: Instance, variant: str = "HD",
                     connection_constraints: bool = True,
                     trip_limit: int = 8,
                     combo_limit: int = 2_000_000) -> OracleResult:
    """Exhaustive integer optimum of one model variant.

    ``variant`` is a hypergraph variant name or ``"C"`` (which shares the
    full-depot solution space). Raises :class:`LimitExceeded` on instances
    beyond the enumeration budget.
    """
    if variant == "C":
        level, transfer, closure = "H", "D", False
    else:
        level, transfer, closure = variant_parts(variant)
    small = level == "h"
    if len(instance.trips) > trip_limit:
        raise LimitExceeded(f"{len(instance.trips)} trips exceeds oracle limit "
                            f"{trip_limit}")
    comps = instance.composition_by_id
    trips = list(instance.trips)

    if small:
        trip_options = {
            t.id: sorted({comps[p].units for p in t.allowed_compositions})
            for t in trips}
    else:
        trip_options = {t.id: sorted(t.allowed_compositions) for t in trips}

    combos = 1
    for opts in trip_options.values():
        combos *= len(opts)
    if combos > combo_limit:
        raise LimitExceeded(f"{combos} trip combinations exceed oracle budget")

    # cheapest-first per-trip options make the first DFS leaf a good incumbent
    def option_cost(t, opt):
        if small:
            pid = next(p for p in t.allowed_compositions if comps[p].units == opt)
        else:
            pid = opt
        return instance.trip_cost(t, comps[pid])

    for t in trips:
        trip_options[t.id].sort(key=lambda o, _t=t: (option_cost(_t, o), o))

    changes = change_index(instance)
    conn_small = {c.id: _small_groups(instance, c) for c in instance.connections}
    pin_cost, pout_cost = _small_pull_costs(instance)

    pairs = None  # direct arcs of the closure: any time-feasible pair
    if transfer == "A" and not closure:
        pairs = {spec.key for spec in closure_arcs(instance, "declared")}

    depots = {(d.station, d.unit_type): d for d in instance.all_depots()}
    dev_rate = instance.costs.ending_deviation_per_unit
    shunt_rate = instance.costs.shunting_per_action

    best_obj = None
    best_detail = None

    # depth-first over trips in timetable order: a connection's options are
    # checked the moment its last trip is assigned, and branches whose trip
    # cost already exceeds the incumbent are cut
    order = sorted(trips, key=lambda t: (t.dep_time, t.id))
    pos_of = {t.id: i for i, t in enumerate(order)}
    conns_at: dict[int, list] = {}
    for conn in instance.connections:
        done = max(pos_of[t] for t in (*conn.predecessors, *conn.successors))
        conns_at.setdefault(done, []).append(conn)

    chosen: dict[str, object] = {}
    conn_opts: dict[str, list] = {}
    option_cache: dict[tuple, list] = {}

    def units_for(tid: str):
        return chosen[tid] if small else comps[chosen[tid]].units

    def conn_options_for(conn) -> list:
        """(option, pulled_in, pulled_out, cost) of every way to serve conn,
        computed once per choice of the connection's trip options."""
        key = (conn.id, *(chosen[t] for t in (*conn.predecessors, *conn.successors)))
        if key in option_cache:
            return option_cache[key]
        units_of = {t: units_for(t) for t in (*conn.predecessors, *conn.successors)}
        opts: list = []
        if small:
            slots = {t: _slots(units) for t, units in units_of.items()}
            for arc in conn_small[conn.id]:
                if all((pos, r) in slots[t] for (t, pos, r) in arc.tails) and \
                        all((pos, r) in slots[t] for (t, pos, r) in arc.heads):
                    pulled_in, pulled_out = through_depot(conn, units_of)
                    opts.append((arc, [p for p in pulled_in if p not in arc.tails],
                                 [p for p in pulled_out if p not in arc.heads],
                                 arc.cost))
        else:
            ch = changes[conn.id].get((tuple(chosen[t] for t in conn.predecessors),
                                       tuple(chosen[t] for t in conn.successors)))
            if ch is not None:
                opts.append((ch, ch.uncoupled, ch.coupled, ch.actions * shunt_rate))
        if not connection_constraints:
            # no composition change: everything through the depot
            opts.append((None, *through_depot(conn, units_of), 0.0))
        option_cache[key] = opts
        return opts

    def descend(idx: int, partial_cost: float):
        if best_obj is not None and partial_cost >= best_obj - 1e-12:
            return
        if idx == len(order):
            _evaluate_leaf(partial_cost)
            return
        t = order[idx]
        for opt in trip_options[t.id]:
            chosen[t.id] = opt
            saved = []
            ok = True
            for conn in conns_at.get(idx, []):
                opts = conn_options_for(conn)
                if not opts:
                    ok = False
                    break
                conn_opts[conn.id] = opts
                saved.append(conn.id)
            if ok:
                descend(idx + 1, partial_cost + option_cost(t, opt))
            for cid in saved:
                del conn_opts[cid]
            del chosen[t.id]

    def _evaluate_leaf(trip_cost: float):
        nonlocal best_obj, best_detail
        units_of = {t.id: units_for(t.id) for t in trips}
        option_lists = [conn_opts[c.id] for c in instance.connections]
        option_combos = 1
        for o in option_lists:
            option_combos *= len(o)
        if option_combos > combo_limit:
            raise LimitExceeded("connection option space exceeds oracle budget")

        for pick in itertools.product(*option_lists):
            obj = trip_cost
            for (_, pulled_in, pulled_out, cost) in pick:
                obj += cost
                if small:
                    for p in pulled_in:
                        obj += pin_cost.get(p, 0.0)
                    for p in pulled_out:
                        obj += pout_cost.get(p, 0.0)
            if best_obj is not None and obj >= best_obj:
                continue

            ledger = Ledger.of_selection(instance, units_of,
                                         [(pi, po) for (_, pi, po, _) in pick])
            if not (ledger.prefix_ok(depots) if transfer == "D"
                    else ledger.matching_ok(depots, pairs)):
                continue
            for d in depots.values():
                obj += abs(ledger.end_level(d) - d.target_end_inventory) * dev_rate

            if best_obj is None or obj < best_obj - 1e-12:
                best_obj = obj
                best_detail = (dict(chosen), {c.id: option for c, (option, *_) in
                                              zip(instance.connections, pick)})

    descend(0, 0.0)
    if best_obj is None:
        return OracleResult("Infeasible")
    return OracleResult("Optimal", best_obj, best_detail[0], best_detail[1])

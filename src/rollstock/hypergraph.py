"""Graph-based hypergraphs for the scheduling models.

Four variants are built from an instance:

* ``hD`` / ``HD``: small/full hypergraph with depot timelines,
* ``hA`` / ``HA``: small/full hypergraph with direct connection arcs
  (``hAbar`` / ``HAbar`` use the closure of all feasible direct arcs).

Small variants label event nodes (trip, side, position, unit type); full
variants add the composition, which makes composition changes first-class
and lets costs and feasibility be controlled per change. Each hyperarc is a
set of node-disjoint base arcs; a hyperflow assigns one value per hyperarc
and induces a base flow by summation.

Composition changes are enumerated per connection from the instance's
single-side shunting rules: a change keeps a contiguous block of units (at
the configured ends) and uncouples/couples the complementary blocks, each
block being one shunt action. A connection may restrict the reachable
transitions further via ``allowed_changes``. Depot access itself is liberal:
any arriving unit may pull in and any departing position may be fed by a
pull-out; in the full variants the composition-labeled nodes and the
connection partition make illegal transfers unusable, in the small variants
they are the documented over-relaxation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import DecompositionFailure, InfeasibleInstance, NonConservingInput
from .instance import (
    INITIAL,
    TERMINAL,
    Composition,
    Connection,
    DirectArcSpec,
    Instance,
    closure_arcs,
)
from .ledger import IN, OUT, place, staging

VARIANTS = ("hD", "hA", "HD", "HA", "hAbar", "HAbar")

BOUNDED_KINDS = ("TripService", "ConnectionChange", "PullIn", "PullOut", "DirectConnection")


def variant_parts(variant: str) -> tuple[str, str, bool]:
    """Split a variant name into (level, transfer, closure)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    level = variant[0]          # h | H
    transfer = variant[1]       # D | A
    closure = variant.endswith("bar")
    return level, transfer, closure


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class EventNode:
    """Departure or arrival slot of one unit position on a trip."""

    trip: str
    side: str        # dep | arr
    position: int
    unit_type: str
    comp: str = ""   # composition id; empty in small variants

    def short(self) -> str:
        sign = "+" if self.side == "dep" else "-"
        label = self.comp or self.unit_type
        return f"{self.trip}{sign}:{label}:{self.position}"


@dataclass(frozen=True, order=True)
class DepotNode:
    """Point on a depot timeline, or the per-type deviation hub."""

    station: str
    unit_type: str
    role: str        # initial | mid | terminal | hub
    time: int = 0

    def short(self) -> str:
        if self.role == "mid":
            return f"D[{self.station}:{self.unit_type}@{self.time}]"
        return f"D[{self.station}:{self.unit_type}:{self.role}]"


Node = EventNode | DepotNode
BaseArc = tuple[Node, Node]


# ---------------------------------------------------------------------------
# composition changes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Change:
    """One feasible composition transition at a connection.

    ``continuing`` lists (pred_trip, pred_pos, succ_trip, succ_pos, type) for
    units that stay on the train; ``uncoupled``/``coupled`` list
    (trip, pos, type) for units moved into/out of the depot.
    """

    connection: str
    kind: str
    pre: tuple[str, ...]
    post: tuple[str, ...]
    continuing: tuple[tuple[str, int, str, int, str], ...]
    uncoupled: tuple[tuple[str, int, str], ...]
    coupled: tuple[tuple[str, int, str], ...]
    actions: int

    @property
    def key(self) -> str:
        return f"chg.{self.connection}." + ".".join(self.pre + self.post)

    def is_replace(self) -> bool:
        return bool(self.uncoupled) and bool(self.coupled)


def _match_one_to_one(p1: Composition, p2: Composition, unc_side: str,
                      cpl_side: str) -> tuple[int, list, list, list] | None:
    """Maximal continuing block between two compositions, or None."""
    k, m = len(p1), len(p2)
    for j in range(min(k, m), 0, -1):
        cont1 = p1.units[:j] if unc_side == "rear" else p1.units[k - j:]
        cont2 = p2.units[:j] if cpl_side == "rear" else p2.units[m - j:]
        if cont1 != cont2:
            continue
        pred_pos = list(range(1, j + 1)) if unc_side == "rear" else list(range(k - j + 1, k + 1))
        succ_pos = list(range(1, j + 1)) if cpl_side == "rear" else list(range(m - j + 1, m + 1))
        uncoupled = [n for n in range(1, k + 1) if n not in pred_pos]
        coupled = [n for n in range(1, m + 1) if n not in succ_pos]
        pairs = list(zip(pred_pos, succ_pos))
        return j, pairs, uncoupled, coupled
    return None


def enumerate_changes(instance: Instance, conn: Connection) -> list[Change]:
    """All composition transitions of a connection, in deterministic order."""
    comps = instance.composition_by_id
    out: list[Change] = []

    def allowed(pre: tuple[str, ...], post: tuple[str, ...]) -> bool:
        if conn.allowed_changes is None:
            return True
        return (*pre, *post) in conn.allowed_changes

    if conn.kind == "OneToOne":
        tp, ts = conn.predecessors[0], conn.successors[0]
        for pid1 in instance.trip_by_id[tp].allowed_compositions:
            for pid2 in instance.trip_by_id[ts].allowed_compositions:
                if not allowed((pid1,), (pid2,)):
                    continue
                m = _match_one_to_one(comps[pid1], comps[pid2],
                                      instance.shunt.uncouple_side,
                                      instance.shunt.couple_side)
                if m is None:
                    continue
                _, pairs, unc, cpl = m
                p1, p2 = comps[pid1], comps[pid2]
                out.append(Change(
                    connection=conn.id, kind=conn.kind,
                    pre=(pid1,), post=(pid2,),
                    continuing=tuple((tp, a, ts, b, p1.units[a - 1]) for a, b in pairs),
                    uncoupled=tuple((tp, n, p1.units[n - 1]) for n in unc),
                    coupled=tuple((ts, n, p2.units[n - 1]) for n in cpl),
                    actions=(1 if unc else 0) + (1 if cpl else 0),
                ))
    elif conn.kind == "OneToTwo":
        tp = conn.predecessors[0]
        s0, s1 = conn.successors
        for pid in instance.trip_by_id[tp].allowed_compositions:
            p = comps[pid]
            for q0 in instance.trip_by_id[s0].allowed_compositions:
                for q1 in instance.trip_by_id[s1].allowed_compositions:
                    if comps[q0].units + comps[q1].units != p.units:
                        continue
                    if not allowed((pid,), (q0, q1)):
                        continue
                    s = len(comps[q0])
                    cont = [(tp, n, s0, n, p.units[n - 1]) for n in range(1, s + 1)]
                    cont += [(tp, n, s1, n - s, p.units[n - 1])
                             for n in range(s + 1, len(p) + 1)]
                    out.append(Change(conn.id, conn.kind, (pid,), (q0, q1),
                                      tuple(cont), (), (), actions=1))
    elif conn.kind == "TwoToOne":
        t0, t1 = conn.predecessors
        ts = conn.successors[0]
        for p0 in instance.trip_by_id[t0].allowed_compositions:
            for p1 in instance.trip_by_id[t1].allowed_compositions:
                for q in instance.trip_by_id[ts].allowed_compositions:
                    if comps[p0].units + comps[p1].units != comps[q].units:
                        continue
                    if not allowed((p0, p1), (q,)):
                        continue
                    s = len(comps[p0])
                    cont = [(t0, n, ts, n, comps[p0].units[n - 1])
                            for n in range(1, s + 1)]
                    cont += [(t1, n, ts, s + n, comps[p1].units[n - 1])
                             for n in range(1, len(comps[p1]) + 1)]
                    out.append(Change(conn.id, conn.kind, (p0, p1), (q,),
                                      tuple(cont), (), (), actions=1))
    else:
        raise ValueError(f"unknown connection kind {conn.kind}")

    out.sort(key=lambda ch: ch.key)
    return out


def change_index(instance: Instance) -> dict[str, dict[tuple, Change]]:
    """Changes of every connection keyed by their (pre, post) compositions."""
    return {c.id: {(ch.pre, ch.post): ch for ch in enumerate_changes(instance, c)}
            for c in instance.connections}


def block_head(positions, shunt_side: str) -> int | None:
    """Position that carries the shunt action of an uncoupled or coupled
    block ``(trip, position, unit_type)``, if the block is not empty."""
    if not positions:
        return None
    ns = [n for (_, n, _) in positions]
    return min(ns) if shunt_side == "rear" else max(ns)


# ---------------------------------------------------------------------------
# hyperarcs and hypergraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperarc:
    """A set of node-disjoint base arcs moved together."""

    id: str
    kind: str
    base_arcs: tuple[BaseArc, ...]
    cost: float
    upper: int | None  # 1 or None (unbounded)
    tags: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        nodes: set[Node] = set()
        for tail, head in self.base_arcs:
            if tail in nodes or head in nodes or tail == head:
                raise ValueError(f"hyperarc {self.id}: base arcs are not node-disjoint")
            nodes.add(tail)
            nodes.add(head)


@dataclass
class Hypergraph:
    """Built model graph for one variant, with index maps and balances."""

    variant: str
    instance: Instance
    nodes: list[Node]
    hyperarcs: list[Hyperarc]
    balances: dict[Node, int]
    trip_arcs: dict[str, list[str]]        # H_t
    connection_arcs: dict[str, list[str]]  # H_c
    parking_arcs: list[str]                # H_D
    by_id: dict[str, Hyperarc] = field(default_factory=dict)

    def __post_init__(self):
        self.by_id = {h.id: h for h in self.hyperarcs}
        if len(self.by_id) != len(self.hyperarcs):
            raise ValueError("duplicate hyperarc ids")
        per_type: dict[str, int] = {}
        for node, b in self.balances.items():
            per_type[node.unit_type] = per_type.get(node.unit_type, 0) + b
        for r, total in per_type.items():
            if total != 0:
                raise ValueError(f"balances of type {r} sum to {total}, not 0")

    @property
    def level(self) -> str:
        return variant_parts(self.variant)[0]

    def incident(self) -> tuple[dict[Node, list[str]], dict[Node, list[str]]]:
        """(outgoing, incoming) hyperarc ids per node."""
        outgoing: dict[Node, list[str]] = {v: [] for v in self.nodes}
        incoming: dict[Node, list[str]] = {v: [] for v in self.nodes}
        for h in self.hyperarcs:
            for tail, head in h.base_arcs:
                outgoing[tail].append(h.id)
                incoming[head].append(h.id)
        return outgoing, incoming

    def dump(self) -> str:
        """Line-oriented text form: `id kind cost ub arcs tags`."""
        lines = []
        for h in sorted(self.hyperarcs, key=lambda a: a.id):
            arcs = ",".join(f"{t.short()}>{u.short()}" for t, u in h.base_arcs)
            ub = "inf" if h.upper is None else str(h.upper)
            tags = ";".join(f"{k}={_tag_str(v)}" for k, v in sorted(h.tags.items()))
            lines.append(f"{h.id} {h.kind} {h.cost:g} {ub} {arcs} {tags}".rstrip())
        return "\n".join(lines) + "\n"


def _tag_str(v) -> str:
    if isinstance(v, (tuple, list)):
        return "|".join(str(x) for x in v)
    return str(v)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _trip_type_slots(instance: Instance, trip_id: str) -> list[tuple[int, str]]:
    """Distinct (position, unit type) pairs over the trip's allowed comps."""
    comps = instance.composition_by_id
    slots: set[tuple[int, str]] = set()
    for pid in instance.trip_by_id[trip_id].allowed_compositions:
        for n, r in enumerate(comps[pid].units, start=1):
            slots.add((n, r))
    return sorted(slots)


def _small_pull_costs(instance: Instance) -> tuple[dict, dict]:
    """Additive coupling costs for the small variants.

    The true shunt cost of a change cannot sit on merged change arcs, so it
    is attributed to the pull-in/pull-out arc of the block head, and each
    arc gets the minimum over its uses: the conservative underestimate.
    Returns ({(trip, pos, type): cost}, ...) for pull-ins and pull-outs.
    """
    rate = instance.costs.shunting_per_action
    pin: dict[tuple[str, int, str], float] = {}
    pout: dict[tuple[str, int, str], float] = {}
    for conn in instance.connections:
        for change in enumerate_changes(instance, conn):
            head_in = block_head(change.uncoupled, instance.shunt.uncouple_side)
            for (t, n, r) in change.uncoupled:
                cost = rate if n == head_in else 0.0
                key = (t, n, r)
                pin[key] = min(pin.get(key, cost), cost)
            head_out = block_head(change.coupled, instance.shunt.couple_side)
            for (t, n, r) in change.coupled:
                cost = rate if n == head_out else 0.0
                key = (t, n, r)
                pout[key] = min(pout.get(key, cost), cost)
    return pin, pout


def _staging_tags(instance: Instance, trip_id: str, comp: Composition) -> dict:
    """Depot moves implied by running a trip with no predecessor/successor."""
    trip = instance.trip_by_id[trip_id]
    pulled_in, pulled_out = staging(instance, trip_id, comp.units)
    tags: dict = {}
    for name, direction, positions in (("stage_out", OUT, pulled_out),
                                       ("stage_in", IN, pulled_in)):
        if positions:
            station, time = place(trip, direction)
            tags[name] = tuple(sorted((station, r, time) for (_, _, r) in positions))
    return tags


def build(instance: Instance, variant: str) -> Hypergraph:
    """Construct the hypergraph of one model variant."""
    level, transfer, closure = variant_parts(variant)
    comps = instance.composition_by_id
    trips = instance.trip_by_id
    for t in instance.trips:
        if not t.allowed_compositions:
            raise InfeasibleInstance(f"trip {t.id} allows no composition")

    full = level == "H"
    hyperarcs: list[Hyperarc] = []
    trip_index: dict[str, list[str]] = {t.id: [] for t in instance.trips}
    conn_index: dict[str, list[str]] = {c.id: [] for c in instance.connections}
    parking: list[str] = []

    def ev(trip_id: str, side: str, pos: int, r: str, comp_id: str) -> EventNode:
        return EventNode(trip_id, side, pos, r, comp_id if full else "")

    # trip service hyperarcs -------------------------------------------------
    trip_sources: dict[str, list[str]] = {}
    for t in instance.trips:
        if full:
            for pid in t.allowed_compositions:
                p = comps[pid]
                arcs = tuple((ev(t.id, "dep", n, p.units[n - 1], pid),
                              ev(t.id, "arr", n, p.units[n - 1], pid))
                             for n in range(1, len(p) + 1))
                tags = {"trip": t.id, "comp": pid, "seq": p.units}
                tags.update(_staging_tags(instance, t.id, p))
                hid = f"trip.{t.id}.{pid}"
                hyperarcs.append(Hyperarc(hid, "TripService", arcs,
                                          instance.trip_cost(t, p), 1, tags))
                trip_index[t.id].append(hid)
        else:
            by_seq: dict[tuple[str, ...], list[str]] = {}
            for pid in t.allowed_compositions:
                by_seq.setdefault(comps[pid].units, []).append(pid)
            for seq in sorted(by_seq):
                pids = sorted(by_seq[seq])
                p = comps[pids[0]]
                arcs = tuple((ev(t.id, "dep", n, seq[n - 1], ""),
                              ev(t.id, "arr", n, seq[n - 1], ""))
                             for n in range(1, len(seq) + 1))
                tags = {"trip": t.id, "sources": tuple(pids), "seq": seq}
                tags.update(_staging_tags(instance, t.id, p))
                hid = f"trip.{t.id}." + "_".join(seq)
                hyperarcs.append(Hyperarc(hid, "TripService", arcs,
                                          instance.trip_cost(t, p), 1, tags))
                trip_index[t.id].append(hid)
                trip_sources[hid] = pids

    # connection change hyperarcs --------------------------------------------
    shunt_rate = instance.costs.shunting_per_action
    for conn in instance.connections:
        changes = enumerate_changes(instance, conn)
        if full:
            for change in changes:
                pre_of = dict(zip(conn.predecessors, change.pre))
                post_of = dict(zip(conn.successors, change.post))
                arcs = tuple(
                    (ev(tp, "arr", a, r, pre_of[tp]), ev(ts, "dep", b, r, post_of[ts]))
                    for (tp, a, ts, b, r) in change.continuing)
                tags = {"connection": conn.id, "pre": change.pre, "post": change.post,
                        "uncoupled": change.uncoupled, "coupled": change.coupled,
                        "actions": change.actions, "replace": change.is_replace()}
                hyperarcs.append(Hyperarc(change.key, "ConnectionChange", arcs,
                                          change.actions * shunt_rate, 1, tags))
                conn_index[conn.id].append(change.key)
        else:
            merged: dict[tuple, list[Change]] = {}
            for change in changes:
                proj = tuple(sorted(
                    (ev(tp, "arr", a, r, ""), ev(ts, "dep", b, r, ""))
                    for (tp, a, ts, b, r) in change.continuing))
                merged.setdefault(proj, []).append(change)
            for idx, proj in enumerate(sorted(merged)):
                group = merged[proj]
                cost = 0.0 if conn.kind == "OneToOne" else shunt_rate
                tags = {"connection": conn.id,
                        "sources": tuple(ch.key for ch in group),
                        "replace": any(ch.is_replace() for ch in group)}
                hid = f"chg.{conn.id}.m{idx}"
                hyperarcs.append(Hyperarc(hid, "ConnectionChange", proj, cost, 1, tags))
                conn_index[conn.id].append(hid)

    # depot access ------------------------------------------------------------
    pin_cost, pout_cost = ({}, {}) if full else _small_pull_costs(instance)

    @functools.cache
    def pull_nodes(t: str, direction: str) -> list[tuple[EventNode, str]]:
        """Nodes of a trip that may pull in (arrival) or out (departure), with arc ids."""
        side, prefix = ("arr", "pin") if direction == IN else ("dep", "pout")
        if full:
            return [(ev(t, side, n, r, pid), f"{prefix}.{t}.{pid}.{n}")
                    for pid in trips[t].allowed_compositions
                    for n, r in enumerate(comps[pid].units, start=1)]
        return [(ev(t, side, n, r, ""), f"{prefix}.{t}.{n}.{r}")
                for (n, r) in _trip_type_slots(instance, t)]

    def pull_cost(node: EventNode, direction: str) -> float:
        costs, connection = ((pin_cost, instance.successor_connection) if direction == IN
                             else (pout_cost, instance.predecessor_connection))
        if full or connection(node.trip) is None:
            return 0.0
        return costs.get((node.trip, node.position, node.unit_type), 0.0)

    balances: dict[Node, int] = {}
    depots = instance.all_depots()
    per_type_delta: dict[str, int] = {u.id: 0 for u in instance.unit_types}
    for d in depots:
        per_type_delta[d.unit_type] += d.target_end_inventory - d.start_inventory

    hubs: dict[str, DepotNode] = {}
    for u in instance.unit_types:
        hub = DepotNode("", u.id, "hub")
        hubs[u.id] = hub
        balances[hub] = per_type_delta[u.id]

    if transfer == "D":
        for d in depots:
            initial = DepotNode(d.station, d.unit_type, "initial")
            terminal = DepotNode(d.station, d.unit_type, "terminal")
            balances[initial] = d.start_inventory
            balances[terminal] = -d.target_end_inventory
            times: set[int] = set()
            pulls: dict[str, list] = {IN: [], OUT: []}
            for t in instance.trips:
                for direction in (IN, OUT):
                    station, tau = place(t, direction)
                    if station != d.station:
                        continue
                    for node, hid in pull_nodes(t.id, direction):
                        if node.unit_type == d.unit_type:
                            pulls[direction].append((node, hid, tau))
                            times.add(tau)
            timeline = [initial] + [DepotNode(d.station, d.unit_type, "mid", tau)
                                    for tau in sorted(times)] + [terminal]
            for i in range(len(timeline) - 1):
                hid = f"park.{d.station}.{d.unit_type}.{i}"
                hyperarcs.append(Hyperarc(hid, "Parking",
                                          ((timeline[i], timeline[i + 1]),), 0.0, None,
                                          {"station": d.station, "unit_type": d.unit_type}))
                parking.append(hid)
            at_time = {n.time: n for n in timeline[1:-1]}
            for direction, kind in ((IN, "PullIn"), (OUT, "PullOut")):
                for node, hid, tau in sorted(pulls[direction], key=lambda x: x[1]):
                    arc = (node, at_time[tau]) if direction == IN else (at_time[tau], node)
                    hyperarcs.append(Hyperarc(hid, kind, (arc,), pull_cost(node, direction),
                                              1, {"station": d.station, "time": tau}))
            _deviation_arcs(hyperarcs, d, terminal, hubs[d.unit_type], instance)
    else:
        specs = closure_arcs(instance, "closure" if closure else "declared")
        initial_of: dict[tuple[str, str], DepotNode] = {}
        terminal_of: dict[tuple[str, str], DepotNode] = {}
        for d in depots:
            initial = DepotNode(d.station, d.unit_type, "initial")
            terminal = DepotNode(d.station, d.unit_type, "terminal")
            initial_of[(d.station, d.unit_type)] = initial
            terminal_of[(d.station, d.unit_type)] = terminal
            balances[initial] = d.start_inventory
            balances[terminal] = -d.target_end_inventory
            hid = f"park.{d.station}.{d.unit_type}.0"
            hyperarcs.append(Hyperarc(hid, "Parking", ((initial, terminal),), 0.0, None,
                                      {"station": d.station, "unit_type": d.unit_type}))
            parking.append(hid)
            _deviation_arcs(hyperarcs, d, terminal, hubs[d.unit_type], instance)

        seen_pull: set[str] = set()
        for spec in specs:
            if spec.source == INITIAL:
                src = [(initial_of[(spec.station, spec.unit_type)], None)]
            else:
                src = [(node, hid) for node, hid in pull_nodes(spec.source, IN)
                       if node.unit_type == spec.unit_type]
            if spec.target == TERMINAL:
                dst = [(terminal_of[(spec.station, spec.unit_type)], None)]
            else:
                dst = [(node, hid) for node, hid in pull_nodes(spec.target, OUT)
                       if node.unit_type == spec.unit_type]
            for s_node, s_hid in src:
                for d_node, d_hid in dst:
                    if spec.source == INITIAL and spec.target == TERMINAL:
                        continue
                    if spec.source == INITIAL:
                        if d_hid in seen_pull:
                            continue
                        seen_pull.add(d_hid)
                        hyperarcs.append(Hyperarc(d_hid, "PullOut", ((s_node, d_node),),
                                                  pull_cost(d_node, OUT), 1,
                                                  {"station": spec.station,
                                                   "time": spec.pull_out_time}))
                    elif spec.target == TERMINAL:
                        if s_hid in seen_pull:
                            continue
                        seen_pull.add(s_hid)
                        hyperarcs.append(Hyperarc(s_hid, "PullIn", ((s_node, d_node),),
                                                  pull_cost(s_node, IN), 1,
                                                  {"station": spec.station,
                                                   "time": spec.pull_in_time}))
                    else:
                        hid = (f"dca.{spec.unit_type}.{s_node.trip}."
                               f"{(s_node.comp + '.') if s_node.comp else ''}{s_node.position}"
                               f".{d_node.trip}."
                               f"{(d_node.comp + '.') if d_node.comp else ''}{d_node.position}")
                        cost = pull_cost(s_node, IN) + pull_cost(d_node, OUT)
                        hyperarcs.append(Hyperarc(hid, "DirectConnection",
                                                  ((s_node, d_node),), cost, 1,
                                                  {"station": spec.station,
                                                   "unit_type": spec.unit_type,
                                                   "pull_in_time": spec.pull_in_time,
                                                   "pull_out_time": spec.pull_out_time,
                                                   "source": spec.source,
                                                   "target": spec.target}))

    nodes: dict[Node, None] = {}
    for h in hyperarcs:
        for tail, head in h.base_arcs:
            nodes.setdefault(tail)
            nodes.setdefault(head)
    for v in balances:
        nodes.setdefault(v)

    return Hypergraph(
        variant=variant,
        instance=instance,
        nodes=sorted(nodes, key=_node_sort_key),
        hyperarcs=hyperarcs,
        balances={v: b for v, b in balances.items()},
        trip_arcs=trip_index,
        connection_arcs=conn_index,
        parking_arcs=parking,
    )


def _deviation_arcs(hyperarcs: list[Hyperarc], depot, terminal: DepotNode,
                    hub: DepotNode, instance: Instance) -> None:
    rate = instance.costs.ending_deviation_per_unit
    hyperarcs.append(Hyperarc(f"dev.{depot.station}.{depot.unit_type}.surplus",
                              "InventoryDeviation", ((terminal, hub),), rate, None,
                              {"station": depot.station, "unit_type": depot.unit_type}))
    hyperarcs.append(Hyperarc(f"dev.{depot.station}.{depot.unit_type}.deficit",
                              "InventoryDeviation", ((hub, terminal),), rate, None,
                              {"station": depot.station, "unit_type": depot.unit_type}))


def _node_sort_key(v: Node):
    if isinstance(v, EventNode):
        return (0, v.trip, v.side, v.comp, v.position, v.unit_type)
    return (1, v.station, v.unit_type, v.role, v.time)


def node_key(v: Node) -> str:
    """Dot-separated node label, safe for LP row names."""
    if isinstance(v, EventNode):
        return f"{v.trip}.{v.side}.{v.comp or v.unit_type}.{v.position}"
    if v.role == "hub":
        return f"hub.{v.unit_type}"
    return f"{v.station}.{v.unit_type}.{v.role}.{v.time}"


# ---------------------------------------------------------------------------
# hyperflow semantics
# ---------------------------------------------------------------------------

def conservation_residuals(g: Hypergraph, x: dict[str, float]) -> dict[Node, float]:
    """out - in - balance per node; all zero for a conserving hyperflow."""
    res: dict[Node, float] = {v: -g.balances.get(v, 0) for v in g.nodes}
    for h in g.hyperarcs:
        v = x.get(h.id, 0)
        if not v:
            continue
        for tail, head in h.base_arcs:
            res[tail] += v
            res[head] -= v
    return res


def assert_conserving(g: Hypergraph, x: dict[str, float], tol: float = 1e-9) -> None:
    for node, r in conservation_residuals(g, x).items():
        if abs(r) > tol:
            raise NonConservingInput(f"residual {r} at node {node.short()}")


def project_base_flow(g: Hypergraph, x: dict[str, float],
                      tol: float = 1e-9) -> dict[BaseArc, float]:
    """Expand a hyperflow into the base-arc flow x'_a = sum over h containing a."""
    assert_conserving(g, x, tol)
    flow: dict[BaseArc, float] = {}
    for h in g.hyperarcs:
        v = x.get(h.id, 0)
        if not v:
            continue
        for arc in h.base_arcs:
            flow[arc] = flow.get(arc, 0) + v
    return flow


def decompose_paths(g: Hypergraph, x: dict[str, int]) -> list[list[Node]]:
    """Split an integer conserving hyperflow into per-unit paths.

    Every path runs from a positive-balance node (start inventory or the
    deviation hub) to a negative-balance node. The multiset of path arcs
    reproduces the projected base flow exactly.
    """
    for hid, v in x.items():
        if v != int(v) or v < 0:
            raise DecompositionFailure(f"{hid}={v} is not a nonnegative integer")
    flow = {arc: int(v) for arc, v in project_base_flow(g, x).items() if v}
    supply: dict[Node, int] = {v: b for v, b in g.balances.items() if b > 0}
    demand: dict[Node, int] = {v: -b for v, b in g.balances.items() if b < 0}
    out_arcs: dict[Node, list[BaseArc]] = {}
    for arc in sorted(flow, key=lambda a: (_node_sort_key(a[0]), _node_sort_key(a[1]))):
        out_arcs.setdefault(arc[0], []).append(arc)

    paths: list[list[Node]] = []
    for source in sorted(supply, key=_node_sort_key):
        while supply[source] > 0:
            node = source
            path = [node]
            while demand.get(node, 0) == 0:
                arc = next((a for a in out_arcs.get(node, []) if flow.get(a, 0) > 0), None)
                if arc is None:
                    raise DecompositionFailure(f"stuck at {node.short()}")
                flow[arc] -= 1
                node = arc[1]
                path.append(node)
            demand[node] -= 1
            supply[source] -= 1
            paths.append(path)
    if any(flow.values()):
        raise DecompositionFailure("leftover flow after path extraction")
    return paths


def flow_cost(g: Hypergraph, x: dict[str, float]):
    return sum(g.by_id[hid].cost * v for hid, v in x.items() if hid in g.by_id and v)

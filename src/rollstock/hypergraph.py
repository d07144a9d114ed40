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

Composition changes follow one rule for every connection kind: a change
picks one allowed composition for each trip of the connection. At a 1-to-1
connection the longest block of units at the configured shunting ends
continues and the complementary blocks are uncoupled and coupled, each
nonempty block being one shunt action; at a split or a join every unit
continues, in order, and the change is one action. A connection may restrict
the reachable transitions further via ``allowed_changes``. Every depot follows
one rule in all six variants: a timeline of parking arcs, and a pull arc for
each possible pull move that lands on (or leaves) the timeline node at its
time. Under direct transfers the timeline has no inner nodes, so one parking
arc spans the day, a pull-in lands on the terminal node and a pull-out
leaves the initial one; a direct arc joins an arrival to a later departure
at the same station and stands for the pull-in, parking, pull-out path it
shortcuts. Depot access itself is liberal:
any arriving unit may pull in and any departing position may be fed by a
pull-out; in the full variants the composition-labeled nodes and the
connection partition make illegal transfers unusable, in the small variants
they are the documented over-relaxation.

The records (nodes, changes, hyperarcs) are ``NamedTuple``s, hashed, compared
and ordered in C; a record equals the plain tuple of its fields.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .errors import DecompositionFailure, InfeasibleInstance, NonConservingInput
from .instance import Composition, Connection, Instance, closure_arcs
from .ledger import IN, OUT, place, staging

VARIANTS = ("hD", "hA", "HD", "HA", "hAbar", "HAbar")


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

class EventNode(NamedTuple):
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


class DepotNode(NamedTuple):
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

class Change(NamedTuple):
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
        return change_key(self.connection, self.pre, self.post)

    def is_replace(self) -> bool:
        return bool(self.uncoupled) and bool(self.coupled)


def change_key(connection: str, pre: tuple[str, ...], post: tuple[str, ...]) -> str:
    """Id of the change that runs ``pre`` before and ``post`` after a connection."""
    return f"chg.{connection}." + ".".join(pre + post)


def _match_one_to_one(before: tuple[str, ...], after: tuple[str, ...], unc_side: str,
                      cpl_side: str) -> tuple[int, int, int] | None:
    """Longest block of units that continues from ``before`` into ``after``,
    as (offset in ``before``, offset in ``after``, length), or None."""
    k, m = len(before), len(after)
    for j in range(min(k, m), 0, -1):
        a = 0 if unc_side == "rear" else k - j
        b = 0 if cpl_side == "rear" else m - j
        if before[a:a + j] == after[b:b + j]:
            return a, b, j
    return None


def enumerate_changes(instance: Instance, conn: Connection) -> list[Change]:
    """All composition changes of a connection, sorted by key.

    A change picks one allowed composition for each trip of the connection,
    predecessors first, and ``allowed_changes`` may exclude the pick. At a
    1-to-1 connection the longest block at the shunting ends continues, the
    rest of each composition is uncoupled or coupled, and each nonempty block
    costs one action. At a split or a join every unit continues: both sides
    run the same unit sequence, position i of one side meets position i of
    the other, and the change costs one action.
    """
    if conn.kind not in ("OneToOne", "OneToTwo", "TwoToOne"):
        raise ValueError(f"unknown connection kind {conn.kind}")
    comps = instance.composition_by_id

    def ways(side: tuple[str, ...]) -> list[tuple[tuple[str, ...], tuple, tuple]]:
        """(composition per trip, unit sequence, (trip, position, type) slots)
        of each way to run one side, front to rear."""
        out = []
        for pick in itertools.product(*(instance.trip_by_id[t].allowed_compositions
                                        for t in side)):
            slots = tuple((t, n, r) for t, pid in zip(side, pick)
                          for n, r in enumerate(comps[pid].units, start=1))
            out.append((pick, tuple(r for _, _, r in slots), slots))
        return out

    changes: list[Change] = []
    for (pre, before, tails), (post, after, heads) in itertools.product(
            ways(conn.predecessors), ways(conn.successors)):
        if conn.allowed_changes is not None and pre + post not in conn.allowed_changes:
            continue
        if conn.kind == "OneToOne":
            block = _match_one_to_one(before, after, instance.shunting.uncouple_side,
                                      instance.shunting.couple_side)
        else:
            block = (0, 0, len(before)) if before == after else None
        if block is None:
            continue
        a, b, j = block
        uncoupled, coupled = tails[:a] + tails[a + j:], heads[:b] + heads[b + j:]
        changes.append(Change(
            conn.id, conn.kind, pre, post,
            continuing=tuple((tp, na, ts, nb, r) for (tp, na, r), (ts, nb, _)
                             in zip(tails[a:a + j], heads[b:b + j])),
            uncoupled=uncoupled, coupled=coupled,
            actions=bool(uncoupled) + bool(coupled) if conn.kind == "OneToOne" else 1))
    changes.sort(key=lambda ch: ch.key)
    return changes


def connection_changes(instance: Instance) -> dict[str, list[Change]]:
    """The changes of every connection by id, to enumerate them only once."""
    return {c.id: enumerate_changes(instance, c) for c in instance.connections}


def change_index(changes: dict[str, list[Change]]) -> dict[str, dict[tuple, Change]]:
    """``connection_changes`` keyed by their (pre, post) compositions."""
    return {cid: {(ch.pre, ch.post): ch for ch in chs} for cid, chs in changes.items()}


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

class Hyperarc(NamedTuple):
    """A set of node-disjoint base arcs moved together, as ``Hypergraph``
    checks. A composition graph's split and join arcs share a node and are
    not checked. ``tags`` takes part in equality and makes a hyperarc
    unhashable."""

    id: str
    kind: str
    base_arcs: tuple[BaseArc, ...]
    cost: float
    upper: int | None  # 1 or None (unbounded)
    tags: dict = MappingProxyType({})  # read-only when omitted


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
    by_id: dict[str, Hyperarc] = field(default_factory=dict)

    def __post_init__(self):
        self.by_id = {h.id: h for h in self.hyperarcs}
        if len(self.by_id) != len(self.hyperarcs):
            raise ValueError("duplicate hyperarc ids")
        for h in self.hyperarcs:  # 2k distinct nodes, so no loop and no shared node
            if len({v for arc in h.base_arcs for v in arc}) != 2 * len(h.base_arcs):
                raise ValueError(f"hyperarc {h.id}: base arcs are not node-disjoint")
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


def _small_pull_costs(instance: Instance, changes: dict) -> tuple[dict, dict]:
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
        for change in changes[conn.id]:
            head_in = block_head(change.uncoupled, instance.shunting.uncouple_side)
            for (t, n, r) in change.uncoupled:
                cost = rate if n == head_in else 0.0
                key = (t, n, r)
                pin[key] = min(pin.get(key, cost), cost)
            head_out = block_head(change.coupled, instance.shunting.couple_side)
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


def build(instance: Instance, variant: str, changes: dict | None = None) -> Hypergraph:
    """Construct the hypergraph of one model variant; ``changes``, from
    ``connection_changes``, saves enumerating them again."""
    level, transfer, closure = variant_parts(variant)
    comps = instance.composition_by_id
    trips = instance.trip_by_id
    for t in instance.trips:
        if not t.allowed_compositions:
            raise InfeasibleInstance(f"trip {t.id} allows no composition")
    changes = changes or connection_changes(instance)

    full = level == "H"
    hyperarcs: list[Hyperarc] = []
    trip_index: dict[str, list[str]] = {t.id: [] for t in instance.trips}
    conn_index: dict[str, list[str]] = {c.id: [] for c in instance.connections}

    @functools.cache  # one object per node, so equal lookups match by identity
    def ev(trip_id: str, side: str, pos: int, r: str, comp_id: str) -> EventNode:
        return EventNode(trip_id, side, pos, r, comp_id if full else "")

    # trip service hyperarcs: one per allowed composition in the full
    # variants, one per distinct unit sequence in the small ones
    for t in instance.trips:
        groups: dict = {}
        for pid in t.allowed_compositions:
            groups.setdefault(pid if full else comps[pid].units, []).append(pid)
        for key in (groups if full else sorted(groups)):
            pids = sorted(groups[key])
            p = comps[pids[0]]
            arcs = tuple((ev(t.id, "dep", n, r, p.id), ev(t.id, "arr", n, r, p.id))
                         for n, r in enumerate(p.units, start=1))
            tags = {"trip": t.id, **({"comp": p.id} if full else {"sources": tuple(pids)}),
                    "seq": p.units, **_staging_tags(instance, t.id, p)}
            hid = f"trip.{t.id}." + (p.id if full else "_".join(p.units))
            hyperarcs.append(Hyperarc(hid, "TripService", arcs,
                                      instance.trip_cost(t, p), 1, tags))
            trip_index[t.id].append(hid)

    # connection change hyperarcs --------------------------------------------
    shunt_rate = instance.costs.shunting_per_action
    for conn in instance.connections:
        if full:
            for change in changes[conn.id]:
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
            for change in changes[conn.id]:
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
    pin_cost, pout_cost = ({}, {}) if full else _small_pull_costs(instance, changes)

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

    # depots, one rule for every variant: initial and terminal nodes, a
    # timeline of parking arcs through the times of the depot's pull moves,
    # the pull arcs, and a surplus and a deficit arc to the type's hub. Under
    # direct transfers the timeline has no inner nodes, so a pull-in lands on
    # the terminal node and a pull-out leaves the initial one.
    moves: dict[tuple[str, str], list] = {}
    for t in instance.trips:
        for direction in (IN, OUT):
            station, tau = place(t, direction)
            for node, hid in pull_nodes(t.id, direction):
                moves.setdefault((station, node.unit_type), []).append(
                    (hid, direction, node, tau))
    hubs = {u.id: DepotNode("", u.id, "hub") for u in instance.unit_types}
    balances: dict[Node, int] = dict.fromkeys(hubs.values(), 0)
    rate = instance.costs.ending_deviation_per_unit
    for d in instance.all_depots():
        key = (d.station, d.unit_type)
        initial, terminal = DepotNode(*key, "initial"), DepotNode(*key, "terminal")
        hub = hubs[d.unit_type]
        balances[initial] = d.start_inventory
        balances[terminal] = -d.target_end_inventory
        balances[hub] += d.target_end_inventory - d.start_inventory
        inner = sorted({m[3] for m in moves.get(key, ())}) if transfer == "D" else ()
        at_time = {tau: DepotNode(*key, "mid", tau) for tau in inner}
        timeline = [initial, *at_time.values(), terminal]
        for i in range(len(timeline) - 1):
            hyperarcs.append(Hyperarc(f"park.{d.station}.{d.unit_type}.{i}", "Parking",
                                      ((timeline[i], timeline[i + 1]),), 0.0, None,
                                      {"station": d.station, "unit_type": d.unit_type}))
        for hid, direction, node, tau in sorted(moves.get(key, ()), key=lambda m: m[0]):
            arc = ((node, at_time.get(tau, terminal)) if direction == IN
                   else (at_time.get(tau, initial), node))
            hyperarcs.append(Hyperarc(hid, "PullIn" if direction == IN else "PullOut", (arc,),
                                      pull_cost(node, direction), 1,
                                      {"station": d.station, "time": tau}))
        for side, arc in (("surplus", (terminal, hub)), ("deficit", (hub, terminal))):
            hyperarcs.append(Hyperarc(f"dev.{d.station}.{d.unit_type}.{side}",
                                      "InventoryDeviation", (arc,), rate, None,
                                      {"station": d.station, "unit_type": d.unit_type}))

    # direct arcs: trip to trip, each standing for one depot path
    specs = closure_arcs(instance, "closure" if closure else "declared") if transfer == "A" else []
    for spec in specs:
        src, dst = ([node for node, _ in pull_nodes(t, direction)
                     if node.unit_type == spec.unit_type]
                    for t, direction in ((spec.source, IN), (spec.target, OUT)))
        for s_node, d_node in itertools.product(src, dst):
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

    nodes = {v for h in hyperarcs for arc in h.base_arcs for v in arc} | balances.keys()
    return Hypergraph(
        variant=variant,
        instance=instance,
        nodes=sorted(nodes, key=_node_sort_key),  # the key tells every two nodes apart
        hyperarcs=hyperarcs,
        balances=balances,
        trip_arcs=trip_index,
        connection_arcs=conn_index,
    )


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

"""Composition model graph, derived from the full depot hypergraph.

The contraction merges all event nodes of a trip side that differ only in
(position, unit type) into one node per (trip event, composition). Trip
hyperarcs and 1-to-1 changes become single arcs, split/join changes become
two-arc hyperarcs meeting in a common node, and all depot arcs are dropped.
What remains of the depots is cut data: per depot node, which surviving
arcs pull how many units out of or into the inventory up to that point in
time, read off the depot ledger (:mod:`rollstock.ledger`) in one sweep
over its time-sorted events. The surviving arcs are ``Hyperarc``s of kind
``TripArc`` or ``CompositionArc`` and keep the ids of the hyperarcs they
came from, so solutions transfer between the two models by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import VariantMismatch
from .hypergraph import Hyperarc, Hypergraph
from .instance import Instance
from .ledger import IN, OUT, Ledger, arc_pulls


class CompNode(NamedTuple):
    """One (trip event, composition) point of the contracted graph."""

    trip: str
    side: str  # dep | arr
    comp: str

    def short(self) -> str:
        sign = "+" if self.side == "dep" else "-"
        return f"{self.trip}{sign}:{self.comp}"


@dataclass(frozen=True)
class DepotCut:
    """Inventory prefix data at one depot node: arcs that pull units out of
    or into the depot at or before this time, with unit counts."""

    station: str
    unit_type: str
    time: int
    start: int
    outs: tuple[tuple[str, int], ...]  # (arc id, units) cumulative
    ins: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class EndInventory:
    """Whole-horizon pull totals of one depot, for the soft end constraint."""

    station: str
    unit_type: str
    start: int
    target: int
    outs: tuple[tuple[str, int], ...]
    ins: tuple[tuple[str, int], ...]


@dataclass
class CompositionGraph:
    instance: Instance
    nodes: list[CompNode]
    hyperarcs: list[Hyperarc]  # kind TripArc or CompositionArc
    trip_arcs: dict[str, list[str]]
    connection_arcs: dict[str, list[str]]
    cuts: list[DepotCut]
    end_inventories: list[EndInventory]
    by_id: dict[str, Hyperarc] = field(default_factory=dict)

    def __post_init__(self):
        self.by_id = {a.id: a for a in self.hyperarcs}

    def incident(self) -> tuple[dict[CompNode, list[str]], dict[CompNode, list[str]]]:
        """(outgoing, incoming) arc ids per node, each arc counted once: a
        split's base arcs share their tail and a join's share their head."""
        outgoing: dict[CompNode, list[str]] = {v: [] for v in self.nodes}
        incoming: dict[CompNode, list[str]] = {v: [] for v in self.nodes}
        for a in self.hyperarcs:
            for v in {t for t, _ in a.base_arcs}:
                outgoing[v].append(a.id)
            for v in {h for _, h in a.base_arcs}:
                incoming[v].append(a.id)
        return outgoing, incoming

    def dump(self) -> str:
        lines = []
        for a in sorted(self.hyperarcs, key=lambda x: x.id):
            arcs = ",".join(f"{t.short()}>{u.short()}" for t, u in a.base_arcs)
            lines.append(f"{a.id} {a.kind} {a.cost:g} {a.upper} {arcs}")
        return "\n".join(lines) + "\n"


def contract(g_hd: Hypergraph) -> CompositionGraph:
    """Contract the full depot hypergraph into the composition model graph."""
    if g_hd.variant != "HD":
        raise VariantMismatch(f"contract expects variant HD, got {g_hd.variant}")
    instance = g_hd.instance
    arcs: list[Hyperarc] = []
    trip_index: dict[str, list[str]] = {t.id: [] for t in instance.trips}
    conn_index: dict[str, list[str]] = {c.id: [] for c in instance.connections}

    for h in g_hd.hyperarcs:
        if h.kind == "TripService":
            t, p = h.tags["trip"], h.tags["comp"]
            arcs.append(Hyperarc(h.id, "TripArc",
                                 ((CompNode(t, "dep", p), CompNode(t, "arr", p)),),
                                 h.cost, 1, dict(h.tags)))
            trip_index[t].append(h.id)
        elif h.kind == "ConnectionChange":
            conn = instance.connection_by_id[h.tags["connection"]]
            pre_of = dict(zip(conn.predecessors, h.tags["pre"]))
            post_of = dict(zip(conn.successors, h.tags["post"]))
            pairs: dict[tuple[CompNode, CompNode], None] = {}
            for tail, head in h.base_arcs:
                pairs.setdefault((CompNode(tail.trip, "arr", pre_of[tail.trip]),
                                  CompNode(head.trip, "dep", post_of[head.trip])))
            arcs.append(Hyperarc(h.id, "CompositionArc", tuple(sorted(pairs)),
                                 h.cost, 1, dict(h.tags)))
            conn_index[conn.id].append(h.id)
        # depot arcs (Parking, PullIn, PullOut, InventoryDeviation) are dropped

    # parallel contracted arcs must agree on cost (they never arise from the
    # canonical change enumeration, but the contraction relies on it)
    by_span: dict[tuple, Hyperarc] = {}
    for a in arcs:
        other = by_span.setdefault(tuple(sorted(a.base_arcs)), a)
        if abs(other.cost - a.cost) > 1e-12:
            raise AssertionError(
                f"parallel arcs {a.id} / {other.id} with different costs")

    cuts, ends = _build_cut_data(instance, arcs)
    return CompositionGraph(
        instance=instance,
        nodes=sorted({v for a in arcs for arc in a.base_arcs for v in arc}),
        hyperarcs=arcs,
        trip_arcs=trip_index,
        connection_arcs=conn_index,
        cuts=cuts,
        end_inventories=ends,
    )


def _build_cut_data(instance: Instance,
                    arcs: list[Hyperarc]) -> tuple[list[DepotCut], list[EndInventory]]:
    ledger = Ledger(instance)
    for a in arcs:
        ledger.add(*arc_pulls(instance, a.tags), key=a.id)

    cuts: list[DepotCut] = []
    ends: list[EndInventory] = []
    for depot in instance.all_depots():
        events = sorted(ledger.events.get((depot.station, depot.unit_type), []))
        totals: dict[str, dict[str, int]] = {OUT: {}, IN: {}}
        for tau, group in itertools.groupby(events, key=lambda e: e[0]):
            for (_, direction, arc_id, n) in group:
                totals[direction][arc_id] = totals[direction].get(arc_id, 0) + n
            cuts.append(DepotCut(depot.station, depot.unit_type, tau,
                                 depot.start_inventory,
                                 tuple(sorted(totals[OUT].items())),
                                 tuple(sorted(totals[IN].items()))))
        if not events:
            # untouched depot still contributes its vacuous availability cut
            cuts.append(DepotCut(depot.station, depot.unit_type, 0,
                                 depot.start_inventory, (), ()))
        ends.append(EndInventory(depot.station, depot.unit_type,
                                 depot.start_inventory, depot.target_end_inventory,
                                 tuple(sorted(totals[OUT].items())),
                                 tuple(sorted(totals[IN].items()))))
    return cuts, ends

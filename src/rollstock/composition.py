"""Composition model graph, built straight from the instance.

C has one node per (trip event, composition). Its trip and change arcs come
from the rules that build HD (:func:`rollstock.hypergraph.service_arcs` and
:func:`~rollstock.hypergraph.change_arc`), with HD's ids, costs and tags:
trip arcs and 1-to-1 changes are single arcs, split/join changes two-arc
hyperarcs meeting in a common node. In place of HD's depot arcs, C keeps
cut data: per depot node, which arcs pull how many units out of or into the
inventory up to that point in time, read off the depot ledger
(:mod:`rollstock.ledger`) in one sweep over its time-sorted events. The
arcs are ``Hyperarc``s of kind ``TripArc`` or ``CompositionArc``; sharing
HD's ids, solutions transfer between the two models by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import VariantMismatch
from .hypergraph import Hyperarc, Hypergraph, change_arc, connection_changes, service_arcs
from .instance import Instance
from .ledger import IN, OUT, Ledger, arc_pulls


class CompNode(NamedTuple):
    """One (trip event, composition) point of the composition graph."""

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


def compose(instance: Instance, changes: dict | None = None) -> CompositionGraph:
    """The composition model graph of an instance; ``changes``, from
    ``connection_changes``, saves enumerating them again."""
    def node(trip: str, side: str, _position, _unit_type, comp: str) -> CompNode:
        return CompNode(trip, side, comp)

    arcs, trip_index = service_arcs(instance, node, composition=True)
    changes = changes or connection_changes(instance)
    arcs += (change_arc(instance, c, ch, node, composition=True)
             for c in instance.connections for ch in changes[c.id])
    conn_index = {c.id: [ch.key for ch in changes[c.id]] for c in instance.connections}
    nodes = sorted({v for a in arcs for arc in a.base_arcs for v in arc})
    return CompositionGraph(instance, nodes, arcs, trip_index, conn_index,
                            *_build_cut_data(instance, arcs))


def contract(g_hd: Hypergraph) -> CompositionGraph:
    """The composition model graph of an HD graph's instance. It reads only
    ``g_hd.instance``: :func:`compose` builds C from the arc rules HD uses."""
    if g_hd.variant != "HD":
        raise VariantMismatch(f"contract expects variant HD, got {g_hd.variant}")
    return compose(g_hd.instance)


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

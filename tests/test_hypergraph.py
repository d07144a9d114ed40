"""Hypergraph construction, flow projection, and path decomposition."""

import collections
import dataclasses
import sys

import pytest

from rollstock.composition import contract
from rollstock.errors import DecompositionFailure, NonConservingInput
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import (
    VARIANTS,
    EventNode,
    Hyperarc,
    Hypergraph,
    build,
    decompose_paths,
    enumerate_changes,
    project_base_flow,
    variant_parts,
)
from rollstock.instance import Composition, Connection, Depot, Instance, Trip, UnitType
from rollstock.formulation import assemble, parse_lp, write_lp
from rollstock.solver import solve_ip


def _kinds(g, kind):
    return [h for h in g.hyperarcs if h.kind == kind]


class TestChanges:
    def test_two_trip_changes(self, two_trip):
        conn = two_trip.connections[0]
        changes = enumerate_changes(two_trip, conn)
        keys = {(ch.pre, ch.post) for ch in changes}
        assert keys == {(("b1",), ("b1",)), (("r1",), ("r1",)),
                        (("rr",), ("rr",)), (("rr",), ("r1",)),
                        (("r1",), ("rr",))}
        uncouple = next(ch for ch in changes if ch.pre == ("rr",)
                        and ch.post == ("r1",))
        assert uncouple.uncoupled == (("t1", 2, "r"),)
        assert uncouple.actions == 1
        continuation = next(ch for ch in changes if ch.pre == ch.post == ("rr",))
        assert continuation.actions == 0
        assert len(continuation.continuing) == 2

    def test_allowed_changes_filter(self, two_trip):
        conn = dataclasses.replace(
            two_trip.connections[0],
            allowed_changes=(("rr", "r1"), ("b1", "b1")))
        inst = dataclasses.replace(two_trip, connections=(conn,))
        keys = {(ch.pre, ch.post) for ch in enumerate_changes(inst, conn)}
        assert keys == {(("rr",), ("r1",)), (("b1",), ("b1",))}

    def test_front_couple_blocks_rear_attach(self, situation1):
        conn = situation1.connections[0]
        keys = {(ch.pre, ch.post) for ch in enumerate_changes(situation1, conn)}
        # coupling happens at the front here, so rr cannot become rb
        assert (("rr",), ("rb",)) not in keys
        assert (("rr",), ("rr",)) in keys
        assert (("rr",), ("r1",)) in keys

    def test_join_keeps_every_unit_in_order(self):
        inst = Instance(
            name="join",
            unit_types=(UnitType("r", 2, 100),),
            compositions=(Composition("r1", ("r",)), Composition("rr", ("r", "r"))),
            trips=(
                Trip("t1", "A", "B", 480, 540, 10.0, 0, ("r1",)),
                Trip("t2", "C", "B", 485, 545, 10.0, 0, ("r1",)),
                Trip("t3", "B", "A", 600, 660, 10.0, 0, ("rr",)),
            ),
            connections=(Connection("c1", "TwoToOne", ("t1", "t2"), ("t3",)),),
            depots=(Depot("A", "r", 1, 0), Depot("C", "r", 1, 0)),
            n_max=2)
        (change,) = enumerate_changes(inst, inst.connections[0])
        assert change.connection == "c1"
        assert change.kind == "TwoToOne"
        assert change.pre == ("r1", "r1")
        assert change.post == ("rr",)
        assert change.continuing == (("t1", 1, "t3", 1, "r"), ("t2", 1, "t3", 2, "r"))
        assert change.uncoupled == ()
        assert change.coupled == ()
        assert change.actions == 1
        assert change.key == "chg.c1.r1.r1.rr"


class TestBuild:
    def test_two_trip_hd_structure(self, two_trip):
        g = build(two_trip, "hD")
        trips = _kinds(g, "TripService")
        assert len(trips) == 6  # three per trip: b, r, rr
        rr = next(h for h in trips if h.id == "trip.t1.r_r")
        assert len(rr.base_arcs) == 2
        changes = _kinds(g, "ConnectionChange")
        assert len(changes) == 3  # merged continuations b>b, r>r, rr>rr
        pin = next(h for h in g.hyperarcs if h.id == "pin.t1.2.r")
        pout = next(h for h in g.hyperarcs if h.id == "pout.t2.2.r")
        assert pin.cost == pout.cost == 10.0  # additive coupling attribution
        stations = {(h.tags["station"], h.tags["unit_type"])
                    for h in _kinds(g, "Parking")}
        assert ("B", "r") in stations and ("B", "b") in stations

    def test_two_trip_full_has_labeled_changes(self, two_trip):
        g = build(two_trip, "HD")
        changes = _kinds(g, "ConnectionChange")
        assert len(changes) == 5
        assert len(changes) >= len(_kinds(build(two_trip, "hD"),
                                          "ConnectionChange"))
        # full-variant coupling costs sit on the change hyperarcs
        uncouple = next(h for h in changes if h.id == "chg.c1.rr.r1")
        assert uncouple.cost == 10.0
        assert all(h.cost == 0.0 for h in g.hyperarcs
                   if h.kind in ("PullIn", "PullOut"))

    @pytest.mark.parametrize("small,full", [("hD", "HD"), ("hAbar", "HAbar")])
    def test_contraction_never_enlarges(self, two_trip, situation2, small, full):
        for inst in (two_trip, situation2):
            gs, gf = build(inst, small), build(inst, full)
            assert len(gs.nodes) <= len(gf.nodes)
            assert len(gs.hyperarcs) <= len(gf.hyperarcs)

    def test_base_arcs_node_disjoint_everywhere(self, situation2):
        for variant in ("hD", "HD", "hAbar", "HAbar"):
            g = build(situation2, variant)
            for h in g.hyperarcs:
                nodes = [n for arc in h.base_arcs for n in arc]
                assert len(nodes) == len(set(nodes)), h.id

    @pytest.mark.parametrize("shape", ["shared-node", "loop"])
    def test_hypergraph_refuses_arcs_that_are_not_node_disjoint(self, two_trip,
                                                                shape):
        u, v, w = (EventNode("t1", side, 1, "r") for side in ("dep", "arr", "x"))
        arcs = ((u, v), (v, w)) if shape == "shared-node" else ((u, u),)
        with pytest.raises(ValueError, match="not node-disjoint"):
            Hypergraph("HD", two_trip, [u, v, w],
                       [Hyperarc("h", "TripService", arcs, 0.0, 1)], {}, {}, {})

    def test_records_hash_and_compare_in_c(self):
        # a dataclass generates its __hash__, __eq__ and __lt__ as Python
        # code compiled from "<string>"; the graph and model records are
        # tuples, so none of those calls happens on a split/join ladder rung
        inst = generate(GenConfig(seed=5, lines=4, trips_per_line=8, stations=4,
                                  split_join_fraction=0.3))
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == "<string>":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            graphs = [build(inst, variant) for variant in VARIANTS]
            graphs.append(contract(graphs[VARIANTS.index("HD")]))
            for g in graphs:
                parse_lp(write_lp(assemble(g)))
        finally:
            sys.setprofile(None)
        assert [calls[name] for name in ("__hash__", "__eq__", "__lt__")] == [0, 0, 0]

    def test_empty_instance_builds_depot_only(self):
        inst = Instance(
            name="empty",
            unit_types=(UnitType("r", 2, 100),),
            compositions=(Composition("r1", ("r",)),),
            trips=(), connections=(),
            depots=(Depot("A", "r", 2, 2),),
            n_max=1)
        g = build(inst, "hD")
        assert all(h.kind in ("Parking", "InventoryDeviation")
                   for h in g.hyperarcs)
        assert sum(g.balances.values()) == 0

    def test_direct_variant_arc_costs_match_depot_paths(self, two_trip):
        gd = build(two_trip, "hD")
        ga = build(two_trip, "hAbar")
        pin_cost = {h.id: h.cost for h in gd.hyperarcs if h.kind == "PullIn"}
        pout_cost = {h.id: h.cost for h in gd.hyperarcs if h.kind == "PullOut"}
        for h in ga.hyperarcs:
            if h.kind == "DirectConnection":
                src, dst = h.base_arcs[0]
                want = (pin_cost[f"pin.{src.trip}.{src.position}.{src.unit_type}"]
                        + pout_cost[f"pout.{dst.trip}.{dst.position}.{dst.unit_type}"])
                assert h.cost == want, h.id

    def test_variant_parts(self):
        assert variant_parts("hAbar") == ("h", "A", True)
        assert variant_parts("HD") == ("H", "D", False)
        with pytest.raises(ValueError):
            variant_parts("xx")


class TestFlows:
    def _optimal_flow(self, inst, variant):
        g = build(inst, variant)
        sol = solve_ip(assemble(g))
        assert sol.status == "Optimal"
        return g, {k: int(round(v)) for k, v in sol.values.items()}

    def test_single_hyperarc_expansion(self, two_trip):
        g = build(two_trip, "hD")
        rr = g.by_id["trip.t1.r_r"]
        flow = {h.id: 0 for h in g.hyperarcs}
        # an isolated hyperarc value does not conserve; bypass the check
        from rollstock.hypergraph import conservation_residuals
        res = conservation_residuals(g, {"trip.t1.r_r": 1})
        touched = {n for arc in rr.base_arcs for n in arc}
        assert all(res[n] != 0 for n in touched)

    def test_zero_flow_projects_to_zero(self, two_trip):
        g = build(two_trip, "hD")
        zero = dict.fromkeys((h.id for h in g.hyperarcs), 0)
        zero_balanced = {k: 0 for k in zero}
        with pytest.raises(NonConservingInput):
            project_base_flow(g, zero_balanced)  # balances unmet

    def test_optimal_flow_projection_conserves(self, two_trip):
        g, x = self._optimal_flow(two_trip, "hD")
        flow = project_base_flow(g, x)
        rr_arc = g.by_id["trip.t1.r_r"]
        for arc in rr_arc.base_arcs:
            assert flow[arc] == x["trip.t1.r_r"]

    def test_two_trip_decomposition_paths(self, two_trip):
        g, x = self._optimal_flow(two_trip, "hD")
        paths = decompose_paths(g, x)
        total_units = sum(b for b in g.balances.values() if b > 0)
        assert len(paths) == total_units
        trip_visits = [tuple(n.trip for n in p if hasattr(n, "trip")
                             and getattr(n, "side", "") == "dep")
                       for p in paths]
        assert ("t1", "t2") in trip_visits     # the through red unit
        assert any(v == ("t1",) for v in trip_visits)  # the parked red unit

    def test_decomposition_reconstructs_base_flow(self, situation2):
        for variant in ("hD", "HD", "hAbar"):
            g, x = self._optimal_flow(situation2, variant)
            flow = project_base_flow(g, x)
            rebuilt = {}
            for path in decompose_paths(g, x):
                for a, b in zip(path, path[1:]):
                    rebuilt[(a, b)] = rebuilt.get((a, b), 0) + 1
            assert rebuilt == {k: v for k, v in flow.items() if v}

    def test_parallel_parking_only_paths(self):
        inst = Instance(
            name="park", unit_types=(UnitType("r", 2, 100),),
            compositions=(Composition("r1", ("r",)),),
            trips=(), connections=(),
            depots=(Depot("A", "r", 2, 2),), n_max=1)
        g = build(inst, "hD")
        park = next(h for h in g.hyperarcs if h.kind == "Parking")
        paths = decompose_paths(g, {park.id: 2})
        assert len(paths) == 2
        assert all(len(p) == 2 for p in paths)

    def test_fractional_flow_rejected_by_decompose(self, two_trip):
        g, x = self._optimal_flow(two_trip, "hD")
        x[next(iter(x))] = 0.5
        with pytest.raises((DecompositionFailure, NonConservingInput)):
            decompose_paths(g, x)


class TestDump:
    def test_dump_round_shape(self, two_trip):
        g = build(two_trip, "hD")
        lines = g.dump().strip().splitlines()
        assert len(lines) == len(g.hyperarcs)
        first = lines[0].split()
        assert first[1] in ("TripService", "ConnectionChange", "PullIn",
                            "PullOut", "Parking", "InventoryDeviation",
                            "DirectConnection")

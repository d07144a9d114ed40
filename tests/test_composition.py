"""Composition-model contraction and depot cut data."""

import dataclasses

import pytest

from rollstock.composition import DepotCut, EndInventory, contract
from rollstock.errors import VariantMismatch
from rollstock.formulation import assemble
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import build
from rollstock.instance import (
    Composition,
    Connection,
    Depot,
    Instance,
    Trip,
    UnitType,
    canonical_instances,
)
from rollstock.solver import model_arrays


class TestContract:
    def test_two_trip_contraction(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        # one node per trip event and composition
        per_trip = {}
        for n in cg.nodes:
            per_trip.setdefault(n.trip, set()).add((n.side, n.comp))
        assert len(per_trip["t1"]) == 6  # 3 compositions x dep/arr
        conn = cg.connection_arcs["c1"]
        assert sorted(conn) == ["chg.c1.b1.b1", "chg.c1.r1.r1", "chg.c1.r1.rr",
                                "chg.c1.rr.r1", "chg.c1.rr.rr"]
        for aid in conn:
            assert len(cg.by_id[aid].base_arcs) == 1  # plain arcs for 1-to-1

    def test_contract_requires_hd(self, two_trip):
        with pytest.raises(VariantMismatch):
            contract(build(two_trip, "hD"))

    def test_backrefs_share_hyperarc_ids(self, two_trip):
        g = build(two_trip, "HD")
        cg = contract(g)
        hd_ids = {h.id for h in g.hyperarcs
                  if h.kind in ("TripService", "ConnectionChange")}
        assert {a.id for a in cg.hyperarcs} == hd_ids

    def test_join_becomes_two_arc_hyperarc(self):
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
        cg = contract(build(inst, "HD"))
        joins = cg.connection_arcs["c1"]
        assert len(joins) == 1
        arcs = cg.by_id[joins[0]].base_arcs
        assert len(arcs) == 2
        heads = {h for _, h in arcs}
        assert len(heads) == 1  # two arcs meeting in the common successor node
        # the successor's flow row lists the join arc once, with coefficient +1
        model = assemble(cg)
        (head,) = heads
        row = next(r for r in model.rows
                   if r.id == f"flow.{head.trip}.{head.side}.{head.comp}")
        assert [c for v, c in row.coeffs if v == joins[0]] == [1.0]
        # nor does any flow row count an arc twice once the arrays sum it
        # (the end-inventory rows count two staged units as 2)
        form = model_arrays(model)
        in_flow = [form.row_ids[i].startswith("flow.") for i in form.nz[1]]
        assert set(abs(form.nz[2][in_flow])) == {1.0}

    def test_empty_instance_has_no_composition_nodes(self):
        inst = Instance(
            name="empty", unit_types=(UnitType("r", 2, 100),),
            compositions=(Composition("r1", ("r",)),), trips=(), connections=(),
            depots=(Depot("A", "r", 1, 1),), n_max=1)
        cg = contract(build(inst, "HD"))
        assert cg.nodes == []
        assert cg.hyperarcs == []


class TestCutData:
    def test_two_trip_red_cut_at_departure(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        cut = next(c for c in cg.cuts
                   if c.station == "B" and c.unit_type == "r" and c.time == 600)
        assert dict(cut.outs) == {"chg.c1.r1.rr": 1}
        assert dict(cut.ins) == {"chg.c1.rr.r1": 1}

    def test_untouched_depot_contributes_vacuous_cut(self, two_trip):
        # station C sees no trips, so its depot has no events at all
        inst = dataclasses.replace(two_trip, depots=two_trip.depots
                                    + (Depot("C", "r", 3, 3),))
        cg = contract(build(inst, "HD"))
        cut = next(c for c in cg.cuts if c.station == "C" and c.unit_type == "r")
        assert cut.outs == () and cut.ins == ()
        assert cut.start == 3

    def test_cut_sets_grow_monotonically(self, situation2):
        cg = contract(build(situation2, "HD"))
        by_depot = {}
        for cut in cg.cuts:
            by_depot.setdefault((cut.station, cut.unit_type), []).append(cut)
        for cuts in by_depot.values():
            cuts.sort(key=lambda c: c.time)
            for earlier, later in zip(cuts, cuts[1:]):
                assert set(dict(earlier.outs)) <= set(dict(later.outs))
                assert set(dict(earlier.ins)) <= set(dict(later.ins))

    def test_staging_counts_on_trip_arcs(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        end = next(e for e in cg.end_inventories
                   if e.station == "A" and e.unit_type == "r")
        outs = dict(end.outs)
        assert outs["trip.t1.rr"] == 2  # both reds staged out for the double
        assert outs["trip.t1.r1"] == 1


def _rescan_cut_data(instance, arcs):
    """Reference cut builder: per depot, rescan every event for each cut time,
    with the depot moves read straight off the arc tags."""
    trips = instance.trip_by_id
    moves_by_depot = {}
    for a in arcs:
        moves = {}
        located = [(trips[t].arr_station, r, trips[t].arr_time, "in")
                   for (t, _, r) in a.tags.get("uncoupled", ())]
        located += [(trips[t].dep_station, r, trips[t].dep_time, "out")
                    for (t, _, r) in a.tags.get("coupled", ())]
        located += [(s, r, tau, "out") for (s, r, tau) in a.tags.get("stage_out", ())]
        located += [(s, r, tau, "in") for (s, r, tau) in a.tags.get("stage_in", ())]
        for key in located:
            moves[key] = moves.get(key, 0) + 1
        for (station, r, tau, direction), n in sorted(moves.items()):
            moves_by_depot.setdefault((station, r), []).append((tau, direction, a.id, n))

    cuts, ends = [], []
    for depot in instance.all_depots():
        events = sorted(moves_by_depot.get((depot.station, depot.unit_type), []))
        times = sorted({tau for (tau, _, _, _) in events})
        totals = {"out": {}, "in": {}}
        for (_, direction, arc_id, n) in events:
            totals[direction][arc_id] = totals[direction].get(arc_id, 0) + n
        for tau in times:
            upto = {"out": {}, "in": {}}
            for (t2, direction, arc_id, n) in events:
                if t2 <= tau:
                    upto[direction][arc_id] = upto[direction].get(arc_id, 0) + n
            cuts.append(DepotCut(depot.station, depot.unit_type, tau,
                                 depot.start_inventory,
                                 tuple(sorted(upto["out"].items())),
                                 tuple(sorted(upto["in"].items()))))
        if not times:
            cuts.append(DepotCut(depot.station, depot.unit_type, 0,
                                 depot.start_inventory, (), ()))
        ends.append(EndInventory(depot.station, depot.unit_type,
                                 depot.start_inventory, depot.target_end_inventory,
                                 tuple(sorted(totals["out"].items())),
                                 tuple(sorted(totals["in"].items()))))
    return cuts, ends, moves_by_depot


# several ins and outs at one depot and time, and depots with no events
_SWEEP_CUT_CONFIGS = [GenConfig(seed=2, lines=5, trips_per_line=3, stations=4,
                                split_join_fraction=0.3),
                      GenConfig(seed=3, lines=5, trips_per_line=3, stations=4),
                      GenConfig(seed=5, lines=5, trips_per_line=3, stations=6,
                                split_join_fraction=0.3)]


class TestCutSweep:
    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    def test_canonical_cuts_match_rescan(self, name):
        inst = canonical_instances()[name]
        cg = contract(build(inst, "HD"))
        cuts, ends, _ = _rescan_cut_data(inst, cg.hyperarcs)
        assert cg.cuts == cuts
        assert cg.end_inventories == ends

    @pytest.mark.parametrize("cfg", _SWEEP_CUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_generated_cuts_match_rescan(self, cfg):
        inst = generate(cfg)
        cg = contract(build(inst, "HD"))
        cuts, ends, moves = _rescan_cut_data(inst, cg.hyperarcs)
        both_ways = [evs for evs in moves.values()
                     if {tau for tau, d, _, _ in evs if d == "in"}
                     & {tau for tau, d, _, _ in evs if d == "out"}]
        assert both_ways, "no depot moves units in and out at one time"
        assert any((d.station, d.unit_type) not in moves for d in inst.all_depots())
        assert cg.cuts == cuts
        assert cg.end_inventories == ends

"""Depot ledger: move placement, staging, prefix and matching checks."""

from rollstock.instance import Composition, Depot, Instance, Trip, UnitType
from rollstock.ledger import IN, OUT, Ledger


def _relay(handover_dep: int) -> Instance:
    """t1 ends at B at 540; t2 starts at B at ``handover_dep``; no connection,
    so t1 stages its unit in and t2 stages one out."""
    return Instance(
        name="relay", unit_types=(UnitType("r", 2, 100),),
        compositions=(Composition("r1", ("r",)),),
        trips=(Trip("t1", "A", "B", 480, 540, 10.0, 0, ("r1",)),
               Trip("t2", "B", "A", handover_dep, 660, 10.0, 0, ("r1",))),
        connections=(), depots=(Depot("A", "r", 1, 1),), n_max=1)


def _ledger(inst):
    return Ledger.of_selection(inst, {"t1": ("r",), "t2": ("r",)}, [])


def _depots(inst):
    return {(d.station, d.unit_type): d for d in inst.all_depots()}


def test_moves_are_placed_by_trip_side(two_trip):
    ledger = Ledger(two_trip)
    ledger.add([("t1", 2, "r")], [("t2", 1, "b")], key="chg")
    assert ledger.events == {("B", "r"): [(540, IN, "chg", 1)],
                             ("B", "b"): [(600, OUT, "chg", 1)]}


def test_first_and_last_trips_stage():
    inst = _relay(540)
    assert _ledger(inst).events == {("A", "r"): [(480, OUT, "t1", 1), (660, IN, "t2", 1)],
                                    ("B", "r"): [(540, IN, "t1", 1), (540, OUT, "t2", 1)]}


def test_ins_count_before_outs_at_equal_times():
    inst = _relay(540)
    ledger = _ledger(inst)
    assert ledger.prefix_ok(_depots(inst))
    assert ledger.matching_ok(_depots(inst))
    assert ledger.matching_ok(_depots(inst), pairs={("r", "t1", "t2")})
    assert not ledger.matching_ok(_depots(inst), pairs=set())


def test_out_before_in_is_infeasible():
    inst = _relay(530)
    ledger = _ledger(inst)
    assert not ledger.prefix_ok(_depots(inst))
    assert not ledger.matching_ok(_depots(inst))


def test_end_level():
    inst = _relay(540)
    ledger = _ledger(inst)
    assert [ledger.end_level(d) for d in inst.all_depots()] == [1, 0]

"""Instance validation, closure arcs, catalog, and JSON round-trips."""

import dataclasses
import json

import pytest

from rollstock.errors import MalformedInstance, NotFound
from rollstock.instance import (
    INITIAL,
    TERMINAL,
    Connection,
    Trip,
    canonical,
    canonical_instances,
    closure_arcs,
    dumps,
    loads,
    validate,
)


def _codes(violations):
    return sorted(v.code for v in violations)


class TestValidate:
    def test_two_trip_is_clean(self, two_trip):
        assert validate(two_trip) == []

    def test_validate_is_idempotent(self, two_trip):
        assert validate(two_trip) == validate(two_trip)

    def test_connection_time_order(self, two_trip):
        trips = tuple(
            dataclasses.replace(t, dep_time=500) if t.id == "t2" else t
            for t in two_trip.trips)
        bad = dataclasses.replace(two_trip, trips=trips)
        assert "TimeOrderViolation" in _codes(validate(bad))

    def test_trip_successor_of_two_connections(self, two_trip):
        extra = Connection("c2", "OneToOne", ("t1",), ("t2",))
        bad = dataclasses.replace(
            two_trip, connections=two_trip.connections + (extra,))
        codes = _codes(validate(bad))
        assert "JoinOfSplitViolation" in codes

    def test_unknown_composition_reference(self, two_trip):
        trips = tuple(
            dataclasses.replace(t, allowed_compositions=("nope",))
            if t.id == "t1" else t for t in two_trip.trips)
        bad = dataclasses.replace(two_trip, trips=trips)
        assert "UnknownReference" in _codes(validate(bad))

    def test_station_mismatch(self, two_trip):
        trips = tuple(
            dataclasses.replace(t, dep_station="C") if t.id == "t2" else t
            for t in two_trip.trips)
        bad = dataclasses.replace(two_trip, trips=trips)
        assert "StationMismatch" in _codes(validate(bad))

    def test_composition_longer_than_n_max(self, two_trip):
        bad = dataclasses.replace(two_trip, n_max=1)
        assert "BadComposition" in _codes(validate(bad))

    def test_all_canonicals_are_valid(self):
        for name, inst in canonical_instances().items():
            assert validate(inst) == [], name


class TestClosureArcs:
    def test_two_trip_closure_shortcuts(self, two_trip):
        arcs = closure_arcs(two_trip, "closure")
        trip_to_trip = [a for a in arcs
                        if a.source != INITIAL and a.target != TERMINAL]
        # red uncoupled after t1 may recouple onto t2, and the blue mirror
        assert {(a.unit_type, a.source, a.target) for a in trip_to_trip} == {
            ("r", "t1", "t2"), ("b", "t1", "t2")}
        for a in arcs:
            assert a.pull_in_time <= a.pull_out_time

    def test_no_shared_station_means_no_shortcut(self, two_trip):
        trips = tuple(
            dataclasses.replace(t, dep_station="C", arr_station="D")
            if t.id == "t2" else t for t in two_trip.trips)
        inst = dataclasses.replace(two_trip, trips=trips, connections=())
        arcs = closure_arcs(inst, "closure")
        assert [a for a in arcs
                if a.source != INITIAL and a.target != TERMINAL] == []

    def test_declared_equals_closure_when_annotated(self, two_trip):
        full = closure_arcs(two_trip, "closure")
        keys = [a.key for a in full
                if a.source != INITIAL and a.target != TERMINAL]
        annotated = two_trip.with_direct_arcs(keys)
        declared = closure_arcs(annotated, "declared")
        assert {a.key for a in declared} == {a.key for a in full}

    def test_declared_subset_of_closure(self, two_trip):
        annotated = two_trip.with_direct_arcs([("r", "t1", "t2")])
        declared = {a.key for a in closure_arcs(annotated, "declared")}
        full = {a.key for a in closure_arcs(annotated, "closure")}
        assert declared <= full
        assert validate(annotated) == []

    def test_declared_outside_closure_is_flagged(self, two_trip):
        bad = two_trip.with_direct_arcs([("r", "t2", "t1")])  # wrong direction
        assert "BadDirectArc" in _codes(validate(bad))


class TestCatalog:
    def test_two_trip_shape(self):
        inst = canonical("TwoTrip")
        assert len(inst.trips) == 2
        assert len(inst.unit_types) == 2
        assert len(inst.compositions) == 3

    def test_missing_name(self):
        with pytest.raises(NotFound):
            canonical("missing")


class TestJson:
    def test_round_trip_all_canonicals(self):
        for name, inst in canonical_instances().items():
            again = loads(dumps(inst))
            assert dumps(again) == dumps(inst), name
            assert again == inst

    def test_format_keys(self, two_trip):
        d = json.loads(dumps(two_trip))
        assert set(d) >= {"unit_types", "compositions", "trips", "connections",
                          "depots", "costs", "n_max"}

    def test_schema_conformance(self, two_trip):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib
        schema_path = (pathlib.Path(__file__).resolve().parents[1]
                       / "docs" / "instance.schema.json")
        schema = json.loads(schema_path.read_text())
        for inst in canonical_instances().values():
            jsonschema.validate(json.loads(dumps(inst)), schema)

    def test_missing_key_is_typed(self):
        with pytest.raises(MalformedInstance, match="'compositions'"):
            loads('{"unit_types": []}')

    def test_invalid_json_is_typed(self):
        with pytest.raises(MalformedInstance, match="line 1 column 1"):
            loads("not json")


class TestIndexes:
    def test_indexes_are_built_once(self, two_trip):
        assert two_trip.trip_by_id is two_trip.trip_by_id
        assert two_trip.composition_by_id is two_trip.composition_by_id
        assert two_trip.stations == ("A", "B")

    def test_connection_lookup(self, two_trip):
        assert two_trip.successor_connection("t1").id == "c1"
        assert two_trip.predecessor_connection("t2").id == "c1"
        assert two_trip.predecessor_connection("t1") is None
        assert two_trip.successor_connection("t2") is None

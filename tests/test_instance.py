"""Instance validation, closure arcs, catalog, and JSON round-trips."""

import dataclasses
import functools
import json
import operator
import pathlib
import re

import pytest

from rollstock.errors import MalformedInstance, NotFound
from rollstock.instance import (
    INITIAL,
    JSON_DEFAULTS,
    JSON_FIELDS,
    TERMINAL,
    Connection,
    Instance,
    Trip,
    canonical,
    canonical_instances,
    closure_arcs,
    dumps,
    loads,
    validate,
)


SCHEMA = pathlib.Path(__file__).resolve().parents[1] / "docs" / "instance.schema.json"


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

    def test_composition_allowed_twice(self, two_trip):
        # build would meet two hyperarcs with one id
        trips = tuple(
            dataclasses.replace(t, allowed_compositions=(*t.allowed_compositions,
                                                         t.allowed_compositions[0]))
            if t.id == "t1" else t for t in two_trip.trips)
        bad = dataclasses.replace(two_trip, trips=trips)
        assert [str(v) for v in validate(bad)] == [
            "DuplicateId(t1): allowed composition listed twice"]

    def test_station_id_with_a_space(self, two_trip):
        # export-lp would write row names with a space, which parse_lp cannot read
        bad = loads(dumps(two_trip).replace('"A"', '"A x"'))
        assert [str(v) for v in validate(bad)] == [
            "BadId(A x): station ids must match [A-Za-z0-9_]+"]

    def test_unit_type_id_with_an_underscore(self, two_trip):
        # b1 would run (r_r) and rr runs (r, r): two small trip arcs trip.t1.r_r
        bad = loads(dumps(two_trip).replace('"b"', '"r_r"'))
        assert [str(v) for v in validate(bad)] == [
            "BadId(r_r): unit_type ids must match [A-Za-z0-9]+"]

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

    @pytest.mark.parametrize("section,k,key", [
        ("trips", 1, "dep_time"), ("unit_types", 0, "id"),
        ("connections", 0, "kind"), ("depots", 0, "station")])
    def test_missing_key_names_its_entity(self, section, k, key):
        d = json.loads(dumps(canonical("Situation1")))
        del d[section][k][key]
        with pytest.raises(MalformedInstance,
                           match=rf"'{section}\[{k}\]\.{key}'"):
            loads(json.dumps(d))

    @pytest.mark.parametrize("section,k,key,value,kind", [
        ("trips", 0, "dep_time", "late", "a number"),
        ("unit_types", 0, "seats", None, "a number"),
        ("compositions", 0, "units", 3, "a list"),
        ("trips", 1, "demand_seats", True, "a number"),
        ("depots", 0, "station", 7, "a string")])
    def test_wrong_type_names_its_path(self, section, k, key, value, kind):
        d = json.loads(dumps(canonical("Situation1")))
        d[section][k][key] = value
        with pytest.raises(MalformedInstance,
                           match=rf"{section}\[{k}\]\.{key} must be {kind}, "
                                 rf"got {re.escape(repr(value))}"):
            loads(json.dumps(d))

    def test_wrong_type_of_a_list_or_cost_names_its_path(self):
        d = json.loads(dumps(canonical("TwoTrip")))
        d["costs"]["shunting_per_action"] = "10"
        with pytest.raises(MalformedInstance,
                           match=r"costs\.shunting_per_action must be a number"):
            loads(json.dumps(d))
        d = json.loads(dumps(canonical("TwoTrip")))
        d["trips"] = {"t1": {}}
        with pytest.raises(MalformedInstance, match="trips must be a list"):
            loads(json.dumps(d))

    def test_null_optional_lists_load(self):
        d = json.loads(dumps(canonical("Situation1")))
        d["direct_arcs"] = None
        d["connections"][0]["allowed_changes"] = None
        assert loads(json.dumps(d)).direct_arcs is None

    def test_invalid_json_is_typed(self):
        with pytest.raises(MalformedInstance, match="line 1 column 1"):
            loads("not json")

    @pytest.mark.parametrize("text", ["[1]", '"x"'])
    def test_non_object_document_names_its_path(self, text):
        with pytest.raises(MalformedInstance, match="^" + re.escape(
                f"malformed instance: instance must be an object, got {json.loads(text)!r}")
                + "$"):
            loads(text)

    @pytest.mark.parametrize("where,key,path", [
        (("depots", 0), "start_inventry", "depots[0].start_inventry"),
        (("trips", 1), "dep_tme", "trips[1].dep_tme"),
        ((), "nmax", "nmax"),
        (("costs",), "shunting_per_move", "costs.shunting_per_move")])
    def test_unknown_key_names_its_path(self, where, key, path):
        d = json.loads(dumps(canonical("Situation1")))
        functools.reduce(operator.getitem, where, d)[key] = 1
        with pytest.raises(MalformedInstance,
                           match=rf"^malformed instance: unknown key {re.escape(repr(path))}$"):
            loads(json.dumps(d))

    @pytest.mark.parametrize("where,key,value,fault", [
        (("compositions", 0), "units", [7], "compositions[0].units[0] must be a string, got 7"),
        (("trips", 0), "allowed_compositions", [7],
         "trips[0].allowed_compositions[0] must be a string, got 7"),
        (("connections", 0), "predecessors", [7],
         "connections[0].predecessors[0] must be a string, got 7"),
        (("connections", 0), "successors", ["t2", None],
         "connections[0].successors[1] must be a string, got None"),
        (("connections", 0), "allowed_changes", [3],
         "connections[0].allowed_changes[0] must be a list, got 3"),
        (("connections", 0), "allowed_changes", [["rr", 3]],
         "connections[0].allowed_changes[0][1] must be a string, got 3"),
        ((), "direct_arcs", [["u", "t1", 5]], "direct_arcs[0][2] must be a string, got 5")],
        ids=["units", "allowed_compositions", "predecessors", "successors",
             "allowed_changes", "allowed_changes-entry", "direct_arcs"])
    def test_list_element_of_the_wrong_type_names_its_path(self, where, key, value, fault):
        d = json.loads(dumps(canonical("Situation1")))
        functools.reduce(operator.getitem, where, d)[key] = value
        with pytest.raises(MalformedInstance,
                           match=rf"^malformed instance: {re.escape(fault)}$"):
            loads(json.dumps(d))

    def test_first_fault_in_reading_order_is_reported(self):
        d = json.loads(dumps(canonical("Situation1")))
        del d["trips"][1]["dep_time"]
        d["connections"][0]["kind"] = 5
        with pytest.raises(MalformedInstance, match=r"'trips\[1\]\.dep_time'"):
            loads(json.dumps(d))
        d = json.loads(dumps(canonical("Situation1")))
        d["trips"][0]["dep_time"] = "late"
        del d["connections"][0]["kind"]
        with pytest.raises(MalformedInstance, match=r"trips\[0\]\.dep_time must be"):
            loads(json.dumps(d))

    def test_empty_allowed_changes_round_trip(self, two_trip):
        from rollstock.formulation import assemble
        from rollstock.hypergraph import build
        from rollstock.solver import solve_ip
        assert "allowed_changes" not in json.loads(dumps(two_trip))["connections"][0]
        c1 = dataclasses.replace(two_trip.connections[0], allowed_changes=())
        inst = dataclasses.replace(two_trip, connections=(c1,))
        again = loads(dumps(inst))
        assert again == inst and again.connections[0].allowed_changes == ()
        assert solve_ip(assemble(build(inst, "HD"))).status == "Infeasible"
        assert solve_ip(assemble(build(again, "HD"))).status == "Infeasible"

    def test_schema_matches_the_field_table(self):
        schema = json.loads(SCHEMA.read_text())
        seen = set()

        def kind(prop):
            if "$ref" in prop or "enum" in prop:
                return "a string"
            return {"number": "a number", "integer": "a number", "string": "a string",
                    "array": "a list"}[prop["type"]]

        def check(cls, node):
            seen.add(cls)
            table = JSON_FIELDS[cls]
            assert node["additionalProperties"] is False, cls
            assert set(node["properties"]) == set(table), cls
            assert set(node.get("required", ())) == set(table) - set(JSON_DEFAULTS[cls]), cls
            for key, want in table.items():
                check_kind(want, node["properties"][key], key)

        def check_kind(want, prop, key):
            if isinstance(want, list):
                assert prop["type"] == "array", key
                for item in prop.get("prefixItems") or [prop["items"]]:
                    check_kind(want[0], item, key)
            elif isinstance(want, type):
                assert prop["type"] == "object", key
                check(want, prop)
            else:
                assert kind(prop) == want, key

        check(Instance, schema)
        assert seen == set(JSON_FIELDS)


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

"""MILP assembly and LP file format round-trips."""

import collections
import hashlib
import json
import pathlib
import sys

import pytest

from rollstock.composition import contract
from rollstock.errors import InvalidOptions, MalformedInstance
from rollstock.formulation import (
    ModelOptions,
    Row,
    Variable,
    assemble,
    models_equal,
    parse_lp,
    write_lp,
)
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import build
from rollstock.instance import canonical_instances

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestAssembleHypergraph:
    def test_two_trip_trip_partitions(self, two_trip):
        m = assemble(build(two_trip, "hD"))
        rows = {r.id: r for r in m.rows}
        t1, t2 = rows["trip.t1"], rows["trip.t2"]
        assert len(t1.coeffs) == len(t2.coeffs) == 3
        assert len(t1.coeffs) + len(t2.coeffs) == 6
        for r in (t1, t2):
            assert r.sense == "=" and r.rhs == 1.0
            assert all(c == 1.0 for _, c in r.coeffs)

    def test_relaxation_differs_only_in_integrality(self, two_trip):
        m = assemble(build(two_trip, "hD"))
        r = m.relaxed()
        assert m.rows == r.rows
        assert [(v.id, v.lower, v.upper, v.cost) for v in m.variables] == \
               [(v.id, v.lower, v.upper, v.cost) for v in r.variables]
        assert all(v.integer for v in m.variables)
        assert not any(v.integer for v in r.variables)

    def test_parking_and_deviation_unbounded(self, two_trip):
        m = assemble(build(two_trip, "hD"))
        for v in m.variables:
            if m.kinds[v.id] in ("Parking", "InventoryDeviation"):
                assert v.upper is None
            else:
                assert v.upper == 1.0

    def test_connection_constraints_toggle(self, two_trip):
        g = build(two_trip, "HD")
        with_iii = assemble(g, ModelOptions(connection_constraints=True))
        without = assemble(g, ModelOptions(connection_constraints=False))
        on_ids = {r.id for r in with_iii.rows}
        off_ids = {r.id for r in without.rows}
        assert on_ids - off_ids == {"conn.c1"}

    def test_variable_order(self, two_trip):
        m = assemble(build(two_trip, "hD"))
        kinds = [m.kinds[v.id] for v in m.variables]
        first_dev = kinds.index("InventoryDeviation")
        assert all(k == "InventoryDeviation" for k in kinds[first_dev:])
        assert kinds[:6] == ["TripService"] * 6

    def test_conservation_rows_close_per_type(self, situation2):
        m = assemble(build(situation2, "HD"))
        flow_rows = [r for r in m.rows if r.id.startswith("flow.")]
        assert abs(sum(r.rhs for r in flow_rows)) < 1e-9


class TestAssembleComposition:
    def test_composition_model_rows(self, two_trip):
        m = assemble(contract(build(two_trip, "HD")))
        ids = {r.id for r in m.rows}
        assert "trip.t1" in ids and "conn.c1" in ids
        assert any(i.startswith("cut.") for i in ids)
        assert any(i.startswith("end.") for i in ids)
        cut = next(r for r in m.rows if r.id == "cut.B.r.600")
        coeffs = dict(cut.coeffs)
        assert coeffs["chg.c1.r1.rr"] == -1.0
        assert coeffs["chg.c1.rr.r1"] == 1.0
        assert cut.sense == ">=" and cut.rhs == 0.0

    def test_composition_requires_connection_constraints(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        with pytest.raises(InvalidOptions):
            assemble(cg, ModelOptions(connection_constraints=False))

    def test_untouched_depot_constant_row(self, two_trip):
        import dataclasses
        from rollstock.instance import Depot
        inst = dataclasses.replace(
            two_trip, depots=two_trip.depots + (Depot("C", "r", 3, 3),))
        m = assemble(contract(build(inst, "HD")))
        row = next(r for r in m.rows if r.id == "cut.C.r.0")
        assert row.coeffs == () and row.rhs == -3.0 and row.sense == ">="


class TestLpFormat:
    @pytest.mark.parametrize("variant", ["hD", "HD", "hAbar", "HAbar"])
    def test_round_trip_hypergraph_models(self, two_trip, variant):
        m = assemble(build(two_trip, variant))
        again = parse_lp(write_lp(m))
        assert models_equal(m, again)

    def test_round_trip_composition_model(self, situation2):
        m = assemble(contract(build(situation2, "HD")))
        assert models_equal(m, parse_lp(write_lp(m)))

    def test_round_trip_relaxed(self, two_trip):
        m = assemble(build(two_trip, "hD")).relaxed()
        again = parse_lp(write_lp(m))
        assert models_equal(m, again)
        assert not any(v.integer for v in again.variables)

    def test_unbounded_variable_bound_line(self, two_trip):
        m = assemble(build(two_trip, "hD"))
        text = write_lp(m)
        park = next(v.id for v in m.variables if m.kinds[v.id] == "Parking")
        assert f"0 <= {park}\n" in text or text.endswith(f"0 <= {park}")
        assert f"0 <= {park} <=" not in text

    def test_golden_two_trip_hd(self, two_trip):
        m = assemble(build(two_trip, "hD"))
        golden = (GOLDEN / "twotrip_hD.lp").read_text()
        assert write_lp(m) == golden

    def test_golden_dump_two_trip_hd(self, two_trip):
        golden = (GOLDEN / "twotrip_hD.dump").read_text()
        assert build(two_trip, "hD").dump() == golden

    def test_empty_model_round_trip(self):
        from rollstock.formulation import MilpModel
        m = MilpModel("empty", [], [])
        assert models_equal(m, parse_lp(write_lp(m)))

    SMALL_LP = ("\\ rollstock model small\nMinimize\n obj: 2 x + 3 y\nSubject To\n"
                " c: 1 x + -1 y >= 1\nBounds\n 0 <= y\n 0 <= x <= 1\nGenerals\n x\nEnd\n")

    def test_small_model_is_read_in_bounds_order(self):
        m = parse_lp(self.SMALL_LP)
        assert m.name == "small"
        assert [(v.id, v.lower, v.upper, v.integer, v.cost) for v in m.variables] == [
            ("y", 0.0, None, False, 3.0), ("x", 0.0, 1.0, True, 2.0)]
        assert [(r.id, r.coeffs, r.sense, r.rhs) for r in m.rows] == [
            ("c", (("x", 1.0), ("y", -1.0)), ">=", 1.0)]
        assert models_equal(m, parse_lp(write_lp(m)))

    @pytest.mark.parametrize("old,new,line", [
        ("Minimize", "Maximize", 2),                    # a maximization was read as cost 0
        (" c: 1 x + -1 y >= 1", " c: 1 x 4", 5),        # a row with no sense was dropped
        (" 0 <= y\n", " y free\n", 7),                  # an unread bound left y in [0, inf)
        (" c: 1 x", " c 1 x", 5),                       # no colon was a bare ValueError
        (" c: 1 x", " c: one x", 5),                    # so was a coefficient not a number
        (" obj: 2 x", " obj: 2 z", 3),                  # a variable with no Bounds line
        (" c: 1 x", " c: 1 z + -1 z + 1 x", 5),         # even in terms that cancel
        ("Generals\n x\n", "Generals\n z\n", 10),     # an integer variable with no bounds
        (" 0 <= x <= 1\n", " 0 <= x <= 1\n 0 <= x\n", 9),  # bounds given twice
        ("Generals\n x\n", "Generals\n x\n x\n", 11),    # an integer variable listed twice
        ("End\n", "End\n x\n", 12),                    # a line after End
        ("Subject To\n", "Bounds\nSubject To\n", 4),   # sections out of order
        ("\\ rollstock model small\n", "", 1),         # no header comment
    ])
    def test_malformed_text_names_its_line(self, old, new, line):
        text = self.SMALL_LP.replace(old, new, 1)
        with pytest.raises(MalformedInstance, match=rf"^LP line {line}: "):
            parse_lp(text)

    @pytest.mark.parametrize("text", ["", SMALL_LP.replace("End\n", ""),
                                      SMALL_LP.replace(" obj: 2 x + 3 y\n", "")])
    def test_text_without_obj_or_end_is_refused(self, text):
        with pytest.raises(MalformedInstance):
            parse_lp(text)


class TestModelArrays:
    def test_the_model_path_builds_no_record(self):
        # the L=4 HAbar ladder goes from assemble to models_equal as arrays;
        # reading model.rows afterwards shows that the count sees records
        from rollstock.solver import model_arrays
        graph = build(generate(GenConfig(seed=5, lines=4, trips_per_line=8, stations=4)),
                      "HAbar")
        codes = {Row.__new__.__code__: "Row", Variable.__new__.__code__: "Variable"}
        made = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                made[codes[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            model = assemble(graph)
            model_arrays(model)
            same = models_equal(model, parse_lp(write_lp(model)))
            on_path = dict(made)
            rows = model.rows
        finally:
            sys.setprofile(None)
        assert same and on_path == {}
        assert made == {"Row": len(rows)}


class TestGoldenHashes:
    """``write_lp`` and the graph dump of all seven variants, pinned by their
    SHA-256 digests in golden/model_hashes.json, on the canonical instances,
    one 4x8 genbench ladder rung and the same rung with split connections
    (43 trips, 11 of them splits), keyed ``gen5-split``."""

    LADDERS = {"ladder": ("", 0.0), "ladder-split": ("-split", 0.3)}

    @pytest.mark.parametrize("name", [*sorted(canonical_instances()), *LADDERS])
    def test_lp_text_and_dump_are_byte_identical(self, name):
        from rollstock.analysis import SEVEN_VARIANTS, build_variant

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        suffix, fraction = self.LADDERS.get(name, ("", 0.0))
        inst = (generate(GenConfig(seed=5, lines=4, trips_per_line=8, stations=4,
                                   split_join_fraction=fraction))
                if name in self.LADDERS else canonical_instances()[name])
        pinned = json.loads((GOLDEN / "model_hashes.json").read_text())
        for variant in SEVEN_VARIANTS:
            graph = build_variant(inst, variant, closure=False)
            got = {"lp": digest(write_lp(assemble(graph))), "dump": digest(graph.dump())}
            assert got == pinned[f"{inst.name}{suffix}/{variant}"], variant

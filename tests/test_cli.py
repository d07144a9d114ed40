"""Command-line interface behavior and reproducibility."""

import json
import pathlib

import pytest

from rollstock.cli import run
from rollstock.instance import canonical_instances

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_validate_canonical(self, capsys):
        code, out, _ = _capture(capsys, ["validate", "--canonical", "TwoTrip"])
        assert code == 0 and "valid" in out

    def test_validate_broken_exits_one(self, capsys, tmp_path):
        import dataclasses
        from rollstock.instance import canonical, save
        inst = canonical("TwoTrip")
        trips = tuple(dataclasses.replace(t, dep_time=700) if t.id == "t2" else t
                      for t in inst.trips)
        bad = dataclasses.replace(inst, trips=trips)
        path = tmp_path / "broken.json"
        save(bad, path)
        code, out, _ = _capture(capsys, ["validate", "--instance", str(path)])
        assert code == 1 and "TimeOrderViolation" in out

    def test_solve_json(self, capsys):
        code, out, _ = _capture(capsys, ["solve", "--canonical", "TwoTrip",
                                         "--variant", "C", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == pytest.approx(40.0)
        assert payload["breakdown"]["coupling"] == pytest.approx(10.0)
        assert payload["nodes"] == 1 and payload["iterations"] > 0

    def test_solve_lp_flag(self, capsys):
        code, out, _ = _capture(capsys, ["solve", "--canonical", "Situation2",
                                         "--variant", "hD", "--lp", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == pytest.approx(12.0)
        assert "nodes" not in payload and "iterations" not in payload

    def test_compare_table(self, capsys):
        code, out, _ = _capture(capsys, [
            "compare", "--canonical", "TwoTrip", "--all", "--closure",
            "--deterministic"])
        assert code == 0
        assert out.count("\n") > 7
        assert "EqualityHolds" in out

    def test_compare_deterministic_bytes(self, capsys):
        argv = ["compare", "--canonical", "TwoTrip", "--all", "--closure",
                "--deterministic", "--json"]
        _, out1, _ = _capture(capsys, argv)
        _, out2, _ = _capture(capsys, argv)
        assert out1 == out2

    def test_project(self, capsys):
        code, out, _ = _capture(capsys, ["project", "--canonical", "TwoTrip"])
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_gen_and_solve_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, out, _ = _capture(capsys, ["gen", "--seed", "2", "--out", str(path)])
        assert code == 0 and path.exists()
        code, out, _ = _capture(capsys, ["solve", "--instance", str(path),
                                         "--variant", "C", "--json"])
        assert code == 0

    def test_export_lp_and_reparse(self, capsys, tmp_path):
        from rollstock.composition import contract
        from rollstock.formulation import assemble, models_equal, parse_lp_file
        from rollstock.hypergraph import build
        from rollstock.instance import canonical
        path = tmp_path / "model.lp"
        code, _, _ = _capture(capsys, ["export-lp", "--canonical", "TwoTrip",
                                       "--variant", "C", "--out", str(path)])
        assert code == 0
        parsed = parse_lp_file(path)
        direct = assemble(contract(build(canonical("TwoTrip"), "HD")))
        assert models_equal(direct, parsed)

    def test_reduce_and_verify(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 1 1 0\n")
        out_path = tmp_path / "inst.json"
        code, _, _ = _capture(capsys, ["reduce-3sat", str(cnf),
                                       "--out", str(out_path)])
        assert code == 0 and out_path.exists()
        code, out, _ = _capture(capsys, ["verify-reduction", str(cnf)])
        assert code == 0
        assert json.loads(out)["agrees"] is True

    def test_plot_svg(self, capsys, tmp_path):
        svg = tmp_path / "rot.svg"
        code, _, _ = _capture(capsys, ["solve", "--canonical", "TwoTrip",
                                       "--variant", "hD", "--plot", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_usage_error_exit_two(self, capsys):
        assert run(["solve", "--variant", "bogus"]) == 2
        assert run(["definitely-not-a-command"]) == 2

    def test_compare_takes_no_variant(self, capsys):
        # compare solves --variants or --all; a --variant it would ignore
        # is refused before anything is solved
        code, out, err = _capture(capsys, ["compare", "--canonical", "TwoTrip",
                                           "--variant", "hD"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --variant hD" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", [[], ["--canonical", "TwoTrip",
                                             "--instance", "two.json"]],
                             ids=["neither", "both"])
    def test_instance_source_is_one_of_two(self, capsys, source):
        code, out, err = _capture(capsys, ["solve", *source])
        assert code == 2 and out == ""
        assert "usage: rollstock solve" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["validate"], ["build"], ["solve"], ["compare"],
                                         ["project"], ["export-lp", "--out", "x.lp"]],
                             ids=lambda c: c[0])
    def test_unknown_canonical_name_is_usage_error(self, capsys, tmp_path,
                                                   monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = _capture(capsys, [*command, "--canonical", "Nope"])
        assert code == 2 and out == ""
        assert "error: argument --canonical: invalid choice: 'Nope'" in err
        assert "Traceback" not in err and not (tmp_path / "x.lp").exists()

    @pytest.mark.parametrize("argv", [
        ["--canonical", "Situation2", "--variant", "hD", "--lp"],
        ["--canonical", "TwoTrip", "--variant", "C"]], ids=["lp", "composition"])
    def test_plot_of_no_integer_hypergraph_flow_is_usage_error(self, capsys,
                                                               tmp_path, argv):
        svg = tmp_path / "rot.svg"
        code, out, err = _capture(capsys, ["solve", *argv, "--plot", str(svg)])
        assert code == 2 and out == ""
        assert "error: --plot" in err and "Traceback" not in err
        assert not svg.exists()

    @pytest.mark.parametrize("command", [["solve"], ["export-lp", "--out", "x.lp"]],
                             ids=lambda c: c[0])
    def test_composition_without_connection_constraints_is_usage_error(
            self, capsys, tmp_path, monkeypatch, command):
        # refused before the instance is read: a missing file would exit 1
        monkeypatch.chdir(tmp_path)
        code, out, err = _capture(capsys, [*command, "--instance", "missing.json",
                                           "--variant", "C",
                                           "--no-connection-constraints"])
        assert code == 2 and out == ""
        assert err.startswith(f"rollstock {command[0]}: error: the composition model "
                              "cannot drop the connection constraints")
        assert "Traceback" not in err and not (tmp_path / "x.lp").exists()

    def test_compare_without_connection_constraints_judges_nothing(self, capsys):
        code, out, _ = _capture(capsys, [
            "compare", "--canonical", "FlowConstraintGap",
            "--no-connection-constraints", "--deterministic"])
        assert code == 0
        assert "connection_constraints=False" in out
        assert "theorem relations" not in out and "VIOLATION" not in out

    @pytest.mark.parametrize("argv", [
        ["compare", "--variants", "XX"], ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"], ["solve", "--tol", "-1"],
        ["solve", "--node-limit", "-1"], ["compare", "--node-limit", "-1"],
        ["project", "--trip-limit", "-1"]],
        ids=["variants", "tol-nan", "tol-inf", "tol-negative", "solve-node-limit",
             "compare-node-limit", "trip-limit"])
    def test_bad_option_value_exits_two(self, capsys, argv):
        code, out, err = _capture(capsys, [argv[0], "--canonical", "TwoTrip",
                                           *argv[1:]])
        assert code == 2 and out == ""
        assert f"error: argument {argv[1]}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--lines", "0", "need at least one line with one trip"),
        ("--trips-per-line", "-1", "need at least one line with one trip"),
        ("--unit-types", "3", "unit_types must be 1 or 2"),
        ("--n-max", "0", "n_max >= 1 and stations >= 2 required"),
        ("--stations", "1", "n_max >= 1 and stations >= 2 required"),
        ("--split-fraction", "2", "split_join_fraction must be in [0, 1]")],
        ids=["lines", "trips-per-line", "unit-types", "n-max", "stations",
             "split-fraction"])
    def test_out_of_range_gen_option_exits_two(self, capsys, tmp_path, flag, value,
                                               message):
        path = tmp_path / "gen.json"
        code, out, err = _capture(capsys, ["gen", flag, value, "--out", str(path)])
        assert code == 2 and out == "" and not path.exists()
        assert err == f"rollstock gen: error: {message}\n"

    @pytest.mark.parametrize("text", [
        "p cnf 2 4\n1 1 2 0\n1 -2 -2 0\n-1 -1 2 0\n-1 -2 -2 0\n",
        "p cnf 2 4\n1 1 2 0\n1 -2 -2 0\n-1 -1 2 0\n1 1 2 0\n"],
        ids=["unsat", "sat"])
    def test_verify_reduction_stopped_search_exits_one(self, capsys, tmp_path,
                                                       text):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text)
        code, out, err = _capture(capsys, ["verify-reduction", str(cnf),
                                           "--node-limit", "0"])
        assert code == 1 and out == ""
        assert err.startswith("error: node limit 0 reached")

    @pytest.mark.parametrize("flag", [["--exact-rational"], ["--tol", "1e-6"],
                                      ["--node-limit", "5"]],
                             ids=["exact-rational", "tol", "node-limit"])
    def test_export_lp_takes_no_solve_flag(self, capsys, tmp_path, flag):
        path = tmp_path / "model.lp"
        assert run(["export-lp", "--canonical", "TwoTrip", "--out", str(path),
                    *flag]) == 2
        assert not path.exists()

    def test_compare_node_limit_zero_is_undecided(self, capsys):
        code, out, _ = _capture(capsys, ["compare", "--canonical", "Situation2",
                                         "--node-limit", "0", "--deterministic",
                                         "--json"])
        assert code == 0
        payload = json.loads(out)
        assert {r["ip_status"] for r in payload["rows"]} == {"NodeLimit"}
        by_mp = {}
        for v in payload["verdicts"]:
            by_mp.setdefault(v["mp"], set()).add(v["verdict"])
        assert by_mp["IP"] == {"Undecided"}
        assert "Undecided" not in by_mp["LP"]

    @pytest.mark.parametrize("text,needle", [
        ('{"unit_types": []}', "'compositions'"), ("{oops", "line 1 column 2"),
        ("[1]", "instance must be an object, got [1]"),
        ('"x"', "instance must be an object, got 'x'")])
    def test_malformed_instance_exits_one(self, capsys, tmp_path, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = _capture(capsys, ["validate", "--instance", str(path)])
        assert code == 1
        assert err.startswith("error: ") and needle in err

    @pytest.mark.parametrize("command", ["reduce-3sat", "verify-reduction"])
    @pytest.mark.parametrize("text,needle", [
        ("p cnf 2 1\n1 2 0\n", "line 2 (1 2 0): a clause has 3 literals"),
        ("p cnf\n1 2 2 0\n", "line 1 (p cnf): expected p cnf"),
        ("p cnf 2 1\nx 1 2 0\n", "line 2 (x 1 2 0): invalid literal"),
        ("p cnf 2 1\n1 5 2 0\n", "line 2 (1 5 2 0): literal 5 is not"),
        ("p cnf 2 1\n1 1 2 0\n1 -2 -2 0\n-1 -1 2 0\n",
         "line 1 (p cnf 2 1): clause count 1, but 3 clauses follow"),
        ("c truncated\np cnf 2 4\n1 1 2 0\n",
         "line 2 (p cnf 2 4): clause count 4, but 1 clauses follow")],
        ids=["two-literals", "no-counts", "token", "literal-out-of-range",
             "more-clauses", "fewer-clauses"])
    def test_malformed_formula_exits_one(self, capsys, tmp_path, command,
                                         text, needle):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text(text)
        out_path = tmp_path / "inst.json"
        extra = ["--out", str(out_path)] if command == "reduce-3sat" else []
        code, out, err = _capture(capsys, [command, str(cnf), *extra])
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error: malformed formula, ") and needle in err

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_wrong_typed_instance_exits_one(self, capsys, tmp_path, command):
        from rollstock.instance import canonical, dumps
        d = json.loads(dumps(canonical("TwoTrip")))
        d["trips"][0]["dep_time"] = "late"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        code, out, err = _capture(capsys, [command, "--instance", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "trips[0].dep_time" in err

    @pytest.mark.parametrize("command", [
        "build", "solve", "compare", "project", "export-lp"])
    @pytest.mark.parametrize("broken", ["negative_cost", "overlap",
                                        "composition_twice", "unit_type_underscore"])
    def test_invalid_instance_is_refused(self, capsys, tmp_path, command,
                                         broken):
        from rollstock.instance import canonical, dumps
        d = json.loads(dumps(canonical("TwoTrip")))
        if broken == "negative_cost":
            d["costs"]["shunting_per_action"] = -10
            violation = "NegativeValue(costs): cost rates must be nonnegative"
        elif broken == "overlap":  # t2 leaves before t1, which feeds it, arrives
            d["trips"][1]["dep_time"], d["trips"][1]["arr_time"] = 500, 560
            violation = "TimeOrderViolation(c1): t1 arrives after t2 departs"
        elif broken == "composition_twice":  # build would make two hyperarcs with one id
            d["trips"][0]["allowed_compositions"].append("b1")
            violation = "DuplicateId(t1): allowed composition listed twice"
        else:  # b1 would run (r_r) and rr runs (r, r): two small trip arcs trip.t1.r_r
            d = json.loads(json.dumps(d).replace('"b"', '"r_r"'))
            violation = "BadId(r_r): unit_type ids must match [A-Za-z0-9]+"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        extra = ["--out", str(tmp_path / "model.lp")] if command == "export-lp" else []
        code, out, err = _capture(capsys, [command, "--instance", str(path),
                                           *extra])
        assert code == 1 and out == ""
        assert err == f"error: invalid instance: {violation}\n"
        assert not (tmp_path / "model.lp").exists()
        code, out, _ = _capture(capsys, ["validate", "--instance", str(path)])
        assert code == 1 and violation in out


class TestProjectGolden:
    @pytest.mark.parametrize("name", [*sorted(canonical_instances()), "split"])
    @pytest.mark.parametrize("flags,suffix", [([], ""),
                                              (["--no-connection-constraints"], "_nocc")],
                             ids=["cc", "nocc"])
    def test_project_matches_golden(self, capsys, tmp_path, name, flags, suffix):
        source = ["--canonical", name]
        if name == "split":
            source = ["--instance", str(tmp_path / "split.json")]
            assert run(["gen", "--seed", "1", "--lines", "2", "--trips-per-line", "2",
                        "--split-fraction", "1.0", "--out", source[1]]) == 0
            capsys.readouterr()
        code, out, _ = _capture(capsys, ["project", *source, *flags])
        assert code == 0
        assert out == (GOLDEN / f"project_{name}{suffix}.json").read_text()


class TestBuildGolden:
    """``rollstock build`` of the direct-arc variants and of C: TwoTrip
    declares no direct arc, so its HA graph holds only the inventory pull
    arcs."""

    @pytest.mark.parametrize("name,variant,golden", [
        ("TwoTrip", "HA", "twotrip_HA"), ("TwoTrip", "HAbar", "twotrip_HAbar"),
        ("Situation2", "HAbar", "situation2_HAbar"), ("TwoTrip", "C", "twotrip_C"),
        ("Situation2", "C", "situation2_C")])
    def test_build_matches_golden(self, capsys, name, variant, golden):
        code, out, _ = _capture(capsys, ["build", "--canonical", name, "--variant", variant])
        assert code == 0
        assert out == (GOLDEN / f"{golden}.dump").read_text()


class TestExactRational:
    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    def test_compare_matches_golden(self, capsys, name):
        code, out, _ = _capture(capsys, [
            "compare", "--canonical", name, "--closure", "--all",
            "--exact-rational", "--deterministic", "--json"])
        assert code == 0
        assert out == (GOLDEN / f"compare_exact_{name}.json").read_text()

    def test_split_compare_matches_golden(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        code, _, _ = _capture(capsys, ["gen", "--seed", "1", "--lines", "2",
                                       "--trips-per-line", "2", "--split-fraction", "1.0",
                                       "--out", str(path)])
        assert code == 0
        code, out, _ = _capture(capsys, [
            "compare", "--instance", str(path), "--closure", "--all",
            "--exact-rational", "--deterministic", "--json"])
        assert code == 0
        assert out == (GOLDEN / "compare_exact_split.json").read_text()

    def test_failed_certificate_exits_one(self, capsys, monkeypatch):
        from rollstock.solver import simplex
        real = simplex._solve_float

        def repeat_column(*args):
            res = real(*args)
            res.basis.basis[1] = res.basis.basis[0]
            return res

        monkeypatch.setattr(simplex, "_solve_float", repeat_column)
        code, out, err = _capture(capsys, ["solve", "--canonical", "TwoTrip",
                                           "--lp", "--exact-rational"])
        assert code == 1 and out == ""
        assert err == "error: certificate: singular basis\n"
        code, out, _ = _capture(capsys, ["compare", "--canonical", "TwoTrip",
                                         "--exact-rational", "--json"])
        assert code == 1
        assert {r["error"] for r in json.loads(out)["rows"]} == {
            "NumericalFailure: certificate: singular basis"}

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

    @pytest.mark.parametrize("text,needle", [('{"unit_types": []}', "'compositions'"),
                                             ("{oops", "line 1 column 2")])
    def test_malformed_instance_exits_one(self, capsys, tmp_path, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = _capture(capsys, ["validate", "--instance", str(path)])
        assert code == 1
        assert err.startswith("error: ") and needle in err


class TestExactRational:
    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    def test_compare_matches_golden(self, capsys, name):
        code, out, _ = _capture(capsys, [
            "compare", "--canonical", name, "--closure", "--all",
            "--exact-rational", "--deterministic", "--json"])
        assert code == 0
        assert out == (GOLDEN / f"compare_exact_{name}.json").read_text()

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

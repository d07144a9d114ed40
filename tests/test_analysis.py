"""Model maps, theorem verdicts, projections, breakdowns, reports."""

from fractions import Fraction

import pytest

from rollstock import analysis
from rollstock.composition import contract
from rollstock.errors import CutViolated
from rollstock.formulation import ModelOptions, assemble
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import assert_conserving, build, flow_cost
from rollstock.instance import canonical_instances
from rollstock.solver import solve_ip, solve_lp


def _ip(inst, variant, cc=True):
    if variant == "C":
        graph = contract(build(inst, "HD"))
    else:
        graph = build(inst, variant)
    sol = solve_ip(assemble(graph, ModelOptions(connection_constraints=cc)
                            if variant != "C" else None))
    assert sol.status == "Optimal"
    return graph, sol


class TestMaps:
    def test_ha_to_hd_preserves_cost_and_feasibility(self, two_trip):
        g_ha, sol = _ip(two_trip, "HAbar")
        g_hd = build(two_trip, "HD")
        x = analysis.map_HA_to_HD(g_ha, sol.values, g_hd)
        assert_conserving(g_hd, x, tol=1e-6)
        assert flow_cost(g_hd, x) == pytest.approx(sol.objective)

    def test_ha_to_hd_fractional(self, situation2):
        g_ha = build(situation2, "HAbar")
        lp = solve_lp(assemble(g_ha).relaxed())
        g_hd = build(situation2, "HD")
        x = analysis.map_HA_to_HD(g_ha, lp.values, g_hd)
        assert_conserving(g_hd, x, tol=1e-6)
        assert flow_cost(g_hd, x) == pytest.approx(lp.objective)

    @pytest.mark.parametrize("variant", ["hA", "hAbar", "HD"])
    def test_ha_to_hd_refuses_another_variant(self, two_trip, variant):
        # a small graph's event nodes carry no composition, so HD has no
        # pull arc at them
        g, sol = _ip(two_trip, variant)
        with pytest.raises(ValueError, match="expects an HA or HAbar flow"):
            analysis.map_HA_to_HD(g, sol.values, build(two_trip, "HD"))

    def test_h_to_small_aggregates(self, situation2):
        g_h, sol = _ip(situation2, "HD")
        g_s = build(situation2, "hD")
        x = analysis.map_H_to_h(g_h, sol.values, g_s)
        assert_conserving(g_s, x, tol=1e-6)
        # aggregation can only reduce cost (the small model underestimates)
        assert flow_cost(g_s, x) <= sol.objective + 1e-9

    def test_extend_c_to_hd_matches_on_shared_arcs(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        sol = solve_ip(assemble(cg))
        g_hd = build(two_trip, "HD")
        x = analysis.extend_C_to_HD(cg, sol.values, g_hd)
        assert_conserving(g_hd, x, tol=1e-6)
        assert flow_cost(g_hd, x) == pytest.approx(sol.objective)
        for aid, v in sol.values.items():
            if aid.startswith(("trip.", "chg.")):
                assert x.get(aid, 0) == pytest.approx(v, abs=1e-9)

    def test_extend_c_fractional_lp(self, situation2):
        cg = contract(build(situation2, "HD"))
        lp = solve_lp(assemble(cg).relaxed())
        g_hd = build(situation2, "HD")
        x = analysis.extend_C_to_HD(cg, lp.values, g_hd)
        assert_conserving(g_hd, x, tol=1e-6)

    def test_extend_c_rejects_cut_violations(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        g_hd = build(two_trip, "HD")
        bad = {"trip.t1.rr": 1.0, "trip.t2.rr": 1.0, "chg.c1.rr.rr": 1.0,
               "trip.t1.r1": 0.0}
        # rr on both trips is fine; force an impossible pull instead
        bad = {"trip.t1.r1": 1.0, "trip.t2.rr": 1.0, "chg.c1.r1.rr": 1.0}
        with pytest.raises(CutViolated):
            analysis.extend_C_to_HD(cg, bad, g_hd)


class TestReplay:
    def test_situation1_small_optimum_is_illegal(self, situation1):
        for variant in ("hAbar", "hD"):
            g, sol = _ip(situation1, variant)
            ok, reason = analysis.replay_in_full(situation1, g, sol.values)
            assert not ok
            assert "illegal" in reason

    def test_two_trip_small_optimum_replays(self, two_trip):
        g, sol = _ip(two_trip, "hD")
        ok, _ = analysis.replay_in_full(two_trip, g, sol.values)
        assert ok


def _verdicts(inst, mp, **kwargs):
    return [v for v in analysis.compare(inst, **kwargs).verdicts if v.mp == mp]


class TestTheorem:
    def test_two_trip_verdicts(self, two_trip):
        lp = _verdicts(two_trip, "LP", closure=True)
        by_rel = {v.relation: v.verdict for v in lp}
        assert by_rel["a"] == by_rel["b"] == by_rel["e"] == "EqualityHolds"
        assert by_rel["c"] == by_rel["d"] == "InequalityHolds"

    def test_situation2_strict_gap(self, situation2):
        lp = _verdicts(situation2, "LP", closure=True)
        by_rel = {v.relation: v for v in lp}
        assert by_rel["d"].verdict == "StrictGap"
        assert by_rel["d"].lhs < by_rel["d"].rhs
        assert by_rel["e"].verdict == "EqualityHolds"

    def test_situation1_ip_gap(self, situation1):
        ip = _verdicts(situation1, "IP", closure=True)
        by_rel = {v.relation: v.verdict for v in ip}
        assert by_rel["c"] == "StrictGap"
        assert by_rel["e"] == "EqualityHolds"

    def test_exact_mode_equalities(self, two_trip):
        for v in _verdicts(two_trip, "LP", closure=True, exact=True):
            assert v.verdict in ("EqualityHolds", "InequalityHolds"), v

    def test_declared_arcs_weaker_than_closure(self, two_trip):
        inst = two_trip.with_direct_arcs([])  # no mid-day reuse at all
        verdicts = _verdicts(inst, "IP", closure=False)
        by_rel = {v.relation: v for v in verdicts}
        assert by_rel["a"].verdict in ("InequalityHolds", "StrictGap",
                                       "EqualityHolds")
        assert by_rel["a"].lhs >= by_rel["a"].rhs - 1e-9

    @pytest.mark.parametrize("closure,verdict", [(True, "VIOLATION"),
                                                 (False, "InequalityHolds")])
    def test_one_infeasible_side_under_the_closure_is_a_violation(self, closure,
                                                                   verdict):
        # the closure says HA = HD, so an infeasible HA beside a feasible HD
        # breaks relation a, as an infeasible HD beside a feasible HA does
        inf = analysis.INFEASIBLE
        values = {"HA": inf, "HD": 5.0, "hA": 3.0, "hD": 3.0, "C": 5.0}
        by_rel = {v.relation: v.verdict
                  for v in analysis.verify_theorem1(values, "IP", closure=closure)}
        assert by_rel["a"] == verdict
        mirror = {**values, "HA": 5.0, "HD": inf, "C": inf}
        by_rel = {v.relation: v.verdict
                  for v in analysis.verify_theorem1(mirror, "IP", closure=closure)}
        assert by_rel["a"] == "VIOLATION"

    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    def test_no_verdicts_without_connection_constraints(self, name):
        # the relations hold between models that keep one change per
        # connection; C cannot drop those rows
        rep = analysis.compare(canonical_instances()[name],
                               connection_constraints=False)
        assert not any(r.error for r in rep.rows)
        assert rep.verdicts == []


class TestProjection:
    def test_two_trip_sets_equal(self, two_trip):
        rep = analysis.verify_corollary_projection(two_trip)
        assert rep["equal"] and rep["n_HD"] == rep["n_C"] == rep["n_HAbar"]

    def test_flow_gap_toggle(self, flow_gap):
        on = analysis.verify_corollary_projection(flow_gap)
        assert on["equal"]
        off = analysis.verify_corollary_projection(
            flow_gap, connection_constraints=False)
        assert off["n_HD"] > on["n_HD"]  # dropping (iii) admits the turnaround

    def test_empty_instance(self):
        from rollstock.instance import Composition, Depot, Instance, UnitType
        inst = Instance("empty", (UnitType("r", 2, 100),),
                        (Composition("r1", ("r",)),), (), (),
                        (Depot("A", "r", 1, 1),), n_max=1)
        rep = analysis.verify_corollary_projection(inst)
        assert rep["equal"]
        assert rep["n_HD"] == 1  # the all-parked solution


class TestBreakdown:
    def test_two_trip_components(self, two_trip):
        g, sol = _ip(two_trip, "C")
        bd = analysis.cost_breakdown(two_trip, g, sol.values)
        assert bd.coupling_cost == pytest.approx(10.0)  # one uncoupling
        assert bd.deviation_cost == pytest.approx(0.0)
        assert bd.total == pytest.approx(sol.objective)

    @pytest.mark.parametrize("variant", ["hD", "hAbar", "HD", "HAbar", "C"])
    def test_total_matches_objective(self, situation2, variant):
        g, sol = _ip(situation2, variant)
        bd = analysis.cost_breakdown(situation2, g, sol.values)
        assert bd.total == pytest.approx(sol.objective)

    def test_linear_on_lp_solutions(self, situation2):
        g = build(situation2, "hD")
        lp = solve_lp(assemble(g).relaxed())
        bd = analysis.cost_breakdown(situation2, g, lp.values)
        assert bd.total == pytest.approx(lp.objective)

    def test_exact_mode_total(self, two_trip):
        cg = contract(build(two_trip, "HD"))
        sol = solve_ip(assemble(cg), exact=True)
        bd = analysis.cost_breakdown(two_trip, cg, sol.values, exact=True)
        assert bd.total == sol.objective


def _relaxation(inst, variant, exact=False):
    """The variant's LP relaxation, solved apart from ``compare``."""
    model = assemble(analysis.build_variant(inst, variant)).relaxed()
    return solve_lp(model, exact=exact)


class TestCompare:
    def test_full_sweep_report(self, two_trip):
        rep = analysis.compare(two_trip, closure=True)
        assert len(rep.rows) == 5
        assert not any(r.error for r in rep.rows)
        e_rel = [v for v in rep.verdicts if v.relation == "e"]
        assert all(v.verdict == "EqualityHolds" for v in e_rel)
        text = analysis.render_text(rep)
        assert "TwoTrip" in text and "variant" in text
        js = analysis.render_json(rep, with_timings=False)
        assert '"seconds"' not in js

    def test_situation1_flags_illegal_rows(self, situation1):
        rep = analysis.compare(situation1, closure=True)
        small = {r.variant: r for r in rep.rows if r.variant in ("hA", "hD")}
        assert all(r.replay_ok is False for r in small.values())

    def test_node_limit_rows_marked(self, situation2):
        rep = analysis.compare(situation2, variants=("hD",), node_limit=1)
        row = rep.rows[0]
        assert row.ip_status in ("NodeLimit", "Optimal")

    @pytest.mark.parametrize("name", sorted(canonical_instances()) +
                             ["gen1", "gen2", "gen3"])
    def test_lp_column_is_the_relaxation(self, name):
        if name.startswith("gen"):
            inst = generate(GenConfig(seed=int(name[3:]), trips_per_line=3))
        else:
            inst = canonical_instances()[name]
        rep = analysis.compare(inst, closure=True)
        for row in rep.rows:
            sol = _relaxation(inst, row.variant)
            assert row.lp_status == sol.status, row.variant
            assert row.lp_value == pytest.approx(analysis._lp_value(sol),
                                                 rel=1e-9), row.variant

    def test_exact_lp_column_is_the_relaxation(self, two_trip):
        rep = analysis.compare(two_trip, closure=True, exact=True)
        for row in rep.rows:
            value = analysis._lp_value(_relaxation(two_trip, row.variant, exact=True))
            assert isinstance(row.lp_value, Fraction)
            assert row.lp_value == value, row.variant

    def test_builds_and_solves_each_variant_once(self, two_trip, monkeypatch):
        built, lp_calls = [], []
        real_build, real_solve_lp = analysis.build, analysis.solve_lp

        def counting_build(instance, name, *args):
            built.append(name)
            return real_build(instance, name, *args)

        def counting_solve_lp(*args, **kwargs):
            lp_calls.append(args)
            return real_solve_lp(*args, **kwargs)

        monkeypatch.setattr(analysis, "build", counting_build)
        monkeypatch.setattr(analysis, "solve_lp", counting_solve_lp)
        rep = analysis.compare(two_trip, closure=True)
        assert not any(r.error for r in rep.rows)
        # C builds no hypergraph; HD is built for the HD row
        assert built == ["hD", "hAbar", "HD", "HAbar"]
        assert lp_calls == []
        # under the closure, hA and HA share the graphs of hAbar and HAbar
        built.clear()
        rep = analysis.compare(two_trip, analysis.SEVEN_VARIANTS, closure=True)
        assert not any(r.error for r in rep.rows)
        assert built == ["hD", "hAbar", "HD", "HAbar"]

    def test_solves_each_distinct_model_once(self, situation2, monkeypatch):
        # under the closure hA is hAbar and HA is HAbar: five models for
        # seven rows, and each plain row reports its bar row's answer
        solved = []
        real = analysis.solve_ip

        def counting_solve_ip(model, *args, **kwargs):
            solved.append(model.name)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(analysis, "solve_ip", counting_solve_ip)
        rep = analysis.compare(situation2, analysis.SEVEN_VARIANTS, closure=True)
        assert not any(r.error for r in rep.rows)
        assert len(solved) == 5 and len(set(solved)) == 5
        by = {r.variant: r for r in rep.rows}
        for plain in ("hA", "HA"):
            bar = by[plain + "bar"]
            assert (by[plain].lp_value, by[plain].ip_value, by[plain].breakdown,
                    by[plain].n_rows) == (bar.lp_value, bar.ip_value,
                                          bar.breakdown, bar.n_rows)

    def test_composition_builds_no_hypergraph(self, two_trip, monkeypatch):
        # C comes from the instance: neither its row in compare, nor
        # build_variant, nor the reduction check builds an HD graph
        from rollstock import hypergraph
        from rollstock.reduction import Cnf3, verify_reduction

        built = []
        monkeypatch.setattr(hypergraph.Hypergraph, "__post_init__",
                            lambda graph: built.append(graph.variant))
        rep = analysis.compare(two_trip, variants=("C",))
        assert not rep.rows[0].error and rep.rows[0].ip_status == "Optimal"
        assert analysis.build_variant(two_trip, "C").hyperarcs
        verdict = verify_reduction(Cnf3(1, ((1, 1, 1),)))
        assert verdict.agrees and verdict.feasible
        assert built == []
        assert analysis.build_variant(two_trip, "HD").variant == "HD"
        assert built == ["HD"]  # the spy sees a graph that is built

    @pytest.mark.parametrize("closure", [False, True])
    def test_enumerates_each_connections_changes_once(self, monkeypatch,
                                                      closure):
        from rollstock import hypergraph

        inst = generate(GenConfig(seed=3, lines=2, trips_per_line=3,
                                  split_join_fraction=1.0))  # with splits
        counts = {}
        real = hypergraph.enumerate_changes

        def counting(instance, conn):
            counts[conn.id] = counts.get(conn.id, 0) + 1
            return real(instance, conn)

        monkeypatch.setattr(hypergraph, "enumerate_changes", counting)
        rep = analysis.compare(inst, analysis.SEVEN_VARIANTS, closure=closure)
        assert not any(r.error for r in rep.rows)
        assert any(r.replay_ok is not None for r in rep.rows)  # replay ran
        assert counts == {c.id: 1 for c in inst.connections}
        assert len(counts) >= 3


class TestSvg:
    def test_rotation_diagram(self, two_trip):
        g, sol = _ip(two_trip, "hD")
        svg = analysis.rotation_svg(two_trip, g, sol.values)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg

"""LP/IP solver correctness against scipy and the enumeration oracle."""

from fractions import Fraction

import numpy as np
import pytest

from rollstock.composition import contract
from rollstock.errors import LimitExceeded, NumericalFailure
from rollstock.formulation import MilpModel, Row, Variable, assemble
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import build
from rollstock.instance import canonical_instances
from rollstock.reduction import parse_dimacs, reduce_3sat
from rollstock.solver import (
    branch_bound,
    dual_residual,
    enumerate_oracle,
    feasibility_residual,
    model_arrays,
    solve_ip,
    solve_lp,
)
from rollstock.solver import simplex
from rollstock.solver.simplex import AT_LOWER, AT_UPPER, BASIC, SimplexResult

scipy_opt = pytest.importorskip("scipy.optimize")

VARIANTS7 = ("hD", "hA", "HD", "HA", "hAbar", "HAbar", "C")


def _model(inst, variant):
    if variant == "C":
        return assemble(contract(build(inst, "HD")))
    return assemble(build(inst, variant))


def _unsat_c_model():
    f = parse_dimacs("p cnf 2 4\n1 1 2 0\n1 -2 -2 0\n-1 -1 2 0\n-1 -2 -2 0\n")
    inst, _ = reduce_3sat(f)
    return _model(inst, "C")


def _scipy_lp_value(model):
    form = model_arrays(model)
    ub = np.where(np.isinf(form.ub), None, form.ub)
    bounds = [(form.lb[i], ub[i]) for i in range(len(form.lb))]
    res = scipy_opt.linprog(form.c, A_eq=form.A, b_eq=form.b, bounds=bounds,
                            method="highs")
    return res


class TestLp:
    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    @pytest.mark.parametrize("variant", ["hD", "HD", "hAbar", "C"])
    def test_matches_scipy_on_canonicals(self, name, variant):
        inst = canonical_instances()[name]
        m = _model(inst, variant).relaxed()
        mine = solve_lp(m)
        ref = _scipy_lp_value(m)
        assert mine.status == "Optimal" and ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)

    def test_matches_scipy_on_generated(self):
        for seed in range(1, 6):
            inst = generate(GenConfig(seed=seed, trips_per_line=3))
            for variant in ("hD", "HAbar", "C"):
                m = _model(inst, variant).relaxed()
                mine = solve_lp(m)
                ref = _scipy_lp_value(m)
                assert mine.objective == pytest.approx(ref.fun, rel=1e-6,
                                                       abs=1e-6), (seed, variant)

    def test_residuals_within_tolerance(self, two_trip):
        m = _model(two_trip, "HD").relaxed()
        sol = solve_lp(m)
        assert feasibility_residual(m, sol.values) <= 1e-7
        assert dual_residual(m, sol) <= 1e-6

    @pytest.mark.parametrize("exact", [False, True])
    def test_infeasible_partition(self, exact):
        m = MilpModel("bad", [Variable("x", 0.0, 0.0, False, 1.0)],
                      [Row("r", (("x", 1.0),), "=", 1.0)])
        assert solve_lp(m, exact=exact).status == "Infeasible"

    @pytest.mark.parametrize("exact", [False, True])
    def test_infeasible_after_phase_one(self, exact):
        m = MilpModel("over", [Variable("x", 0.0, 1.0, False, 1.0),
                               Variable("y", 0.0, 1.0, False, 1.0)],
                      [Row("r", (("x", 1.0), ("y", 1.0)), "=", 3.0)])
        sol = solve_lp(m, exact=exact)
        assert sol.status == "Infeasible" and sol.iterations > 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_unbounded_negative_cost_parking(self, exact):
        m = MilpModel("ray", [Variable("p", 0.0, None, False, -1.0)],
                      [Row("r", (("p", 1.0),), ">=", 0.0)])
        assert solve_lp(m, exact=exact).status == "Unbounded"

    def test_dead_row_below_float_tolerance(self):
        # x is fixed, so the row is dead; its right-hand side is within the
        # float presolve's 1e-7 but not zero
        m = MilpModel("dead", [Variable("x", 0.0, 0.0, False, 1.0)],
                      [Row("r", (("x", 1.0),), "=", 1e-8)])
        assert solve_lp(m).status == "Optimal"
        assert solve_lp(m, exact=True).status == "Infeasible"

    def test_exact_mode_returns_fractions(self, situation2):
        m = _model(situation2, "hD").relaxed()
        sol = solve_lp(m, exact=True)
        assert isinstance(sol.objective, Fraction)
        assert float(sol.objective) == pytest.approx(12.0)
        assert sol.iterations == solve_lp(m).iterations > 1

    def test_refactorizes_before_every_256th_pass(self, monkeypatch):
        passes = _record_passes(monkeypatch)
        real = simplex._inverse
        inverses = []
        monkeypatch.setattr(simplex, "_inverse",
                            lambda *a: inverses.append(1) or real(*a))
        inst = generate(GenConfig(seed=5, lines=2, trips_per_line=4,
                                  stations=4))
        assert solve_lp(_model(inst, "HD").relaxed()).status == "Optimal"
        assert max(passes) > 256
        # and once more before reporting
        assert len(inverses) == sum(k // 256 for k in passes) + 1

    def test_determinism(self, situation2):
        m = _model(situation2, "HD").relaxed()
        a, b = solve_lp(m), solve_lp(m)
        assert a.objective == b.objective and a.values == b.values


class TestIp:
    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    @pytest.mark.parametrize("variant", VARIANTS7)
    def test_matches_oracle_on_canonicals(self, name, variant):
        inst = canonical_instances()[name]
        ip = solve_ip(_model(inst, variant))
        orc = enumerate_oracle(inst, variant)
        assert ip.status == orc.status == "Optimal"
        assert ip.objective == pytest.approx(orc.objective, abs=1e-6)

    def test_lp_below_ip_everywhere(self):
        for name, inst in canonical_instances().items():
            for variant in VARIANTS7:
                m = _model(inst, variant)
                lp = solve_lp(m.relaxed())
                ip = solve_ip(m)
                assert lp.objective <= ip.objective + 1e-7, (name, variant)
                assert ip.root.status == lp.status
                assert ip.root.objective == pytest.approx(lp.objective, rel=1e-9)

    def test_integral_lp_needs_one_node(self, two_trip):
        m = _model(two_trip, "C")
        lp = solve_lp(m.relaxed())
        ip = solve_ip(m)
        assert lp.objective == pytest.approx(ip.objective)
        assert ip.nodes == 1

    def test_optimal_bound_matches_objective(self, situation2):
        ip = solve_ip(_model(situation2, "HD"))
        assert ip.status == "Optimal"
        assert ip.bound == pytest.approx(ip.objective)

    def test_node_limit_reports_bound(self):
        # the reduction of an unsatisfiable formula needs more than one node
        ip = solve_ip(_unsat_c_model(), node_limit=1)
        assert ip.status == "NodeLimit"
        assert ip.bound is not None and ip.bound == pytest.approx(0.0)
        assert ip.objective is None and ip.values == {}

    def test_exact_ip_proves_unsatisfiable_reduction_infeasible(self):
        # the children are infeasible LPs, each started from its parent's
        # basis and proven by the dual loop's infeasible-row certificate
        ip = solve_ip(_unsat_c_model(), exact=True)
        assert ip.status == "Infeasible" and ip.nodes > 1
        assert ip.root.status == "Optimal" and ip.root.objective == Fraction(0)

    def test_exact_integrality_has_no_tolerance(self):
        # x = 10000001/10000000 is within 1e-6 of 1, but x = 1 leaves the
        # row short by 1 and x = 2 overshoots it: there is no integer point
        m = MilpModel("near", [Variable("x", 0.0, 5.0, True, 1.0),
                               Variable("s", 0.0, 5.0, False, 0.0)],
                      [Row("r", (("x", 10000000.0), ("s", 1.0)), "=", 10000001.0),
                       Row("cap", (("s", 1.0),), "<=", 0.0)])
        ip = solve_ip(m, exact=True)
        assert ip.status == "Infeasible"
        assert ip.root.objective == Fraction(10000001, 10000000)
        # float mode rounds x to 1, the residual check refuses that point,
        # and the search branches on x instead
        ip = solve_ip(m)
        assert ip.status == "Infeasible" and ip.nodes == 3

    def test_incumbent_residual_is_certified(self, monkeypatch):
        m = MilpModel("cert", [Variable("x", 0.0, 10.0, True, 1.0)],
                      [Row("r", (("x", 2.0),), ">=", 1.0)])
        real = branch_bound.solve_arrays
        calls = []

        def integral_but_infeasible(c, A, b, lb, ub, exact=False, start=None):
            calls.append(1)
            if len(calls) == 1:  # the true root, x = 0.5
                return real(c, A, b, lb, ub, exact=exact)
            return SimplexResult("Optimal", 0.0, np.zeros(A.shape[1]),
                                 np.zeros(A.shape[0]), 1)

        monkeypatch.setattr(branch_bound, "solve_arrays", integral_but_infeasible)
        with pytest.raises(NumericalFailure, match="incumbent residual 1.0"):
            solve_ip(m)

    def test_root_answers_when_propagation_proves_ip_infeasible(self):
        m = MilpModel("half", [Variable("x", 0.0, 10.0, True, 1.0)],
                      [Row("r", (("x", 2.0),), "=", 1.0)])
        ip = solve_ip(m)
        assert ip.status == "Infeasible"
        assert ip.root.status == "Optimal"
        assert ip.root.values["x"] == pytest.approx(0.5)

    def test_exact_ip(self, situation2):
        ip = solve_ip(_model(situation2, "HD"), exact=True)
        assert isinstance(ip.objective, Fraction)
        assert float(ip.objective) == pytest.approx(32.0)

    def test_matches_scipy_milp_on_generated(self):
        for seed in (3, 7):
            inst = generate(GenConfig(seed=seed, trips_per_line=3))
            for variant in ("hD", "C"):
                m = _model(inst, variant)
                form = model_arrays(m)
                n = len(form.var_ids)
                integrality = np.zeros(form.A.shape[1])
                integrality[:n] = form.integer.astype(float)
                res = scipy_opt.milp(
                    c=form.c,
                    constraints=scipy_opt.LinearConstraint(form.A, form.b, form.b),
                    bounds=scipy_opt.Bounds(form.lb, form.ub),
                    integrality=integrality)
                ip = solve_ip(m)
                assert ip.objective == pytest.approx(res.fun, rel=1e-6), (seed, variant)


_SAT_SHAPED = (  # unsatisfiable: two variables, four clauses, each padded
    "p cnf 2 4\n2 2 1 0\n-2 1 1 0\n2 -1 -1 0\n-2 -2 -1 0\n",
    "p cnf 2 4\n-1 2 2 0\n1 1 2 0\n-1 -1 -2 0\n1 -2 -2 0\n",
    "p cnf 2 4\n2 -1 -1 0\n-2 -2 1 0\n2 2 1 0\n-2 -1 -1 0\n",
    "p cnf 2 4\n1 2 2 0\n1 1 -2 0\n-1 2 2 0\n-1 -2 -2 0\n",
)


def _sat_c_model(text):
    inst, _ = reduce_3sat(parse_dimacs(text))
    return _model(inst, "C")


def _branching_genbench(seed, variant):
    inst = generate(GenConfig(seed=seed, lines=3, trips_per_line=3,
                              unit_types=2, stations=3))
    return _model(inst, variant)


def _record_children(monkeypatch):
    """Record (start, lb, ub, warm result, cold result) of every node LP
    started from a parent's basis; the cold result re-solves the same
    bounds from scratch."""
    real = branch_bound.solve_arrays
    children = []

    def recording(c, A, b, lb, ub, exact=False, start=None):
        res = real(c, A, b, lb, ub, exact=exact, start=start)
        if start is not None:
            cold = real(c, A, b, lb, ub, exact=exact)
            children.append((start, lb, ub, res, cold))
        return res

    monkeypatch.setattr(branch_bound, "solve_arrays", recording)
    return children


def _record_passes(monkeypatch):
    """Record the passes of every primal loop."""
    real = simplex._simplex
    passes = []

    def recording(p, costs):
        out = real(p, costs)
        passes.append(p.iters)
        return out

    monkeypatch.setattr(simplex, "_simplex", recording)
    return passes


class TestWarmStart:
    @pytest.mark.parametrize("build,exact", [
        (_unsat_c_model, False),
        (_unsat_c_model, True),
        *[(lambda text=text: _sat_c_model(text), False) for text in _SAT_SHAPED],
        (lambda: _branching_genbench(3, "hD"), False),
        (lambda: _branching_genbench(20, "hD"), False),
        (lambda: _branching_genbench(3, "hD"), True),
    ], ids=["unsat-2v4c", "unsat-2v4c-exact", "sat-shaped-0", "sat-shaped-1",
            "sat-shaped-2", "sat-shaped-3", "genbench-3-hD", "genbench-20-hD",
            "genbench-3-hD-exact"])
    def test_children_match_a_cold_solve(self, monkeypatch, build, exact):
        model = build()
        children = _record_children(monkeypatch)
        ip = solve_ip(model, exact=exact)
        assert ip.nodes > 1 and len(children) == ip.nodes - 1
        for _, _, _, warm, cold in children:
            assert warm.status == cold.status
            if exact:
                assert warm.objective == cold.objective
            elif warm.status == "Optimal":
                assert warm.objective == pytest.approx(cold.objective,
                                                       rel=1e-9, abs=1e-9)

    def test_children_pivot_less_than_the_root(self, monkeypatch):
        children = _record_children(monkeypatch)
        ip = solve_ip(_unsat_c_model())
        assert ip.status == "Infeasible" and ip.nodes == 3
        assert ip.iterations == ip.root.iterations + sum(
            warm.iterations for _, _, _, warm, _ in children)
        assert ip.iterations < ip.root.iterations * ip.nodes

    def test_dual_loop_keeps_dual_feasibility(self, monkeypatch):
        # so the primal pass after it only confirms the optimum
        passes = _record_passes(monkeypatch)
        ip = solve_ip(_branching_genbench(20, "hD"))
        assert ip.status == "Optimal" and ip.nodes > 10
        assert len(passes) > 2 and set(passes[2:]) == {1}  # after the root

    def test_fixed_nonbasic_column_never_enters(self, monkeypatch):
        children = _record_children(monkeypatch)
        solve_ip(_branching_genbench(20, "hD"))
        for start, lb, ub, warm, _ in children:
            for k, j in enumerate(start.free_cols):
                if lb[j] == ub[j] and k not in start.basis:
                    assert k not in warm.basis.basis

    def test_branching_fixed_basic_column_leaves_the_basis(self, monkeypatch):
        # the LP optimum x = 0.5, y = 1 has x basic; each child fixes x
        m = MilpModel("fix", [Variable("x", 0.0, 1.0, True, -1.0),
                              Variable("y", 0.0, 1.0, True, -2.0)],
                      [Row("r", (("x", 1.0), ("y", 1.0)), "<=", 1.5)])
        children = _record_children(monkeypatch)
        ip = solve_ip(m)
        assert ip.status == "Optimal" and ip.objective == pytest.approx(-2.0)
        assert [(lb[0], ub[0]) for _, lb, ub, _, _ in children] == [(0, 0), (1, 1)]
        for start, _, _, warm, _ in children:
            k = start.free_cols.index(0)
            assert k in start.basis
            assert warm.status == "Optimal" and k not in warm.basis.basis


class TestOracle:
    def test_trip_limit(self):
        inst = generate(GenConfig(seed=1, lines=3, trips_per_line=4))
        with pytest.raises(LimitExceeded):
            enumerate_oracle(inst, "HD", trip_limit=4)

    def test_oracle_matches_bb_on_random_instances(self):
        for seed in range(1, 11):
            cfg = GenConfig(seed=seed, lines=1 + seed % 2,
                            trips_per_line=2 + seed % 2,
                            unit_types=1 + seed % 2)
            inst = generate(cfg)
            for variant in ("hD", "HD", "C"):
                ip = solve_ip(_model(inst, variant))
                orc = enumerate_oracle(inst, variant)
                assert ip.status == orc.status
                if ip.status == "Optimal":
                    assert ip.objective == pytest.approx(orc.objective,
                                                         abs=1e-6), (seed, variant)

    def test_infeasible_instance_both_paths(self, two_trip):
        import dataclasses
        conn = dataclasses.replace(two_trip.connections[0],
                                   allowed_changes=(("rr", "b1"),))
        inst = dataclasses.replace(two_trip, connections=(conn,))
        orc = enumerate_oracle(inst, "HD")
        model = _model(inst, "HD")
        ip = solve_ip(model)
        assert orc.status == ip.status == "Infeasible"
        assert ip.root.status == solve_lp(model.relaxed()).status


def _hand_basis(monkeypatch, edit):
    """Let the certificate see the float run's basis after ``edit(run)``."""
    real = simplex._solve_float

    def edited(*args):
        res = real(*args)
        edit(res.basis)
        return res

    monkeypatch.setattr(simplex, "_solve_float", edited)


_X_LE_1 = ([Variable("x", 0.0, None, False, -1.0)],
           [Row("r", (("x", 1.0),), "<=", 1.0)])       # optimum -1 at x = 1
_X_GE_3 = ([Variable("x", 0.0, 5.0, False, 1.0)],
           [Row("r", (("x", 1.0),), ">=", 3.0)])       # optimum 3 at x = 3
_P_GE_0 = ([Variable("p", 0.0, None, False, 1.0)],
           [Row("r", (("p", 1.0),), ">=", 0.0)])       # optimum 0 at p = 0
_P_GE_3 = ([Variable("p", 0.0, None, False, 1.0)],
           [Row("r", (("p", 1.0),), ">=", 3.0)])       # optimum 3 at p = 3
_TWIN_ROWS = ([Variable("x", 0.0, 5.0, False, 1.0),
               Variable("y", 0.0, 5.0, False, 1.0)],
              [Row("r1", (("x", 1.0), ("y", 1.0)), "=", 2.0),
               Row("r2", (("x", 1.0), ("y", 1.0)), "=", 2.0)])  # optimum 2


class TestCertificate:
    # Reduced columns are the structural columns, the slacks, then one
    # artificial per row; each case hands the certificate a wrong basis.
    @pytest.mark.parametrize("model,state,basis,status,failure", [
        (_X_LE_1, "Optimal", [1], [AT_LOWER, BASIC, AT_LOWER],
         "reduced cost -1 of column 0 has the wrong sign"),
        (_X_GE_3, "Optimal", [1], [AT_LOWER, BASIC, AT_LOWER],
         "basic column 1 = -3 is outside its bounds"),
        (_X_LE_1, "Optimal", [1], [AT_UPPER, BASIC, AT_LOWER],
         "column 0 rests at an infinite bound"),
        (_TWIN_ROWS, "Optimal", [0, 1], [BASIC, BASIC, AT_LOWER, AT_LOWER],
         "singular basis"),
        (_X_LE_1, "Unbounded", [1], [AT_LOWER, BASIC, AT_LOWER],
         "column 0 is no unbounded ray"),
        (_P_GE_0, "Unbounded", [1], [AT_LOWER, BASIC, AT_LOWER],
         "column 0 is no unbounded ray"),
        (_X_LE_1, "Infeasible", [1], [AT_LOWER, BASIC, AT_LOWER],
         "the phase-1 optimum is zero"),
    ], ids=["non-optimal", "infeasible", "at-infinity", "singular",
            "blocked-ray", "ascending-ray", "feasible-phase-1"])
    def test_wrong_basis_names_the_failed_check(self, monkeypatch, model,
                                                state, basis, status, failure):
        m = MilpModel("handed", *model)
        assert solve_lp(m, exact=True).status == "Optimal"

        def hand(run):
            run.state, run.entering = state, 0
            run.basis[:] = basis
            run.status[:] = status

        _hand_basis(monkeypatch, hand)
        with pytest.raises(NumericalFailure, match=f"certificate: {failure}"):
            solve_lp(m, exact=True)

    # an Infeasible state with a row is the dual loop's: no nonbasic values
    # within their bounds may bring that row's basic column into its bounds
    @pytest.mark.parametrize("model,basis,status,failure", [
        (_X_GE_3, [1], [AT_LOWER, BASIC, AT_LOWER],
         "row 0 can reach the bounds of its basic column 1"),
        (_P_GE_3, [1], [AT_LOWER, BASIC, AT_LOWER],
         "column 0 moves row 0 without bound"),
    ], ids=["reachable-row", "unbounded-row"])
    def test_wrong_infeasible_row_names_the_failed_check(
            self, monkeypatch, model, basis, status, failure):
        m = MilpModel("handed", *model)

        def hand(run):
            run.state, run.row = "Infeasible", 0
            run.basis[:] = basis
            run.status[:] = status

        _hand_basis(monkeypatch, hand)
        with pytest.raises(NumericalFailure, match=f"certificate: {failure}"):
            solve_lp(m, exact=True)

    def test_layout_must_hold_every_free_column(self, monkeypatch):
        def drop_first(run):
            run.free_cols = run.free_cols[1:]

        _hand_basis(monkeypatch, drop_first)
        with pytest.raises(NumericalFailure, match="certificate: the float "
                           "run's layout leaves out free column 0"):
            solve_lp(MilpModel("handed", *_X_GE_3), exact=True)

    def test_compare_reports_a_failed_certificate_per_row(self, two_trip,
                                                           monkeypatch):
        from rollstock import analysis

        def repeat_column(run):
            run.basis[1] = run.basis[0]

        _hand_basis(monkeypatch, repeat_column)
        rep = analysis.compare(two_trip, exact=True)
        assert rep.rows and all(
            r.error == "NumericalFailure: certificate: singular basis"
            for r in rep.rows)
        assert rep.verdicts == []

"""LP/IP solver correctness against scipy and the enumeration oracle."""

import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from rollstock.composition import contract
from rollstock.errors import LimitExceeded, NumericalFailure
from rollstock.formulation import MilpModel, ModelOptions, Row, Variable, assemble
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import build
from rollstock.instance import canonical_instances
from rollstock.reduction import parse_dimacs, reduce_3sat, verify_reduction
from rollstock.solver import (
    ArrayForm,
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


def _solve_arrays(model, exact):
    """The simplex result, basis included, of ``model``'s LP."""
    form = model_arrays(model)
    return simplex.solve_arrays(form.c, form.nz, form.b, form.lb, form.ub,
                                exact=exact)


def _nonzeros(A):
    """A's nonzeros as the simplex holds them: (columns, rows, values),
    column by column."""
    cols, rows = np.nonzero(A.T)
    return cols, rows, A[rows, cols]


def _dense(nz, m, n):
    """The m x n matrix whose nonzeros are ``nz``."""
    A = np.zeros((m, n))
    cols, rows, vals = nz
    A[rows, cols] = vals
    return A


def _scipy_lp_value(model):
    form = model_arrays(model)
    ub = np.where(np.isinf(form.ub), None, form.ub)
    bounds = [(form.lb[i], ub[i]) for i in range(len(form.lb))]
    res = scipy_opt.linprog(form.c, A_eq=form.A, b_eq=form.b, bounds=bounds,
                            method="highs")
    return res


def _forced_fraction_model(cap="="):
    """r forces x = 10000001/10000000 once cap forces s = 0; y >= 1."""
    return MilpModel("forced", [
        Variable("x", 0.0, 5.0, False, 1.0),
        Variable("s", 0.0, 5.0, True, 0.0),
        Variable("y", 0.0, 3.0, True, 1.0)],
        [Row("r", (("x", 10000000.0), ("s", 1.0)), "=", 10000001.0),
         Row("cap", (("s", 1.0),), cap, 0.0),
         Row("g", (("y", 1.0),), ">=", 1.0)])


class TestPresolve:
    def test_reductions_are_exact_and_in_order(self):
        form = model_arrays(_forced_fraction_model(cap="<="))
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        # columns x, s, y, then the slacks of cap and g; cap pins s and its
        # slack to 0, then r is a singleton row in x
        assert layout.records == [(1, [(1, 1), (3, 1)]), (0, [(0, 10000000)])]
        assert layout.fixed == {1: 0, 3: 0, 0: Fraction(10000001, 10000000)}
        assert layout.free_cols == [2, 4] and layout.live_rows == [2]
        assert layout.rhs[2] == 1

    def test_a_chain_of_singletons_is_followed_to_its_end(self):
        # x_0 = 3 and x_k - x_(k+1) = 0: each row fixes the next column
        k = 30
        rows = [Row(f"e{i}", ((f"x{i}", 1.0), (f"x{i + 1}", -1.0)), "=", 0.0)
                for i in range(k - 1)] + [Row("top", (("x0", 1.0),), "=", 3.0)]
        m = MilpModel("chain", [Variable(f"x{i}", 0.0, 5.0, False, 1.0)
                                for i in range(k)], rows)
        form = model_arrays(m)
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        assert layout.fixed == {j: 3 for j in range(k)}
        assert layout.free_cols == [] and layout.live_rows == []
        assert [i for i, _ in layout.records] == [k - 1, *range(k - 1)]
        sol = solve_lp(m, exact=True)
        assert sol.objective == 3 * k and dual_residual(m, sol) == 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_an_unanchored_chain_of_equal_columns(self, exact):
        # x_i - x_(i+1) = 0 with no row fixing any x: each row folds its
        # higher column into x0, which takes x3's bound 1.5; cap keeps x4 in
        # a second row, and is left as 2 x0 + slack = 10
        m = MilpModel("equal", [
            Variable(f"x{i}", 0.0, 1.5 if i == 3 else 5.0, False, -1.0)
            for i in range(5)],
            [Row(f"e{i}", ((f"x{i}", 1.0), (f"x{i + 1}", -1.0)), "=", 0.0)
             for i in range(4)] + [Row("cap", (("x0", 1.0), ("x4", 1.0)),
                                       "<=", 10.0)])
        form = model_arrays(m)
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        assert [rec[:5] for rec in layout.records] == [
            (i, i + 1, 1, 0, 0) for i in range(4)]
        assert layout.live_rows == [4] and layout.free_cols == [0, 5]
        assert layout.columns[0] == {4: 2}
        assert simplex._costs(layout, form.c.tolist())[0] == -5
        lo, up = simplex._bounds(layout, form.lb, form.ub)
        assert (lo[0], up[0]) == (0, Fraction(3, 2))
        sol = solve_lp(m, exact=exact)
        assert sol.status == "Optimal" and sol.objective == -7.5
        assert sol.values == {f"x{i}": 1.5 for i in range(5)}
        # x0 rests at the bound x3 implies, so e2 zeroes x0's reduced cost
        # and x3's is -5 at its upper bound; the other rows zero their k's
        assert sol.duals == {"e0": -1, "e1": -2, "e2": -3, "e3": 1, "cap": 0}
        assert dual_residual(m, sol) == 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_chain_of_complementary_columns(self, exact):
        # x_i + x_(i+1) = 1: x1 = 1 - x0, x2 = x0, x3 = 1 - x0 and x4 = x0,
        # so cap is 2 x0 + slack = 3/2 and binds at x0 = 3/4
        m = MilpModel("pairs", [
            Variable(f"x{i}", 0.0, 1.0, False, 0.0 if i % 2 else -1.0)
            for i in range(5)],
            [Row(f"e{i}", ((f"x{i}", 1.0), (f"x{i + 1}", 1.0)), "=", 1.0)
             for i in range(4)] + [Row("cap", (("x0", 1.0), ("x4", 1.0)),
                                       "<=", 1.5)])
        form = model_arrays(m)
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        assert [rec[:5] for rec in layout.records] == [
            (0, 1, -1, 0, 1), (1, 2, 1, 0, 0), (2, 3, -1, 0, 1), (3, 4, 1, 0, 0)]
        assert layout.live_rows == [4] and layout.free_cols == [0, 5]
        assert layout.columns[0] == {4: 2}
        assert simplex._costs(layout, form.c.tolist())[0] == -3
        assert layout.rhs[4] == Fraction(3, 2)
        sol = solve_lp(m, exact=exact)
        assert sol.status == "Optimal" and sol.objective == -2.25
        assert sol.values == {"x0": 0.75, "x1": 0.25, "x2": 0.75, "x3": 0.25,
                              "x4": 0.75}
        # every x is interior, so every reduced cost is zero: cap's dual
        # is -3/2, x0's then gives e0's, x1's e1's, and so on
        assert sol.duals == {"e0": 0.5, "e1": -0.5, "e2": -0.5, "e3": 0.5,
                             "cap": -1.5}
        assert dual_residual(m, sol) == 0

    def test_the_unsatisfiable_reduction_keeps_at_most_half_its_rows(self):
        # the all-sign-pairs 2-variable, 4-clause formula: of the C model's
        # 267 rows the fixing rules alone leave 222 live; the doubleton
        # substitutions leave at most half of those
        form = model_arrays(_unsat_c_model())
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        assert len(form.b) == 267
        assert 2 * len(layout.live_rows) <= 222
        f = parse_dimacs("p cnf 2 4\n1 1 2 0\n1 -2 -2 0\n-1 -1 2 0\n"
                         "-1 -2 -2 0\n")
        verdict = verify_reduction(f)
        assert verdict.agrees and not verdict.sat and not verdict.feasible

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_column_left_in_no_row(self, exact):
        # the presolve drops the only row; x is free and meets no live row
        m = MilpModel("empty", [Variable("x", 0.0, 5.0, False, 1.0),
                                Variable("z", 0.0, 5.0, False, 1.0)],
                      [Row("d", (("z", 1.0),), "=", 2.0)])
        sol = solve_lp(m, exact=exact)
        assert sol.status == "Optimal" and sol.objective == 2
        assert sol.values == {"x": 0, "z": 2} and sol.duals == {"d": 1}

    def test_nonzeros_are_the_reduced_matrix(self):
        # layout.nz against the reduced matrix built densely: the original
        # entries of the live rows and free columns, with each column that
        # others were folded into written from its exact column
        folds = 0
        models = [_model(inst, variant)
                  for inst in canonical_instances().values()
                  for variant in VARIANTS7] + [_unsat_c_model()]
        for model in models:
            form = model_arrays(model)
            layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
            live, free = layout.live_rows, layout.free_cols
            A_r = form.A[np.ix_(live, free)]
            folded = {rec[3] for rec in layout.records if len(rec) > 2}
            at = {i: p for p, i in enumerate(live)}
            for p, j in enumerate(free):
                if j in folded:
                    folds += 1
                    A_r[:, p] = 0.0
                    for i, a in layout.columns[j].items():
                        A_r[at[i], p] = float(a)
            cols, rows, vals = layout.nz
            ref_cols, ref_rows, ref_vals = _nonzeros(A_r)
            assert np.array_equal(cols, ref_cols), model.name
            assert np.array_equal(rows, ref_rows), model.name
            assert np.array_equal(vals, ref_vals), model.name
            assert np.array_equal(_dense(layout.nz, *A_r.shape), A_r)
        assert folds > 0


class TestArrayForm:
    def test_a_repeated_variable_sums_and_a_cancelled_pair_is_no_nonzero(self):
        # r lists x three times, summed in the row's order, and y twice,
        # cancelling; y's only nonzero is in g, before g's slack column
        m = MilpModel("sums", [Variable("x", 0.0, 5.0, False, 0.5),
                               Variable("y", 0.0, 5.0, False, 1.0),
                               Variable("z", 0.0, 5.0, False, 1.0)],
                      [Row("r", (("x", 0.1), ("y", 1.0), ("x", 0.2), ("z", 1.0),
                                 ("y", -1.0), ("x", 0.3)), "=", 0.6),
                       Row("g", (("y", 1.0),), "<=", 4.0)])
        form = model_arrays(m)
        cols, rows, vals = form.nz
        assert cols.tolist() == [0, 1, 2, 3] and rows.tolist() == [0, 1, 0, 1]
        assert vals.tolist() == [(0.1 + 0.2) + 0.3, 1.0, 1.0, 1.0]
        assert np.array_equal(form.A, _dense(form.nz, 2, 4))
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        assert layout.cols[0] == [(0, Fraction(3, 5))] and layout.cols[1] == [(1, 1)]
        # 3/5 x + z = 3/5: x = 1 costs 1/2, z = 3/5 costs 3/5
        for exact in (False, True):
            sol = solve_lp(m, exact=exact)
            assert sol.status == "Optimal" and sol.objective == 0.5
            assert sol.values == {"x": 1, "y": 0, "z": 0}

    def test_no_solver_path_reads_the_dense_matrix(self, monkeypatch):
        # ArrayForm.A is a view for other solvers; the LP, branch and bound,
        # the certificate and both residuals run on the nonzeros
        def dense(form):
            raise AssertionError("the dense matrix was read")

        monkeypatch.setattr(ArrayForm, "A", property(dense))
        models = [_model(inst, variant)
                  for inst in canonical_instances().values()
                  for variant in VARIANTS7] + [_unsat_c_model()]
        for model in models:
            for exact in (False, True):
                lp = solve_lp(model.relaxed(), exact=exact)
                ip = solve_ip(model, exact=exact)
                assert lp.status == ip.root.status
                if lp.status == "Optimal":
                    assert feasibility_residual(model, lp.values) <= 1e-7
                    assert dual_residual(model.relaxed(), lp) <= 1e-6
        with pytest.raises(AssertionError, match="dense matrix was read"):
            model_arrays(models[0]).A


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

    @pytest.mark.parametrize("variant", ["C", "HD", "HAbar"])
    def test_matches_scipy_on_ladder_rung(self, variant):
        # genbench ladder, 4 lines x 8 trips, 4 stations: HAbar is 718 x
        # 8,360 and rank deficient, one dependent flow row per unit type
        inst = generate(GenConfig(seed=5, lines=4, trips_per_line=8,
                                  stations=4))
        m = _model(inst, variant).relaxed()
        mine = solve_lp(m)
        ref = _scipy_lp_value(m)
        assert mine.status == "Optimal" and ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, rel=1e-6)

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
        # a row that forces its one free column outside its bounds: the
        # presolve's verdict, with no run behind it
        m = MilpModel("forced", [Variable("x", 0.0, 5.0, False, 1.0)],
                      [Row("r", (("x", 1.0),), "=", 6.0)])
        res = _solve_arrays(m, exact)
        assert res.status == "Infeasible" and res.basis is None
        # a partition no free column can fill: the dual loop from the
        # slack basis stops on its row, which exact mode certifies
        m = MilpModel("over", [Variable("x", 0.0, 1.0, False, 1.0),
                               Variable("y", 0.0, 1.0, False, 1.0)],
                      [Row("r", (("x", 1.0), ("y", 1.0)), "=", 3.0)])
        res = _solve_arrays(m, exact)
        assert res.status == "Infeasible" and res.iterations > 0
        assert res.basis.row >= 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_infeasible_with_negative_cost(self, exact, monkeypatch):
        # the dual loop stops on the row whatever the costs, and exact mode
        # certifies that row
        m = MilpModel("over", [Variable("x", 0.0, 1.0, False, -1.0),
                               Variable("y", 0.0, 1.0, False, 1.0)],
                      [Row("r", (("x", 1.0), ("y", 1.0)), "=", 3.0)])
        passes = _record_passes(monkeypatch)
        res = _solve_arrays(m, exact)
        assert res.status == "Infeasible" and res.iterations > 0
        assert res.basis.row >= 0
        assert [loop for loop, _ in passes] == ["_dual"]

    @pytest.mark.parametrize("exact", [False, True])
    def test_negative_cost_runs_phase_one(self, exact, monkeypatch):
        # the dual loop reaches a feasible basis on the clipped costs, and
        # the primal pass optimises the true ones
        m = MilpModel("neg", [Variable("x", 0.0, 2.0, False, -1.0),
                              Variable("y", 0.0, None, False, 0.5)],
                      [Row("r", (("x", 1.0), ("y", -1.0)), "<=", 1.0)])
        passes = _record_passes(monkeypatch)
        sol = solve_lp(m, exact=exact)
        assert sol.status == "Optimal" and sol.objective == -1.5
        assert sol.values["x"] == 2 and sol.values["y"] == 1
        assert [loop for loop, _ in passes] == ["_dual", "_simplex"]

    def test_cold_dual_loop_sees_no_negative_cost(self, monkeypatch):
        # the slack basis is dual feasible only for nonnegative costs; a
        # warm child's basis is optimal for the true costs and keeps them
        real = simplex._dual
        seen = []
        monkeypatch.setattr(simplex, "_dual", lambda p, costs: (
            seen.append(float(costs.min())) or real(p, costs)))
        m = MilpModel("fix", [Variable("x", 0.0, 1.0, True, -1.0),
                              Variable("y", 0.0, 1.0, True, -2.0)],
                      [Row("r", (("x", 1.0), ("y", 1.0)), "<=", 1.5)])
        ip = solve_ip(m)
        assert ip.status == "Optimal" and ip.objective == pytest.approx(-2.0)
        assert ip.nodes == 3 and seen[0] == 0.0 and seen[1:] == [-2.0, -2.0]

    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    @pytest.mark.parametrize("variant", ["HD", "C", "hAbar"])
    def test_negative_costs_on_canonicals(self, name, variant):
        # every bounded column pays -c-1: the slack basis is dual
        # infeasible for these costs, the answer is still HiGHS's
        form = model_arrays(_model(canonical_instances()[name],
                                   variant).relaxed())
        bounded = np.isfinite(form.ub)
        c = np.where(bounded, -form.c - 1.0, form.c)
        ref = scipy_opt.linprog(c, A_eq=form.A, b_eq=form.b, method="highs",
                                bounds=list(zip(form.lb, np.where(
                                    bounded, form.ub, None))))
        assert ref.status == 0
        for exact in (False, True):
            res = simplex.solve_arrays(c, form.nz, form.b, form.lb, form.ub,
                                       exact=exact)
            assert res.status == "Optimal"
            assert float(res.objective) == pytest.approx(ref.fun, rel=1e-6)
        # and a negative cost on every unbounded column is a ray
        c = np.where(bounded, form.c, -1.0)
        for exact in (False, True):
            assert simplex.solve_arrays(c, form.nz, form.b, form.lb, form.ub,
                                        exact=exact).status == "Unbounded"

    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    def test_dual_root_ends_optimal(self, monkeypatch, name):
        # the dual loop from the slack basis reaches the optimum, so the
        # primal pass after it only confirms
        inst = canonical_instances()[name]
        passes = _record_passes(monkeypatch)
        for variant in VARIANTS7:
            passes.clear()
            assert solve_lp(_model(inst, variant).relaxed()).status == "Optimal"
            assert passes[0][0] == "_dual" and passes[1:] == [("_simplex", 1)]

    def test_dual_leaves_on_the_steepest_edge(self):
        # B^-1 = diag(4, 1): row 0 violates its bound by 3 and row 1 by 2,
        # but 3^2 / 4^2 < 2^2 / 1^2, so row 1 leaves first
        A = np.array([[0.25, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        b = np.array([-0.75, -2.0])
        lb, ub = np.zeros(4), np.full(4, simplex.INF)
        status = np.array([BASIC, BASIC, AT_LOWER, AT_LOWER])
        p = simplex._Pivots(_nonzeros(A), b, lb, ub, [0, 1], status,
                            np.diag([4.0, 1.0]), 100)
        leaving = []
        real = p.pivot
        p.pivot = lambda *a: leaving.append(a[3]) or real(*a)
        assert simplex._dual(p, np.array([0.0, 0.0, 1.0, 1.0])) == -1
        assert leaving == [1, 0] and p.basis == [2, 3]
        # the same two pivots under a limit of one pass
        status = np.array([BASIC, BASIC, AT_LOWER, AT_LOWER])
        p = simplex._Pivots(_nonzeros(A), b, lb, ub, [0, 1], status,
                            np.diag([4.0, 1.0]), 1)
        with pytest.raises(NumericalFailure,
                           match="^simplex iteration limit 1 reached$"):
            simplex._dual(p, np.array([0.0, 0.0, 1.0, 1.0]))
        assert p.iters == 1

    @pytest.mark.parametrize("exact", [False, True])
    def test_unbounded_negative_cost_parking(self, exact):
        m = MilpModel("ray", [Variable("p", 0.0, None, False, -1.0)],
                      [Row("r", (("p", 1.0),), ">=", 0.0)])
        assert solve_lp(m, exact=exact).status == "Unbounded"

    def test_dead_row_below_float_tolerance(self):
        # x is fixed, so the row is dead; its right-hand side is below any
        # float tolerance but not zero, and the presolve that both modes
        # share checks it exactly
        m = MilpModel("dead", [Variable("x", 0.0, 0.0, False, 1.0)],
                      [Row("r", (("x", 1.0),), "=", 1e-8)])
        assert solve_lp(m).status == "Infeasible"
        assert solve_lp(m, exact=True).status == "Infeasible"

    def test_no_nonzero_lifts_to_zero(self):
        # 2.5e-10 and 3e-10 lie below the resolution of the small-denominator
        # reading (1e-9); they keep their binary value instead of becoming 0
        m = MilpModel("dead", [Variable("x", 0.0, 0.0, False, 1.0)],
                      [Row("r", (("x", 1.0),), "=", 2.5e-10)])
        assert solve_lp(m).status == "Infeasible"
        assert solve_lp(m, exact=True).status == "Infeasible"
        lifted = simplex._lift(np.array([3e-10, -3e-10, 0.1, 0.0]))
        assert lifted[:2] == [Fraction(3e-10), Fraction(-3e-10)]
        assert lifted[2:] == [Fraction(1, 10), 0]
        # the coefficient stays in the matrix that the presolve certifies
        form = model_arrays(MilpModel("tiny", [Variable("x", 0.0, 1.0, False, 1.0),
                                               Variable("z", 0.0, 1.0, False, 1.0)],
                                      [Row("r", (("x", 3e-10), ("z", 1.0)), "=", 1.0)]))
        layout = simplex._presolve(form.nz, form.b, form.lb, form.ub)
        assert layout.cols[0] == [(0, Fraction(3e-10))]

    def test_exact_mode_returns_fractions(self, situation2):
        m = _model(situation2, "hD").relaxed()
        sol = solve_lp(m, exact=True)
        assert isinstance(sol.objective, Fraction)
        assert float(sol.objective) == pytest.approx(12.0)
        assert sol.iterations == solve_lp(m).iterations > 1

    def test_refactorizes_before_every_256th_pass(self, monkeypatch):
        passes = _record_passes(monkeypatch)
        real = simplex._inverse
        inverses = []  # the loops ended so far, at each inversion
        monkeypatch.setattr(simplex, "_inverse",
                            lambda *a: inverses.append(len(passes)) or real(*a))
        inst = generate(GenConfig(seed=5, lines=2, trips_per_line=8,
                                  stations=4))
        assert solve_lp(_model(inst, "HD").relaxed()).status == "Optimal"
        assert max(k for _, k in passes) > 256
        # the slack basis needs no inverse, and the report needs one only
        # when the drift test fires: after both loops ended
        drifted = inverses.count(2)
        assert len(inverses) == sum(k // 256 for _, k in passes) + drifted
        assert drifted == 0

    def test_determinism(self, situation2):
        m = _model(situation2, "HD").relaxed()
        a, b = solve_lp(m), solve_lp(m)
        assert a.objective == b.objective and a.values == b.values


class TestBland:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_blands_rule_from_the_first_pass_matches_scipy(self, monkeypatch, seed):
        # as if every run of degenerate passes were cycling, so both loops
        # follow Bland's rule from their first pass; the -c-1 costs of the
        # bounded columns make the primal loop pivot too
        monkeypatch.setattr(simplex, "_cycling", lambda run, p: True)
        real = simplex._pick_entering
        picks = []
        monkeypatch.setattr(simplex, "_pick_entering", lambda status, d, fixed, bland: (
            picks.append(bland) or real(status, d, fixed, bland)))
        passes = _record_passes(monkeypatch)
        inst = generate(GenConfig(seed=seed, trips_per_line=3))
        for variant in ("HD", "C", "hAbar"):
            form = model_arrays(_model(inst, variant).relaxed())
            bounded = np.isfinite(form.ub)
            for c in (form.c, np.where(bounded, -form.c - 1.0, form.c)):
                ref = scipy_opt.linprog(c, A_eq=form.A, b_eq=form.b, method="highs",
                                        bounds=list(zip(form.lb, np.where(
                                            bounded, form.ub, None))))
                res = simplex.solve_arrays(c, form.nz, form.b, form.lb, form.ub)
                assert ref.status == 0 and res.status == "Optimal"
                assert float(res.objective) == pytest.approx(ref.fun, rel=1e-6,
                                                             abs=1e-6)
        assert picks and all(picks)
        assert {loop for loop, n in passes if n > 1} == {"_dual", "_simplex"}


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
        # row short by 1 and x = 2 overshoots it: there is no integer point;
        # with cap as an equality the presolve forces x to that fraction,
        # and both children of x exclude it
        for cap in ("<=", "="):
            m = MilpModel("near", [Variable("x", 0.0, 5.0, True, 1.0),
                                   Variable("s", 0.0, 5.0, False, 0.0)],
                          [Row("r", (("x", 10000000.0), ("s", 1.0)), "=",
                               10000001.0),
                           Row("cap", (("s", 1.0),), cap, 0.0)])
            ip = solve_ip(m, exact=True)
            assert ip.status == "Infeasible"
            assert ip.root.objective == Fraction(10000001, 10000000)
            # float mode rounds x to 1, the residual check refuses that
            # point, and the search branches on x instead
            ip = solve_ip(m)
            assert ip.status == "Infeasible" and ip.nodes == 3

    def test_exact_ip_keeps_a_presolved_fraction(self):
        # the presolve fixes s = 0 and then x = 10000001/10000000 exactly,
        # where lifting a float x = 1.0000001 would miss the row; y = 1
        m = _forced_fraction_model()
        ip = solve_ip(m, exact=True)
        assert ip.status == "Optimal" and ip.root.status == "Optimal"
        assert ip.objective == ip.root.objective == Fraction(20000001,
                                                            10000000)
        assert dual_residual(m.relaxed(), ip.root) == 0
        ip = solve_ip(m)
        assert ip.status == "Optimal"
        assert ip.objective == pytest.approx(2.0000001, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(canonical_instances()))
    @pytest.mark.parametrize("variant", ["hD", "HD", "hAbar", "HAbar", "C"])
    def test_root_duals_are_certificates(self, name, variant):
        m = _model(canonical_instances()[name], variant)
        root = solve_ip(m).root
        assert root.status == "Optimal"
        assert dual_residual(m.relaxed(), root) <= 1e-6

    def test_incumbent_residual_is_certified(self, monkeypatch):
        m = MilpModel("cert", [Variable("x", 0.0, 10.0, True, 1.0)],
                      [Row("r", (("x", 2.0),), ">=", 1.0)])
        real = branch_bound.solve_arrays
        calls = []

        def integral_but_infeasible(c, nz, b, lb, ub, exact=False, start=None):
            calls.append(1)
            if len(calls) == 1:  # the true root, x = 0.5
                return real(c, nz, b, lb, ub, exact=exact)
            return SimplexResult("Optimal", 0.0, np.zeros(len(c)),
                                 np.zeros(len(b)), 1)

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
                integrality = np.zeros(len(form.c))
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

    def recording(c, nz, b, lb, ub, exact=False, start=None):
        res = real(c, nz, b, lb, ub, exact=exact, start=start)
        if start is not None:
            cold = real(c, nz, b, lb, ub, exact=exact)
            children.append((start, lb, ub, res, cold))
        return res

    monkeypatch.setattr(branch_bound, "solve_arrays", recording)
    return children


def _record_passes(monkeypatch):
    """Record (loop, passes) of every primal (``_simplex``) and dual
    (``_dual``) loop, in the order they end."""
    passes = []

    def recording(real, name):
        def loop(p, costs):
            out = real(p, costs)
            passes.append((name, p.iters))
            return out
        return loop

    for name in ("_simplex", "_dual"):
        monkeypatch.setattr(simplex, name,
                            recording(getattr(simplex, name), name))
    return passes


def _check_every_pivot(monkeypatch):
    """Check every pivot of the dual (``_dual``) and the primal
    (``_simplex``) loop against dense recomputation: B^-1 against the dense
    rank-one update, bit for bit; the kept row norms against B^-1, bit for
    bit; and, in the dual loop, the carried reduced costs against freshly
    priced ones on the nonbasic columns that are not fixed, and bit for bit
    at the start of the loop and after a refactorization. Fresh pricing
    over the nonzeros stays within 1e-9 of the dense c - (c_B B^-1) A,
    which sums in another order. Returns the loop of each checked pivot, in
    order."""
    running = []  # (loop, costs, dense A) of each loop as it starts
    priced = [True]  # d was priced afresh and not carried since
    for name in ("_dual", "_simplex"):
        def loop(p, costs, real=getattr(simplex, name), name=name):
            running.append((name, costs, _dense(p.nz, len(p.b), len(p.lb))))
            priced[0] = True
            return real(p, costs)
        monkeypatch.setattr(simplex, name, loop)

    def norms_match(p):
        return np.array_equal(p.norms,
                              np.einsum("ij,ij->i", p.B_inv, p.B_inv))

    real_pivot = simplex._Pivots.pivot
    checked = []

    def pivot(p, entering, col, delta, leaving, leave_to):
        name, costs, A = running[-1]
        assert norms_match(p)
        if name == "_dual":
            fresh = p.reduced_costs(costs)
            np.testing.assert_allclose(
                fresh, costs - (costs[p.basis] @ p.B_inv) @ A, rtol=1e-9,
                atol=1e-9)
            free = (p.status != BASIC) & ~p.fixed
            np.testing.assert_allclose(p.d[free], fresh[free], rtol=1e-9,
                                       atol=1e-9)
            assert np.array_equal(p.d, fresh) or not priced[0]
        dense = p.B_inv.copy()
        if leaving >= 0:
            dense[leaving, :] /= col[leaving]
            factor = col.copy()
            factor[leaving] = 0.0
            dense -= np.outer(factor, dense[leaving, :])
        refactored = priced[0] = real_pivot(p, entering, col, delta, leaving,
                                            leave_to)
        if not refactored:
            assert np.array_equal(p.B_inv, dense)
        assert norms_match(p)
        checked.append(name)
        return refactored

    monkeypatch.setattr(simplex._Pivots, "pivot", pivot)
    return checked


class TestSparsePass:
    def test_dual_pivots_match_dense_recomputation(self, monkeypatch):
        checked = _check_every_pivot(monkeypatch)
        inst = generate(GenConfig(seed=5, lines=2, trips_per_line=8,
                                  stations=4))
        assert solve_lp(_model(inst, "HD").relaxed()).status == "Optimal"
        # past the refactorization before pass 256, which recomputes d
        assert checked.count("_dual") > 256

    def test_primal_pivots_match_dense_recomputation(self, monkeypatch):
        # every bounded column pays -c-1, so the primal pass pivots
        form = model_arrays(_model(generate(GenConfig(seed=3)), "HD")
                            .relaxed())
        bounded = np.isfinite(form.ub)
        c = np.where(bounded, -form.c - 1.0, form.c)
        checked = _check_every_pivot(monkeypatch)
        assert simplex.solve_arrays(c, form.nz, form.b, form.lb,
                                    form.ub).status == "Optimal"
        assert "_dual" in checked and "_simplex" in checked

    def test_children_pivots_match_dense_recomputation(self, monkeypatch):
        # the children's dual loops start from a copy of the parent's inverse
        checked = _check_every_pivot(monkeypatch)
        ip = solve_ip(_branching_genbench(3, "hD"))
        assert ip.status == "Optimal" and ip.nodes > 1
        assert len(checked) > ip.root.iterations


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
        # so the primal pass after it only confirms the optimum, at the
        # root as at every child
        passes = _record_passes(monkeypatch)
        children = 0
        for seed, variant in itertools.product((3, 20, 35, 39), ("hD", "HD")):
            ip = solve_ip(_branching_genbench(seed, variant))
            assert ip.status == "Optimal"
            children += ip.nodes - 1
            if children >= 10:
                break
        assert children >= 10
        primal = [k for loop, k in passes if loop == "_simplex"]
        assert len(primal) > 1 and set(primal) == {1}

    def test_parent_inverse_gives_the_fresh_inverse_run(self, monkeypatch):
        # the parent's final inverse is _inverse of the same columns, so a
        # child started from it runs bit for bit as from a fresh inversion
        real = branch_bound.solve_arrays
        pairs = []

        def recording(c, nz, b, lb, ub, exact=False, start=None):
            res = real(c, nz, b, lb, ub, exact=exact, start=start)
            if start is not None:
                m, n = len(start.sign), len(start.layout.free_cols)
                full_A = np.concatenate([
                    _dense(start.layout.nz, m, n), np.diag(start.sign)], axis=1)
                fresh = dataclasses.replace(start, B_inv=simplex._inverse(
                    _nonzeros(full_A), start.basis, n + m))
                assert np.array_equal(fresh.B_inv, start.B_inv)
                pairs.append((res, real(c, nz, b, lb, ub, exact=exact,
                                        start=fresh)))
            return res

        monkeypatch.setattr(branch_bound, "solve_arrays", recording)
        for seed in (3, 20):
            solve_ip(_branching_genbench(seed, "hD"))
        assert len(pairs) > 2
        for inherited, fresh in pairs:
            assert inherited.status == fresh.status
            assert inherited.iterations == fresh.iterations
            assert inherited.objective == fresh.objective
            for a, b in ((inherited.x, fresh.x), (inherited.y, fresh.y)):
                assert (a is None and b is None) or np.array_equal(a, b)

    def test_a_child_leaves_its_sibling_start_untouched(self, monkeypatch):
        # siblings share their parent's basis; the first child inverts it,
        # and each pivots on a copy of that inverse
        real = branch_bound.solve_arrays
        starts, kept = [], {}

        def recording(c, nz, b, lb, ub, exact=False, start=None):
            if start is None:
                return real(c, nz, b, lb, ub, exact=exact)
            res = real(c, nz, b, lb, ub, exact=exact, start=start)
            if id(start) not in kept:  # the inverse exists from now on
                m, n = len(start.sign), len(start.layout.free_cols)
                full_A = np.concatenate([
                    _dense(start.layout.nz, m, n), np.diag(start.sign)], axis=1)
                kept[id(start)] = simplex._inverse(_nonzeros(full_A),
                                                   start.basis, n + m)
            assert np.array_equal(start.B_inv, kept[id(start)])
            starts.append(start)
            return res

        monkeypatch.setattr(branch_bound, "solve_arrays", recording)
        ip = solve_ip(_branching_genbench(3, "hD"))
        assert ip.nodes == len(starts) + 1
        assert 2 in collections.Counter(map(id, starts)).values()

    @pytest.mark.parametrize("exact", [False, True])
    def test_child_must_hold_the_fixed_values(self, exact):
        # a child inherits its start's layout, whose fixed values hold under
        # the bounds it was made for; bounds that exclude one of them make
        # the child Infeasible without a run
        form = model_arrays(_forced_fraction_model())
        root = simplex.solve_arrays(form.c, form.nz, form.b, form.lb, form.ub,
                                    exact=exact)
        assert 0 in root.basis.layout.fixed
        for x_lb, x_ub, status in ((0.0, 1.0, "Infeasible"),
                                   (2.0, 5.0, "Infeasible"),
                                   (1.0, 2.0, "Optimal")):
            lb, ub = form.lb.copy(), form.ub.copy()
            lb[0], ub[0] = x_lb, x_ub
            warm = simplex.solve_arrays(form.c, form.nz, form.b, lb, ub,
                                        exact=exact, start=root.basis)
            cold = simplex.solve_arrays(form.c, form.nz, form.b, lb, ub,
                                        exact=exact)
            assert warm.status == cold.status == status
            if status == "Optimal":
                assert warm.objective == cold.objective == root.objective
            else:
                assert warm.basis is None and warm.iterations == 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_child_bound_on_a_substituted_column_reaches_its_representative(
            self, exact):
        # d folds y into x, so k reads 4x + 3z <= 7: the root LP has
        # x = y = 7/4, and the IP x = y = z = 1
        m = MilpModel("fold", [Variable(v, 0.0, 3.0, True, -1.0) for v in "xyz"],
                      [Row("d", (("x", 1.0), ("y", -1.0)), "=", 0.0),
                       Row("k", (("x", 2.0), ("y", 2.0), ("z", 3.0)), "<=", 7.0)])
        form = model_arrays(m)
        root = simplex.solve_arrays(form.c, form.nz, form.b, form.lb, form.ub,
                                    exact=exact)
        layout = root.basis.layout
        assert [rec[:5] for rec in layout.records] == [(0, 1, 1, 0, 0)]
        assert root.objective == -3.5 and root.x[1] == 1.75
        for y_ub, x_lb, status in ((1.0, 0.0, "Optimal"),
                                   (1.0, 2.0, "Infeasible")):
            lb, ub = form.lb.copy(), form.ub.copy()
            lb[0], ub[1] = x_lb, y_ub
            bounds = simplex._bounds(layout, lb, ub)
            warm = simplex.solve_arrays(form.c, form.nz, form.b, lb, ub,
                                        exact=exact, start=root.basis)
            cold = simplex.solve_arrays(form.c, form.nz, form.b, lb, ub,
                                        exact=exact)
            assert warm.status == cold.status == status
            if status == "Optimal":
                # y <= 1 bounds x; only z moves up
                assert bounds[1][0] == 1 and warm.basis.layout is layout
                assert warm.objective == cold.objective == -3
                assert list(warm.x[:3]) == [1, 1, 1]
            else:  # x >= 2 meets x = y <= 1: an empty interval, no run
                assert bounds is None
                assert warm.basis is None and warm.iterations == 0
        ip = solve_ip(m, exact=exact)
        res = scipy_opt.milp(
            c=form.c, constraints=scipy_opt.LinearConstraint(form.A, form.b, form.b),
            bounds=scipy_opt.Bounds(form.lb, form.ub),
            integrality=np.r_[np.ones(3), np.zeros(1)])
        assert ip.status == "Optimal" and ip.objective == res.fun == -3
        assert ip.values == {"x": 1, "y": 1, "z": 1} and ip.nodes > 1

    def test_fixed_nonbasic_column_never_enters(self, monkeypatch):
        children = _record_children(monkeypatch)
        solve_ip(_branching_genbench(20, "hD"))
        for start, lb, ub, warm, _ in children:
            lo, up = simplex._bounds(start.layout, lb, ub)
            for k, j in enumerate(start.layout.free_cols):
                if lo[j] == up[j] and k not in start.basis:
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
            k = start.layout.free_cols.index(0)
            assert k in start.basis
            assert warm.status == "Optimal" and k not in warm.basis.basis


def _spy_inverse(monkeypatch):
    """Record the basis of every ``_inverse`` call."""
    real = simplex._inverse
    bases = []
    monkeypatch.setattr(simplex, "_inverse", lambda nz, basis, n: (
        bases.append(list(basis)) or real(nz, basis, n)))
    return bases


class TestReport:
    @pytest.mark.parametrize("name", [*sorted(canonical_instances()), "ladder-L2"])
    def test_refined_report_matches_a_fresh_inverse(self, monkeypatch, name):
        inst = generate(GenConfig(seed=5, lines=2, trips_per_line=8, stations=4)) \
            if name == "ladder-L2" else canonical_instances()[name]
        models = [_model(inst, v) for v in VARIANTS7]
        refined = [_solve_arrays(m, False) for m in models]
        monkeypatch.setattr(simplex, "DRIFT", -1.0)  # every report refactorizes
        for model, a in zip(models, refined):
            b = _solve_arrays(model, False)
            assert a.status == b.status and a.iterations == b.iterations
            if a.status != "Optimal":
                continue
            assert a.basis.basis == b.basis.basis
            for u, w in ((a.x, b.x), (a.y, b.y), ([a.objective], [b.objective])):
                w = np.asarray(w)
                assert np.abs(np.asarray(u) - w).max() <= \
                    1e-12 * max(1.0, np.abs(w).max()), model.name

    def test_a_drifted_inverse_is_refactorized(self, monkeypatch):
        model = _model(canonical_instances()["Situation2"], "HD")
        monkeypatch.setattr(simplex, "DRIFT", -1.0)
        fresh = _solve_arrays(model, False)
        monkeypatch.setattr(simplex, "DRIFT", 1e-9)
        real = simplex._simplex

        def corrupting(p, costs):  # as if the eta steps had drifted
            out = real(p, costs)
            p.B_inv = p.B_inv * (1 + 1e-6)
            return out

        monkeypatch.setattr(simplex, "_simplex", corrupting)
        inverted = _spy_inverse(monkeypatch)
        res = _solve_arrays(model, False)
        assert res.status == "Optimal" and len(inverted) == 1
        assert res.objective == fresh.objective
        assert np.array_equal(res.x, fresh.x) and np.array_equal(res.y, fresh.y)

    def test_compare_at_the_root_inverts_nothing(self, monkeypatch):
        from rollstock import analysis

        real = analysis.solve_ip
        ips = []
        monkeypatch.setattr(analysis, "solve_ip", lambda *a, **k: (
            ips.append(real(*a, **k)) or ips[-1]))
        passes = _record_passes(monkeypatch)
        inverted = _spy_inverse(monkeypatch)
        inst = generate(GenConfig(seed=3000, lines=2, trips_per_line=3,
                                  unit_types=2, n_max=2, stations=3))
        rep = analysis.compare(inst)
        assert not any(r.error for r in rep.rows)
        assert len(ips) == 5 and all(ip.nodes == 1 for ip in ips)
        assert max(k for _, k in passes) < 256
        assert inverted == []

    @pytest.mark.parametrize("build", [
        _unsat_c_model, lambda: _branching_genbench(3, "hD"),
        lambda: _branching_genbench(20, "hD")], ids=["unsat-2v4c", "genbench-3-hD",
                                                     "genbench-20-hD"])
    def test_each_parent_basis_is_inverted_once(self, monkeypatch, build):
        real = branch_bound.solve_arrays
        parents = {}

        def recording(c, nz, b, lb, ub, exact=False, start=None):
            if start is not None:
                parents[id(start)] = start
            return real(c, nz, b, lb, ub, exact=exact, start=start)

        monkeypatch.setattr(branch_bound, "solve_arrays", recording)
        passes = _record_passes(monkeypatch)
        inverted = _spy_inverse(monkeypatch)
        ip = solve_ip(build())
        assert ip.nodes > 1 and max(k for _, k in passes) < 256
        assert sorted(inverted) == sorted(s.basis for s in parents.values())


class TestFractional:
    @staticmethod
    def _loop(x, integer, tolerance):
        worst, pick = tolerance, -1
        for i in range(len(integer)):
            if integer[i] and (f := abs(x[i] - round(x[i]))) > worst:
                worst, pick = f, i
        return pick

    def test_vectorized_pick_matches_the_loop(self):
        # ties (0.25 and 0.75, two equal fractions), exact integers and
        # half-integers, with slack entries past the mask
        rng = np.random.default_rng(11)
        fractions = np.array([0.0, 0.0, 0.5, 0.25, 0.75, 0.3, 1e-7, 1 - 1e-7])
        picked = collections.Counter()
        for _ in range(400):
            n = int(rng.integers(1, 12))
            x = np.r_[rng.integers(-4, 5, n) + rng.choice(fractions, n),
                      rng.random(2) + 0.5]
            integer = rng.random(n) < 0.7
            exact = np.array([Fraction(v) for v in x], dtype=object)
            for tol in (0.0, branch_bound.INT_TOL, 0.5):
                expect = self._loop(x, integer, tol)
                assert branch_bound._fractional(x, integer, tol) == expect
                assert branch_bound._fractional(exact, integer, tol, True) == expect
                picked[expect >= 0] += 1
        assert picked[True] and picked[False]
        # a model without structural columns has nothing to branch on
        assert branch_bound._fractional(np.zeros(0), np.zeros(0, bool), 0.0) == -1
        assert solve_ip(MilpModel("empty", [], [])).status == "Optimal"


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

    @pytest.mark.parametrize("name", ["FlowConstraintGap", "Situation2"])
    @pytest.mark.parametrize("variant", ["hD", "hA", "HD", "HA"])
    def test_oracle_matches_bb_without_connection_constraints(self, name, variant):
        # every connection may send all its units through the depot
        inst = canonical_instances()[name]
        ip = solve_ip(assemble(build(inst, variant), ModelOptions(False)))
        orc = enumerate_oracle(inst, variant, connection_constraints=False)
        assert ip.status == orc.status == "Optimal"
        assert ip.objective == pytest.approx(orc.objective, abs=1e-6)

    # the oracle restates build's small-variant merge rule on its own, so
    # the two copies are compared here, arc for arc
    @pytest.mark.parametrize("name", [*sorted(canonical_instances()), "gen", "gen-split"])
    def test_small_groups_match_the_built_merged_arcs(self, name):
        from rollstock.hypergraph import connection_changes
        from rollstock.solver.oracle import _small_groups
        insts = ([canonical_instances()[name]] if not name.startswith("gen") else
                 [generate(GenConfig(seed=seed, lines=2, trips_per_line=3,
                                     split_join_fraction=1.0 if name == "gen-split" else 0.0))
                  for seed in (1, 2, 3)])
        for inst in insts:
            changes = connection_changes(inst)
            g = build(inst, "hD", changes)
            for conn in inst.connections:
                built = [g.by_id[hid] for hid in g.connection_arcs[conn.id]]
                assert g.connection_arcs[conn.id] == [
                    f"chg.{conn.id}.m{k}" for k in range(len(built))]
                got = [(frozenset((t.trip, t.position, t.unit_type) for t, _ in h.base_arcs),
                        frozenset((u.trip, u.position, u.unit_type) for _, u in h.base_arcs),
                        h.cost) for h in built]
                want = [(arc.tails, arc.heads, arc.cost)
                        for arc in _small_groups(inst, conn, changes[conn.id])]
                assert got == want, (inst.name, conn.id)
            if name == "gen-split":
                assert any(c.kind != "OneToOne" for c in inst.connections)

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


def _reference_solve(rows, rhs):
    """Dense Gaussian elimination in Fractions with the pivot rule that
    ``_factor`` documents, the sparsest remaining row and in it the column
    held by the fewest remaining rows, each found by a scan.
    Returns (z, the pivot values in order), or None if singular."""
    m = len(rows)
    M = [[Fraction(row.get(j, 0)) for j in range(m)] for row in rows]
    r = [Fraction(v) for v in rhs]
    left, order = list(range(m)), []
    while left:
        p = min(left, key=lambda i: (sum(map(bool, M[i])), i))
        if not any(M[p]):
            return None
        q = min((j for j in range(m) if M[p][j]),
                key=lambda j: (sum(bool(M[i][j]) for i in left), j))
        left.remove(p)
        for i in left:
            f = M[i][q] / M[p][q]
            M[i] = [a - f * b for a, b in zip(M[i], M[p])]
            r[i] -= f * r[p]
        order.append((p, q))
    z = [Fraction(0)] * m
    for p, q in reversed(order):
        z[q] = (r[p] - sum(M[p][j] * z[j] for j in range(m) if j != q)) \
            / M[p][q]
    return z, [M[p][q] for p, q in order]


def _transpose(rows):
    """The sparse rows of M' for M given as sparse rows."""
    out = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[j][i] = a
    return out


def _sparse_rows(rng, m, density, values):
    rows = [{j: rng.choice(values) for j in range(m)
             if j == i or rng.random() < density} for i in range(m)]
    return rows, [rng.randint(-9, 9) for _ in range(m)]


class TestRationalSolve:
    def test_equals_fraction_elimination_in_its_pivot_order(self, monkeypatch):
        # non-unit pivots and fill-in that changes row lengths; the back
        # substitution divides by the pivots in reverse order, so the
        # recorded divisors show the elimination order
        divisors = []
        real = simplex._div

        def spy(a, b):
            divisors.append(b)
            return real(a, b)

        monkeypatch.setattr(simplex, "_div", spy)
        rng = random.Random(5)
        checked, fractions = 0, 0
        for _ in range(40):
            rows, rhs = _sparse_rows(rng, 9, 0.3, (-4, -3, -2, 2, 3, 5))
            ref = _reference_solve(rows, rhs)
            factor = simplex._factor(rows)
            if ref is None:
                assert factor is None
                assert _reference_solve(_transpose(rows), rhs) is None
                continue
            divisors.clear()
            z = simplex._solve(factor, rhs)
            assert z == ref[0]
            assert divisors[::-1] == ref[1]
            w = simplex._solve(factor, rhs, transposed=True)
            assert w == _reference_solve(_transpose(rows), rhs)[0]
            checked += 1
            fractions += any(type(v) is Fraction for v in z + w)
        assert checked >= 30 and fractions >= 20

    def test_unimodular_matrix_stays_in_ints(self):
        # the incidence matrix of a tree less its root row is a basis of a
        # network matrix: every pivot is +-1 and every value an int, in
        # either direction
        rng = random.Random(3)
        for m in (5, 12, 30):
            rows = [{} for _ in range(m)]
            for edge, node in enumerate(rng.sample(range(1, m + 1), m)):
                parent = rng.randrange(node)
                head, tail = (node, parent) if rng.random() < 0.5 \
                    else (parent, node)
                for at, sign in ((head, 1), (tail, -1)):
                    if at:
                        rows[at - 1][edge] = sign
            rhs = [rng.randint(-5, 5) for _ in range(m)]
            factor = simplex._factor(rows)
            for transposed, matrix in ((False, rows),
                                       (True, _transpose(rows))):
                z = simplex._solve(factor, rhs, transposed)
                assert all(type(v) is int for v in z)
                assert z == _reference_solve(matrix, rhs)[0]

    def test_singular_matrix(self):
        for rows in ([{0: 2, 1: 3}, {1: 1, 2: -1}, {0: 4, 1: 7, 2: -1}],
                     [{0: 1}, {0: 5}]):
            assert simplex._factor(rows) is None
            assert simplex._factor(_transpose(rows)) is None

    def test_one_elimination_per_certificate(self, monkeypatch, two_trip):
        # an Optimal root, the unsatisfiable reduction's children that the
        # dual loop's row proves Infeasible, and an Unbounded LP: each
        # certificate eliminates its basis once and solves every system
        # from that
        factors, certified = [], []
        real_factor, real_certify = simplex._factor, simplex._certify

        def factor(rows):
            factors[-1] += 1
            return real_factor(rows)

        def certify(*args):
            factors.append(0)
            certified.append(real_certify(*args))
            return certified[-1]

        monkeypatch.setattr(simplex, "_factor", factor)
        monkeypatch.setattr(simplex, "_certify", certify)
        ray = MilpModel("ray", [Variable("p", 0.0, None, False, -1.0)],
                        [Row("r", (("p", 1.0),), ">=", 0.0)])
        assert _solve_arrays(_model(two_trip, "HD").relaxed(),
                             exact=True).status == "Optimal"
        assert solve_ip(_unsat_c_model(), exact=True).status == "Infeasible"
        assert solve_lp(ray, exact=True).status == "Unbounded"
        assert factors == [1] * len(certified)
        seen = collections.Counter(
            (res.status, res.basis.row >= 0) for res in certified)
        assert seen[("Optimal", False)] >= 2
        assert seen[("Infeasible", True)] >= 2
        assert seen[("Unbounded", False)] == 1

    def test_division_keeps_ints_where_integral(self):
        assert simplex._div(6, -1) == -6 and type(simplex._div(6, -1)) is int
        assert type(simplex._div(6, 3)) is int
        assert type(simplex._div(Fraction(9, 2), Fraction(3, 2))) is int
        assert simplex._div(1, 3) == Fraction(1, 3)
        assert simplex._div(Fraction(1, 2), 1) == Fraction(1, 2)

    # the four canonicals, and the unsatisfiable reduction whose IP is
    # infeasible while its relaxation is not
    @pytest.mark.parametrize("name", sorted(canonical_instances()) + ["unsat"])
    def test_exact_answer_is_fractions(self, name):
        model = _unsat_c_model() if name == "unsat" else \
            _model(canonical_instances()[name], "HD")
        res = _solve_arrays(model.relaxed(), exact=True)
        assert res.status == "Optimal"
        assert type(res.objective) is Fraction
        assert all(type(v) is Fraction for v in res.x)
        assert all(type(v) is Fraction for v in res.y)
        assert res.objective == sum(simplex.to_fraction(c) * x for c, x
                                    in zip(model_arrays(model).c, res.x))

    def test_infeasible_answer_has_no_values(self):
        m = MilpModel("over", [Variable("x", 0.0, 1.0, False, 1.0),
                               Variable("y", 0.0, 1.0, False, 1.0)],
                      [Row("r", (("x", 1.0), ("y", 1.0)), "=", 3.0)])
        res = _solve_arrays(m, exact=True)
        assert res.status == "Infeasible"
        assert res.objective is None and res.x is None and res.y is None


def _hand_basis(monkeypatch, edit, status=None):
    """Let the certificate see the float run's basis after ``edit(run)``,
    and the float run's status as ``status`` if one is given."""
    real = simplex._solve_float

    def edited(*args):
        res = real(*args)
        edit(res.basis)
        res.status = status or res.status
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
# y's coefficient 2 keeps the twin rows out of the doubleton substitution
_TWIN_ROWS = ([Variable("x", 0.0, 5.0, False, 1.0),
               Variable("y", 0.0, 5.0, False, 1.0)],
              [Row("r1", (("x", 1.0), ("y", 2.0)), "=", 2.0),
               Row("r2", (("x", 1.0), ("y", 2.0)), "=", 2.0)])  # optimum 1


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
    ], ids=["non-optimal", "infeasible", "at-infinity", "singular",
            "blocked-ray", "ascending-ray"])
    def test_wrong_basis_names_the_failed_check(self, monkeypatch, model,
                                                state, basis, status, failure):
        m = MilpModel("handed", *model)
        assert solve_lp(m, exact=True).status == "Optimal"

        def hand(run):
            run.entering = 0
            run.basis[:] = basis
            run.status[:] = status

        _hand_basis(monkeypatch, hand, state)
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
            run.row = 0
            run.basis[:] = basis
            run.status[:] = status

        _hand_basis(monkeypatch, hand, "Infeasible")
        with pytest.raises(NumericalFailure, match=f"certificate: {failure}"):
            solve_lp(m, exact=True)

    def test_reduced_costs_are_checked_on_the_original_model(self,
                                                            monkeypatch):
        # the presolve fixes x by a singleton row; without the postsolve the
        # row's dual is 0 and x's reduced cost 1 has the wrong sign at its
        # interior value
        monkeypatch.setattr(simplex, "_postsolve",
                            lambda layout, costs, x, y, bounds, exact: (x, y))
        with pytest.raises(NumericalFailure, match="certificate: reduced "
                           "cost 1 of column 0 has the wrong sign"):
            solve_lp(_forced_fraction_model().relaxed(), exact=True)

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

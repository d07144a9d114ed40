"""Branch and bound on top of the bounded simplex.

Depth-first search with most-fractional branching (ties to the lowest
variable index) and a best-bound reordering of the open stack every 1000
nodes. Unbounded integer parking variables branch like any other integer
variable via floor/ceil bound splits. A light fix-propagation pass over the
equality rows tightens variable bounds before the search; it is pure
algebra, so LP relaxation values are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure
from ..formulation import MilpModel
from .simplex import INF, solve_arrays

INT_TOL = 1e-6


@dataclass
class _Node:
    lb: np.ndarray
    ub: np.ndarray
    bound: object
    serial: int
    res: object = None  # LP result already computed for these bounds


def _propagate_fixings(model: MilpModel, lb: np.ndarray, ub: np.ndarray,
                       index: dict[str, int]) -> bool:
    """Fix variables forced by equality rows; False if proven infeasible."""
    eq_rows = [r for r in model.rows if r.sense == "="]
    changed = True
    while changed:
        changed = False
        for row in eq_rows:
            residual = row.rhs
            free = []
            for vid, coef in row.coeffs:
                i = index[vid]
                if lb[i] == ub[i]:
                    residual -= coef * lb[i]
                else:
                    free.append((i, coef))
            if not free:
                if abs(residual) > 1e-9:
                    return False
                continue
            if len(free) == 1:
                i, coef = free[0]
                value = residual / coef
                if value < lb[i] - 1e-9 or value > ub[i] + 1e-9:
                    return False
                lb[i] = ub[i] = value
                changed = True
                continue
            # all-nonnegative coefficients with zero residual pin everything
            if residual == 0 and all(c > 0 for _, c in free) and \
                    all(lb[i] == 0 for i, _ in free):
                for i, _ in free:
                    if ub[i] != 0:
                        ub[i] = 0.0
                        changed = True
    return True


def solve_ip(model: MilpModel, tol: float = 1e-7, node_limit: int = 200000,
             exact: bool = False):
    """Branch-and-bound integer optimum of an assembled model.

    The result's ``root`` is the root node's LP answer, which is the LP
    relaxation's value. In float mode every incumbent must satisfy the
    model to ``max(tol, 1e-7)``, or ``NumericalFailure`` is raised. In exact
    mode an incumbent is a certified LP point whose integer columns all have
    denominator 1, so it satisfies the model exactly.
    """
    from . import IpSolution, _check_residual, _lp_solution, model_arrays

    form = model_arrays(model)
    n = form.n_structural
    int_mask = form.integer
    prune_tol = 0 if exact else 1e-9

    def run_lp(lb, ub):
        return solve_arrays(form.c, form.A, form.b, lb, ub, exact=exact)

    lb0 = form.lb.copy()
    ub0 = form.ub.copy()
    index = {vid: i for i, vid in enumerate(form.var_ids)}
    ok = _propagate_fixings(model, lb0, ub0, index) and not any(
        int_mask[i] and lb0[i] == ub0[i] and abs(lb0[i] - round(lb0[i])) > INT_TOL
        for i in range(n))
    if not ok:
        # the relaxation may still be feasible (an integer column forced to
        # a fractional value), so its answer comes from the original bounds
        root_lp = _lp_solution(model, form, run_lp(form.lb, form.ub), tol, exact)
        return IpSolution("Infeasible", nodes=0, root=root_lp)

    incumbent = None
    incumbent_obj = None
    nodes = 0
    serial = 0

    root = run_lp(lb0, ub0)
    root_lp = _lp_solution(model, form, root, tol, exact)
    if root.status != "Optimal":
        return IpSolution(root.status, nodes=1, root=root_lp)
    stack = [_Node(lb0, ub0, root.objective, serial, root)]
    root_bound = root.objective

    def fractional(x):
        """The most fractional integer column, or -1; in exact mode a value
        is integral only when its denominator is 1."""
        worst, pick = (0 if exact else INT_TOL), -1
        for i in range(n):
            if int_mask[i] and (f := abs(x[i] - round(x[i]))) > worst:
                worst, pick = f, i
        return pick

    while stack:
        if nodes >= node_limit:
            bound = min((nd.bound for nd in stack),
                        default=incumbent_obj if incumbent_obj is not None
                        else root_bound)
            return IpSolution("NodeLimit", incumbent_obj,
                              incumbent or {}, bound, nodes, root_lp)
        if nodes and nodes % 1000 == 0:
            stack.sort(key=lambda nd: (-float(nd.bound), nd.serial))

        node = stack.pop()
        if incumbent_obj is not None and node.bound >= incumbent_obj - prune_tol:
            continue
        nodes += 1
        res = node.res if node.res is not None else run_lp(node.lb, node.ub)
        if res.status == "Infeasible":
            continue
        if res.status == "Unbounded":
            return IpSolution("Unbounded", nodes=nodes, root=root_lp)
        if incumbent_obj is not None and res.objective >= incumbent_obj - prune_tol:
            continue

        j = fractional(res.x)
        if j < 0:
            if exact:  # integral to the last digit: keep the LP point
                values = dict(zip(form.var_ids, res.x))
                obj = res.objective
            else:
                values = {vid: float(round(res.x[i])) if int_mask[i]
                          else float(res.x[i])
                          for i, vid in enumerate(form.var_ids)}
                obj = float(sum(form.c[i] * values[vid]
                                for i, vid in enumerate(form.var_ids)))
            if incumbent_obj is None or obj < incumbent_obj:
                if not exact:
                    _check_residual(model, values, tol, "incumbent")
                incumbent, incumbent_obj = values, obj
            continue

        v = res.x[j]
        floor_v = math.floor(v) if exact else int(np.floor(v + 1e-9))
        lo_lb, lo_ub = node.lb.copy(), node.ub.copy()
        hi_lb, hi_ub = node.lb.copy(), node.ub.copy()
        lo_ub[j] = min(lo_ub[j], float(floor_v))
        hi_lb[j] = max(hi_lb[j], float(floor_v + 1))
        serial += 1
        stack.append(_Node(hi_lb, hi_ub, res.objective, serial))
        serial += 1
        stack.append(_Node(lo_lb, lo_ub, res.objective, serial))

    if incumbent is None:
        return IpSolution("Infeasible", nodes=nodes, root=root_lp)
    return IpSolution("Optimal", incumbent_obj, incumbent, incumbent_obj, nodes,
                      root_lp)

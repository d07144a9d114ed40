"""Branch and bound on top of the bounded simplex.

Depth-first search with most-fractional branching (ties to the lowest
variable index) and a best-bound reordering of the open stack every 1000
nodes. Unbounded integer parking variables branch like any other integer
variable via floor/ceil bound splits. A light fix-propagation pass over the
equality rows tightens variable bounds before the search; it is pure
algebra, so LP relaxation values are unaffected. The root is solved from
scratch; children start from the parent's basis by dual simplex, since
they differ from it in one bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure
from ..formulation import MilpModel
from .simplex import solve_arrays

INT_TOL = 1e-6


@dataclass
class _Node:
    lb: np.ndarray
    ub: np.ndarray
    bound: object
    serial: int
    res: object = None    # LP result already computed for these bounds
    start: object = None  # the parent's final basis


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
    relaxation's value; ``iterations`` sums the simplex passes of every
    node LP, the root's included. In float mode an integer column within
    ``INT_TOL`` of an integer is rounded, and the rounded point must satisfy
    the model to ``max(tol, 1e-7)``; when it does not, the search branches
    on the integer column farthest from an integer, and raises
    ``NumericalFailure`` only if the point is integral already. In exact
    mode an incumbent is a certified LP point whose integer columns all have
    denominator 1, so it satisfies the model exactly.
    """
    from . import IpSolution, _lp_solution, feasibility_residual, model_arrays

    form = model_arrays(model)
    n = form.n_structural
    int_mask = form.integer
    prune_tol = 0 if exact else 1e-9

    def run_lp(lb, ub, start=None):
        return solve_arrays(form.c, form.A, form.b, lb, ub, exact=exact,
                            start=start)

    lb0 = form.lb.copy()
    ub0 = form.ub.copy()
    index = {vid: i for i, vid in enumerate(form.var_ids)}
    ok = _propagate_fixings(model, lb0, ub0, index) and not any(
        int_mask[i] and lb0[i] == ub0[i] and abs(lb0[i] - round(lb0[i])) > INT_TOL
        for i in range(n))
    if not ok:
        # the relaxation may still be feasible (an integer column forced to
        # a fractional value), so its answer comes from the original bounds
        root = run_lp(form.lb, form.ub)
        root_lp = _lp_solution(model, form, root, tol, exact)
        return IpSolution("Infeasible", nodes=0, root=root_lp,
                          iterations=root.iterations)

    incumbent = None
    incumbent_obj = None
    nodes = 0
    serial = 0

    root = run_lp(lb0, ub0)
    root_lp = _lp_solution(model, form, root, tol, exact)
    iterations = root.iterations
    if root.status != "Optimal":
        return IpSolution(root.status, nodes=1, root=root_lp,
                          iterations=iterations)
    stack = [_Node(lb0, ub0, root.objective, serial, root)]
    root_bound = root.objective

    def fractional(x, tolerance):
        """The integer column farthest from an integer, beyond
        ``tolerance``, or -1; ties go to the lowest index."""
        worst, pick = tolerance, -1
        for i in range(n):
            if int_mask[i] and (f := abs(x[i] - round(x[i]))) > worst:
                worst, pick = f, i
        return pick

    while stack:
        if nodes >= node_limit:
            bound = min((nd.bound for nd in stack),
                        default=incumbent_obj if incumbent_obj is not None
                        else root_bound)
            return IpSolution("NodeLimit", incumbent_obj, incumbent or {},
                              bound, nodes, root_lp, iterations)
        if nodes and nodes % 1000 == 0:
            stack.sort(key=lambda nd: (-float(nd.bound), nd.serial))

        node = stack.pop()
        if incumbent_obj is not None and node.bound >= incumbent_obj - prune_tol:
            continue
        nodes += 1
        if node.res is not None:
            res = node.res
        else:
            res = run_lp(node.lb, node.ub, node.start)
            iterations += res.iterations
        if res.status == "Infeasible":
            continue
        if res.status == "Unbounded":
            return IpSolution("Unbounded", nodes=nodes, root=root_lp,
                              iterations=iterations)
        if incumbent_obj is not None and res.objective >= incumbent_obj - prune_tol:
            continue

        x = res.x
        j = fractional(x, 0 if exact else INT_TOL)
        if j < 0:
            if exact:  # integral to the last digit: keep the LP point
                values = dict(zip(form.var_ids, x))
                obj = res.objective
            else:
                values = {vid: float(round(x[i])) if int_mask[i]
                          else float(x[i])
                          for i, vid in enumerate(form.var_ids)}
                obj = float(sum(form.c[i] * values[vid]
                                for i, vid in enumerate(form.var_ids)))
            if incumbent_obj is not None and obj >= incumbent_obj:
                continue
            resid = 0 if exact else feasibility_residual(model, values)
            if resid <= max(tol, 1e-7):
                incumbent, incumbent_obj = values, obj
                continue
            # rounding broke the model: branch on the column that rounded
            # farthest, measured within the node's bounds so that both
            # children cut the LP point off
            x = np.clip(x, node.lb, node.ub)
            j = fractional(x, 0)
            if j < 0:
                raise NumericalFailure(f"incumbent residual {resid} exceeds "
                                       "tolerance")

        floor_v = math.floor(x[j])
        lo_lb, lo_ub = node.lb.copy(), node.ub.copy()
        hi_lb, hi_ub = node.lb.copy(), node.ub.copy()
        lo_ub[j] = min(lo_ub[j], float(floor_v))
        hi_lb[j] = max(hi_lb[j], float(floor_v + 1))
        serial += 1
        stack.append(_Node(hi_lb, hi_ub, res.objective, serial, start=res.basis))
        serial += 1
        stack.append(_Node(lo_lb, lo_ub, res.objective, serial, start=res.basis))

    if incumbent is None:
        return IpSolution("Infeasible", nodes=nodes, root=root_lp,
                          iterations=iterations)
    return IpSolution("Optimal", incumbent_obj, incumbent, incumbent_obj, nodes,
                      root_lp, iterations)

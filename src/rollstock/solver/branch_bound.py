"""Branch and bound on top of the bounded simplex.

Depth-first search with most-fractional branching (ties to the lowest
variable index) and a best-bound reordering of the open stack every 1000
nodes. Unbounded integer parking variables branch like any other integer
variable via floor/ceil bound splits. The root LP is presolved once, by
the simplex's exact presolve, and solved by dual simplex from the slack
basis; children start from the parent's basis by the same dual simplex,
since they differ from it in one bound, and inherit the root's layout and
fixed values; a bound on a column the presolve substituted out reaches the
column it was folded into. An integer column that the presolve forces to a fraction
branches like any other: both children exclude its value and are
Infeasible.
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


def _fractional(x, integer, tolerance, exact: bool = False) -> int:
    """The integer column farthest from an integer, beyond ``tolerance``,
    or -1; ties go to the lowest index. ``integer`` masks the first
    ``len(integer)`` entries of ``x``. A float point takes one masked
    argmax; an exact value with denominator 1 is integral and skipped
    unmeasured."""
    if not exact:
        x = x[:len(integer)]
        f = np.where(integer, np.abs(x - np.round(x)), 0.0)
        j = int(f.argmax()) if len(f) else -1
        return j if j >= 0 and f[j] > tolerance else -1
    worst, pick = tolerance, -1
    for i in range(len(integer)):
        if integer[i] and x[i].denominator != 1 and \
                (f := abs(x[i] - round(x[i]))) > worst:
            worst, pick = f, i
    return pick


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
        return solve_arrays(form.c, form.nz, form.b, lb, ub, exact=exact,
                            start=start)

    incumbent = None
    incumbent_obj = None
    nodes = 0
    serial = 0

    root = run_lp(form.lb, form.ub)
    root_lp = _lp_solution(form, root, tol, exact)
    iterations = root.iterations
    if root.status != "Optimal":
        return IpSolution(root.status, nodes=1, root=root_lp,
                          iterations=iterations)
    stack = [_Node(form.lb, form.ub, root.objective, serial, root)]
    root_bound = root.objective

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
        j = _fractional(x, int_mask, 0 if exact else INT_TOL, exact)
        if j < 0:
            if exact:  # integral to the last digit: keep the LP point
                point, obj = x, res.objective
            else:  # + 0.0 turns a rounded -0.0 into 0.0
                point = np.where(int_mask, np.round(x[:n]) + 0.0, x[:n])
                obj = float(sum(form.c[:n] * point))
            if incumbent_obj is not None and obj >= incumbent_obj:
                continue
            resid = 0 if exact else feasibility_residual(form, point)
            if resid <= max(tol, 1e-7):
                incumbent = dict(zip(form.var_ids,
                                     point if exact else point.tolist()))
                incumbent_obj = obj
                continue
            # rounding broke the model: branch on the column that rounded
            # farthest, measured within the node's bounds so that both
            # children cut the LP point off
            x = np.clip(x, node.lb, node.ub)
            j = _fractional(x, int_mask, 0, exact)
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

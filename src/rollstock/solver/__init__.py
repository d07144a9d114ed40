"""Embedded LP/MILP solving for assembled models.

``solve_lp`` runs the two-phase bounded simplex (in floats, or with a
rational certificate of the final basis in exact mode);
``solve_ip`` wraps it in branch and bound, whose children start from their
parent's basis by dual simplex, and keeps the root node's answer as the LP
relaxation's; ``enumerate_oracle`` computes ground-truth integer optima on
tiny instances by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..errors import NumericalFailure
from ..formulation import MilpModel
from .simplex import INF, SimplexResult, solve_arrays

__all__ = [
    "LpSolution", "IpSolution", "solve_lp", "solve_ip", "enumerate_oracle",
    "feasibility_residual", "dual_residual", "model_arrays",
]


@dataclass
class LpSolution:
    status: str                       # Optimal | Infeasible | Unbounded
    objective: object = None
    values: dict[str, object] = field(default_factory=dict)
    duals: dict[str, object] = field(default_factory=dict)
    iterations: int = 0


@dataclass
class IpSolution:
    """Branch-and-bound outcome.

    ``root`` is the LP relaxation's answer at the root node (status,
    objective, values, duals, iterations), so callers that need both the
    LP bound and the IP optimum solve once. The root is solved on the bounds
    that fix-propagation over the equality rows implies, so its objective is
    the relaxation's value, but ``root.duals`` belong to that presolved root
    and are no certificate of the original LP. ``iterations`` is the total
    of simplex passes over every node LP, the root's included.
    """

    status: str                       # Optimal | Infeasible | Unbounded | NodeLimit
    objective: object = None
    values: dict[str, object] = field(default_factory=dict)
    bound: object = None              # best proven lower bound
    nodes: int = 0
    root: LpSolution | None = None
    iterations: int = 0


@dataclass
class ArrayForm:
    """Dense standard form min c'x, Ax = b, lb <= x <= ub (slacks appended)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray               # bool mask, structural columns only
    var_ids: list[str]
    row_ids: list[str]

    @property
    def n_structural(self) -> int:
        return len(self.var_ids)


def model_arrays(model: MilpModel) -> ArrayForm:
    var_ids = [v.id for v in model.variables]
    index = {vid: i for i, vid in enumerate(var_ids)}
    n = len(var_ids)
    m = len(model.rows)
    slack_count = sum(1 for r in model.rows if r.sense != "=")
    A = np.zeros((m, n + slack_count), dtype=float)
    b = np.zeros(m, dtype=float)
    c = np.zeros(n + slack_count, dtype=float)
    lb = np.zeros(n + slack_count, dtype=float)
    ub = np.full(n + slack_count, INF, dtype=float)
    integer = np.zeros(n, dtype=bool)
    for i, v in enumerate(model.variables):
        c[i] = v.cost
        lb[i] = v.lower
        ub[i] = INF if v.upper is None else v.upper
        integer[i] = v.integer
    slack = n
    row_ids = []
    for i, row in enumerate(model.rows):
        row_ids.append(row.id)
        for vid, coef in row.coeffs:
            A[i, index[vid]] += coef
        b[i] = row.rhs
        if row.sense == "<=":
            A[i, slack] = 1.0
            slack += 1
        elif row.sense == ">=":
            A[i, slack] = -1.0
            slack += 1
    return ArrayForm(c, A, b, lb, ub, integer, var_ids, row_ids)


def _lp_solution(model: MilpModel, form: ArrayForm, res: SimplexResult,
                 tol: float, exact: bool) -> LpSolution:
    """The ``LpSolution`` of a simplex result on ``model``'s array form.

    In float mode an optimum must satisfy the model's rows and bounds to
    ``max(tol, 1e-7)``; otherwise ``NumericalFailure`` names the residual.
    """
    if res.status != "Optimal":
        return LpSolution(res.status, iterations=res.iterations)
    values = {vid: res.x[i] for i, vid in enumerate(form.var_ids)}
    duals = {rid: res.y[i] for i, rid in enumerate(form.row_ids)}
    if exact:
        return LpSolution("Optimal", res.objective, values, duals, res.iterations)
    values = {k: float(v) for k, v in values.items()}
    duals = {k: float(v) for k, v in duals.items()}
    resid = feasibility_residual(model, values)
    if resid > max(tol, 1e-7):
        raise NumericalFailure(f"LP residual {resid} exceeds tolerance")
    return LpSolution("Optimal", float(res.objective), values, duals,
                      res.iterations)


def solve_lp(model: MilpModel, tol: float = 1e-7, exact: bool = False) -> LpSolution:
    """Solve the LP (relaxation) of a model.

    In exact mode the float simplex's final basis is certified in rational
    arithmetic, so status, objective, values and duals are exact
    ``Fraction``s; a basis that fails the certificate raises
    ``NumericalFailure`` naming the failed check.
    """
    form = model_arrays(model)
    res = solve_arrays(form.c, form.A, form.b, form.lb, form.ub, exact=exact)
    return _lp_solution(model, form, res, tol, exact)


def feasibility_residual(model: MilpModel, values: dict[str, object]) -> float:
    """Largest constraint/bound violation of a value assignment."""
    worst = 0.0
    for v in model.variables:
        x = values.get(v.id, 0)
        worst = max(worst, float(v.lower - x))
        if v.upper is not None:
            worst = max(worst, float(x - v.upper))
    for row in model.rows:
        acc = sum(values.get(vid, 0) * coef for vid, coef in row.coeffs)
        if row.sense == "=":
            worst = max(worst, abs(float(acc - row.rhs)))
        elif row.sense == "<=":
            worst = max(worst, float(acc - row.rhs))
        else:
            worst = max(worst, float(row.rhs - acc))
    return worst


def dual_residual(model: MilpModel, sol: LpSolution) -> float:
    """Worst dual-feasibility violation of the reported duals."""
    y = {rid: sol.duals.get(rid, 0) for rid in (r.id for r in model.rows)}
    reduced: dict[str, float] = {v.id: float(v.cost) for v in model.variables}
    for row in model.rows:
        yi = float(y[row.id])
        if yi == 0:
            continue
        for vid, coef in row.coeffs:
            reduced[vid] -= yi * coef
    worst = 0.0
    for v in model.variables:
        d = reduced[v.id]
        x = float(sol.values.get(v.id, 0))
        at_lower = abs(x - v.lower) <= 1e-6
        at_upper = v.upper is not None and abs(x - v.upper) <= 1e-6
        if at_lower and not at_upper:
            worst = max(worst, -d)
        elif at_upper and not at_lower:
            worst = max(worst, d)
        elif not at_lower and not at_upper:
            worst = max(worst, abs(d))
    return worst


from .branch_bound import solve_ip  # noqa: E402
from .oracle import enumerate_oracle  # noqa: E402

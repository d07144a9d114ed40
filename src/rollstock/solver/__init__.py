"""Embedded LP/MILP solving for assembled models.

``solve_lp`` runs the bounded simplex, one exact presolve, dual pivots
from the slack basis, one primal pass and the dual postsolve (in floats,
or with a rational certificate of the final basis in exact mode), the one
path for every LP; ``solve_ip`` wraps it in branch and bound, whose
children start from their parent's basis and layout by dual simplex, and
keeps the root node's answer as the LP relaxation's; ``enumerate_oracle``
computes ground-truth integer optima on tiny instances by exhaustive
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..errors import NumericalFailure
from ..formulation import MilpModel
from .simplex import INF, SimplexResult, _priced, _times, solve_arrays

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
    LP bound and the IP optimum solve once. ``iterations`` is the total of
    simplex passes over every node LP, the root's included.
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
    """Standard form min c'x, Ax = b, lb <= x <= ub, slacks appended; ``nz``
    holds A's nonzeros (column, row, value) by column, rows ascending, and
    ``slack`` each row's slack coefficient: 1 for <=, -1 for >=, 0 for =."""

    c: np.ndarray
    nz: tuple[np.ndarray, np.ndarray, np.ndarray]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray               # bool mask, structural columns only
    var_ids: list[str]
    row_ids: list[str]
    slack: np.ndarray

    @property
    def n_structural(self) -> int:
        return len(self.var_ids)

    @property
    def A(self) -> np.ndarray:
        """A as a dense matrix, built on each read for a caller that hands it
        to another solver (the benchmark's HiGHS, tests against scipy)."""
        A = np.zeros((len(self.b), len(self.c)))
        A[self.nz[1], self.nz[0]] = self.nz[2]
        return A


def model_arrays(model: MilpModel) -> ArrayForm:
    """The array form of a model, its terms re-sorted into columns; a variable
    repeated in a row sums, in the row's order, and a sum of 0 is left out."""
    n, m = len(model.var_ids), len(model.row_ids)
    slack = np.array([{"<=": 1.0, ">=": -1.0}.get(s, 0.0) for s in model.senses])
    has = np.flatnonzero(slack)
    width = n + len(has)
    cols = np.r_[model.cols, np.arange(n, width)]
    rows = np.r_[np.repeat(np.arange(m), np.diff(model.indptr)), has]
    # one key per entry, in column order; bincount sums repeats in the order given
    keys, at = np.unique(cols * m + rows, return_inverse=True)
    vals = np.bincount(at, np.r_[model.vals, slack[has]])
    nz = (*np.divmod(keys[vals != 0], m), vals[vals != 0])
    c, lb, ub = np.zeros(width), np.zeros(width), np.full(width, INF)
    c[:n], lb[:n], ub[:n] = model.cost, model.lower, model.upper
    return ArrayForm(c, nz, model.rhs.copy(), lb, ub, model.integer.copy(),
                     model.var_ids, model.row_ids, slack)


def _lp_solution(form: ArrayForm, res: SimplexResult, tol: float,
                 exact: bool) -> LpSolution:
    """The ``LpSolution`` of a simplex result on a model's array form.

    In float mode an optimum must satisfy the model's rows and bounds to
    ``max(tol, 1e-7)``; otherwise ``NumericalFailure`` names the residual.
    """
    if res.status != "Optimal":
        return LpSolution(res.status, iterations=res.iterations)
    if exact:
        return LpSolution("Optimal", res.objective, dict(zip(form.var_ids, res.x)),
                          dict(zip(form.row_ids, res.y)), res.iterations)
    resid = feasibility_residual(form, res.x)
    if not resid <= max(tol, 1e-7):
        raise NumericalFailure(f"LP residual {resid} exceeds tolerance")
    return LpSolution("Optimal", float(res.objective),
                      dict(zip(form.var_ids, res.x.tolist())),
                      dict(zip(form.row_ids, res.y.tolist())), res.iterations)


def solve_lp(model: MilpModel, tol: float = 1e-7, exact: bool = False) -> LpSolution:
    """Solve the LP (relaxation) of a model.

    In exact mode the float simplex's final basis is certified in rational
    arithmetic, so status, objective, values and duals are exact
    ``Fraction``s; a basis that fails the certificate raises
    ``NumericalFailure`` naming the failed check.
    """
    form = model_arrays(model)
    res = solve_arrays(form.c, form.nz, form.b, form.lb, form.ub, exact=exact)
    return _lp_solution(form, res, tol, exact)


def _structural(form: ArrayForm | MilpModel, values) -> tuple[ArrayForm, np.ndarray]:
    """The array form of ``form`` and a point over its structural columns,
    from a vector (slack entries are ignored) or a dict by id (missing: 0)."""
    if isinstance(form, MilpModel):
        form = model_arrays(form)
    if isinstance(values, dict):
        return form, np.array([float(values.get(v, 0)) for v in form.var_ids])
    return form, np.asarray(values, dtype=float)[:form.n_structural]


def feasibility_residual(form: ArrayForm | MilpModel, values) -> float:
    """Largest row or bound violation of a point, on the array form: |Ax - b|
    on an equality row, the excess over the right-hand side on an
    inequality, the distance outside a bound."""
    form, x = _structural(form, values)
    n = form.n_structural
    r = _times(form.nz, np.append(x, np.zeros(len(form.c) - n)), len(form.b)) - form.b
    return float(np.max(np.concatenate([
        np.where(form.slack == 0, np.abs(r), form.slack * r),
        form.lb[:n] - x, x - form.ub[:n]]), initial=0.0))


def dual_residual(form: ArrayForm | MilpModel, sol: LpSolution) -> float:
    """Worst dual-feasibility violation of the reported duals: the reduced
    cost c - A'y of a column at its lower bound alone must not be negative,
    at its upper bound alone not positive, and off both bounds zero."""
    form, x = _structural(form, sol.values)
    n = form.n_structural
    d = form.c[:n] - _priced(form.nz, np.array(
        [float(sol.duals.get(rid, 0)) for rid in form.row_ids]), len(form.c))[:n]
    lower = np.abs(x - form.lb[:n]) <= 1e-6
    upper = np.abs(x - form.ub[:n]) <= 1e-6
    return float(np.max(np.where(lower, np.where(upper, 0.0, -d),
                                 np.where(upper, d, np.abs(d))), initial=0.0))


from .branch_bound import solve_ip  # noqa: E402
from .oracle import enumerate_oracle  # noqa: E402

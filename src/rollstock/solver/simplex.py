"""Bounded-variable revised simplex in floats, with a rational certificate.

Solves min c'x s.t. Ax = b, 0 <= l <= x <= u (u may be +inf), A given by
its nonzeros (column, row, value) and never made dense. A cold run first
presolves once, exactly (Andersen and Andersen 1995): it fixes the columns
that equal bounds, singleton rows, and zero-residual rows of positive
coefficients over lower bounds 0 force, substitutes a column out of each
doubleton equation x_j +- x_k = t (up to a common factor), and drops the
rows left without a free column; what is left is the run's *layout*, the
reduced problem in exact values and its float nonzeros. Each run derives
its bounds from its own: a column takes those of the columns substituted
into it. It starts from the slack basis: one artificial column per live
row, every other column at its lower bound. A warm run, as in a
branch-and-bound child, starts from an earlier run's layout, fixed values,
final basis and a copy of that basis's inverse (made by the first run
that needs it) under bounds that only tighten; a column the new bounds fix
never enters. A postsolve gives the substituted columns their values and
the dropped rows their duals, so x and y are an optimum of the original
model in either mode.

Every run then takes the same two steps, with the artificial columns held
at zero. Dual pivots (dual steepest edge picks the leaving row, Forrest and
Goldfarb 1992; the smallest ratio |d_j / alpha_rj| enters) restore primal
feasibility, or stop on a row that no column can repair, which proves
infeasibility. One primal pass then optimises with the true costs. The
dual pivots need a dual-feasible start: a warm basis is optimal for the
same costs, and the slack basis has zero duals, so a cold run prices them
at the costs clipped at zero (cost modification; Koberstein and Suhl
2007). Without a negative cost, as in every model built from a valid
instance, those are the true costs and the primal pass only confirms.

Pivoting is deterministic: Dantzig pricing in the primal loop, lowest-index
tie-breaking, and a permanent fall back to Bland's rule once a run of
degenerate pivots suggests cycling. A run appends its artificial columns
to the layout's nonzeros, and every product with A runs over them: y'A
(reduced costs, pivot row), A x (basic values) and B^-1 A_q. B^-1 is kept
explicitly and refactorized before every 256th pass. In between, a pass
works in proportion to what its pivot changes (Hall and McKinnon 2005): the
eta step (one routine for both loops) updates the rows of B^-1 where
B^-1 A_q is nonzero and their steepest-edge norms, and the dual loop
carries its reduced costs along the pivot row, d -= (d_q / alpha_rq)
alpha_r. An optimum is reported from the loop's B^-1, refined once, and
refactorized only when it fails a drift test (``_solve_float``).

The rational mode backs the optimal-value *equality* assertions between
models. It does not pivot over ``Fraction``s: it runs the float simplex on
the presolve's layout and then certifies the basis that run ends on (the
approach of QSopt_ex, Applegate, Cook, Dash and Espinoza 2007), over the
reduced problem built from the presolve's exact data. One sparse rational
elimination of the basis solves B x_B = b - N x_N and then B'y = c_B for an
optimum, B'u = e_r for an infeasibility or B w = A_e for an unboundedness.
An optimum needs its primal bounds and, after the postsolve, the
reduced-cost sign of every column of the original model; an infeasibility
needs the dual loop's row r, whose basic value u.b - sum_j (u.A_j) x_j
cannot reach its bounds for any nonbasic x_j within theirs; an
unboundedness needs a feasible basis and an improving column that no basic
variable blocks. A basis that fails, or a float run that fails, raises
``NumericalFailure`` naming the check. The certificate computes in Python
ints wherever a value is integral, as model data mostly is; a ``Fraction``
appears only where an exact quotient is not an integer, and in the answer.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import NumericalFailure

INF = float("inf")

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

TOL = 1e-9        # pricing and ratio-test pivots
TIE = 1e-12       # ratio ties and degenerate steps
DRIFT = 1e-9      # relative residual of a reported x_B or y that refactorizes


@dataclass
class SimplexResult:
    status: str                 # Optimal | Infeasible | Unbounded
    objective: object = None
    x: object = None            # values per column of A
    y: object = None            # duals per row
    iterations: int = 0
    basis: _Basis | None = None  # where the float run stopped


@dataclass
class _Layout:
    """What the presolve leaves, in the exact values of the data: the free
    columns and live rows of the reduced problem, the value of every fixed
    column, ``rhs`` (b less the fixed and substituted columns), the
    reductions in order, and the lifted nonzeros (row, coefficient) of each
    column. A reduction is (row, [(column, coefficient), ...]) for a row
    that fixed columns, or (row, k, s, j, t, column) for a doubleton row
    that substituted x_k = s x_j + t, with j's column before k was folded
    into it. ``columns`` holds each column as {row: coefficient} when it
    left the problem, or at the end. ``nz``, the only matrix a run uses,
    holds the reduced problem's nonzeros as arrays (column, row, float
    value) over ``free_cols`` and ``live_rows``: column by column, rows
    ascending, the form a model's matrix reaches ``solve_arrays`` in."""

    free_cols: list[int]
    live_rows: list[int]
    fixed: dict[int, object]
    rhs: list
    records: list[tuple]
    cols: list[list]
    columns: list[dict]
    nz: tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class _Basis:
    """Where the float run stopped, over its layout: the reduced columns
    are the free columns in order, then the artificial column
    ``sign[i] * e_i`` of each live row. An Infeasible run sets ``row``, the
    dual loop's basis position that no column can repair; an Unbounded run
    sets ``entering``, the column that improves without a blocking row.
    ``B_inv`` is None until a run starts from this basis: the first such run
    makes it, ``_inverse`` of the basis, and every run begins from a copy."""

    layout: _Layout
    sign: np.ndarray
    basis: list[int]
    status: np.ndarray
    entering: int = -1
    row: int = -1
    B_inv: np.ndarray | None = None


def to_fraction(v) -> Fraction:
    """Lift one number to the intended decimal rational.

    Model data is decimal-valued (rates like 0.1); taking the binary float
    verbatim would drag 50-bit denominators through every pivot. The
    nearest rational with a small denominator is the faithful reading and
    is identical for every model built from the same instance. A nonzero
    below that reading's resolution (5e-10) keeps its binary value, so it
    never lifts to 0.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) or float(v).is_integer():
        return Fraction(int(v))
    return Fraction(v).limit_denominator(10 ** 9) or Fraction(v)


def _lift(v: np.ndarray) -> list:
    """The exact values of a float array: the integral entries below 2**53
    as ints by one numpy test, the others by ``to_fraction``; +inf stays
    ``INF``."""
    whole = (v == np.rint(v)) & (np.abs(v) < 2.0 ** 53)
    out = np.where(whole, v, 0.0).astype(np.int64).tolist()
    for k in np.flatnonzero(~whole).tolist():
        out[k] = INF if v[k] == INF else to_fraction(v[k])
    return out


def _presolve(nz, b, lb, ub) -> _Layout | None:
    """The layout of a cold run, or None when the data contradict exactly.

    Works on the lifted data, so every decision is exact. Fixing a column
    updates the residual of each of its rows and puts them on a worklist; a
    row taken from it that has one free column, or a zero residual and only
    free columns with positive coefficients and lower bound 0, fixes them.
    Once the worklist drains, the lowest live row i with two free columns
    j < k of equal |coefficient|, k in some other row as well, substitutes
    x_k = s x_j + t (s = +-1) out: k is folded into j in every other row
    (and, by ``_costs``, in the cost), j takes the bounds k implies, row i
    drops, and the rows k held go back on the worklist. A k in no other row
    is left in place: folding it would only turn row i into bounds on j.
    """
    if (lb == -INF).any():
        raise NumericalFailure("free variables are not supported")
    m, n = len(b), len(lb)
    lo, up, rhs = _lift(lb), _lift(ub), _lift(b)
    if any(lo_j > up_j for lo_j, up_j in zip(lo, up)):
        return None
    rows, columns = [{} for _ in range(m)], [{} for _ in range(n)]
    for j, i, a in zip(nz[0].tolist(), nz[1].tolist(), _lift(nz[2])):
        rows[i][j] = columns[j][i] = a
    cols = [list(col.items()) for col in columns]
    fixed, records, work, pairs = {}, [], list(range(m - 1, -1, -1)), []

    def fix(j, v):
        fixed[j] = v
        for i, a in columns[j].items():
            rhs[i] -= a * v
            del rows[i][j]
            work.append(i)

    def fold(i, j, k):
        s = -1 if (rows[i][j] > 0) == (rows[i][k] > 0) else 1
        t = _div(rhs[i], rows[i][k])
        records.append((i, k, s, j, t, dict(columns[j])))
        for r, a in columns[k].items():
            rhs[r] -= a * t
            del rows[r][k]
            if v := rows[r].get(j, 0) + s * a:
                rows[r][j] = columns[j][r] = v
            else:
                del rows[r][j], columns[j][r]
            work.append(r)
        return _narrow(lo, up, k, s, j, t)

    for j in range(n):
        if lo[j] == up[j]:
            fix(j, lo[j])
    while work or pairs:
        if not work:
            if len(rows[i := heapq.heappop(pairs)]) == 2:
                (j, a), (k, a_k) = sorted(rows[i].items())
                if abs(a) == abs(a_k) and len(columns[k]) > 1 and \
                        not fold(i, j, k):
                    return None
            continue
        row = rows[i := work.pop()]
        if not row:
            if rhs[i]:
                return None
            continue
        if len(row) == 1:
            (j, a), = row.items()
            v, pinned = _div(rhs[i], a), [(j, a)]
            if not lo[j] <= v <= up[j]:
                return None
        elif rhs[i] == 0 and all(a > 0 and lo[j] == 0 for j, a in row.items()):
            v, pinned = 0, list(row.items())
        else:
            if len(row) == 2:  # a doubleton once the worklist drains
                heapq.heappush(pairs, i)
            continue
        records.append((i, pinned))
        for j, _ in pinned:
            fix(j, v)
    gone = fixed.keys() | {rec[1] for rec in records if len(rec) > 2}
    free = [j for j in range(n) if j not in gone]
    live = [i for i in range(m) if rows[i]]
    at = {i: p for p, i in enumerate(live)}
    nz = np.array([(p, at[i], a) for p, j in enumerate(free)
                   for i, a in sorted(columns[j].items())], float).reshape(-1, 3)
    return _Layout(free, live, fixed, rhs, records, cols, columns,
                   (nz[:, 0].astype(int), nz[:, 1].astype(int), nz[:, 2]))


def _costs(layout: _Layout, cost: list) -> list:
    """The reduced problem's costs: ``cost`` (floats or exact values, per
    column) with each substituted column's cost folded into the column it
    was substituted by, in place."""
    for rec in layout.records:
        if len(rec) > 2:
            cost[rec[3]] += rec[2] * cost[rec[1]]
    return cost


def _narrow(lo, up, k, s, j, t) -> bool:
    """Intersect j's bounds with those x_k = s x_j + t and k's bounds
    imply; whether they still meet."""
    a, z = (lo[k] - t, up[k] - t) if s == 1 else (t - up[k], t - lo[k])
    lo[j], up[j] = max(lo[j], a), min(up[j], z)
    return lo[j] <= up[j]


def _bounds(layout: _Layout, lb, ub):
    """The exact bounds (lo, up) a run on ``layout`` holds each column to: its
    own, intersected, for a column others were folded into, with the bounds
    each implies through its substitution. None when an interval is empty
    or leaves out a fixed value; a run is Infeasible then, with no pivots."""
    lo, up = _lift(lb), _lift(ub)
    for rec in layout.records:
        if len(rec) > 2 and not _narrow(lo, up, *rec[1:5]):
            return None
    if (lb > ub).any() or not all(lo[j] <= v <= up[j]
                                  for j, v in layout.fixed.items()):
        return None
    return lo, up


def _postsolve(layout: _Layout, costs: list, x: list, y: list, bounds,
               exact: bool):
    """The values of the substituted columns and the duals of the rows the
    presolve dropped, walking its reductions backwards over each column as
    it stood then (so d_j below is a reduced cost of that stage; ``costs``,
    from ``_costs``, are unfolded on the way). A row that fixed columns
    gets min_j d_j / a_ij over them, so d_j is zero for a singleton's
    column and nonnegative for columns pinned at lower bound 0. A doubleton
    row sets x_k = s x_j + t and makes d_k zero, or d_j when x_j rests at a
    bound k implies (Andersen and Andersen 1995). ``x`` and ``y`` (the live
    rows' duals, 0 elsewhere) are floats or exact values."""
    div, tol = (_div, 0) if exact else (operator.truediv, TOL)
    lo, up = bounds
    columns = layout.columns

    def reduced(column, cost):
        return cost - sum(y[r] * a for r, a in column.items())

    for rec in reversed(layout.records):
        i = rec[0]
        if len(rec) == 2:
            y[i] = min(div(reduced(columns[j], costs[j]), a) for j, a in rec[1])
            continue
        _, k, s, j, t, column_j = rec
        x[k] = s * x[j] + t
        costs[j] -= s * costs[k]
        d_k, gap = reduced(columns[k], costs[k]), tol * max(1, abs(x[k]))
        if abs(x[k] - lo[k]) <= gap or abs(x[k] - up[k]) <= gap:
            d_j = reduced(column_j, costs[j])
            d = d_j + s * d_k  # j's reduced cost with k folded in
            if d and abs(x[k] - (lo[k] if s * d > 0 else up[k])) <= gap:
                y[i] = div(d_j, column_j[i])  # d_k = s d
                continue
        y[i] = div(d_k, columns[k][i])  # d_j = d
    return x, y


def _times(nz, x, m):
    """A x for the m-row matrix A whose nonzeros are ``nz``."""
    cols, rows, vals = nz
    return np.bincount(rows, vals * x[cols], minlength=m)


def _priced(nz, y, n):
    """y'A for the n-column matrix A whose nonzeros are ``nz``."""
    cols, rows, vals = nz
    return np.bincount(cols, y[rows] * vals, minlength=n)


def _inverse(nz, basis, n):
    """B^-1 for B the columns ``basis`` of the nonzeros ``nz`` of n columns."""
    cols, rows, vals = nz
    where = np.full(n, -1)
    where[basis] = np.arange(len(basis))
    keep = where[cols] >= 0
    B = np.zeros((len(basis), len(basis)))
    B[rows[keep], where[cols[keep]]] = vals[keep]
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"singular basis: {e}") from e


def _nonbasic_values(lb, ub, status):
    return np.where(status == BASIC, 0.0, np.where(status == AT_UPPER, ub, lb))


def _pick_entering(status, d, fixed, bland: bool) -> int:
    viol = np.zeros(len(d))
    low = (status == AT_LOWER) & ~fixed
    up = (status == AT_UPPER) & ~fixed
    viol[low] = -d[low]
    viol[up] = d[up]
    if bland:
        ok = viol > TOL
        return int(np.argmax(ok)) if ok.any() else -1
    j = int(np.argmax(viol))
    return j if viol[j] > TOL else -1


def _ratio_test(lb, ub, basis_arr, x_B, col, direction, cap):
    """(t, leaving_row, leave_to); leaving_row -1 means a bound flip."""
    w = col * direction
    lb_b = lb[basis_arr]
    ub_b = ub[basis_arr]

    dec = w > TOL
    inc = (w < -TOL) & (ub_b != INF)
    rows = np.concatenate([np.flatnonzero(dec), np.flatnonzero(inc)])
    if rows.size == 0:
        return cap, -1, AT_LOWER
    bounds = np.concatenate([np.zeros(int(dec.sum()), dtype=int),
                             np.ones(int(inc.sum()), dtype=int)])
    ratios = np.concatenate([
        (x_B[dec] - lb_b[dec]) / w[dec],
        (ub_b[inc] - x_B[inc]) / (-w[inc]),
    ])
    np.clip(ratios, 0.0, None, out=ratios)
    r_min = float(ratios.min())
    if r_min >= cap - TIE:
        return cap, -1, AT_LOWER  # the entering bound binds first: flip
    close = ratios <= r_min + TIE
    cand = np.flatnonzero(close)
    pick = cand[int(np.argmin(basis_arr[rows[cand]]))]
    return r_min, int(rows[pick]), (AT_LOWER if bounds[pick] == 0 else AT_UPPER)


class _Pivots:
    """A basis of the reduced problem as the pivot loops move it: B^-1, its
    squared row ``norms``, the basic values ``x_B`` and the column statuses,
    over ``nz``, the nonzeros of A as in ``_Layout``. ``basis`` and ``status``
    are the caller's and are updated in place; ``d`` holds the reduced costs
    that the dual loop carries."""

    def __init__(self, nz, b, lb, ub, basis: list[int], status: np.ndarray,
                 B_inv, max_iter: int):
        self.nz, self.b, self.lb, self.ub = nz, b, lb, ub
        self.basis, self.status, self.B_inv = basis, status, B_inv
        self.max_iter = max_iter
        # ``at[j]:at[j + 1]`` are the nonzeros of column j
        self.at = np.searchsorted(nz[0], np.arange(len(lb) + 1))

    def start(self):
        """Begin a loop: norms and basic values from B^-1 and the bounds."""
        self._derive()
        self.fixed = self.lb == self.ub
        self.iters = 0

    def count(self):
        """One more pass of the loop."""
        if self.iters >= self.max_iter:
            raise NumericalFailure(
                f"simplex iteration limit {self.max_iter} reached")
        self.iters += 1

    def refactor(self):
        self.B_inv = _inverse(self.nz, self.basis, len(self.lb))
        self._derive()

    def _derive(self):
        self.norms = np.einsum("ij,ij->i", self.B_inv, self.B_inv)
        x_N = _nonbasic_values(self.lb, self.ub, self.status)
        self.x_B = self.B_inv @ (self.b - _times(self.nz, x_N, len(self.b)))
        self.basis_arr = np.array(self.basis, dtype=int)

    def reduced_costs(self, costs):
        """c - (c_B B^-1) A, priced afresh."""
        return costs - _priced(self.nz, costs[self.basis] @ self.B_inv, len(self.lb))

    def column(self, j):
        """B^-1 A_j, over the nonzeros of A_j."""
        _, rows, vals = self.nz
        span = slice(self.at[j], self.at[j + 1])
        return self.B_inv[:, rows[span]] @ vals[span]

    def pivot(self, entering: int, col, delta, leaving: int,
              leave_to: int) -> bool:
        """Move the nonbasic column ``entering`` by ``delta``; ``col`` is
        B^-1 A_entering. With ``leaving`` -1 the column flips to its other
        bound; otherwise it takes the basis position ``leaving``, whose
        column goes to ``leave_to``. Refactorizes before every 256th pass,
        and returns whether it did."""
        status = self.status
        x_B = self.x_B - col * delta
        if leaving < 0:
            status[entering] = AT_LOWER if status[entering] == AT_UPPER \
                else AT_UPPER
        else:
            x_B[leaving] = (self.lb[entering] if status[entering] == AT_LOWER
                            else self.ub[entering]) + delta
            status[self.basis[leaving]] = leave_to
            status[entering] = BASIC
            self.basis[leaving] = entering
            self.basis_arr[leaving] = entering
            # the eta step: a row with col[i] == 0 would lose 0 * row
            B_inv = self.B_inv
            row = B_inv[leaving] / col[leaving]
            touched = col.nonzero()[0]
            B_inv[touched] -= col[touched][:, None] * row
            B_inv[leaving] = row
            new = B_inv[touched]
            self.norms[touched] = np.einsum("ij,ij->i", new, new)
        self.x_B = x_B
        if (self.iters + 1) % 256 == 0:
            self.refactor()
            return True
        return False


def _cycling(degenerate_run: int, p: _Pivots) -> bool:
    return degenerate_run > 40 + 2 * (len(p.b) + len(p.lb))


def _simplex(p: _Pivots, costs):
    """Primal iterations from a primal-feasible basis.

    Returns (state, entering); ``entering`` is the improving column of an
    Unbounded state.
    """
    p.start()
    degenerate_run = 0
    bland = False
    while True:
        p.count()
        bland = bland or _cycling(degenerate_run, p)
        entering = _pick_entering(p.status, p.reduced_costs(costs), p.fixed,
                                  bland)
        if entering < 0:
            return "Optimal", -1

        direction = 1 if p.status[entering] == AT_LOWER else -1
        col = p.column(entering)
        lo, up = p.lb[entering], p.ub[entering]
        cap = up - lo if up != INF else INF
        t, leaving, leave_to = _ratio_test(p.lb, p.ub, p.basis_arr, p.x_B, col,
                                           direction, cap)
        if t == INF:
            return "Unbounded", entering

        degenerate_run = degenerate_run + 1 if t <= TIE else 0
        p.pivot(entering, col, direction * t, leaving, leave_to)


def _dual(p: _Pivots, costs) -> int:
    """Dual iterations from a dual-feasible basis until every basic value
    is within its bounds. Returns -1 then, or the basis position whose
    basic column no eligible column can move toward its violated bound
    (the reduced problem is infeasible).

    The leaving position r maximises the dual steepest-edge ratio
    viol_r^2 / |e_r' B^-1|^2, with the exact row norms that ``_Pivots``
    keeps, the lowest position on ties (once a run of degenerate pivots
    suggests cycling: the violated position with the lowest basic column,
    as Bland's rule). The entering column has the smallest |d_j / alpha_rj|
    among nonbasic columns that are not fixed and push the leaving value
    toward its bound, the lowest index on ties. d is priced afresh only at
    the start and after a refactorization, else d -= (d_q / alpha_rq) alpha_r.
    The ±1 directions, the mask of unfixed nonbasic columns and the basic
    bounds are carried too: a pivot updates the two columns that swap.
    """
    p.start()
    p.d = p.reduced_costs(costs)
    direction = np.where(p.status == AT_LOWER, 1.0, -1.0)
    free = (p.status != BASIC) & ~p.fixed
    lb_B, ub_B = p.lb[p.basis_arr], p.ub[p.basis_arr]
    degenerate_run = 0
    bland = False
    while True:
        p.count()
        bland = bland or _cycling(degenerate_run, p)
        x_B = p.x_B
        viol = np.maximum(lb_B - x_B, x_B - ub_B)
        score = viol * viol / p.norms
        score[viol <= TOL] = 0.0
        if not len(score) or score[r := int(score.argmax())] == 0:
            return -1
        if bland:
            bad = score.nonzero()[0]
            r = int(bad[p.basis_arr[bad].argmin()])
        to_lower = x_B[r] < lb_B[r]

        # a unit step of nonbasic column j moves x_B[r] by -push_j: up to a
        # violated lower bound needs push_j < 0, down to an upper one > 0
        alpha = _priced(p.nz, p.B_inv[r], len(p.lb))  # the pivot row
        push = alpha * direction
        eligible = (((push < -TOL) if to_lower else (push > TOL)) & free).nonzero()[0]
        if not len(eligible):
            return r
        ratios = np.maximum(p.d[eligible] * direction[eligible], 0.0) \
            / np.abs(push[eligible])
        r_min = float(ratios.min())
        entering = int(eligible[(ratios <= r_min + TIE).argmax()])

        degenerate_run = degenerate_run + 1 if r_min <= TIE else 0
        col = p.column(entering)
        leaving, bound = p.basis[r], lb_B[r] if to_lower else ub_B[r]
        if p.pivot(entering, col, (x_B[r] - bound) / col[r], r,
                   AT_LOWER if to_lower else AT_UPPER):
            p.d = p.reduced_costs(costs)
        else:
            p.d -= p.d[entering] / alpha[entering] * alpha
            p.d[entering] = 0.0
        direction[leaving] = 1.0 if to_lower else -1.0
        free[leaving], free[entering] = not p.fixed[leaving], False
        lb_B[r], ub_B[r] = p.lb[entering], p.ub[entering]


def _solve_float(c, lb, ub, layout: _Layout, bounds, start=None):
    """The float run on ``layout`` under ``bounds``, from ``start``'s basis
    or else from the slack basis: one artificial column per live row, every
    other column at its lower bound. Each free column takes the floats of
    its exact bounds and its folded cost; the artificial columns are held at
    zero. The dual loop runs first (on the costs clipped at zero from the
    slack basis, whose duals are zero), then one primal pass on the true
    costs. An optimum takes x_B and y = c_B B^-1 from the loop's B^-1,
    refined once, x_B += B^-1 (b - A x) and y += (c_B - (yA)_B) B^-1, or
    from a refactorization if either residual fails the drift test (beyond
    ``DRIFT`` (1 + max |b_i| or |c_B|)); it gets the layout's fixed values
    as floats, the postsolved substituted values and duals, and x clipped
    to ``lb`` and ``ub``.
    """
    free_cols, live_rows = layout.free_cols, layout.live_rows
    m, n = len(live_rows), len(free_cols)
    b_r = np.array([float(layout.rhs[i]) for i in live_rows])
    lb_r, ub_r = (np.array([float(v[j]) for j in free_cols] + [0.0] * m)
                  for v in bounds)
    cost = _costs(layout, c.tolist())
    costs = np.array([cost[j] for j in free_cols] + [0.0] * m)
    if start is None:
        sign = np.where(b_r - _times(layout.nz, lb_r, m) >= 0, 1.0, -1.0)
        basis = list(range(n, n + m))
        status = np.full(n + m, AT_LOWER, dtype=int)
        status[n:] = BASIC
        # the slack basis has zero duals, so it is dual feasible for the
        # costs clipped at zero; the primal pass restores the true costs
        dual_costs = np.maximum(costs, 0.0)
    else:
        sign, basis, status = start.sign, list(start.basis), start.status.copy()
        dual_costs = costs

    k = np.arange(m)  # the artificial column sign[k] e_k is column n + k
    nz = [np.concatenate(v) for v in zip(layout.nz, (n + k, k, sign))]
    run = _Basis(layout, sign, basis, status)

    iterations = 0
    x_r = y_r = np.zeros(0)
    if n:
        if start is not None and start.B_inv is None:
            start.B_inv = _inverse(nz, basis, n + m)
        # the artificial diagonal is its own inverse
        B_inv = np.diag(sign) if start is None else start.B_inv.copy()
        p = _Pivots(nz, b_r, lb_r, ub_r, basis, status, B_inv, 5000 + 60 * (m + n))
        run.row = _dual(p, dual_costs)
        iterations = p.iters
        if run.row >= 0:
            return SimplexResult("Infeasible", iterations=iterations,
                                 basis=run)
        state, run.entering = _simplex(p, costs)
        iterations += p.iters
        if state == "Unbounded":
            return SimplexResult("Unbounded", iterations=iterations,
                                 basis=run)
        c_B, x_r = costs[basis], _nonbasic_values(lb_r, ub_r, status)
        x_r[basis], y_r = p.x_B, c_B @ p.B_inv
        r_x = b_r - _times(nz, x_r, m)
        r_y = c_B - _priced(nz, y_r, n + m)[basis]
        if any(np.abs(r).max(initial=0.0) > DRIFT * (1 + np.abs(v).max(initial=0.0))
               for r, v in ((r_x, b_r), (r_y, c_B))):
            p.refactor()
            x_r[basis], y_r = p.x_B, c_B @ p.B_inv
        else:
            x_r[basis] += p.B_inv @ r_x
            y_r += r_y @ p.B_inv

    x = np.empty(len(c))
    x[list(layout.fixed)] = [float(v) for v in layout.fixed.values()]
    x[free_cols] = x_r[:n]
    y = np.zeros(len(layout.rhs))
    y[live_rows] = y_r
    x, y = map(np.array, _postsolve(layout, cost, x.tolist(), y.tolist(),
                                    bounds, False))
    np.clip(x, lb, ub, out=x)
    obj = sum((c[j] * x[j] for j in range(len(c))), 0.0)
    return SimplexResult("Optimal", objective=obj, x=x, y=y,
                         iterations=iterations, basis=run)


def _div(a, b):
    """The exact quotient a / b of ints and Fractions: an int where it is
    integral, a Fraction elsewhere."""
    if b == 1 or b == -1:
        return a if b == 1 else -a
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _factor(rows: list):
    """Eliminate the square matrix M, given as sparse rows of ints or Fractions
    (dicts ``{column: value}`` or (column, value) pairs); every quotient goes
    through ``_div``, so integral data stay ints. The pivot is the sparsest
    remaining row, the lowest index on ties, from a heap of ``(len(row), i)``
    that gets a new entry when fill-in changes a row's length (an entry whose
    row is gone or has another length is stale), and in it the column held by
    the fewest remaining rows. Returns the pivots (p, q) in order, the rows
    U = E M and the steps (i, p, f), row i less f times row p, whose product
    is E; or None if M is singular."""
    rows = [dict(r) for r in rows]
    holders: dict[int, set] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    remaining = set(range(len(rows)))
    heap = sorted((len(row), i) for i, row in enumerate(rows))
    order, steps = [], []
    while remaining:
        size, p = heapq.heappop(heap)
        if p not in remaining or size != len(rows[p]):
            continue
        if not rows[p]:
            return None
        q = min(rows[p], key=lambda j: (len(holders[j]), j))
        remaining.discard(p)
        for j in rows[p]:
            holders[j].discard(p)
        pivot_row, pivot = rows[p], rows[p][q]
        for i in sorted(holders[q]):
            row, f, size = rows[i], _div(rows[i][q], pivot), len(rows[i])
            for j, a in pivot_row.items():
                v = row.get(j, 0) - f * a
                if v:
                    row[j] = v
                    holders[j].add(i)
                else:
                    row.pop(j, None)
                    holders[j].discard(i)
            if len(row) != size:
                heapq.heappush(heap, (len(row), i))
            steps.append((i, p, f))
        order.append((p, q))
    return order, rows, steps


def _solve(factor, r: list, transposed: bool = False) -> list:
    """z with M z = r, or with ``transposed`` M'z = r, for the M that
    ``factor`` eliminated: the steps replayed on r and back substitution
    through U in reverse pivot order, or forward substitution through U' in
    pivot order and the steps replayed transposed, in reverse: M' = U'E^-T."""
    order, rows, steps = factor
    r, z = list(r), [0] * len(r)
    if transposed:
        for p, q in order:
            z[p] = v = _div(r[q], rows[p][q])
            for j, a in rows[p].items():  # r[q] is not read again
                r[j] -= a * v
        for i, p, f in reversed(steps):
            z[p] -= f * z[i] if z[i] else 0
        return z
    for i, p, f in steps:
        r[i] -= f * r[p] if r[p] else 0
    for p, q in reversed(order):  # z[q] is still 0 in the sum
        z[q] = _div(r[p] - sum(a * z[j] for j, a in rows[p].items()),
                    rows[p][q])
    return z


def _certify(c, lb, ub, layout: _Layout, bounds, start) -> SimplexResult:
    """The exact answer: the float run, then a rational certificate of the
    basis that run ends on, over the presolve's exact reduced problem. One
    elimination of that basis serves every system the certificate solves."""
    try:
        approx = _solve_float(c, lb, ub, layout, bounds, start)
    except NumericalFailure as e:
        raise NumericalFailure(f"certificate: float run failed: {e}") from e
    run = approx.basis

    # the reduced problem: layout columns, then one artificial per live row
    free_cols, live_rows = layout.free_cols, layout.live_rows
    m, n = len(live_rows), len(free_cols)
    at = {i: k for k, i in enumerate(live_rows)}
    column = [[(at[i], a) for i, a in layout.columns[j].items()]
              for j in free_cols] + [[(k, int(s))] for k, s in enumerate(run.sign)]
    lo, up = ([v[j] for j in free_cols] + [0] * m for v in bounds)
    cost = _lift(c)
    folded = _costs(layout, list(cost))
    costs = [folded[j] for j in free_cols] + [0] * m
    basis, status = run.basis, run.status

    b_r = [layout.rhs[i] for i in live_rows]
    x_r = [0] * (n + m)
    for j in range(n + m):
        if status[j] != BASIC:
            x_r[j] = lo[j] if status[j] == AT_LOWER else up[j]
            if x_r[j] == INF:
                raise NumericalFailure(f"certificate: column {j} rests at "
                                       "an infinite bound")
            for k, a in column[j]:
                b_r[k] -= a * x_r[j]
    # x_B from B x_B = b - N x_N; B' has the basic columns as its rows
    factor = _factor([column[j] for j in basis])
    if factor is None:
        raise NumericalFailure("certificate: singular basis")
    for j, v in zip(basis, _solve(factor, b_r, transposed=True)):
        x_r[j] = v

    if run.row >= 0:
        # x_r = u.b - sum over nonbasic j of (u.A_j) x_j with B'u = e_row:
        # no choice of nonbasic values within their bounds lets it reach
        # the bound it violates
        r, j_r = run.row, basis[run.row]
        u = _solve(factor, [int(pos == r) for pos in range(m)])
        below = x_r[j_r] < lo[j_r]
        reach = x_r[j_r]
        for j in range(n + m):
            alpha = sum(u[k] * a for k, a in column[j]) \
                if status[j] != BASIC else 0
            if alpha:
                end = lo[j] if (alpha > 0) == below else up[j]
                if end == INF:
                    raise NumericalFailure(f"certificate: column {j} moves "
                                           f"row {r} without bound")
                reach += alpha * (x_r[j] - end)
        if (reach >= lo[j_r]) if below else (reach <= up[j_r]):
            raise NumericalFailure(f"certificate: row {r} can reach the bounds "
                                   f"of its basic column {j_r}")
        return SimplexResult("Infeasible", iterations=approx.iterations,
                             basis=run)

    for j in basis:
        if x_r[j] < lo[j] or x_r[j] > up[j]:
            raise NumericalFailure(f"certificate: basic column {j} = "
                                   f"{x_r[j]} is outside its bounds")

    if approx.status == "Unbounded":
        e, a_e = run.entering, dict(column[run.entering])
        w = _solve(factor, [a_e.get(k, 0) for k in range(m)], transposed=True)
        direction = 1 if status[e] == AT_LOWER else -1
        gain = costs[e] - sum(costs[j] * w[pos] for pos, j in enumerate(basis))
        blocked = up[e] != INF or any(
            w[pos] * direction > 0 or (w[pos] * direction < 0 and up[j] != INF)
            for pos, j in enumerate(basis))
        if gain * direction >= 0 or blocked:
            raise NumericalFailure(f"certificate: column {e} is no unbounded "
                                   "ray")
        return SimplexResult("Unbounded", iterations=approx.iterations,
                             basis=run)

    # y from B'y = c_B, the dropped rows' duals from the postsolve, and the
    # reduced cost of every column of the original model of the right sign
    y_r = _solve(factor, [costs[j] for j in basis])
    values = {**layout.fixed, **dict(zip(free_cols, x_r))}
    x = [values.get(j) for j in range(len(c))]
    duals = dict(zip(live_rows, y_r))
    y = [duals.get(i, 0) for i in range(len(layout.rhs))]
    _postsolve(layout, folded, x, y, bounds, True)
    lo_all, up_all = _lift(lb), _lift(ub)
    for j, x_j in enumerate(x):
        d = cost[j] - sum(y[i] * a for i, a in layout.cols[j])
        if (d < 0 and x_j != up_all[j]) or (d > 0 and x_j != lo_all[j]):
            raise NumericalFailure(f"certificate: reduced cost {d} of column "
                                   f"{j} has the wrong sign")

    obj = Fraction(sum(q * x_j for q, x_j in zip(cost, x) if q))
    x, y = (np.array([Fraction(v) for v in vec], dtype=object)
            for vec in (x, y))
    return SimplexResult("Optimal", objective=obj, x=x, y=y,
                         iterations=approx.iterations, basis=run)


def solve_arrays(c, nz, b, lb, ub, exact: bool = False,
                 start: _Basis | None = None) -> SimplexResult:
    """Bounded simplex on A's nonzeros.

    ``nz`` is as ``ArrayForm.nz``; bounds may use ``float('inf')`` for no upper bound.
    A cold run presolves, then reaches the answer by dual pivots from the
    slack basis and one primal pass; a row the dual pivots cannot repair
    makes it Infeasible. With ``start``, the ``basis`` of an earlier result
    on the same data under bounds that contain these, the run keeps that
    result's layout and fixed values and starts from its basis. With
    ``exact`` the float run's basis is certified in rational arithmetic and
    the answer is exact: a ``Fraction`` objective, and x and y as object
    arrays of ``Fraction``s. ``iterations`` counts the float run's pivot
    passes either way. A basis that fails its certificate raises
    ``NumericalFailure``; there is no rational pivoting.
    """
    c, b, lb, ub = (np.asarray(v, dtype=float) for v in (c, b, lb, ub))
    layout = _presolve(nz, b, lb, ub) if start is None else start.layout
    bounds = layout and _bounds(layout, lb, ub)
    if bounds is None:
        return SimplexResult("Infeasible")
    if exact:
        return _certify(c, lb, ub, layout, bounds, start)
    return _solve_float(c, lb, ub, layout, bounds, start)

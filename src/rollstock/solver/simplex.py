"""Bounded-variable revised simplex in floats, with a rational certificate.

Solves min c'x s.t. Ax = b, 0 <= l <= x <= u (u may be +inf). Columns fixed
by equal bounds are substituted out and rows left without a free column are
dropped before the iterations start; phase 1 starts from one artificial
column per remaining row.

Pivoting is deterministic: Dantzig pricing with lowest-index tie-breaking,
falling back to Bland's rule permanently once a run of degenerate pivots
suggests cycling. The basis inverse is kept explicitly, updated by a rank-one
eta step per pivot and refactorized every 256 iterations.

The rational mode backs the optimal-value *equality* assertions between
models. It does not pivot over ``Fraction``s: it takes the presolve decisions
in rational arithmetic, runs the float simplex, and then certifies the basis
that run ends on (the approach of QSopt_ex, Applegate, Cook, Dash and
Espinoza 2007). One sparse rational elimination solves B x_B = b - N x_N and
B'y = c_B. An optimum needs its primal bounds and reduced-cost signs; an
infeasibility needs an optimal phase-1 basis with a positive artificial sum;
an unboundedness needs a feasible phase-2 basis and an improving column that
no basic variable blocks. A basis that fails, or a float run that fails,
raises ``NumericalFailure`` naming the check.
"""

from __future__ import annotations

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
FEAS_TOL = 1e-7   # dead rows and the phase-1 artificial sum


@dataclass
class SimplexResult:
    status: str                 # Optimal | Infeasible | Unbounded
    objective: object = None
    x: object = None            # values per column of A
    y: object = None            # duals per row
    iterations: int = 0


@dataclass
class _Basis:
    """Where the float run stopped, over the reduced columns: the free
    columns in order, then the artificial column ``sign[i] * e_i`` of each
    live row. ``state`` is Optimal (phase 2), Infeasible (phase 1) or
    Unbounded (phase 2, ``entering`` improves without a blocking row)."""

    state: str
    free_cols: list[int]
    live_rows: list[int]
    sign: np.ndarray
    basis: list[int]
    status: np.ndarray
    entering: int = -1


def to_fraction(v) -> Fraction:
    """Lift one number to the intended decimal rational.

    Model data is decimal-valued (rates like 0.1); taking the binary float
    verbatim would drag 50-bit denominators through every pivot. The
    nearest rational with a small denominator is the faithful reading and
    is identical for every model built from the same instance.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) or float(v).is_integer():
        return Fraction(int(v))
    return Fraction(v).limit_denominator(10 ** 9)


def _inverse(A, basis):
    try:
        return np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"singular basis: {e}") from e


def _nonbasic_values(lb, ub, status):
    vals = np.where(status == AT_UPPER, ub, lb)
    vals[status == BASIC] = 0.0
    return vals


def _basic_values(A, b, lb, ub, status, B_inv):
    return B_inv @ (b - A @ _nonbasic_values(lb, ub, status))


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


def _simplex(A, b, lb, ub, basis: list[int], status: np.ndarray, costs,
             max_iter: int, B_inv):
    """Primal iterations; mutates basis and status.

    Returns (state, iterations, B_inv, x_B, entering) so phases can share
    the basis; ``entering`` is the improving column of an Unbounded state.
    """
    m, n = A.shape
    x_B = _basic_values(A, b, lb, ub, status, B_inv)
    basis_arr = np.array(basis)
    fixed = lb == ub
    degenerate_run = 0
    bland = False
    iters = 0

    while True:
        if iters >= max_iter:
            raise NumericalFailure(f"simplex iteration limit {max_iter} reached")
        iters += 1
        if iters % 256 == 0:
            B_inv = _inverse(A, basis)
            x_B = _basic_values(A, b, lb, ub, status, B_inv)
            basis_arr = np.array(basis)

        y = costs[basis] @ B_inv
        d = costs - y @ A
        entering = _pick_entering(status, d, fixed, bland)
        if entering < 0:
            return "Optimal", iters, B_inv, x_B, -1

        direction = 1 if status[entering] == AT_LOWER else -1
        col = B_inv @ A[:, entering]
        cap = ub[entering] - lb[entering] if ub[entering] != INF else INF
        t, leaving, leave_to = _ratio_test(lb, ub, basis_arr, x_B, col,
                                           direction, cap)
        if t == INF:
            return "Unbounded", iters, B_inv, x_B, entering

        if t <= TIE:
            degenerate_run += 1
            if degenerate_run > 40 + 2 * (m + n):
                bland = True
        else:
            degenerate_run = 0

        if leaving < 0:
            # entering variable flips to its other bound
            x_B = x_B - col * (direction * t)
            status[entering] = AT_UPPER if direction == 1 else AT_LOWER
            continue

        out = basis[leaving]
        enter_value = (lb[entering] if direction == 1 else ub[entering]) \
            + direction * t
        x_B = x_B - col * (direction * t)
        x_B[leaving] = enter_value
        status[out] = leave_to
        status[entering] = BASIC
        basis[leaving] = entering
        basis_arr[leaving] = entering

        B_inv[leaving, :] /= col[leaving]
        factor = col.copy()
        factor[leaving] = 0.0
        B_inv -= np.outer(factor, B_inv[leaving, :])


def _solve_float(c, A, b, lb, ub, max_iter: int | None):
    """Two-phase run in floats.

    Returns (SimplexResult, _Basis); the basis is None when the presolve
    alone proves infeasibility.
    """
    n_all = len(c)
    for j in range(n_all):
        if lb[j] > ub[j]:
            return SimplexResult("Infeasible"), None
        if lb[j] == -INF:
            raise NumericalFailure("free variables are not supported")

    # substitute out fixed columns, drop rows that become empty
    fixed_mask = lb == ub
    free_cols = [j for j in range(n_all) if not fixed_mask[j]]
    b_eff = b.copy()
    if fixed_mask.any():
        fx = np.flatnonzero(fixed_mask)
        b_eff = b_eff - A[:, fx] @ lb[fx]
    alive = (A[:, free_cols] != 0).any(axis=1)
    if (~alive & (np.abs(b_eff) > FEAS_TOL)).any():
        return SimplexResult("Infeasible"), None
    live_rows = [int(i) for i in np.flatnonzero(alive)]

    A_r = A[np.ix_(live_rows, free_cols)]
    m, n = len(live_rows), len(free_cols)
    if max_iter is None:
        max_iter = 5000 + 60 * (m + n)
    lb_r = lb[free_cols]
    ub_r = ub[free_cols]
    b_r = b_eff[live_rows]
    sign = np.where(b_r - A_r @ lb_r >= 0, 1.0, -1.0)

    full_A = np.concatenate([A_r, np.diag(sign)], axis=1)
    full_lb = np.concatenate([lb_r, np.zeros(m)])
    full_ub = np.concatenate([ub_r, np.full(m, INF)])
    phase2 = np.concatenate([c[free_cols], np.zeros(m)])
    basis = list(range(n, n + m))
    status = np.full(n + m, AT_LOWER, dtype=int)
    status[n:] = BASIC
    run = _Basis("Optimal", free_cols, live_rows, sign, basis, status)

    it1 = it2 = 0
    if n:
        phase1 = np.concatenate([np.zeros(n), np.ones(m)])
        # the artificial diagonal is its own inverse
        state, it1, B_inv, x_B, _ = _simplex(full_A, b_r, full_lb, full_ub,
                                             basis, status, phase1, max_iter,
                                             np.diag(sign))
        if state == "Unbounded":
            raise NumericalFailure("phase 1 unbounded")
        if sum((x_B[i] for i in range(m) if basis[i] >= n), 0.0) > FEAS_TOL:
            run.state = "Infeasible"
            return SimplexResult("Infeasible", iterations=it1), run
        full_ub[n:] = 0.0
        state, it2, B_inv, x_B, run.entering = _simplex(
            full_A, b_r, full_lb, full_ub, basis, status, phase2, max_iter,
            B_inv)
        if state == "Unbounded":
            run.state = "Unbounded"
            return SimplexResult("Unbounded", iterations=it1 + it2), run
        # wash out eta-update drift before reporting
        B_inv = _inverse(full_A, basis)
        x_B = _basic_values(full_A, b_r, full_lb, full_ub, status, B_inv)
        x_r = _nonbasic_values(full_lb, full_ub, status)
        x_r[basis] = x_B
        y_r = phase2[basis] @ B_inv
    else:
        x_r = y_r = np.zeros(0)

    x = lb.copy()
    x[free_cols] = x_r[:n]
    y = np.zeros(len(b))
    y[live_rows] = y_r
    obj = sum((c[j] * x[j] for j in range(n_all)), 0.0)
    result = SimplexResult("Optimal", objective=obj, x=x, y=y,
                           iterations=it1 + it2)
    return result, run


def _rational_solve(rows: list[dict], rhs: list[list]):
    """Solve M z = r exactly for each r in ``rhs``.

    M is square and given as sparse rows ``{column: Fraction}``. Gaussian
    elimination pivots on the sparsest remaining row and, within it, on the
    column held by the fewest remaining rows; back substitution follows.
    Returns one solution per right-hand side, or None if M is singular.
    """
    m = len(rows)
    rows = [dict(r) for r in rows]
    vals = [[r[i] for r in rhs] for i in range(m)]
    holders: dict[int, set] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    remaining = set(range(m))
    order = []
    while remaining:
        p = min(remaining, key=lambda i: (len(rows[i]), i))
        if not rows[p]:
            return None
        q = min(rows[p], key=lambda j: (len(holders[j]), j))
        remaining.discard(p)
        for j in rows[p]:
            holders[j].discard(p)
        pivot_row, pivot = rows[p], rows[p][q]
        for i in sorted(holders[q]):
            row, f = rows[i], rows[i][q] / pivot
            for j, a in pivot_row.items():
                v = row.get(j, 0) - f * a
                if v:
                    row[j] = v
                    holders[j].add(i)
                else:
                    row.pop(j, None)
                    holders[j].discard(i)
            vals[i] = [u - f * w for u, w in zip(vals[i], vals[p])]
        order.append((p, q))
    z = [[Fraction(0)] * m for _ in rhs]
    for p, q in reversed(order):
        row = rows[p]
        for k, zk in enumerate(z):
            acc = vals[p][k] - sum(a * zk[j] for j, a in row.items() if j != q)
            zk[q] = acc / row[q]
    return z


def _certify(c, A, b, lb, ub, max_iter: int | None) -> SimplexResult:
    """The exact answer: rational presolve, the float run, then a rational
    certificate of the basis that run ends on."""
    # presolve on the lifted nonzeros; its infeasibility verdicts are proofs
    if (lb == -INF).any():
        raise NumericalFailure("free variables are not supported")
    n_all, m_all = len(c), len(b)
    lo_all = [to_fraction(v) for v in lb.tolist()]
    up_all = [INF if v == INF else to_fraction(v) for v in ub.tolist()]
    if any(lo > up for lo, up in zip(lo_all, up_all)):
        return SimplexResult("Infeasible")
    cols = [[] for _ in range(n_all)]
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(A))):
        a = to_fraction(A[i, j])
        if a:
            cols[j].append((i, a))
    cost = {j: to_fraction(v) for j, v in enumerate(c.tolist()) if v}
    rhs = [to_fraction(v) for v in b.tolist()]
    free_cols = [j for j in range(n_all) if lo_all[j] != up_all[j]]
    for j in range(n_all):
        if lo_all[j] == up_all[j]:
            for i, a in cols[j]:
                rhs[i] -= a * lo_all[j]
    live_rows = sorted({i for j in free_cols for i, _ in cols[j]})
    if any(rhs[i] for i in set(range(m_all)).difference(live_rows)):
        return SimplexResult("Infeasible")

    try:
        approx, run = _solve_float(c, A, b, lb, ub, max_iter)
    except NumericalFailure as e:
        raise NumericalFailure(f"certificate: float run failed: {e}") from e
    if run is None or run.free_cols != free_cols or run.live_rows != live_rows:
        raise NumericalFailure("certificate: float presolve differs from "
                               "the rational presolve")

    # the reduced problem: free columns, then one artificial per live row
    m, n = len(live_rows), len(free_cols)
    at = {i: k for k, i in enumerate(live_rows)}
    column = [[(at[i], a) for i, a in cols[j]] for j in free_cols] + \
        [[(k, Fraction(int(s)))] for k, s in enumerate(run.sign)]
    phase1 = run.state == "Infeasible"
    lo = [lo_all[j] for j in free_cols] + [Fraction(0)] * m
    up = [up_all[j] for j in free_cols] + [INF if phase1 else Fraction(0)] * m
    costs = [Fraction(0)] * n + [Fraction(1)] * m if phase1 else \
        [cost.get(j, Fraction(0)) for j in free_cols] + [Fraction(0)] * m
    basis, status = run.basis, run.status

    # x_B from B x_B = b - N x_N, within its bounds
    b_r = [rhs[i] for i in live_rows]
    x_r = [Fraction(0)] * (n + m)
    for j in range(n + m):
        if status[j] != BASIC:
            x_r[j] = lo[j] if status[j] == AT_LOWER else up[j]
            if x_r[j] == INF:
                raise NumericalFailure(f"certificate: column {j} rests at "
                                       "an infinite bound")
            for k, a in column[j]:
                b_r[k] -= a * x_r[j]
    B_rows = [{} for _ in range(m)]
    for pos, j in enumerate(basis):
        for k, a in column[j]:
            B_rows[k][pos] = a
    wanted = [b_r]
    if run.state == "Unbounded":  # and the entering column's tableau column
        entering = dict(column[run.entering])
        wanted.append([entering.get(k, 0) for k in range(m)])
    solved = _rational_solve(B_rows, wanted)
    if solved is None:
        raise NumericalFailure("certificate: singular basis")
    for pos, j in enumerate(basis):
        x_r[j] = solved[0][pos]
        if x_r[j] < lo[j] or x_r[j] > up[j]:
            raise NumericalFailure(f"certificate: basic column {j} = "
                                   f"{x_r[j]} is outside its bounds")

    if run.state == "Unbounded":
        e, w = run.entering, solved[1]
        direction = 1 if status[e] == AT_LOWER else -1
        gain = costs[e] - sum(costs[j] * w[pos] for pos, j in enumerate(basis))
        blocked = up[e] != INF or any(
            w[pos] * direction > 0 or (w[pos] * direction < 0 and up[j] != INF)
            for pos, j in enumerate(basis))
        if gain * direction >= 0 or blocked:
            raise NumericalFailure(f"certificate: column {e} is no unbounded "
                                   "ray")
        return SimplexResult("Unbounded", iterations=approx.iterations)

    # y from B'y = c_B, and reduced costs of the right sign
    y_r = _rational_solve([dict(column[j]) for j in basis],
                          [[costs[j] for j in basis]])[0]
    for j in range(n + m):
        if status[j] == BASIC or lo[j] == up[j]:
            continue
        d = costs[j] - sum(y_r[k] * a for k, a in column[j])
        if (d < 0) if status[j] == AT_LOWER else (d > 0):
            raise NumericalFailure(f"certificate: reduced cost {d} of column "
                                   f"{j} has the wrong sign")
    if phase1:
        if not sum(x_r[n:]) > 0:
            raise NumericalFailure("certificate: the phase-1 optimum is zero")
        return SimplexResult("Infeasible", iterations=approx.iterations)

    x = np.array(lo_all, dtype=object)
    for k, j in enumerate(free_cols):
        x[j] = x_r[k]
    y = np.array([Fraction(0)] * m_all, dtype=object)
    for k, i in enumerate(live_rows):
        y[i] = y_r[k]
    obj = sum((q * x[j] for j, q in cost.items()), Fraction(0))
    return SimplexResult("Optimal", objective=obj, x=x, y=y,
                         iterations=approx.iterations)


def solve_arrays(c, A, b, lb, ub, exact: bool = False,
                 max_iter: int | None = None) -> SimplexResult:
    """Two-phase bounded simplex on dense data.

    ``A`` is (m x n); bounds may use ``float('inf')`` for no upper bound.
    Fixed columns (equal bounds) are substituted out up front. With
    ``exact`` the float run's basis is certified in rational arithmetic and
    the answer (status, objective, x, y) is exact; ``iterations`` counts the
    float run's pricing passes either way. A basis that fails its
    certificate raises ``NumericalFailure``; there is no rational pivoting.
    """
    c, A, b, lb, ub = (np.asarray(v, dtype=float) for v in (c, A, b, lb, ub))
    if exact:
        return _certify(c, A, b, lb, ub, max_iter)
    return _solve_float(c, A, b, lb, ub, max_iter)[0]

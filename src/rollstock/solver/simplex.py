"""Bounded-variable revised simplex in floats, with a rational certificate.

Solves min c'x s.t. Ax = b, 0 <= l <= x <= u (u may be +inf). Columns fixed
by equal bounds are substituted out and rows left without a free column are
dropped before the iterations start (the run's *layout*); phase 1 starts
from one artificial column per remaining row.

A warm start reuses an earlier run's layout and final basis under bounds
that only tighten, as in a branch-and-bound child: the artificial columns
are held at zero, a column the new bounds fix stays in the layout and never
enters, and dual pivots (largest bound violation leaves, smallest ratio
|d_j / alpha_rj| enters) restore primal feasibility from the dual-feasible
start. A row that no column can repair proves infeasibility; otherwise one
primal phase-2 pass confirms optimality.

Pivoting is deterministic: Dantzig pricing with lowest-index tie-breaking,
falling back to Bland's rule permanently once a run of degenerate pivots
suggests cycling. The basis inverse is kept explicitly, updated by a rank-one
eta step per pivot (one routine for the primal and the dual loop) and
refactorized every 256 iterations.

The rational mode backs the optimal-value *equality* assertions between
models. It does not pivot over ``Fraction``s: it takes the presolve decisions
in rational arithmetic, runs the float simplex, and then certifies the basis
that run ends on (the approach of QSopt_ex, Applegate, Cook, Dash and
Espinoza 2007), over that run's layout. One sparse rational elimination
solves B x_B = b - N x_N and B'y = c_B. An optimum needs its primal bounds
and reduced-cost signs; an infeasibility needs an optimal phase-1 basis with
a positive artificial sum, or, from the dual loop, a row r with B'u = e_r
whose basic value u.b - sum_j (u.A_j) x_j cannot reach its bounds for any
nonbasic x_j within theirs; an unboundedness needs a feasible phase-2 basis
and an improving column that no basic variable blocks. A basis that fails,
or a float run that fails, raises ``NumericalFailure`` naming the check.
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
    basis: _Basis | None = None  # where the float run stopped


@dataclass
class _Basis:
    """Where the float run stopped, over its layout: the reduced columns
    are the free columns in order, then the artificial column
    ``sign[i] * e_i`` of each live row. ``state`` is Optimal (phase 2),
    Infeasible (phase 1, or with ``row`` set the dual loop's basis position
    that no column can repair) or Unbounded (phase 2, ``entering`` improves
    without a blocking row)."""

    state: str
    free_cols: list[int]
    live_rows: list[int]
    sign: np.ndarray
    basis: list[int]
    status: np.ndarray
    entering: int = -1
    row: int = -1


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


class _Pivots:
    """A basis of the reduced problem as the pivot loops move it: B^-1, the
    basic values ``x_B`` and the column statuses. ``basis`` and ``status``
    are the caller's and are updated in place."""

    def __init__(self, A, b, lb, ub, basis: list[int], status: np.ndarray,
                 B_inv, max_iter: int):
        self.A, self.b, self.lb, self.ub = A, b, lb, ub
        self.basis, self.status, self.B_inv = basis, status, B_inv
        self.max_iter = max_iter

    def start(self):
        """Begin a loop: basic values from B^-1 and the current bounds."""
        self.x_B = _basic_values(self.A, self.b, self.lb, self.ub, self.status,
                                 self.B_inv)
        self.basis_arr = np.array(self.basis)
        self.fixed = self.lb == self.ub
        self.iters = 0

    def count(self):
        """One more pass of the loop."""
        if self.iters >= self.max_iter:
            raise NumericalFailure(
                f"simplex iteration limit {self.max_iter} reached")
        self.iters += 1

    def refactor(self):
        self.B_inv = _inverse(self.A, self.basis)
        self.x_B = _basic_values(self.A, self.b, self.lb, self.ub, self.status,
                                 self.B_inv)
        self.basis_arr = np.array(self.basis)

    def pivot(self, entering: int, col, delta, leaving: int, leave_to: int):
        """Move the nonbasic column ``entering`` by ``delta``; ``col`` is
        B^-1 A_entering. With ``leaving`` -1 the column flips to its other
        bound; otherwise it takes the basis position ``leaving``, whose
        column goes to ``leave_to``. Refactorizes before every 256th pass."""
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
            B_inv = self.B_inv
            B_inv[leaving, :] /= col[leaving]
            factor = col.copy()
            factor[leaving] = 0.0
            B_inv -= np.outer(factor, B_inv[leaving, :])
        self.x_B = x_B
        if (self.iters + 1) % 256 == 0:
            self.refactor()


def _cycling(degenerate_run: int, p: _Pivots) -> bool:
    return degenerate_run > 40 + 2 * sum(p.A.shape)


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
        y = costs[p.basis] @ p.B_inv
        d = costs - y @ p.A
        entering = _pick_entering(p.status, d, p.fixed, bland)
        if entering < 0:
            return "Optimal", -1

        direction = 1 if p.status[entering] == AT_LOWER else -1
        col = p.B_inv @ p.A[:, entering]
        lo, up = p.lb[entering], p.ub[entering]
        cap = up - lo if up != INF else INF
        t, leaving, leave_to = _ratio_test(p.lb, p.ub, p.basis_arr, p.x_B, col,
                                           direction, cap)
        if t == INF:
            return "Unbounded", entering

        degenerate_run = degenerate_run + 1 if t <= TIE else 0
        bland = bland or _cycling(degenerate_run, p)
        p.pivot(entering, col, direction * t, leaving, leave_to)


def _dual(p: _Pivots, costs) -> int:
    """Dual iterations from a dual-feasible basis until every basic value
    is within its bounds. Returns -1 then, or the basis position whose
    basic column no eligible column can move toward its violated bound
    (the reduced problem is infeasible).

    The leaving position has the largest bound violation, the lowest on
    ties (once a run of degenerate pivots suggests cycling: the violated
    position with the lowest basic column, as Bland's rule). The entering
    column has the smallest |d_j / alpha_rj| among nonbasic columns that
    are not fixed and push the leaving value toward its bound, the lowest
    index on ties.
    """
    p.start()
    degenerate_run = 0
    bland = False
    while True:
        p.count()
        lb_B, ub_B = p.lb[p.basis_arr], p.ub[p.basis_arr]
        below = lb_B - p.x_B
        viol = np.maximum(below, p.x_B - ub_B)
        bad = viol > TOL
        if not bad.any():
            return -1
        r = int(np.flatnonzero(bad)[np.argmin(p.basis_arr[bad])]) if bland \
            else int(np.argmax(viol))
        to_lower = below[r] > 0

        direction = np.where(p.status == AT_LOWER, 1.0, -1.0)
        # a unit step of nonbasic column j moves x_B[r] by -alpha_rj
        # * direction_j; ``push`` is that move toward the violated bound
        push = (p.B_inv[r] @ p.A) * direction * (-1.0 if to_lower else 1.0)
        eligible = np.flatnonzero((push > TOL) & (p.status != BASIC) & ~p.fixed)
        if eligible.size == 0:
            return r
        y = costs[p.basis] @ p.B_inv
        d = costs[eligible] - y @ p.A[:, eligible]
        ratios = np.maximum(d * direction[eligible], 0.0) / push[eligible]
        r_min = float(ratios.min())
        entering = int(eligible[np.argmax(ratios <= r_min + TIE)])

        degenerate_run = degenerate_run + 1 if r_min <= TIE else 0
        bland = bland or _cycling(degenerate_run, p)
        col = p.B_inv @ p.A[:, entering]
        bound = lb_B[r] if to_lower else ub_B[r]
        p.pivot(entering, col, (p.x_B[r] - bound) / col[r], r,
                AT_LOWER if to_lower else AT_UPPER)


def _solve_float(c, A, b, lb, ub, max_iter: int | None, start=None):
    """The float run: two phases from an all-artificial basis, or with
    ``start`` a dual run from that basis on its layout. The result's
    ``basis`` is None when the presolve alone proves infeasibility.
    """
    n_all = len(c)
    for j in range(n_all):
        if lb[j] > ub[j]:
            return SimplexResult("Infeasible")
        if lb[j] == -INF:
            raise NumericalFailure("free variables are not supported")

    # substitute out fixed columns, drop rows that become empty; a warm
    # start keeps its layout, and the columns that layout left out stay
    # fixed under bounds that only tighten
    if start is None:
        free_cols = [j for j in range(n_all) if lb[j] != ub[j]]
        live_rows = [int(i) for i in
                     np.flatnonzero((A[:, free_cols] != 0).any(axis=1))]
    else:
        free_cols, live_rows = start.free_cols, start.live_rows
    b_eff = b.copy()
    fx = np.setdiff1d(np.arange(n_all), free_cols)
    if fx.size:
        b_eff = b_eff - A[:, fx] @ lb[fx]
    dead = np.ones(len(b), dtype=bool)
    dead[live_rows] = False
    if (dead & (np.abs(b_eff) > FEAS_TOL)).any():
        return SimplexResult("Infeasible")

    A_r = A[np.ix_(live_rows, free_cols)]
    m, n = len(live_rows), len(free_cols)
    if max_iter is None:
        max_iter = 5000 + 60 * (m + n)
    lb_r = lb[free_cols]
    ub_r = ub[free_cols]
    b_r = b_eff[live_rows]
    sign = np.where(b_r - A_r @ lb_r >= 0, 1.0, -1.0) if start is None \
        else start.sign

    full_A = np.concatenate([A_r, np.diag(sign)], axis=1)
    full_lb = np.concatenate([lb_r, np.zeros(m)])
    # phase 2 holds the artificial columns at zero, and so does a warm start
    full_ub = np.concatenate([ub_r, np.full(m, INF if start is None else 0.0)])
    phase2 = np.concatenate([c[free_cols], np.zeros(m)])
    if start is None:
        basis = list(range(n, n + m))
        status = np.full(n + m, AT_LOWER, dtype=int)
        status[n:] = BASIC
    else:
        basis, status = list(start.basis), start.status.copy()
    run = _Basis("Optimal", free_cols, live_rows, sign, basis, status)

    iterations = 0
    x_r = y_r = np.zeros(0)
    if n:
        if start is None:
            # the artificial diagonal is its own inverse
            p = _Pivots(full_A, b_r, full_lb, full_ub, basis, status,
                        np.diag(sign), max_iter)
            state, _ = _simplex(p, np.concatenate([np.zeros(n), np.ones(m)]))
            if state == "Unbounded":
                raise NumericalFailure("phase 1 unbounded")
            infeasible = sum((p.x_B[i] for i in range(m) if basis[i] >= n),
                             0.0) > FEAS_TOL
        else:
            p = _Pivots(full_A, b_r, full_lb, full_ub, basis, status,
                        _inverse(full_A, basis), max_iter)
            run.row = _dual(p, phase2)
            infeasible = run.row >= 0
        iterations = p.iters
        if infeasible:
            run.state = "Infeasible"
            return SimplexResult("Infeasible", iterations=iterations,
                                 basis=run)
        full_ub[n:] = 0.0
        state, run.entering = _simplex(p, phase2)
        iterations += p.iters
        if state == "Unbounded":
            run.state = "Unbounded"
            return SimplexResult("Unbounded", iterations=iterations,
                                 basis=run)
        p.refactor()  # wash out eta-update drift before reporting
        x_r = _nonbasic_values(full_lb, full_ub, status)
        x_r[basis] = p.x_B
        y_r = phase2[basis] @ p.B_inv

    x = lb.copy()
    x[free_cols] = x_r[:n]
    y = np.zeros(len(b))
    y[live_rows] = y_r
    obj = sum((c[j] * x[j] for j in range(n_all)), 0.0)
    return SimplexResult("Optimal", objective=obj, x=x, y=y,
                         iterations=iterations, basis=run)


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


def _certify(c, A, b, lb, ub, max_iter: int | None, start) -> SimplexResult:
    """The exact answer: rational presolve, the float run, then a rational
    certificate of the basis that run ends on, over that run's layout."""
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

    def rhs_without(kept):
        """b less the columns outside ``kept``, each at its fixed value."""
        rhs = [to_fraction(v) for v in b.tolist()]
        for j in set(range(n_all)).difference(kept):
            for i, a in cols[j]:
                rhs[i] -= a * lo_all[j]
        return rhs

    free_cols = [j for j in range(n_all) if lo_all[j] != up_all[j]]
    rhs = rhs_without(free_cols)
    live_rows = sorted({i for j in free_cols for i, _ in cols[j]})
    if any(rhs[i] for i in set(range(m_all)).difference(live_rows)):
        return SimplexResult("Infeasible")

    try:
        approx = _solve_float(c, A, b, lb, ub, max_iter, start)
    except NumericalFailure as e:
        raise NumericalFailure(f"certificate: float run failed: {e}") from e
    run = approx.basis
    if run is None:
        raise NumericalFailure("certificate: float presolve differs from "
                               "the rational presolve")
    # the run's layout may be a parent's: every column it leaves out must be
    # fixed here, and every live row must be in it
    for what, ours, theirs in (("free column", free_cols, run.free_cols),
                               ("live row", live_rows, run.live_rows)):
        stray = sorted(set(ours).difference(theirs))
        if stray:
            raise NumericalFailure("certificate: the float run's layout "
                                   f"leaves out {what} {stray[0]}")
    if len(run.free_cols) != len(free_cols):
        rhs = rhs_without(run.free_cols)

    # the reduced problem: layout columns, then one artificial per live row
    m, n = len(run.live_rows), len(run.free_cols)
    at = {i: k for k, i in enumerate(run.live_rows)}
    column = [[(at[i], a) for i, a in cols[j]] for j in run.free_cols] + \
        [[(k, Fraction(int(s)))] for k, s in enumerate(run.sign)]
    phase1 = run.state == "Infeasible" and run.row < 0
    lo = [lo_all[j] for j in run.free_cols] + [Fraction(0)] * m
    up = [up_all[j] for j in run.free_cols] + \
        [INF if phase1 else Fraction(0)] * m
    costs = [Fraction(0)] * n + [Fraction(1)] * m if phase1 else \
        [cost.get(j, Fraction(0)) for j in run.free_cols] + [Fraction(0)] * m
    basis, status = run.basis, run.status

    # x_B from B x_B = b - N x_N
    b_r = [rhs[i] for i in run.live_rows]
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

    if run.row >= 0:
        # x_r = u.b - sum over nonbasic j of (u.A_j) x_j with B'u = e_row:
        # no choice of nonbasic values within their bounds lets it reach
        # the bound it violates
        r, j_r = run.row, basis[run.row]
        u = _rational_solve([dict(column[j]) for j in basis],
                            [[Fraction(int(pos == r)) for pos in range(m)]])[0]
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
        return SimplexResult("Unbounded", iterations=approx.iterations,
                             basis=run)

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
        return SimplexResult("Infeasible", iterations=approx.iterations,
                             basis=run)

    x = np.array(lo_all, dtype=object)
    for k, j in enumerate(run.free_cols):
        x[j] = x_r[k]
    y = np.array([Fraction(0)] * m_all, dtype=object)
    for k, i in enumerate(run.live_rows):
        y[i] = y_r[k]
    obj = sum((q * x[j] for j, q in cost.items()), Fraction(0))
    return SimplexResult("Optimal", objective=obj, x=x, y=y,
                         iterations=approx.iterations, basis=run)


def solve_arrays(c, A, b, lb, ub, exact: bool = False,
                 max_iter: int | None = None,
                 start: _Basis | None = None) -> SimplexResult:
    """Bounded simplex on dense data.

    ``A`` is (m x n); bounds may use ``float('inf')`` for no upper bound.
    Fixed columns (equal bounds) are substituted out up front and phase 1
    starts from an all-artificial basis. With ``start``, the ``basis`` of an
    earlier result on the same data under bounds that contain these, the
    run keeps that result's layout and reaches the answer by dual pivots
    from its basis, then one primal pass. With ``exact`` the float run's
    basis is certified in rational arithmetic and the answer (status,
    objective, x, y) is exact; ``iterations`` counts the float run's pivot
    passes either way. A basis that fails its certificate raises
    ``NumericalFailure``; there is no rational pivoting.
    """
    c, A, b, lb, ub = (np.asarray(v, dtype=float) for v in (c, A, b, lb, ub))
    if exact:
        return _certify(c, A, b, lb, ub, max_iter, start)
    return _solve_float(c, A, b, lb, ub, max_iter, start)

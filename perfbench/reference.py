"""HiGHS, through the installed scipy, as the independent reference solver.

Answers are checked against it outside the timed spans, and its solve time on
the same models is the yardstick the per-layer ``reference.highs_ratio``
divides by.
"""

from __future__ import annotations

import time

import numpy as np


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1 + abs(a) + abs(b))


STATUS = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}   # linprog and milp


class Highs:
    """Solves rollstock models with HiGHS and accumulates its solve time."""

    def __init__(self):
        self.seconds = 0.0

    @staticmethod
    def load() -> None:
        """Import scipy's HiGHS interface ahead of the timed items, so that
        its import cost and memory do not land inside a run."""
        import scipy.optimize  # noqa: F401

    def solve(self, model, integer: bool) -> tuple[str, float | None]:
        """(status, objective) of the model, or of its LP relaxation when
        ``integer`` is false."""
        from scipy.optimize import Bounds, LinearConstraint, linprog, milp

        from rollstock.solver import model_arrays

        form = model_arrays(model)
        started = time.perf_counter()
        if integer:
            mask = np.zeros(len(form.c), dtype=int)
            mask[:form.n_structural] = form.integer
            res = milp(form.c, constraints=LinearConstraint(form.A, form.b, form.b),
                       integrality=mask, bounds=Bounds(form.lb, form.ub))
        else:
            res = linprog(form.c, A_eq=form.A, b_eq=form.b,
                          bounds=np.column_stack([form.lb, form.ub]), method="highs")
        self.seconds += time.perf_counter() - started
        status = STATUS.get(res.status, f"highs-{res.status}")
        return status, (float(res.fun) if status == "Optimal" else None)

"""Property tests over small generated instances."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rollstock.composition import contract  # noqa: E402
from rollstock.formulation import assemble  # noqa: E402
from rollstock.genbench import GenConfig, generate  # noqa: E402
from rollstock.hypergraph import build  # noqa: E402
from rollstock.solver import model_arrays  # noqa: E402
from rollstock.solver.simplex import solve_arrays  # noqa: E402


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(1, 10_000), lines=st.integers(1, 3),
       trips_per_line=st.integers(1, 3), unit_types=st.integers(1, 2),
       stations=st.integers(2, 3), variant=st.sampled_from(["hD", "HD", "C"]),
       data=st.data())
def test_warm_child_equals_its_cold_resolve(seed, lines, trips_per_line,
                                            unit_types, stations, variant,
                                            data):
    # a child splits one column's range at its root LP value, as branch
    # and bound does, and starts from the root's basis and inverse
    inst = generate(GenConfig(seed=seed, lines=lines,
                              trips_per_line=trips_per_line,
                              unit_types=unit_types, stations=stations))
    graph = build(inst, "HD" if variant == "C" else variant)
    form = model_arrays(assemble(contract(graph) if variant == "C" else graph))
    root = solve_arrays(form.c, form.A, form.b, form.lb, form.ub)
    assert root.status == "Optimal"
    j = data.draw(st.integers(0, len(form.c) - 1), label="column")
    lb, ub = form.lb.copy(), form.ub.copy()
    if data.draw(st.booleans(), label="up"):
        lb[j] = math.floor(root.x[j]) + 1.0
    else:
        ub[j] = max(lb[j], math.ceil(root.x[j]) - 1.0)
    warm = solve_arrays(form.c, form.A, form.b, lb, ub, start=root.basis)
    cold = solve_arrays(form.c, form.A, form.b, lb, ub)
    assert warm.status == cold.status
    if warm.status == "Optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-9)

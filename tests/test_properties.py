"""Property tests over small generated instances."""

import copy
import itertools
import json
import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
linprog = pytest.importorskip("scipy.optimize").linprog
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rollstock.analysis import SEVEN_VARIANTS, build_variant  # noqa: E402
from rollstock.composition import (  # noqa: E402
    CompNode, CompositionGraph, _build_cut_data, contract)
from rollstock.errors import RollstockError  # noqa: E402
from rollstock.formulation import (  # noqa: E402
    MilpModel, ModelOptions, Row, Variable, assemble, parse_lp, write_lp)
from rollstock.genbench import GenConfig, generate  # noqa: E402
from rollstock.hypergraph import build  # noqa: E402
from rollstock.instance import canonical, dumps, loads, validate  # noqa: E402
from rollstock.ledger import walk  # noqa: E402
from rollstock.reduction import Cnf3, reduce_3sat  # noqa: E402
from rollstock.solver import (  # noqa: E402
    ArrayForm, dual_residual, enumerate_oracle, feasibility_residual, model_arrays, solve_ip,
    solve_lp)
from rollstock.solver.simplex import solve_arrays, to_fraction  # noqa: E402


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
    root = solve_arrays(form.c, form.nz, form.b, form.lb, form.ub)
    assert root.status == "Optimal"
    j = data.draw(st.integers(0, len(form.c) - 1), label="column")
    lb, ub = form.lb.copy(), form.ub.copy()
    if data.draw(st.booleans(), label="up"):
        lb[j] = math.floor(root.x[j]) + 1.0
    else:
        ub[j] = max(lb[j], math.ceil(root.x[j]) - 1.0)
    warm = solve_arrays(form.c, form.nz, form.b, lb, ub, start=root.basis)
    cold = solve_arrays(form.c, form.nz, form.b, lb, ub)
    assert warm.status == cold.status
    if warm.status == "Optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-9)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(1, 10_000), lines=st.integers(1, 3),
       trips_per_line=st.integers(1, 3), unit_types=st.integers(1, 2),
       stations=st.integers(2, 3), variant=st.sampled_from(["hD", "HD", "C"]))
def test_exact_root_is_an_optimum_checked_from_scratch(seed, lines,
                                                       trips_per_line,
                                                       unit_types, stations,
                                                       variant):
    # the exact root has the float root's status and value, and its answer
    # is an optimum by its own: A x = b, the bounds, and reduced costs
    # c - A'y of the right sign wherever x rests at a bound
    inst = generate(GenConfig(seed=seed, lines=lines,
                              trips_per_line=trips_per_line,
                              unit_types=unit_types, stations=stations))
    graph = build(inst, "HD" if variant == "C" else variant)
    form = model_arrays(assemble(contract(graph) if variant == "C" else graph))
    approx = solve_arrays(form.c, form.nz, form.b, form.lb, form.ub)
    exact = solve_arrays(form.c, form.nz, form.b, form.lb, form.ub, exact=True)
    assert exact.status == approx.status
    if exact.status != "Optimal":
        return
    assert float(exact.objective) == pytest.approx(approx.objective,
                                                   rel=1e-9, abs=1e-9)
    x, y = exact.x, exact.y
    assert all(isinstance(v, Fraction) for v in (exact.objective, *x, *y))
    c = [to_fraction(v) for v in form.c]
    lb = [to_fraction(v) for v in form.lb]
    ub = [None if v == float("inf") else to_fraction(v) for v in form.ub]
    lhs = [Fraction(0)] * len(y)
    d = list(c)
    for j, i, a in zip(*form.nz):
        a = to_fraction(a)
        lhs[i] += a * x[j]
        d[j] -= a * y[i]
    assert lhs == [to_fraction(v) for v in form.b]
    assert exact.objective == sum(cj * xj for cj, xj in zip(c, x))
    for j, xj in enumerate(x):
        assert lb[j] <= xj and (ub[j] is None or xj <= ub[j]), j
        if lb[j] == ub[j]:
            continue
        if xj == lb[j]:
            assert d[j] >= 0, j
        elif xj == ub[j]:
            assert d[j] <= 0, j
        else:
            assert d[j] == 0, j


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(1, 10_000), lines=st.integers(1, 3),
       trips_per_line=st.integers(1, 3), unit_types=st.integers(1, 2),
       stations=st.integers(2, 3),
       variant=st.sampled_from(["hD", "HD", "hAbar", "HAbar", "C"]))
def test_every_optimum_carries_its_residuals(seed, lines, trips_per_line,
                                             unit_types, stations, variant):
    # the LP answer and the branch-and-bound root are optima of the original
    # model: primal and dual residuals measured on it, not on the presolved
    # problem
    inst = generate(GenConfig(seed=seed, lines=lines,
                              trips_per_line=trips_per_line,
                              unit_types=unit_types, stations=stations))
    graph = build(inst, "HD" if variant == "C" else variant)
    model = assemble(contract(graph) if variant == "C" else graph)
    for sol in (solve_lp(model.relaxed()), solve_ip(model).root):
        if sol.status == "Optimal":
            assert feasibility_residual(model, sol.values) <= 1e-7
            assert dual_residual(model.relaxed(), sol) <= 1e-6


def _dict_feasibility_residual(model, values):
    """The residual as it was computed over the model's rows, kept here as
    the reference for the array form."""
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


def _dict_dual_residual(model, sol):
    """The dual residual as it was computed over the model's rows."""
    y = {rid: sol.duals.get(rid, 0) for rid in (r.id for r in model.rows)}
    reduced = {v.id: float(v.cost) for v in model.variables}
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


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(1, 10_000), lines=st.integers(1, 3),
       trips_per_line=st.integers(1, 3), unit_types=st.integers(1, 2),
       stations=st.integers(2, 3),
       variant=st.sampled_from(["hD", "HD", "hAbar", "HAbar", "C"]),
       point=st.integers(0, 2 ** 32 - 1))
def test_array_residuals_equal_the_row_walk(seed, lines, trips_per_line,
                                            unit_types, stations, variant,
                                            point):
    # at random points (columns at a bound, at an integer or anywhere near
    # their range, some left out of the dict) and random duals, the
    # residuals on the array form equal those of the walk over the rows
    from rollstock.solver import LpSolution
    inst = generate(GenConfig(seed=seed, lines=lines,
                              trips_per_line=trips_per_line,
                              unit_types=unit_types, stations=stations))
    graph = build(inst, "HD" if variant == "C" else variant)
    model = assemble(contract(graph) if variant == "C" else graph).relaxed()
    rng = np.random.default_rng(point)
    values = {}
    for v in model.variables:
        top = 3.0 if v.upper is None else v.upper
        pick = rng.integers(5)
        if pick < 4:
            values[v.id] = [v.lower, top, float(rng.integers(-1, 4)),
                            float(rng.uniform(v.lower - 0.5, top + 0.5))][pick]
    duals = {r.id: float(rng.choice([0.0, rng.uniform(-50, 50)]))
             for r in model.rows}
    sol = LpSolution("Optimal", 0.0, values, duals)
    form = model_arrays(model)
    x = np.array([values.get(vid, 0.0) for vid in form.var_ids])
    want = _dict_feasibility_residual(model, values)
    for got in (feasibility_residual(model, values),
                feasibility_residual(form, values),
                feasibility_residual(form, x)):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    want = _dict_dual_residual(model, sol)
    for got in (dual_residual(model, sol), dual_residual(form, sol)):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def _doubleton_lps(draw):
    """A small LP whose rows mix x_a +- x_b = t (|coefficient| 1 or 2, so
    t may be a fraction) with rows over every column, each right-hand side
    met by an integer point within the bounds, or missed by one in one row
    in ten; a column with a negative cost has an upper bound, so the LP is
    never unbounded."""
    n = draw(st.integers(3, 6))
    variables, point = [], []
    for i in range(n):
        cost = draw(st.integers(-3, 3))
        lower = draw(st.integers(0, 1))
        width = draw(st.sampled_from([1, 2, 4, None] if cost >= 0 else [1, 2, 4]))
        variables.append(Variable(f"x{i}", float(lower),
                                  None if width is None else float(lower + width),
                                  False, float(cost)))
        point.append(lower + draw(st.integers(0, width or 3)))

    def rhs(coeffs, miss):
        return float(sum(c * point[int(v[1:])] for v, c in coeffs) + miss)

    rows = []
    for r in range(draw(st.integers(1, 4))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        coef = draw(st.sampled_from([1.0, 2.0]))
        coeffs = ((f"x{a}", coef), (f"x{b}", draw(st.sampled_from([1, -1])) * coef))
        miss = draw(st.sampled_from([0] * 9 + [1]))
        rows.append(Row(f"d{r}", coeffs, "=", rhs(coeffs, miss)))
    for r in range(draw(st.integers(1, 3))):
        coeffs = tuple((f"x{i}", float(c)) for i in range(n)
                       if (c := draw(st.integers(-2, 2))))
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        slack = draw(st.integers(0, 2)) * {"<=": 1, ">=": -1, "=": 0}[sense]
        if coeffs:
            rows.append(Row(f"g{r}", coeffs, sense, rhs(coeffs, slack)))
    return MilpModel("doubletons", variables, rows)


@settings(max_examples=150, deadline=None, database=None)
@given(model=_doubleton_lps())
def test_doubleton_substitution_keeps_the_optimum(model):
    # float: HiGHS's status and value, duals that price the original model;
    # exact: the certificate, which checks every original column's reduced
    # cost, passes on the same answer
    form = model_arrays(model)
    ub = [None if u == math.inf else u for u in form.ub]
    ref = linprog(form.c, A_eq=form.A, b_eq=form.b, bounds=list(zip(form.lb, ub)),
                  method="highs")
    assert ref.status in (0, 2)
    status = {0: "Optimal", 2: "Infeasible"}[ref.status]
    sol, exact = solve_lp(model), solve_lp(model, exact=True)
    assert sol.status == exact.status == status
    if status == "Optimal":
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert dual_residual(model, sol) <= 1e-7
        assert exact.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def _entries(node, path=()):
    """(path, value) of every list entry and field value in a JSON document,
    the path a tuple of keys and indexes."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _entries(value, path + (key,))


def _field(path):
    """The name a value is held under: its path's last key."""
    return next(k for k in reversed(path) if isinstance(k, str))


@st.composite
def _mutated_documents(draw):
    """A small genbench instance's JSON with one to three edits: a list entry
    deleted, duplicated or replaced by another of its list, or a field value
    replaced by another value the document holds under that name (or by 0,
    -1 or one more, for a number)."""
    doc = json.loads(dumps(generate(GenConfig(
        seed=draw(st.integers(1, 10_000)), lines=draw(st.integers(1, 2)),
        trips_per_line=draw(st.integers(1, 3)),
        unit_types=draw(st.integers(1, 2)), stations=draw(st.integers(2, 3))))))
    for _ in range(draw(st.integers(1, 3))):
        entries = list(_entries(doc))
        path, value = draw(st.sampled_from(entries))
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        key = path[-1]
        edit = draw(st.sampled_from(["delete", "duplicate", "replace"])
                    if isinstance(holder, list) else st.just("field"))
        if edit == "delete":
            del holder[key]
        elif edit == "duplicate":
            holder.insert(key, copy.deepcopy(value))
        elif edit == "replace":
            holder[key] = copy.deepcopy(draw(st.sampled_from(holder)))
        else:
            pool = [v for p, v in entries if _field(p) == key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                pool += [0, -1, value + 1]
            holder[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    return doc


def _composition_twice():
    """TwoTrip with its first trip allowing one composition twice."""
    doc = json.loads(dumps(canonical("TwoTrip")))
    doc["trips"][0]["allowed_compositions"].append(
        doc["trips"][0]["allowed_compositions"][0])
    return doc


@settings(max_examples=100, deadline=None, database=None)
@given(doc=_mutated_documents())
@example(doc=_composition_twice())
def test_a_mutated_instance_is_refused_with_a_typed_error(doc):
    # loading raises only a RollstockError, validate never raises, and an
    # instance validate accepts builds, contracts and assembles or raises a
    # RollstockError
    try:
        inst = loads(json.dumps(doc))
    except RollstockError:
        return
    if validate(inst):
        return
    for variant in ("HD", "hAbar"):
        try:
            graph = build(inst, variant)
            assemble(graph)
            if variant == "HD":
                assemble(contract(graph))
        except RollstockError:
            pass


@st.composite
def _oracle_configs(draw):
    """Genbench configs of at most 8 trips, splits included; two unit types
    multiply the oracle's search, so they get at most 2 trips a line."""
    unit_types = draw(st.integers(1, 2))
    return GenConfig(seed=draw(st.integers(1, 10_000)), lines=draw(st.integers(1, 2)),
                     trips_per_line=draw(st.integers(1, 4 - unit_types)),
                     unit_types=unit_types, stations=draw(st.integers(2, 3)),
                     split_join_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])))


@settings(max_examples=30, deadline=None, database=None)
@given(cfg=_oracle_configs())
def test_ip_equals_the_oracle_on_every_variant(cfg):
    inst = generate(cfg)
    assert len(inst.trips) <= 8
    for variant in SEVEN_VARIANTS:
        ip = solve_ip(assemble(build_variant(inst, variant, closure=False)))
        orc = enumerate_oracle(inst, variant)
        assert ip.status == orc.status, variant
        if ip.status == "Optimal":
            assert ip.objective == pytest.approx(orc.objective, rel=0, abs=1e-6), variant


@settings(max_examples=25, deadline=None, database=None)
@given(cfg=_oracle_configs(), closure=st.booleans(), cc=st.booleans())
def test_no_model_of_a_valid_instance_is_refused(cfg, closure, cc):
    # every column a model builds is bounded on the side its cost pushes
    # toward, so the pivot loop's cold start exists and every LP solves
    inst = generate(cfg)
    assert validate(inst) == []
    for variant in SEVEN_VARIANTS:
        model = assemble(build_variant(inst, variant, closure=closure),
                         ModelOptions(cc or variant == "C"))
        form = model_arrays(model)
        assert np.isfinite(form.lb).all(), variant
        assert not ((form.c < 0) & np.isinf(form.ub)).any(), variant
        assert solve_lp(model).status in ("Optimal", "Infeasible"), variant


def _record_arrays(variables, rows):
    """``model_arrays`` as it was computed from ``Variable`` and ``Row``
    records, kept here to check the array path against."""
    var_ids = [v.id for v in variables]
    index = {vid: i for i, vid in enumerate(var_ids)}
    n, m = len(var_ids), len(rows)
    slack = np.array([{"<=": 1.0, ">=": -1.0}.get(r.sense, 0.0) for r in rows])
    has = np.flatnonzero(slack)
    width = n + len(has)
    cols = [index[vid] for r in rows for vid, _ in r.coeffs] + [*range(n, width)]
    rows_of = np.r_[np.repeat(np.arange(m), [len(r.coeffs) for r in rows]), has]
    vals = [a for r in rows for _, a in r.coeffs] + slack[has].tolist()
    keys, at = np.unique(np.array(cols, int) * m + rows_of, return_inverse=True)
    vals = np.bincount(at, vals)
    nz = (*np.divmod(keys[vals != 0], m), vals[vals != 0])
    c, lb, ub = np.zeros(width), np.zeros(width), np.full(width, math.inf)
    c[:n] = [v.cost for v in variables]
    lb[:n] = [v.lower for v in variables]
    ub[:n] = [math.inf if v.upper is None else v.upper for v in variables]
    return ArrayForm(c, nz, np.array([r.rhs for r in rows], dtype=float), lb, ub,
                     np.array([v.integer for v in variables], dtype=bool), var_ids,
                     [r.id for r in rows], slack)


def _assert_bit_identical(form, want):
    for got, w in zip((form.c, *form.nz, form.b, form.lb, form.ub, form.integer, form.slack),
                      (want.c, *want.nz, want.b, want.lb, want.ub, want.integer, want.slack)):
        assert got.dtype == w.dtype and got.shape == w.shape and got.tobytes() == w.tobytes()
    assert (form.var_ids, form.row_ids) == (want.var_ids, want.row_ids)


@settings(max_examples=25, deadline=None, database=None)
@given(cfg=_oracle_configs(), closure=st.booleans())
def test_the_array_path_equals_the_record_path(cfg, closure):
    # on every variant: model_arrays on the assembled arrays is bit for bit
    # the record-based computation on model.variables and model.rows, and
    # the LP text reads back to the same arrays and writes the same text
    inst = generate(cfg)
    for variant in SEVEN_VARIANTS:
        model = assemble(build_variant(inst, variant, closure=closure))
        want = _record_arrays(model.variables, model.rows)
        _assert_bit_identical(model_arrays(model), want)
        text = write_lp(model)
        back = parse_lp(text)
        assert write_lp(back) == text, variant
        assert (back.var_ids, back.row_ids, back.senses) == \
               (model.var_ids, model.row_ids, model.senses)
        for name in ("cost", "lower", "upper", "integer", "rhs", "indptr", "cols", "vals"):
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes(), name
        _assert_bit_identical(model_arrays(back), want)


def test_a_hand_built_row_keeps_its_terms_in_text_and_sums_them_for_the_solver():
    model = MilpModel("handed", [Variable("x", 0.0, 5.0, False, 1.0),
                                 Variable("y", 0.0, None, True, 2.0)],
                      [Row("r", (("x", 0.1), ("y", 0.0), ("x", 0.2)), "<=", 4.0)])
    assert model.rows[0].coeffs == (("x", 0.1), ("y", 0.0), ("x", 0.2))
    assert " r: 0.10000000000000001 x + 0 y + 0.20000000000000001 x <= 4\n" \
        in write_lp(model)
    _assert_bit_identical(model_arrays(model), _record_arrays(model.variables, model.rows))
    form = model_arrays(model)
    assert [a.tolist() for a in form.nz] == [[0, 2], [0, 0], [0.1 + 0.2, 1.0]]
    back = parse_lp(write_lp(model))  # the text reads back as written but for the zero
    assert back.rows[0].coeffs == (("x", 0.1), ("x", 0.2))
    _assert_bit_identical(model_arrays(back), form)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(1, 10_000), lines=st.integers(1, 2),
       trips_per_line=st.integers(1, 2), split=st.sampled_from([0.0, 1.0]),
       salt=st.integers(0, 2**32))
def test_walk_yields_the_product_leaves_whose_connections_all_have_an_option(
        seed, lines, trips_per_line, split, salt):
    # each connection has 0, 1 or 2 options, drawn from its trips' choice
    inst = generate(GenConfig(seed=seed, lines=lines, trips_per_line=trips_per_line,
                              split_join_fraction=split))
    trip_options = {t.id: sorted(t.allowed_compositions) for t in inst.trips}

    def conn_options(conn, chosen):
        picks = [chosen[t] for t in (*conn.predecessors, *conn.successors)]
        return list(range(zlib.crc32(f"{salt} {conn.id} {picks}".encode()) % 3))

    def leaf(chosen, options):
        return (tuple(sorted(chosen.items())),
                tuple(sorted((k, tuple(v)) for k, v in options.items())))

    walked = [leaf(chosen, options) for chosen, options, _
              in walk(inst, trip_options, conn_options)]
    ids = [t.id for t in inst.trips]
    product = []
    for combo in itertools.product(*(trip_options[t] for t in ids)):
        chosen = dict(zip(ids, combo))
        options = {c.id: conn_options(c, chosen) for c in inst.connections}
        if all(options.values()):
            product.append(leaf(chosen, options))
    assert sorted(walked) == sorted(product)


def _contract_hd(g_hd):
    """The composition graph as contracting the HD graph made it: HD's trip
    and change hyperarcs on one node per (trip event, composition), each
    change's distinct node pairs sorted, and the depot arcs dropped."""
    instance = g_hd.instance
    arcs = []
    trip_index = {t.id: [] for t in instance.trips}
    conn_index = {c.id: [] for c in instance.connections}
    for h in g_hd.hyperarcs:
        if h.kind == "TripService":
            t, p = h.tags["trip"], h.tags["comp"]
            arcs.append(h._replace(kind="TripArc", base_arcs=(
                (CompNode(t, "dep", p), CompNode(t, "arr", p)),), tags=dict(h.tags)))
            trip_index[t].append(h.id)
        elif h.kind == "ConnectionChange":
            conn = instance.connection_by_id[h.tags["connection"]]
            pre_of = dict(zip(conn.predecessors, h.tags["pre"]))
            post_of = dict(zip(conn.successors, h.tags["post"]))
            pairs = {}
            for tail, head in h.base_arcs:
                pairs.setdefault((CompNode(tail.trip, "arr", pre_of[tail.trip]),
                                  CompNode(head.trip, "dep", post_of[head.trip])))
            arcs.append(h._replace(kind="CompositionArc", base_arcs=tuple(sorted(pairs)),
                                   tags=dict(h.tags)))
            conn_index[conn.id].append(h.id)
    cuts, ends = _build_cut_data(instance, arcs)
    return CompositionGraph(instance, sorted({v for a in arcs for arc in a.base_arcs
                                              for v in arc}),
                            arcs, trip_index, conn_index, cuts, ends)


@st.composite
def _composition_instances(draw):
    """Genbench instances, splits and joins included, and 3SAT reductions."""
    if draw(st.booleans()):
        return generate(GenConfig(
            seed=draw(st.integers(1, 10_000)), lines=draw(st.integers(1, 3)),
            trips_per_line=draw(st.integers(1, 4)), unit_types=draw(st.integers(1, 2)),
            stations=draw(st.integers(2, 4)),
            split_join_fraction=draw(st.sampled_from([0.0, 0.3, 1.0]))))
    n_vars = draw(st.integers(1, 3))
    literal = st.integers(1, n_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=1, max_size=4))
    return reduce_3sat(Cnf3(n_vars, clauses))[0]


@settings(max_examples=60, deadline=None, database=None)
@given(inst=_composition_instances())
def test_the_composition_graph_equals_the_contracted_hd_graph(inst):
    # C built from the instance is the HD graph contracted, field for field
    # and in arc order
    want = _contract_hd(build(inst, "HD"))
    for got in (build_variant(inst, "C"), contract(build(inst, "HD"))):
        assert [tuple(a) for a in got.hyperarcs] == [tuple(a) for a in want.hyperarcs]
        assert got.nodes == want.nodes
        assert all(type(v) is CompNode for v in got.nodes)
        assert (got.cuts, got.end_inventories) == (want.cuts, want.end_inventories)
        assert (got.trip_arcs, got.connection_arcs) == (want.trip_arcs, want.connection_arcs)
        assert got.instance is inst

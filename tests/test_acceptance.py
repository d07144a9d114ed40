"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The value-relation criteria run the float solver at 1e-6 relative tolerance
plus exact-rational checks; runtime budgets are asserted where stated.
"""

import itertools
import json
import random
import time

import pytest

from rollstock import analysis
from rollstock.composition import contract
from rollstock.formulation import (
    ModelOptions,
    assemble,
    models_equal,
    parse_lp,
    write_lp,
)
from rollstock.genbench import GenConfig, generate
from rollstock.hypergraph import build, project_base_flow, decompose_paths
from rollstock.instance import canonical, canonical_instances, dumps, loads
from rollstock.reduction import Cnf3, verify_reduction
from rollstock.solver import (
    enumerate_oracle,
    feasibility_residual,
    solve_ip,
    solve_lp,
)

REL_TOL = 1e-6
SWEEP_SEEDS = range(1, 51)


def _sweep_config(seed: int) -> GenConfig:
    return GenConfig(seed=seed, lines=1 + seed % 2,
                     trips_per_line=3 + seed % 2,
                     unit_types=2, n_max=2, stations=3)


def _model(inst, variant, cc=True):
    if variant == "C":
        return contract(build(inst, "HD")), None
    graph = analysis.build_variant(inst, variant, closure=True)
    return graph, cc


def _solve_both(inst, variant, cc=True):
    graph, _ = _model(inst, variant, cc)
    opts = None if variant == "C" else ModelOptions(connection_constraints=cc)
    model = assemble(graph, opts) if opts else assemble(graph)
    lp = solve_lp(model.relaxed())
    ip = solve_ip(model)
    assert lp.status == "Optimal" and ip.status == "Optimal", (variant, lp.status)
    assert lp.objective <= ip.objective + 1e-7  # weak duality, criterion 7
    assert feasibility_residual(model.relaxed(), lp.values) <= 1e-7
    return lp, ip, model, graph


def _close(a, b):
    return abs(a - b) <= REL_TOL * (1 + abs(a) + abs(b))


def report(criterion: int, detail: str):
    print(f"\ncriterion {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def sweep():
    """Shared solves over the 50-seed generator sweep."""
    data = {}
    t0 = time.perf_counter()
    for seed in SWEEP_SEEDS:
        inst = generate(_sweep_config(seed))
        values = {}
        for variant in ("HA", "HD", "C"):
            lp, ip, _, _ = _solve_both(inst, variant)
            values[variant] = (lp.objective, ip.objective)
        data[seed] = (inst, values)
    elapsed = time.perf_counter() - t0
    for seed in SWEEP_SEEDS:
        inst, values = data[seed]
        for variant in ("hA", "hD"):
            lp, ip, _, _ = _solve_both(inst, variant)
            values[variant] = (lp.objective, ip.objective)
    return data, elapsed


def test_criterion_1_theorem_equalities(sweep):
    data, elapsed = sweep
    for seed, (inst, v) in data.items():
        for mp in (0, 1):
            assert _close(v["HA"][mp], v["HD"][mp]), (seed, mp, v)
            assert _close(v["HD"][mp], v["C"][mp]), (seed, mp, v)
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    # the same equalities in rational mode on every seed of the sweep: they
    # are exact, not tolerance-based
    t0 = time.perf_counter()
    for seed, (inst, _) in data.items():
        exact_vals = {}
        for variant in ("HA", "HD", "C"):
            graph, _ = _model(inst, variant)
            model = assemble(graph)
            exact_vals[variant] = (solve_lp(model.relaxed(), exact=True).objective,
                                  solve_ip(model, exact=True).objective)
        assert exact_vals["HA"] == exact_vals["HD"] == exact_vals["C"], seed
    exact_elapsed = time.perf_counter() - t0
    assert exact_elapsed < 60.0, f"exact pass took {exact_elapsed:.1f}s"
    report(1, f"50 closure instances, LP/IP equal across HA/HD/C "
              f"(float {REL_TOL} rel, {elapsed:.1f}s; exact on all "
              f"{len(data)} seeds, {exact_elapsed:.1f}s)")


def test_criterion_2_theorem_inequalities(sweep):
    data, _ = sweep
    for seed, (inst, v) in data.items():
        for mp in (0, 1):
            assert v["hA"][mp] <= v["HA"][mp] + REL_TOL * (1 + abs(v["HA"][mp]))
            assert v["hD"][mp] <= v["HD"][mp] + REL_TOL * (1 + abs(v["HD"][mp]))
            assert v["hD"][mp] <= v["hA"][mp] + REL_TOL * (1 + abs(v["hA"][mp]))
    report(2, "hA<=HA, hD<=HD, hD<=hA for LP and IP on all 50 instances")


def test_criterion_3_strict_gap_witnesses():
    t0 = time.perf_counter()
    situation2 = canonical("Situation2")
    lp_hd = solve_lp(assemble(build(situation2, "hD")).relaxed())
    lp_HD = solve_lp(assemble(build(situation2, "HD")).relaxed())
    assert lp_hd.objective < lp_HD.objective - 1e-6
    t_s2 = time.perf_counter() - t0

    t0 = time.perf_counter()
    situation1 = canonical("Situation1")
    g_ha = build(situation1, "hAbar")
    ip = solve_ip(assemble(g_ha))
    ok, _ = analysis.replay_in_full(situation1, g_ha, ip.values)
    assert not ok, "the hA optimum should use an illegal coupling"
    full_ip = solve_ip(assemble(build(situation1, "HAbar")))
    assert ip.objective < full_ip.objective - 1e-6
    t_s1 = time.perf_counter() - t0
    assert t_s2 < 1.0 and t_s1 < 1.0
    report(3, f"Situation2 LP gap {lp_hd.objective:.1f}<{lp_HD.objective:.1f} "
              f"({t_s2:.2f}s); Situation1 hA optimum illegal ({t_s1:.2f}s)")


def test_criterion_4_corollary_projection():
    t0 = time.perf_counter()
    checked = 0
    rep = analysis.verify_corollary_projection(canonical("TwoTrip"))
    assert rep["equal"], rep
    checked += 1
    rng = random.Random(17)
    while checked < 11:
        seed = rng.randint(100, 10_000)
        cfg = GenConfig(seed=seed, lines=1 + seed % 2,
                        trips_per_line=2 + seed % 2, unit_types=2, n_max=2)
        inst = generate(cfg)
        if len(inst.trips) > 6:
            continue
        rep = analysis.verify_corollary_projection(inst)
        assert rep["equal"], (seed, rep)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"projected IP solution sets equal on TwoTrip + 10 random "
              f"instances, {elapsed:.1f}s")


def test_criterion_5_connection_constraint_effect():
    t0 = time.perf_counter()
    inst = canonical("FlowConstraintGap")
    g = build(inst, "HD")
    with_iii = solve_ip(assemble(g, ModelOptions(connection_constraints=True)))
    without = solve_ip(assemble(g, ModelOptions(connection_constraints=False)))
    c_ip = solve_ip(assemble(contract(g)))
    assert without.objective < c_ip.objective - 1e-6  # the turnaround is used
    assert abs(with_iii.objective - c_ip.objective) <= 1e-6
    turn = [k for k, v in without.values.items()
            if v > 0.5 and k.startswith("trip.t2.")]
    assert turn == ["trip.t2.br"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"HD\\(iii) {without.objective:.0f} < C {c_ip.objective:.0f}; "
              f"with (iii) values coincide ({elapsed:.2f}s)")


def test_criterion_6_reduction_correctness():
    t0 = time.perf_counter()
    n = 0
    for vp1 in ((1, 1, 2), (1, 2, 2)):
        for vp2 in ((1, 1, 2), (1, 2, 2)):
            for s1 in itertools.product((1, -1), repeat=3):
                for s2 in itertools.product((1, -1), repeat=3):
                    c1 = tuple(s * v for s, v in zip(s1, vp1))
                    c2 = tuple(s * v for s, v in zip(s2, vp2))
                    verdict = verify_reduction(Cnf3(2, (c1, c2)))
                    assert verdict.agrees, (c1, c2)
                    n += 1
    assert n == 256
    rng = random.Random(2024)
    for _ in range(100):
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(3))
            for _ in range(6))
        verdict = verify_reduction(Cnf3(4, clauses))
        assert verdict.agrees, clauses
        if verdict.feasible:
            assert verdict.assignment_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    report(6, f"sat<=>feasible on 256 sign patterns + 100 random 4v/6c "
              f"formulas with decoded assignments re-verified, {elapsed:.1f}s")


def test_criterion_7_solver_soundness():
    variants = ("hD", "hA", "HD", "HA", "hAbar", "HAbar", "C")
    for name, inst in canonical_instances().items():
        for variant in variants:
            _, ip, model, _ = _solve_both(inst, variant)
            orc = enumerate_oracle(inst, variant)
            assert ip.objective == pytest.approx(orc.objective, abs=1e-6), \
                (name, variant)
    rng = random.Random(7)
    tested = 0
    while tested < 100:
        seed = rng.randint(1, 100_000)
        cfg = GenConfig(seed=seed, lines=1 + seed % 2,
                        trips_per_line=2 + seed % 2,
                        unit_types=1 + seed % 2, n_max=2)
        inst = generate(cfg)
        if len(inst.trips) > 8:
            continue
        variant = variants[tested % len(variants)]
        _, ip, model, _ = _solve_both(inst, variant)
        orc = enumerate_oracle(inst, variant)
        assert orc.status == "Optimal"
        assert ip.objective == pytest.approx(orc.objective, abs=1e-6), \
            (seed, variant)
        tested += 1
    report(7, "solve_ip == enumerate_oracle on 4 canonicals x 7 options "
              "+ 100 random tiny instances; LP<=IP and residuals<=1e-7 "
              "asserted on every solve")


def test_criterion_8_flow_semantics():
    checked = 0
    for name, inst in canonical_instances().items():
        for variant in ("hD", "HD", "hAbar", "HAbar"):
            g = build(inst, variant)
            ip = solve_ip(assemble(g))
            x = {k: int(round(v)) for k, v in ip.values.items()}
            flow = project_base_flow(g, x)   # conservation checked inside
            rebuilt = {}
            for path in decompose_paths(g, x):
                for a, b in zip(path, path[1:]):
                    rebuilt[(a, b)] = rebuilt.get((a, b), 0) + 1
            assert rebuilt == {k: v for k, v in flow.items() if v}, (name, variant)
            bd = analysis.cost_breakdown(inst, g, ip.values)
            assert bd.total == pytest.approx(ip.objective, abs=1e-6)
            checked += 1
    # exact-rational breakdown equality
    inst = canonical("TwoTrip")
    cg = contract(build(inst, "HD"))
    ip = solve_ip(assemble(cg), exact=True)
    bd = analysis.cost_breakdown(inst, cg, ip.values, exact=True)
    assert bd.total == ip.objective
    report(8, f"projection conserves, paths reconstruct, breakdown totals "
              f"match on {checked} IP solutions (+1 exact)")


def test_criterion_9_format_round_trips():
    for name, inst in canonical_instances().items():
        assert loads(dumps(inst)) == inst, name
        for variant in ("hD", "HD", "C"):
            if variant == "C":
                model = assemble(contract(build(inst, "HD")))
            else:
                model = assemble(build(inst, variant))
            assert models_equal(model, parse_lp(write_lp(model))), (name, variant)
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden"
    m = assemble(build(canonical("TwoTrip"), "hD"))
    assert write_lp(m) == (golden / "twotrip_hD.lp").read_text()
    assert build(canonical("TwoTrip"), "hD").dump() == \
        (golden / "twotrip_hD.dump").read_text()
    report(9, "instance JSON and LP exports re-parse coefficient-identical "
              "on all canonicals (golden files pinned)")

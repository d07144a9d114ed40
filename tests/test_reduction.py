"""3SAT reduction: construction shape and satisfiability equivalence."""

import dataclasses

import pytest

from rollstock import reduction
from rollstock.errors import LimitExceeded
from rollstock.instance import validate
from rollstock.reduction import (
    Cnf3,
    brute_force_sat,
    decode_assignment,
    expected_trip_count,
    parse_dimacs,
    reduce_3sat,
    verify_reduction,
)


class TestConstruction:
    def test_single_positive_clause(self):
        f = Cnf3(1, ((1, 1, 1),))
        inst, cert = reduce_3sat(f)
        assert validate(inst) == []
        assert len(inst.unit_types) == 1
        assert len(inst.trips) == expected_trip_count(f)
        v = verify_reduction(f)
        assert v.agrees and v.feasible and v.assignment == {1: True}

    def test_contradiction_infeasible(self):
        v = verify_reduction(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
        assert v.agrees and not v.feasible and not v.sat

    def test_trip_count_formula(self):
        f = Cnf3(3, ((1, -2, 3), (1, 1, 2), (-3, -3, -3)))
        inst, _ = reduce_3sat(f)
        # 4 per clause + per variable 3 per occurrence + a start trip
        assert expected_trip_count(f) == 12 + (3 * 2 + 1) + (3 * 2 + 1) + (3 * 2 + 1)
        assert len(inst.trips) == expected_trip_count(f)

    def test_instances_are_valid_and_linear(self):
        f = Cnf3(4, ((1, 2, 3), (-1, -2, -4), (2, 3, 4), (-2, -3, -3)))
        inst, _ = reduce_3sat(f)
        assert validate(inst) == []
        assert len(inst.trips) == expected_trip_count(f)
        assert len(inst.connections) < 3 * len(inst.trips)

    def test_unused_variable_gets_idle_chain(self):
        f = Cnf3(2, ((1, 1, 1),))
        inst, cert = reduce_3sat(f)
        assert validate(inst) == []
        assert len(cert.literal_trips[2]) == 2
        v = verify_reduction(f)
        assert v.agrees and v.feasible


class TestLaunderingRegressions:
    """Schedules must not fake clause witnesses by re-routing spare units."""

    def test_theft_of_early_deposit(self):
        f = Cnf3(2, ((1, 1, 1), (2, 2, 2), (1, 1, 1), (-2, -2, -2)))
        v = verify_reduction(f)
        assert v.agrees and not v.sat and not v.feasible

    def test_stranded_lend_laundering(self):
        f = Cnf3(3, ((3, 3, 3), (-1, 2, 2), (-3, -3, -3)))
        v = verify_reduction(f)
        assert v.agrees and not v.sat and not v.feasible

    def test_reuse_after_literal_train_ends(self):
        f = Cnf3(3, ((2, -3, 2), (-1, -1, 1), (3, -1, -1), (-3, -3, -3)))
        v = verify_reduction(f)
        assert v.agrees

    def test_tautological_clause(self):
        f = Cnf3(2, ((1, -1, 2), (-2, -2, -2)))
        v = verify_reduction(f)
        assert v.agrees and v.feasible  # tautological clause is free


class TestSweep:
    def test_sign_pattern_slice(self):
        import itertools
        for s1 in itertools.product((1, -1), repeat=3):
            for s2 in itertools.product((1, -1), repeat=3):
                c1 = tuple(s * v for s, v in zip(s1, (1, 1, 2)))
                c2 = tuple(s * v for s, v in zip(s2, (1, 2, 2)))
                v = verify_reduction(Cnf3(2, (c1, c2)))
                assert v.agrees, (c1, c2)

    def test_random_formulas(self):
        import random
        rng = random.Random(4242)
        for _ in range(12):
            n = rng.choice([3, 4])
            clauses = tuple(
                tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3))
                for _ in range(rng.choice([4, 5])))
            v = verify_reduction(Cnf3(n, clauses))
            assert v.agrees, clauses


class TestDimacs:
    def test_parse(self):
        text = """c comment
p cnf 3 2
1 -2 3 0
-1 2 -3 0
"""
        f = parse_dimacs(text)
        assert f.n_vars == 3
        assert f.clauses == ((1, -2, 3), (-1, 2, -3))

    def test_brute_force(self):
        assert brute_force_sat(Cnf3(1, ((1, 1, 1),)))
        assert not brute_force_sat(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))

    def test_decode_requires_solution_values(self):
        f = Cnf3(1, ((1, 1, 1),))
        _, cert = reduce_3sat(f)
        asg = decode_assignment(f, cert, {f"trip.x1_start.DF": 1.0})
        assert asg == {1: False}


class TestNodeLimit:
    UNSAT = Cnf3(2, ((1, 1, 2), (1, -2, -2), (-1, -1, 2), (-1, -2, -2)))
    SAT = Cnf3(2, ((1, 1, 2), (1, -2, -2), (-1, -1, 2), (1, 1, 2)))

    @pytest.mark.parametrize("f", [UNSAT, SAT], ids=["unsat", "sat"])
    def test_no_incumbent_decides_nothing(self, f):
        with pytest.raises(LimitExceeded, match="node limit 0 reached"):
            verify_reduction(f, node_limit=0)

    def test_incumbent_at_the_limit_is_feasible(self, monkeypatch):
        # the search stops with the optimum in hand but not proven optimal
        solve = reduction.solve_ip
        monkeypatch.setattr(reduction, "solve_ip", lambda model, node_limit:
                            dataclasses.replace(solve(model), status="NodeLimit"))
        v = verify_reduction(self.SAT, node_limit=1)
        assert v.feasible and v.agrees and v.assignment_ok

"""Hardness gadgets: scheduling instances encoding 3SAT formulas.

The encoding uses a single unit type and is a pure feasibility question
(all cost rates zero, exact start inventories). Every clause owns a private
station pair; its clause train runs four trips through it, and satisfying
the clause means borrowing a second unit for the "true" trip (unnegated
witness) or the "negated" trip (negated witness), with the transition list
of the middle connection forcing exactly one of the two. Each variable has
a literal train of two units that visits exactly the station pairs of the
clauses it occurs in, via explicit transfer trips; two look-alike double
compositions whose transitions never mix encode the truth value, and an
extra single composition per occurrence lets the partner unit leave for
exactly the clause trip it can satisfy. Private station pairs matter:
units lent into a clause's depots can only ever serve that clause's
couplings, so a feasible schedule cannot launder a spare unit from one
gadget into a fake witness for another.

Formulas come in as (sign * var) literal triples or DIMACS CNF text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .composition import contract
from .errors import LimitExceeded, MalformedInstance
from .formulation import assemble
from .hypergraph import build
from .instance import (
    Composition,
    Connection,
    CostParams,
    Depot,
    Instance,
    Trip,
    UnitType,
    validate,
)
from .solver import solve_ip


@dataclass(frozen=True)
class Cnf3:
    """3SAT formula: clauses of exactly three signed literals (var >= 1)."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} does not have 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range")

    def satisfied_by(self, assignment: dict[int, bool]) -> bool:
        return all(any((lit > 0) == assignment[abs(lit)] for lit in cl)
                   for cl in self.clauses)


@dataclass
class ReductionCertificate:
    """Decoder data: which trips realize which clause/literal gadget."""

    clause_trips: dict[int, tuple[str, str, str, str]]
    literal_trips: dict[int, list[str]]             # chronological chain per var
    occurrences: dict[int, list[tuple[int, bool, bool]]]  # (clause, pos, neg)
    true_comp: str = "DT"
    false_comp: str = "DF"


def parse_dimacs(text: str) -> Cnf3:
    """The formula in DIMACS CNF ``text``: a ``p cnf <variables> <clauses>``
    line, then clauses of three literals, each ended by 0; lines starting
    with c or % are comments. A line that fits none of these, or a ``p``
    line whose clause count is not the number of clauses, raises
    ``MalformedInstance`` naming it."""
    n_vars, n_clauses, p_line = 0, None, ""
    clauses: list[tuple[int, ...]] = []
    for number, line in enumerate(text.splitlines(), 1):
        words = line.split()
        if not words or words[0].startswith(("c", "%")):
            continue
        try:
            if words[0] == "p":
                if len(words) != 4 or words[1] != "cnf":
                    raise ValueError("expected p cnf <variables> <clauses>")
                n_vars, n_clauses = (int(w) for w in words[2:])
                p_line = f"line {number} ({line.strip()})"
                continue
            lits = [int(w) for w in words]
            if lits[-1] == 0:
                lits.pop()
            if lits and len(lits) != 3:
                raise ValueError(f"a clause has 3 literals, not {len(lits)}")
            for lit in lits:
                if not 0 < abs(lit) <= n_vars:
                    raise ValueError(f"literal {lit} is not a variable "
                                     f"1..{n_vars} or its negation")
        except ValueError as e:
            raise MalformedInstance(f"malformed formula, line {number} "
                                    f"({line.strip()}): {e}") from None
        if lits:
            clauses.append(tuple(lits))
    if n_clauses is not None and n_clauses != len(clauses):
        raise MalformedInstance(f"malformed formula, {p_line}: clause count "
                                f"{n_clauses}, but {len(clauses)} clauses follow")
    return Cnf3(n_vars, tuple(clauses))


def _occurrences(f: Cnf3) -> dict[int, list[tuple[int, bool, bool]]]:
    occ: dict[int, list[tuple[int, bool, bool]]] = {
        j: [] for j in range(1, f.n_vars + 1)}
    for i, cl in enumerate(f.clauses):
        for j in sorted({abs(lit) for lit in cl}):
            occ[j].append((i, j in cl, -j in cl))
    return occ


def reduce_3sat(f: Cnf3) -> tuple[Instance, ReductionCertificate]:
    """Build the scheduling instance whose feasibility decides the formula."""
    m = len(f.clauses)
    occ = _occurrences(f)

    trips: list[Trip] = []
    conns: list[Connection] = []

    def add_trip(tid: str, slot: int, frm: str, to: str,
                 comps: tuple[str, ...]) -> str:
        trips.append(Trip(tid, frm, to, 10 * slot, 10 * slot + 5, 1.0, 0, comps))
        return tid

    def a_st(i: int) -> str:
        return f"SA{i}"

    def b_st(i: int) -> str:
        return f"SB{i}"

    # clause train: four trips per clause through the clause's own stations
    clause_trips: dict[int, tuple[str, str, str, str]] = {}
    for i, cl in enumerate(f.clauses):
        has_pos = any(lit > 0 for lit in cl)
        has_neg = any(lit < 0 for lit in cl)
        ts = add_trip(f"c{i}_start", 4 * i, a_st(i), b_st(i), ("S",))
        tt = add_trip(f"c{i}_true", 4 * i + 1, b_st(i), a_st(i),
                      ("S", "D") if has_pos else ("S",))
        tn = add_trip(f"c{i}_neg", 4 * i + 2, a_st(i), b_st(i),
                      ("S", "D") if has_neg else ("S",))
        te = add_trip(f"c{i}_end", 4 * i + 3, b_st(i), a_st(i + 1), ("S",))
        clause_trips[i] = (ts, tt, tn, te)
        conns.append(Connection(f"cc{i}_a", "OneToOne", (ts,), (tt,)))
        # exactly one of the two clause trips runs double
        mid = ([("D", "S")] if has_pos else []) + ([("S", "D")] if has_neg else [])
        conns.append(Connection(f"cc{i}_b", "OneToOne", (tt,), (tn,),
                                allowed_changes=tuple(mid)))
        conns.append(Connection(f"cc{i}_c", "OneToOne", (tn,), (te,)))
        if i + 1 < m:
            conns.append(Connection(f"cc{i}_d", "OneToOne",
                                    (te,), (f"c{i + 1}_start",)))

    # literal trains: per variable, two units visiting its clauses' stations
    keep = [("DT", "DT"), ("DF", "DF")]
    literal_trips: dict[int, list[str]] = {}
    for j in range(1, f.n_vars + 1):
        occurrences = occ[j]
        if not occurrences:
            start = add_trip(f"x{j}_start", 0, "DEP", "IDLE", ("DT", "DF"))
            end = add_trip(f"x{j}_end", 1, "IDLE", "DEP", ("DT", "DF"))
            conns.append(Connection(f"lc{j}_0", "OneToOne", (start,), (end,),
                                    allowed_changes=tuple(keep)))
            literal_trips[j] = [start, end]
            continue
        chain = [add_trip(f"x{j}_start", 0, "DEP", b_st(occurrences[0][0]),
                          ("DT", "DF"))]
        links: list[list[tuple[str, str]]] = []
        for idx, (i, pos_here, neg_here) in enumerate(occurrences):
            t_true = add_trip(f"x{j}_c{i}", 4 * i + 1, b_st(i), a_st(i),
                              ("DT", "DF") + (("S",) if pos_here else ()))
            t_neg = add_trip(f"x{j}_c{i}n", 4 * i + 2, a_st(i), b_st(i),
                             ("DT", "DF") + (("S",) if neg_here else ()))
            nxt = occurrences[idx + 1][0] if idx + 1 < len(occurrences) else None
            hop_name = f"x{j}_hop{i}" if nxt is not None else f"x{j}_end"
            hop = add_trip(hop_name, 4 * i + 3, b_st(i),
                           b_st(nxt) if nxt is not None else "DEP",
                           ("DT", "DF"))
            links.append(list(keep) + ([("DT", "S")] if pos_here else []))
            links.append(list(keep) + ([("S", "DT")] if pos_here else [])
                         + ([("DF", "S")] if neg_here else []))
            links.append(list(keep) + ([("S", "DF")] if neg_here else []))
            chain += [t_true, t_neg, hop]
        for k, (a, b) in enumerate(zip(chain, chain[1:])):
            conns.append(Connection(f"lc{j}_{k}", "OneToOne", (a,), (b,),
                                    allowed_changes=tuple(links[k])))
        literal_trips[j] = chain

    inst = Instance(
        name=f"sat_{f.n_vars}v_{m}c",
        unit_types=(UnitType("u", 1, 0),),
        compositions=(Composition("S", ("u",)), Composition("D", ("u", "u")),
                      Composition("DT", ("u", "u")), Composition("DF", ("u", "u"))),
        trips=tuple(trips),
        connections=tuple(conns),
        depots=(Depot("DEP", "u", 2 * f.n_vars, 0),
                Depot(a_st(0), "u", 1, 0)),
        costs=CostParams(0.0, 0.0, 0.0, 0.0),
        n_max=2,
    )
    return inst, ReductionCertificate(clause_trips, literal_trips, occ)


def decode_assignment(f: Cnf3, cert: ReductionCertificate,
                      values: dict[str, float]) -> dict[int, bool]:
    """Read the truth assignment off a feasible composition-model solution."""
    out: dict[int, bool] = {}
    for j, chain in cert.literal_trips.items():
        start = chain[0]
        if values.get(f"trip.{start}.{cert.true_comp}", 0) > 0.5:
            out[j] = True
        elif values.get(f"trip.{start}.{cert.false_comp}", 0) > 0.5:
            out[j] = False
        else:
            out[j] = True  # variable without occurrences
    return out


def brute_force_sat(f: Cnf3, var_limit: int = 20) -> bool:
    if f.n_vars > var_limit:
        raise LimitExceeded(f"{f.n_vars} variables exceeds brute-force limit")
    for bits in itertools.product((False, True), repeat=f.n_vars):
        if f.satisfied_by(dict(zip(range(1, f.n_vars + 1), bits))):
            return True
    return False


@dataclass
class ReductionVerdict:
    agrees: bool
    sat: bool
    feasible: bool
    assignment: dict[int, bool] | None = None
    assignment_ok: bool | None = None


def verify_reduction(f: Cnf3, node_limit: int = 400000) -> ReductionVerdict:
    """Cross-check satisfiability against feasibility of the reduction,
    decoding and re-checking the assignment on the feasible side. A search
    stopped at ``node_limit`` with no incumbent raises :class:`LimitExceeded`."""
    sat = brute_force_sat(f)
    inst, cert = reduce_3sat(f)
    bad = validate(inst)
    if bad:
        raise AssertionError(f"reduction produced an invalid instance: {bad[:3]}")
    model = assemble(contract(build(inst, "HD")))
    sol = solve_ip(model, node_limit=node_limit)
    if sol.status == "NodeLimit" and sol.objective is None:
        raise LimitExceeded(f"node limit {node_limit} reached with no incumbent")
    feasible = sol.status in ("Optimal", "NodeLimit")
    verdict = ReductionVerdict(agrees=(sat == feasible), sat=sat, feasible=feasible)
    if feasible:
        verdict.assignment = decode_assignment(f, cert, sol.values)
        verdict.assignment_ok = f.satisfied_by(verdict.assignment)
        verdict.agrees = verdict.agrees and verdict.assignment_ok
    return verdict


def expected_trip_count(f: Cnf3) -> int:
    """4 per clause plus, per variable, 3 per clause occurrence and one
    start trip (variables without occurrences keep a 2-trip idle chain)."""
    occ = _occurrences(f)
    per_var = sum(3 * len(o) + 1 if o else 2 for o in occ.values())
    return 4 * len(f.clauses) + per_var

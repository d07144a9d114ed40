"""Solver-agnostic MILP assembly and LP-format export.

``assemble`` turns a built hypergraph or composition graph into a
:class:`MilpModel`: flow conservation at every node, one composition per
trip, one composition change per connection (omittable for the hypergraph
variants only), unit bounds except on parking and deviation arcs, and
integrality unless relaxed. The composition model replaces depot flow
conservation by cumulative inventory cuts plus a soft end-inventory row
with a surplus/deficit deviation pair per depot.

Models export to the CPLEX-style LP text format and re-parse from it
coefficient-for-coefficient.

``Variable`` and ``Row`` are ``NamedTuple``s: each equals its fields' tuple.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .composition import CompositionGraph
from .errors import InvalidOptions, MalformedInstance
from .hypergraph import Hypergraph, node_key

_FMT = "%.17g"
_HEADER = "\\ rollstock model "


class Variable(NamedTuple):
    id: str
    lower: float = 0.0
    upper: float | None = None   # None = unbounded above
    integer: bool = False
    cost: float = 0.0


class Row(NamedTuple):
    id: str
    coeffs: tuple[tuple[str, float], ...]  # (var id, nonzero coefficient)
    sense: str                             # "=", "<=", ">="
    rhs: float


@dataclass(frozen=True)
class ModelOptions:
    connection_constraints: bool = True


@dataclass
class MilpModel:
    name: str
    variables: list[Variable]
    rows: list[Row]
    kinds: dict[str, str] = field(default_factory=dict)  # var id -> hyperarc kind

    def stats(self) -> tuple[int, int]:
        return len(self.variables), len(self.rows)

    def relaxed(self) -> MilpModel:
        return MilpModel(
            name=self.name,
            variables=[v._replace(integer=False) for v in self.variables],
            rows=list(self.rows),
            kinds=dict(self.kinds),
        )


def _coeff_tuple(d: dict[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple((k, v) for k, v in d.items() if v != 0)


def _signed(plus: list[str], minus: list[str] | tuple = ()) -> tuple[tuple[str, float], ...]:
    """Coefficients +1 on ``plus`` then -1 on ``minus``, ids that do not repeat."""
    return tuple([(k, 1.0) for k in plus] + [(k, -1.0) for k in minus])


def _ordered_hyperarcs(g: Hypergraph) -> list:
    """Deterministic variable order: trips by departure time then id, then
    connection changes, then depot arcs, then deviations."""
    trips = sorted(g.instance.trips, key=lambda t: (t.dep_time, t.id))
    order: list = []
    for t in trips:
        order.extend(sorted(g.trip_arcs[t.id]))
    for c in g.instance.connections:
        order.extend(sorted(g.connection_arcs[c.id]))
    named = set(order)
    depot_like = [h.id for h in g.hyperarcs
                  if h.id not in named and h.kind != "InventoryDeviation"]
    order.extend(sorted(depot_like))
    order.extend(sorted(h.id for h in g.hyperarcs if h.kind == "InventoryDeviation"))
    return [g.by_id[i] for i in order]


def assemble(graph: Hypergraph | CompositionGraph,
             options: ModelOptions | None = None) -> MilpModel:
    """Build the MILP of one model variant."""
    if isinstance(graph, CompositionGraph):
        return _assemble_composition(graph, options or ModelOptions())
    return _assemble_hypergraph(graph, options or ModelOptions())


def _assemble_hypergraph(g: Hypergraph, options: ModelOptions) -> MilpModel:
    variables: list[Variable] = []
    kinds: dict[str, str] = {}
    for h in _ordered_hyperarcs(g):
        variables.append(Variable(h.id, 0.0, None if h.upper is None else float(h.upper),
                                  integer=True, cost=float(h.cost)))
        kinds[h.id] = h.kind

    # the base arcs of a hyperarc are node-disjoint, so it meets a node at
    # most once and each row's coefficients come straight off the incidence
    rows: list[Row] = []
    outgoing, incoming = g.incident()
    for node in g.nodes:
        rows.append(Row(f"flow.{node_key(node)}", _signed(outgoing[node], incoming[node]),
                        "=", float(g.balances.get(node, 0))))

    for t in sorted(g.trip_arcs):
        rows.append(Row(f"trip.{t}", _signed(g.trip_arcs[t]), "=", 1.0))
    if options.connection_constraints:
        for c in sorted(g.connection_arcs):
            rows.append(Row(f"conn.{c}", _signed(g.connection_arcs[c]), "=", 1.0))

    return MilpModel(f"{g.instance.name}-{g.variant}", variables, rows, kinds)


def _assemble_composition(cg: CompositionGraph, options: ModelOptions) -> MilpModel:
    if not options.connection_constraints:
        raise InvalidOptions("the composition model cannot drop the connection "
                             "constraints")
    variables: list[Variable] = []
    kinds: dict[str, str] = {}

    trips = sorted(cg.instance.trips, key=lambda t: (t.dep_time, t.id))
    order: list[str] = []
    for t in trips:
        order.extend(sorted(cg.trip_arcs[t.id]))
    for c in cg.instance.connections:
        order.extend(sorted(cg.connection_arcs[c.id]))
    for aid in order:
        a = cg.by_id[aid]
        variables.append(Variable(aid, 0.0, 1.0, integer=True, cost=float(a.cost)))
        kinds[aid] = a.kind
    dev_rate = float(cg.instance.costs.ending_deviation_per_unit)
    for e in cg.end_inventories:
        for side in ("surplus", "deficit"):
            vid = f"dev.{e.station}.{e.unit_type}.{side}"
            variables.append(Variable(vid, 0.0, None, integer=True, cost=dev_rate))
            kinds[vid] = "InventoryDeviation"

    # an arc's tails are arrivals and its heads departures (or the reverse
    # for a trip arc), so no arc meets a node twice
    rows: list[Row] = []
    outgoing, incoming = cg.incident()
    for node in cg.nodes:
        ins = incoming[node]
        outs = outgoing[node]
        if not ins or not outs:
            continue  # no conservation at chain ends
        rows.append(Row(f"flow.{node.trip}.{node.side}.{node.comp}",
                        _signed(ins, outs), "=", 0.0))

    for t in sorted(cg.trip_arcs):
        rows.append(Row(f"trip.{t}", _signed(cg.trip_arcs[t]), "=", 1.0))
    for c in sorted(cg.connection_arcs):
        rows.append(Row(f"conn.{c}", _signed(cg.connection_arcs[c]), "=", 1.0))

    def net(outs, ins) -> dict[str, float]:
        """-count per pull-out, +count per pull-in; an arc may do both."""
        coeffs: dict[str, float] = {}
        for aid, count in [(aid, -count) for aid, count in outs] + list(ins):
            coeffs[aid] = coeffs.get(aid, 0.0) + float(count)
        return coeffs

    # depot availability: start - out(<=t) + in(<=t) >= 0
    for cut in cg.cuts:
        rows.append(Row(f"cut.{cut.station}.{cut.unit_type}.{cut.time}",
                        _coeff_tuple(net(cut.outs, cut.ins)), ">=", -float(cut.start)))

    # soft end inventory: start - out_all + in_all - surplus + deficit = target
    for e in cg.end_inventories:
        coeffs = net(e.outs, e.ins)
        coeffs[f"dev.{e.station}.{e.unit_type}.surplus"] = -1.0
        coeffs[f"dev.{e.station}.{e.unit_type}.deficit"] = 1.0
        rows.append(Row(f"end.{e.station}.{e.unit_type}", _coeff_tuple(coeffs),
                        "=", float(e.target - e.start)))

    return MilpModel(f"{cg.instance.name}-C", variables, rows, kinds)


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def write_lp(model: MilpModel) -> str:
    """Render the model in CPLEX LP text format."""
    out = [_HEADER + model.name, "Minimize"]
    terms = [f"{_FMT % v.cost} {v.id}" for v in model.variables if v.cost != 0]
    out.append(" obj: " + (" + ".join(terms) if terms else "0 " + model.variables[0].id
                           if model.variables else "0 zero"))
    out.append("Subject To")
    for row in model.rows:
        if row.coeffs:
            body = " + ".join(f"{_FMT % c} {v}" for v, c in row.coeffs)
        else:
            anchor = model.variables[0].id if model.variables else "zero"
            body = f"0 {anchor}"
        out.append(f" {row.id}: {body} {row.sense} {_FMT % row.rhs}")
    out.append("Bounds")
    for v in model.variables:
        if v.upper is None:
            out.append(f" {_FMT % v.lower} <= {v.id}")
        else:
            out.append(f" {_FMT % v.lower} <= {v.id} <= {_FMT % v.upper}")
    generals = [v.id for v in model.variables if v.integer]
    if generals:
        out.append("Generals")
        for vid in generals:
            out.append(f" {vid}")
    out.append("End")
    return "\n".join(out) + "\n"


def export_lp_file(model: MilpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_lp(model))


_TERMS = r"(\S+ \S+(?: \+ \S+ \S+)*)"
_SHAPES = {  # the one line shape of each section
    "Minimize": re.compile(rf" obj: {_TERMS}"),
    "Subject To": re.compile(rf" (\S+): {_TERMS} (=|<=|>=) (\S+)"),
    "Bounds": re.compile(r" (\S+) <= (\S+)(?: <= (\S+))?"),
    "Generals": re.compile(r" (\S+)"),
}
_NEXT = {"": ("Minimize",), "Minimize": ("Subject To",), "Subject To": ("Bounds",),
         "Bounds": ("Generals", "End"), "Generals": ("End",), "End": ()}


def parse_lp(text: str) -> MilpModel:
    """Read back the LP text that :func:`write_lp` writes, and nothing else:
    the header comment, then ``Minimize`` with one `` obj:`` line, ``Subject
    To`` with `` <id>: <terms> <sense> <rhs>`` rows, ``Bounds`` with
    `` <lo> <= <id>`` or `` <lo> <= <id> <= <up>``, an optional ``Generals``
    with one id a line, and ``End``. Variables come in ``Bounds`` order, the
    model's order. Any other line raises :class:`MalformedInstance`."""
    lines = text.splitlines() or [""]
    section, costs, rows = "", None, []
    bounds: dict[str, tuple[float, float | None]] = {}
    generals: set[str] = set()
    named: dict[str, str] = {}  # one string per variable id, for rows and Bounds alike

    def terms(body: str) -> dict[str, float]:
        coeffs: dict[str, float] = {}
        for term in body.split(" + "):
            value, _, vid = term.partition(" ")
            c = float(value)
            if c != 0:
                vid = named.setdefault(vid, vid)
                coeffs[vid] = coeffs.get(vid, 0.0) + c
        return coeffs

    k, line = 1, lines[0]
    try:  # a ValueError names the line being read
        if not line.startswith(_HEADER):
            raise ValueError(line)
        for k, line in enumerate(lines[1:], start=2):
            if line in _NEXT[section]:
                section = line
                continue
            m = _SHAPES[section].fullmatch(line) if section in _SHAPES else None
            if m is None or section == "Minimize" and costs is not None:
                raise ValueError(line)
            if section == "Bounds":
                lo, vid, up = m.groups()
                vid = named.get(vid, vid)
                if vid in bounds:
                    raise ValueError(vid)
                bounds[vid] = (float(lo), None if up is None else float(up))
            elif section == "Generals":
                if m[1] not in bounds:
                    raise ValueError(m[1])
                generals.add(m[1])
            elif section == "Minimize":
                costs = terms(m[1])
            else:
                rid, body, sense, rhs = m.groups()
                rows.append(Row(rid, _coeff_tuple(terms(body)), sense, float(rhs)))
        if section != "End" or costs is None:
            raise MalformedInstance("LP text lacks its obj line or its End")
        if not named.keys() <= bounds.keys():  # a variable that Bounds does not declare
            # is refused unless its coefficients cancel; obj is line 3 and row i line 5 + i
            for k, coeffs in zip((3, *range(5, 5 + len(rows))),
                                 (costs.items(), *(r.coeffs for r in rows))):
                if any(c != 0 and vid not in bounds for vid, c in coeffs):
                    line = lines[k - 1]
                    raise ValueError(line)
    except ValueError:
        raise MalformedInstance(f"LP line {k}: {line!r}") from None
    return MilpModel(lines[0][len(_HEADER):],
                     [Variable(vid, lo, up, vid in generals, costs.get(vid, 0.0))
                      for vid, (lo, up) in bounds.items()], rows)


def parse_lp_file(path) -> MilpModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lp(fh.read())


def models_equal(a: MilpModel, b: MilpModel) -> bool:
    """Coefficient-level equality, ignoring names and metadata."""
    def rows(m: MilpModel) -> set[Row]:
        return {r._replace(coeffs=frozenset(r.coeffs)) for r in m.rows}
    return set(a.variables) == set(b.variables) and rows(a) == rows(b)

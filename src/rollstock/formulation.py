"""Solver-agnostic MILP assembly and LP-format export.

``assemble`` turns a built hypergraph or composition graph into a
:class:`MilpModel`: flow conservation at every node, one composition per
trip, one composition change per connection (omittable for the hypergraph
variants only), unit bounds except on parking and deviation arcs, and
integrality unless relaxed. The composition model replaces depot flow
conservation by cumulative inventory cuts plus a soft end-inventory row
with a surplus/deficit deviation pair per depot.

A model is its arrays: per column a cost, bounds and integrality, per row
a sense and right-hand side, and the rows' terms in compressed-row form.
``Variable`` and ``Row`` are read-only ``NamedTuple`` views of a column and
a row. Models export to the CPLEX-style LP text format and re-parse from
it coefficient-for-coefficient, each section read in bulk.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .composition import CompositionGraph
from .errors import InvalidOptions, MalformedInstance
from .hypergraph import Hypergraph, node_key

_FMT = "%.17g"
_HEADER = "\\ rollstock model "
INF = float("inf")


class Variable(NamedTuple):
    id: str
    lower: float = 0.0
    upper: float | None = None   # None = unbounded above
    integer: bool = False
    cost: float = 0.0


class Row(NamedTuple):
    id: str
    coeffs: tuple[tuple[str, float], ...]  # (var id, coefficient)
    sense: str                             # "=", "<=", ">="
    rhs: float


@dataclass(frozen=True)
class ModelOptions:
    connection_constraints: bool = True


class MilpModel:
    """A MILP as arrays: the columns' ``var_ids``, ``cost``, ``lower``,
    ``upper`` (inf: none) and ``integer`` mask; the rows' ``row_ids``,
    ``senses`` and ``rhs``; row i's terms ``cols`` (column indices) and
    ``vals`` over ``indptr[i]:indptr[i + 1]``, in the order given; and
    ``kinds``, each variable's hyperarc kind. Made from records, a model
    keeps their terms as given: a row may repeat a variable or hold a 0
    coefficient, which ``write_lp`` writes and ``model_arrays`` sums."""

    def __init__(self, name: str, variables: list[Variable], rows: list[Row],
                 kinds: dict[str, str] | None = None):
        built = _Rows([v.id for v in variables])
        for r in rows:
            built.add(r.id, [vid for vid, _ in r.coeffs], [c for _, c in r.coeffs], r.sense,
                      r.rhs)
        self._set(name, [v.cost for v in variables], [v.lower for v in variables],
                  [INF if v.upper is None else v.upper for v in variables],
                  [v.integer for v in variables], built, kinds or {})

    def _set(self, name, cost, lower, upper, integer, rows: _Rows, kinds) -> MilpModel:
        self.name, self.kinds, self.var_ids = name, kinds, rows.var_ids
        self.row_ids, self.senses = list(rows.ids), list(rows.senses)
        self.cost, self.lower, self.upper, self.rhs, self.vals = (
            np.asarray(a, dtype=float) for a in (cost, lower, upper, rows.rhs, rows.vals))
        self.integer = np.asarray(integer, dtype=bool)
        self.indptr, self.cols = (np.asarray(a, dtype=np.intp) for a in (rows.indptr, rows.cols))
        return self

    @property
    def variables(self) -> list[Variable]:
        """The columns as records, built on each read."""
        return list(map(Variable, self.var_ids, self.lower.tolist(),
                        [None if u == INF else u for u in self.upper.tolist()],
                        self.integer.tolist(), self.cost.tolist()))

    @property
    def rows(self) -> list[Row]:
        """The rows as records, built on each read."""
        names = np.array(self.var_ids, dtype=object)[self.cols].tolist()
        vals, p = self.vals.tolist(), self.indptr.tolist()
        return [Row(rid, tuple(zip(names[a:b], vals[a:b])), sense, rhs) for rid, a, b, sense, rhs
                in zip(self.row_ids, p, p[1:], self.senses, self.rhs.tolist())]

    def stats(self) -> tuple[int, int]:
        return len(self.var_ids), len(self.row_ids)

    def relaxed(self) -> MilpModel:
        """The LP relaxation: the same arrays but for the integer mask."""
        model = copy.copy(self)
        model.integer = np.zeros_like(self.integer)
        return model


class _Rows:
    """Rows as they are built: ids, senses, right-hand sides and each row's
    terms (column index, coefficient) over the columns ``var_ids``."""

    def __init__(self, var_ids: list[str]):
        self.var_ids, self.index = var_ids, dict(zip(var_ids, range(len(var_ids))))
        self.ids, self.senses, self.rhs, self.cols, self.vals = [], [], [], [], []
        self.indptr = [0]

    def add(self, rid: str, ids, coeffs, sense: str, rhs: float) -> None:
        self.ids.append(rid)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.cols += map(self.index.__getitem__, ids)
        self.vals += coeffs
        self.indptr.append(len(self.cols))

    def signed(self, rid: str, plus: list[str], minus: list[str] = (), rhs: float = 1.0):
        """An equality row: +1 on ``plus`` then -1 on ``minus``."""
        self.add(rid, [*plus, *minus], [1.0] * len(plus) + [-1.0] * len(minus), "=", rhs)

    def nonzero(self, rid: str, coeffs: dict[str, float], sense: str, rhs: float):
        """A row of the nonzero entries of ``coeffs``, in its order."""
        kept = {vid: c for vid, c in coeffs.items() if c != 0}
        self.add(rid, kept, kept.values(), sense, rhs)


def _ordered_hyperarcs(g: Hypergraph | CompositionGraph) -> list:
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


def _columns(g: Hypergraph | CompositionGraph) -> tuple[list, list, list, dict]:
    """One integer column per hyperarc, in ``_ordered_hyperarcs`` order: the
    ids, costs and upper bounds, and the hyperarc kind of each column."""
    order = _ordered_hyperarcs(g)
    return ([h.id for h in order], [float(h.cost) for h in order],
            [INF if h.upper is None else float(h.upper) for h in order],
            {h.id: h.kind for h in order})


def assemble(graph: Hypergraph | CompositionGraph,
             options: ModelOptions | None = None) -> MilpModel:
    """Build the MILP of one model variant."""
    if isinstance(graph, CompositionGraph):
        return _assemble_composition(graph, options or ModelOptions())
    return _assemble_hypergraph(graph, options or ModelOptions())


def _model(name: str, rows: _Rows, cost: list, upper: list, kinds: dict) -> MilpModel:
    """An assembled model: every column integer, with lower bound 0."""
    n = len(cost)
    return MilpModel.__new__(MilpModel)._set(name, cost, np.zeros(n), upper,
                                             np.ones(n, dtype=bool), rows, kinds)


def _assemble_hypergraph(g: Hypergraph, options: ModelOptions) -> MilpModel:
    ids, cost, upper, kinds = _columns(g)
    rows = _Rows(ids)

    # the base arcs of a hyperarc are node-disjoint, so it meets a node at
    # most once and each row's coefficients come straight off the incidence
    outgoing, incoming = g.incident()
    for node in g.nodes:
        rows.signed(f"flow.{node_key(node)}", outgoing[node], incoming[node],
                    float(g.balances.get(node, 0)))

    for t in sorted(g.trip_arcs):
        rows.signed(f"trip.{t}", g.trip_arcs[t])
    if options.connection_constraints:
        for c in sorted(g.connection_arcs):
            rows.signed(f"conn.{c}", g.connection_arcs[c])

    return _model(f"{g.instance.name}-{g.variant}", rows, cost, upper, kinds)


def _assemble_composition(cg: CompositionGraph, options: ModelOptions) -> MilpModel:
    if not options.connection_constraints:
        raise InvalidOptions("the composition model cannot drop the connection "
                             "constraints")
    ids, cost, upper, kinds = _columns(cg)
    devs = [f"dev.{e.station}.{e.unit_type}.{side}" for e in cg.end_inventories
            for side in ("surplus", "deficit")]
    rows = _Rows(ids + devs)
    cost += [float(cg.instance.costs.ending_deviation_per_unit)] * len(devs)
    upper += [INF] * len(devs)
    kinds.update(dict.fromkeys(devs, "InventoryDeviation"))

    # an arc's tails are arrivals and its heads departures (or the reverse
    # for a trip arc), and ``incident`` lists a split's shared tail and a
    # join's shared head once, so no row lists an arc twice
    outgoing, incoming = cg.incident()
    for node in cg.nodes:
        ins = incoming[node]
        outs = outgoing[node]
        if not ins or not outs:
            continue  # no conservation at chain ends
        rows.signed(f"flow.{node.trip}.{node.side}.{node.comp}", ins, outs, 0.0)

    for t in sorted(cg.trip_arcs):
        rows.signed(f"trip.{t}", cg.trip_arcs[t])
    for c in sorted(cg.connection_arcs):
        rows.signed(f"conn.{c}", cg.connection_arcs[c])

    def net(outs, ins) -> dict[str, float]:
        """-count per pull-out, +count per pull-in; an arc may do both."""
        coeffs: dict[str, float] = {}
        for aid, count in [(aid, -count) for aid, count in outs] + list(ins):
            coeffs[aid] = coeffs.get(aid, 0.0) + float(count)
        return coeffs

    # depot availability: start - out(<=t) + in(<=t) >= 0
    for cut in cg.cuts:
        rows.nonzero(f"cut.{cut.station}.{cut.unit_type}.{cut.time}",
                     net(cut.outs, cut.ins), ">=", -float(cut.start))

    # soft end inventory: start - out_all + in_all - surplus + deficit = target
    for e in cg.end_inventories:
        coeffs = net(e.outs, e.ins)
        coeffs[f"dev.{e.station}.{e.unit_type}.surplus"] = -1.0
        coeffs[f"dev.{e.station}.{e.unit_type}.deficit"] = 1.0
        rows.nonzero(f"end.{e.station}.{e.unit_type}", coeffs, "=",
                     float(e.target - e.start))

    return _model(f"{cg.instance.name}-C", rows, cost, upper, kinds)


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def _texts(values: np.ndarray, fmt=_FMT.__mod__) -> list[str]:
    """``fmt`` of each value, once per distinct bit pattern: 0.0 and -0.0
    are equal floats but two texts."""
    bits = values.view(np.int64).tolist()
    text = {b: fmt(x) for b, x in dict(zip(bits, values.tolist())).items()}
    return list(map(text.__getitem__, bits))


def write_lp(model: MilpModel) -> str:
    """Render the model in CPLEX LP text format."""
    ids = np.array(model.var_ids, dtype=object)
    anchor = model.var_ids[0] if model.var_ids else "zero"  # the one term of an empty row
    priced = np.flatnonzero(model.cost)
    obj = " + ".join(map(" ".join, zip(_texts(model.cost[priced]), ids[priced].tolist())))
    terms = list(map(" ".join, zip(_texts(model.vals), ids[model.cols].tolist())))
    p = model.indptr.tolist()
    out = [_HEADER + model.name, "Minimize", " obj: " + (obj or "0 " + anchor), "Subject To"]
    out += [f" {rid}: {' + '.join(terms[a:b]) if a < b else '0 ' + anchor} {sense} {rhs}"
            for rid, a, b, sense, rhs in zip(model.row_ids, p, p[1:], model.senses,
                                             _texts(model.rhs))]
    out.append("Bounds")
    out += [f" {lo} <= {vid}{up}" for lo, vid, up in zip(
        _texts(model.lower), model.var_ids,
        _texts(model.upper, lambda u: "" if u == INF else " <= " + _FMT % u))]
    if model.integer.any():
        out.append("Generals\n " + "\n ".join(ids[model.integer].tolist()))
    return "\n".join(out) + "\nEnd\n"


def export_lp_file(model: MilpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_lp(model))


_TERMS = r"(\S+ \S+(?: \+ \S+ \S+)*)"
_SHAPES = {  # the one line shape of each section, each line read whole
    "Minimize": re.compile(rf"^ obj: {_TERMS}$", re.M),
    "Subject To": re.compile(rf"^ (\S+): {_TERMS} (=|<=|>=) (\S+)$", re.M),
    "Bounds": re.compile(r"^ (\S+) <= (\S+)(?: <= (\S+))?$", re.M),
    "Generals": re.compile(r"^ (\S+)$", re.M),
}
_NEXT = {"": ("Minimize",), "Minimize": ("Subject To",), "Subject To": ("Bounds",),
         "Bounds": ("Generals", "End"), "Generals": ("End",), "End": ()}


def _read(lines: list[str]) -> tuple:
    """The fields of LP text lines, each section read in bulk; ValueError
    if a line breaks the format. Each check looks at one line and the lines
    before it, so a prefix of the text fails just when one of its lines is
    bad. Whether the text is complete, and whether each term's variable is
    declared, is for :func:`parse_lp` to judge."""
    if lines and not lines[0].startswith(_HEADER):
        raise ValueError(lines[0])
    body, section, start = {}, "", 1
    while True:  # a section runs to the first line naming a section that may follow
        stop = min([lines.index(s, start) for s in _NEXT[section] if s in lines[start:]],
                   default=len(lines))
        body[section] = lines[start:stop]
        if stop == len(lines):
            break
        section, start = lines[stop], stop + 1
    if body[""] or body.get("End") or len(body.get("Minimize", ())) > 1:
        raise ValueError(section)
    obj, rows, bounds, generals = (_SHAPES[s].findall("\n".join(body.get(s, ())))
                                   for s in _SHAPES)
    if [len(obj), len(rows), len(bounds), len(generals)] != \
            [len(body.get(s, ())) for s in _SHAPES]:
        raise ValueError("a line of the wrong shape")
    rids, bodies, senses, rhs = zip(*rows) if rows else ((),) * 4
    bodies = obj + list(bodies)  # the objective is term row 0
    tokens = " + ".join(bodies).split(" ") if bodies else []  # value id + value id ...
    lows, bids, ups = zip(*bounds) if bounds else ((),) * 3
    declared, integer = set(bids), set(generals)
    if "+" in tokens[1::3] or len(declared) < len(bids) or len(integer) < len(generals) \
            or not integer <= declared:
        raise ValueError("an id +, a variable declared twice, or integer and not declared")
    return (section == "End" and len(obj) == 1, _floats(tokens[0::3]), tokens[1::3],
            [(b.count(" ") + 2) // 3 for b in bodies], rids, senses, _floats(rhs), bids,
            _floats(lows), _floats(ups), generals)


def _floats(texts) -> np.ndarray:
    """``float`` of each text, each distinct text read once; "" is inf."""
    value = {t: float(t or INF) for t in set(texts)}
    return np.fromiter(map(value.__getitem__, texts), float, len(texts))


def parse_lp(text: str) -> MilpModel:
    """Read back the LP text that :func:`write_lp` writes, and nothing else:
    the header comment, then ``Minimize`` with one `` obj:`` line, ``Subject
    To`` with `` <id>: <terms> <sense> <rhs>`` rows, ``Bounds`` with
    `` <lo> <= <id>`` or `` <lo> <= <id> <= <up>``, an optional ``Generals``
    with one id a line, and ``End``. Variables come in ``Bounds`` order, the
    model's order. Row terms are kept as written but for a 0 coefficient,
    and a variable repeated in the objective sums. A term naming ``+`` is
    refused, and so is a nonzero term of a variable that ``Bounds`` does not
    declare. Any other line raises :class:`MalformedInstance`."""
    lines = text.splitlines() or [""]

    def bad(k: int) -> MalformedInstance:
        return MalformedInstance(f"LP line {k}: {lines[k - 1]!r}")

    try:
        (complete, values, names, counts, rids, senses, rhs, bids, lower, upper,
         generals) = _read(lines)
    except ValueError:
        lo, hi = 0, len(lines)  # bisect: lines[:lo] read, lines[:hi] do not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _read(lines[:mid])
                lo = mid
            except ValueError:
                hi = mid
        raise bad(hi) from None
    if not complete:
        raise MalformedInstance("LP text lacks its obj line or its End")
    rows, n = _Rows(list(bids)), len(bids)
    row = np.repeat(np.arange(len(counts)), counts)
    cols = np.fromiter(map(rows.index.get, names, repeat(-1)), np.intp, len(names))
    keep = values != 0
    row, cols, vals = row[keep], cols[keep], values[keep]
    if (cols < 0).any():  # a term names a variable that Bounds does not declare
        r = int(row[np.argmax(cols < 0)])
        raise bad(3 if r == 0 else 4 + r)  # obj is line 3, row r line 4 + r
    ptr = np.searchsorted(row, np.arange(len(counts) + 1))  # row r's terms from ptr[r]
    cost, integer = np.zeros(n), np.zeros(n, dtype=bool)
    np.add.at(cost, cols[:ptr[1]], vals[:ptr[1]])  # an id repeated in obj sums in order
    integer[np.fromiter(map(rows.index.__getitem__, generals), np.intp, len(generals))] = True
    rows.ids, rows.senses, rows.rhs = rids, senses, rhs
    rows.indptr, rows.cols, rows.vals = ptr[1:] - ptr[1], cols[ptr[1]:], vals[ptr[1]:]
    return MilpModel.__new__(MilpModel)._set(lines[0][len(_HEADER):], cost, lower, upper,
                                             integer, rows, {})


def parse_lp_file(path) -> MilpModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lp(fh.read())


def models_equal(a: MilpModel, b: MilpModel) -> bool:
    """Coefficient-level equality of the arrays, ignoring names, metadata and
    the order of variables, rows and each row's terms."""
    def arrays(m: MilpModel) -> list[np.ndarray]:
        ids, rids = np.array(m.var_ids, dtype=str), np.array(m.row_ids, dtype=str)
        vo, ro = np.argsort(ids, kind="stable"), np.argsort(rids, kind="stable")
        row = np.argsort(ro)[np.repeat(np.arange(len(ro)), np.diff(m.indptr))]
        col = np.argsort(vo)[m.cols]  # terms by row, then variable id, then value
        to = np.lexsort((m.vals, col, row))
        return [ids[vo], m.cost[vo], m.lower[vo], m.upper[vo], m.integer[vo], rids[ro],
                np.array(m.senses, dtype=str)[ro], m.rhs[ro], row[to], col[to], m.vals[to]]
    return all(x.shape == y.shape and np.array_equal(x, y)
               for x, y in zip(arrays(a), arrays(b)))

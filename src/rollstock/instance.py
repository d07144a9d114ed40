"""Problem instances: train unit types, compositions, trips, connections, depots.

An :class:`Instance` is the immutable world a scheduling model is built from.
Times are integer minutes from the start of a non-cyclic planning horizon.
Stations are plain string ids; a depot is the per-(station, unit type) parking
timeline used for coupling and uncoupling moves.

The module also computes the closure of direct connection arcs (every time-
and station-feasible shortcut past a depot, from a trip's arrival to a later
departure at the same station; the start and end inventories are reached by
each depot's own pull arcs) and ships a catalog of small hand-built
instances used throughout the test suite.

The JSON form is stated once, in ``JSON_FIELDS``: for each object the
dataclass it reads into and the JSON type of each field. Counts and times
are integers: JSON Schema's integer, a number with no fraction, read as an
``int``. One walk over that table reads a document and names the path of its
first fault (a non-object, an unknown key, a missing required key, or a
value or list element of the wrong JSON type, such as ``1.5`` for an
inventory); ``to_dict`` writes the same fields back.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

from .errors import MalformedInstance, NotFound, UnknownDepot
from .ledger import IN, OUT, place

_ID_RE = re.compile(r"[A-Za-z0-9_]+")
_UNIT_ID_RE = re.compile(r"[A-Za-z0-9]+")


@dataclass(frozen=True)
class UnitType:
    """A self-propelled train unit type."""

    id: str
    length_units: int   # carriage count, drives mileage cost
    seats: int

    def __post_init__(self):
        if self.length_units <= 0:
            raise ValueError(f"unit type {self.id}: length_units must be positive")
        if self.seats < 0:
            raise ValueError(f"unit type {self.id}: seats must be nonnegative")


@dataclass(frozen=True)
class Composition:
    """An ordered sequence of unit types; position 1 is the front."""

    id: str
    units: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise ValueError(f"composition {self.id}: needs at least one unit")

    def __len__(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class Trip:
    """A timetabled movement with fixed stations, times and demand."""

    id: str
    dep_station: str
    arr_station: str
    dep_time: int
    arr_time: int
    distance_km: float
    demand_seats: int
    allowed_compositions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "allowed_compositions", tuple(self.allowed_compositions))


@dataclass(frozen=True)
class Connection:
    """A prescribed succession of trips: 1-to-1, 1-to-2 (split) or 2-to-1 (join).

    ``allowed_changes`` optionally restricts the composition transitions of
    this connection to an explicit list; each entry names the predecessor
    composition(s) followed by the successor composition(s), e.g.
    ``("rr", "r")`` for a 1-to-1 connection or ``("rb", "r", "b")`` for a
    split. When None, every transition reachable by the instance's
    single-side shunting rules is allowed; an empty tuple allows none.
    """

    id: str
    kind: str  # OneToOne | OneToTwo | TwoToOne
    predecessors: tuple[str, ...]
    successors: tuple[str, ...]
    allowed_changes: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "predecessors", tuple(self.predecessors))
        object.__setattr__(self, "successors", tuple(self.successors))
        if self.allowed_changes is not None:
            object.__setattr__(
                self, "allowed_changes", tuple(tuple(e) for e in self.allowed_changes)
            )


@dataclass(frozen=True)
class Depot:
    """Per-(station, unit type) inventory and parking timeline."""

    station: str
    unit_type: str
    start_inventory: int = 0
    target_end_inventory: int = 0


@dataclass(frozen=True)
class CostParams:
    """Objective rates: per carriage-km, per missing seat, per shunt action,
    per unit of ending-inventory deviation."""

    mileage_per_carriage_km: float = 0.1
    seat_shortage_per_seat: float = 0.2
    shunting_per_action: float = 10.0
    ending_deviation_per_unit: float = 10000.0


@dataclass(frozen=True)
class ShuntConfig:
    """Which composition end blocks are uncoupled from / coupled to."""

    uncouple_side: str = "rear"  # rear | front
    couple_side: str = "rear"


@dataclass(frozen=True)
class DirectArcSpec:
    """A depot shortcut: a unit of ``unit_type`` uncoupled after trip
    ``source`` may next be coupled onto trip ``target`` at the same station.

    The shortcut stands for the depot path pull-in -> parking -> pull-out it
    replaces; ``station``, ``pull_in_time`` and ``pull_out_time`` describe
    that path. Moves to and from the start and end inventories are not
    shortcuts: every variant builds them as pull arcs of the depot.
    """

    unit_type: str
    source: str   # trip id
    target: str   # trip id
    station: str
    pull_in_time: int
    pull_out_time: int

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.unit_type, self.source, self.target)


@dataclass(frozen=True)
class Violation:
    """One failed invariant; data, not an exception."""

    code: str
    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.entity}): {self.message}"


@dataclass(frozen=True)
class Instance:
    """A full NS-setting problem instance. Immutable; safe to share."""

    name: str
    unit_types: tuple[UnitType, ...]
    compositions: tuple[Composition, ...]
    trips: tuple[Trip, ...]
    connections: tuple[Connection, ...]
    depots: tuple[Depot, ...]
    costs: CostParams = field(default_factory=CostParams)
    direct_arcs: tuple[tuple[str, str, str], ...] | None = None  # (unit_type, source, target)
    n_max: int = 5
    shunting: ShuntConfig = field(default_factory=ShuntConfig)

    # -- indexed access -----------------------------------------------------

    def __post_init__(self):
        object.__setattr__(self, "unit_types", tuple(self.unit_types))
        object.__setattr__(self, "compositions", tuple(self.compositions))
        object.__setattr__(self, "trips", tuple(self.trips))
        object.__setattr__(self, "connections", tuple(self.connections))
        object.__setattr__(self, "depots", tuple(self.depots))
        if self.direct_arcs is not None:
            object.__setattr__(self, "direct_arcs", tuple(tuple(a) for a in self.direct_arcs))

    @cached_property
    def unit_type_by_id(self) -> dict[str, UnitType]:
        return {u.id: u for u in self.unit_types}

    @cached_property
    def composition_by_id(self) -> dict[str, Composition]:
        return {p.id: p for p in self.compositions}

    @cached_property
    def trip_by_id(self) -> dict[str, Trip]:
        return {t.id: t for t in self.trips}

    @cached_property
    def connection_by_id(self) -> dict[str, Connection]:
        return {c.id: c for c in self.connections}

    @cached_property
    def stations(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for t in self.trips:
            seen.setdefault(t.dep_station)
            seen.setdefault(t.arr_station)
        for d in self.depots:
            seen.setdefault(d.station)
        return tuple(seen)

    @cached_property
    def _connections_of(self) -> tuple[dict[str, Connection], dict[str, Connection]]:
        """(connection entered by each trip, connection left by each trip)."""
        entered: dict[str, Connection] = {}
        left: dict[str, Connection] = {}
        for c in self.connections:
            for t in c.successors:
                entered.setdefault(t, c)
            for t in c.predecessors:
                left.setdefault(t, c)
        return entered, left

    def all_depots(self) -> list[Depot]:
        """One depot per (station, unit type), implicit ones included."""
        declared = {(d.station, d.unit_type): d for d in self.depots}
        out = []
        for s in self.stations:
            for u in self.unit_types:
                out.append(declared.get((s, u.id), Depot(station=s, unit_type=u.id)))
        return out

    def predecessor_connection(self, trip_id: str) -> Connection | None:
        return self._connections_of[0].get(trip_id)

    def successor_connection(self, trip_id: str) -> Connection | None:
        return self._connections_of[1].get(trip_id)

    def seats(self, comp: Composition) -> int:
        types = self.unit_type_by_id
        return sum(types[u].seats for u in comp.units)

    def carriages(self, comp: Composition) -> int:
        types = self.unit_type_by_id
        return sum(types[u].length_units for u in comp.units)

    def trip_cost(self, trip: Trip, comp: Composition) -> float:
        """Mileage plus seat-shortage cost of running ``trip`` with ``comp``."""
        mileage = self.costs.mileage_per_carriage_km * self.carriages(comp) * trip.distance_km
        shortage = self.costs.seat_shortage_per_seat * max(0, trip.demand_seats - self.seats(comp))
        return mileage + shortage

    def with_direct_arcs(self, arcs) -> Instance:
        return replace(self, direct_arcs=tuple(arcs))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(instance: Instance) -> list[Violation]:
    """Check all type invariants and the NS-setting axioms.

    Returns an empty list iff the instance is valid. Each violation names
    the broken rule and the offending entity; validation never raises.
    """
    out: list[Violation] = []
    add = out.append

    uids = [u.id for u in instance.unit_types]
    pids = [p.id for p in instance.compositions]
    tids = [t.id for t in instance.trips]
    cids = [c.id for c in instance.connections]
    # a small trip arc's id joins unit type ids with "_", so they have none
    for name, ids, pattern in (("unit_type", uids, _UNIT_ID_RE), ("composition", pids, _ID_RE),
                               ("trip", tids, _ID_RE), ("connection", cids, _ID_RE),
                               ("station", instance.stations, _ID_RE)):
        seen = set()
        for i in ids:
            if i in seen:
                add(Violation("DuplicateId", i, f"duplicate {name} id"))
            seen.add(i)
            if not pattern.fullmatch(i):
                add(Violation("BadId", i, f"{name} ids must match {pattern.pattern}"))

    types = set(uids)
    comps = instance.composition_by_id
    trips = instance.trip_by_id

    for p in instance.compositions:
        for u in p.units:
            if u not in types:
                add(Violation("UnknownReference", p.id, f"unknown unit type {u}"))
        if len(p) > instance.n_max:
            add(Violation("BadComposition", p.id,
                          f"{len(p)} units exceeds n_max={instance.n_max}"))

    for t in instance.trips:
        if t.dep_time >= t.arr_time:
            add(Violation("TimeOrderViolation", t.id, "departure must precede arrival"))
        if t.distance_km < 0 or t.demand_seats < 0:
            add(Violation("NegativeValue", t.id, "distance and demand must be nonnegative"))
        if not t.allowed_compositions:
            add(Violation("BadComposition", t.id, "empty allowed composition set"))
        for p in t.allowed_compositions:
            if p not in comps:
                add(Violation("UnknownReference", t.id, f"unknown composition {p}"))
        if len(set(t.allowed_compositions)) < len(t.allowed_compositions):
            add(Violation("DuplicateId", t.id, "allowed composition listed twice"))

    # NS axiom iv: splits and joins are disjoint; every trip is the
    # predecessor of at most one connection and the successor of at most one.
    pred_count: dict[str, int] = {}
    succ_count: dict[str, int] = {}
    for c in instance.connections:
        want = {"OneToOne": (1, 1), "OneToTwo": (1, 2), "TwoToOne": (2, 1)}.get(c.kind)
        if want is None:
            add(Violation("BadConnection", c.id, f"unknown kind {c.kind}"))
            continue
        if (len(c.predecessors), len(c.successors)) != want:
            add(Violation("BadConnection", c.id,
                          f"kind {c.kind} needs {want[0]} predecessor(s), {want[1]} successor(s)"))
            continue
        missing = [t for t in (*c.predecessors, *c.successors) if t not in trips]
        if missing:
            add(Violation("UnknownReference", c.id, f"unknown trips {missing}"))
            continue
        for t in c.predecessors:
            pred_count[t] = pred_count.get(t, 0) + 1
        for t in c.successors:
            succ_count[t] = succ_count.get(t, 0) + 1
        station = trips[c.predecessors[0]].arr_station
        for t in c.predecessors:
            if trips[t].arr_station != station:
                add(Violation("StationMismatch", c.id, f"predecessor {t} arrives elsewhere"))
        for t in c.successors:
            if trips[t].dep_station != station:
                add(Violation("StationMismatch", c.id, f"successor {t} departs elsewhere"))
        for tp in c.predecessors:
            for ts in c.successors:
                if trips[tp].arr_time > trips[ts].dep_time:
                    add(Violation("TimeOrderViolation", c.id,
                                  f"{tp} arrives after {ts} departs"))
        if c.allowed_changes is not None:
            arity = 1 + len(c.successors) if c.kind != "TwoToOne" else 3
            for entry in c.allowed_changes:
                if len(entry) != arity or any(p not in comps for p in entry):
                    add(Violation("BadConnection", c.id, f"bad allowed_changes entry {entry}"))

    for t, n in pred_count.items():
        if n > 1:
            add(Violation("JoinOfSplitViolation", t,
                          f"trip is predecessor of {n} connections"))
    for t, n in succ_count.items():
        if n > 1:
            add(Violation("JoinOfSplitViolation", t,
                          f"trip is successor of {n} connections"))

    seen_depots = set()
    for d in instance.depots:
        if (d.station, d.unit_type) in seen_depots:
            add(Violation("DuplicateId", f"{d.station}/{d.unit_type}", "duplicate depot"))
        seen_depots.add((d.station, d.unit_type))
        if d.unit_type not in types:
            add(Violation("UnknownReference", d.station, f"unknown unit type {d.unit_type}"))
        if d.start_inventory < 0 or d.target_end_inventory < 0:
            add(Violation("NegativeValue", f"{d.station}/{d.unit_type}",
                          "inventories must be nonnegative"))

    c = instance.costs
    if min(c.mileage_per_carriage_km, c.seat_shortage_per_seat,
           c.shunting_per_action, c.ending_deviation_per_unit) < 0:
        add(Violation("NegativeValue", "costs", "cost rates must be nonnegative"))
    if instance.shunting.uncouple_side not in ("rear", "front") or \
            instance.shunting.couple_side not in ("rear", "front"):
        add(Violation("BadConfig", "shunt", "sides must be 'rear' or 'front'"))

    if instance.direct_arcs is not None and not out:
        closure = {a.key for a in closure_arcs(instance, "closure")}
        for entry in instance.direct_arcs:
            if tuple(entry) not in closure:
                add(Violation("BadDirectArc", str(entry),
                              "declared direct arc is not in the feasible closure"))

    return out


# ---------------------------------------------------------------------------
# direct-arc closure
# ---------------------------------------------------------------------------

def _pull_events(instance: Instance, direction: str) -> list[tuple[str, str, str, int]]:
    """(station, unit_type, trip, time) of every possible depot move in one
    direction: any unit of an arriving trip may be uncoupled into the local
    depot (``IN``), any departing position may be fed from it (``OUT``)."""
    comps = instance.composition_by_id
    out = []
    for t in instance.trips:
        units = sorted({u for p in t.allowed_compositions if p in comps
                        for u in comps[p].units})
        station, time = place(t, direction)
        out.extend((station, u, t.id, time) for u in units)
    return out


def closure_arcs(instance: Instance, mode: str = "closure") -> list[DirectArcSpec]:
    """Direct connection arcs of the instance: trip-to-trip shortcuts past a
    depot.

    ``closure`` enumerates every time- and station-feasible shortcut;
    ``declared`` keeps those that the instance declares, and raises
    :class:`UnknownDepot` naming a declared arc outside the closure.
    """
    if mode not in ("declared", "closure"):
        raise ValueError(f"unknown mode {mode}")
    outs = _pull_events(instance, OUT)
    arcs = [DirectArcSpec(u_i, t_i, t_o, st_i, tau_i, tau_o)
            for (st_i, u_i, t_i, tau_i) in _pull_events(instance, IN)
            for (st_o, u_o, t_o, tau_o) in outs
            if st_i == st_o and u_i == u_o and tau_i <= tau_o]
    if mode == "declared":
        declared = {tuple(a) for a in instance.direct_arcs or ()}
        if outside := declared - {a.key for a in arcs}:
            raise UnknownDepot("direct arc ({}, {}, {}) is not in the closure"
                               .format(*min(outside)))
        arcs = [a for a in arcs if a.key in declared]
    arcs.sort(key=lambda a: (a.station, a.unit_type, a.pull_in_time, a.pull_out_time,
                             a.source, a.target))
    return arcs


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# The JSON form: for each object, the dataclass it reads into and the JSON
# type of each field, in reading order. A field holding an object names its
# dataclass, one holding a list ``[the kind of its elements]``.
_INTEGER, _NUMBER, _STRING, _LIST = "an integer", "a number", "a string", "a list"
_PYTHON = {_INTEGER: (int,), _NUMBER: (int, float), _STRING: (str,),
           _LIST: (list,)}  # no bool
_IDS = [_STRING]
JSON_FIELDS: dict[type, dict[str, object]] = {
    Instance: {"name": _STRING, "unit_types": [UnitType], "compositions": [Composition],
               "trips": [Trip], "connections": [Connection], "depots": [Depot],
               "costs": CostParams, "direct_arcs": [_IDS], "n_max": _INTEGER,
               "shunting": ShuntConfig},
    UnitType: {"id": _STRING, "length_units": _INTEGER, "seats": _INTEGER},
    Composition: {"id": _STRING, "units": _IDS},
    Trip: {"id": _STRING, "dep_station": _STRING, "arr_station": _STRING,
           "dep_time": _INTEGER, "arr_time": _INTEGER, "distance_km": _NUMBER,
           "demand_seats": _INTEGER, "allowed_compositions": _IDS},
    Connection: {"id": _STRING, "kind": _STRING, "predecessors": _IDS,
                 "successors": _IDS, "allowed_changes": [_IDS]},
    Depot: {"station": _STRING, "unit_type": _STRING,
            "start_inventory": _INTEGER, "target_end_inventory": _INTEGER},
    CostParams: dict.fromkeys(CostParams.__dataclass_fields__, _NUMBER),
    ShuntConfig: dict.fromkeys(ShuntConfig.__dataclass_fields__, _STRING),
}

# what an absent key reads as: its dataclass default (null is allowed where
# that is None), and "unnamed" for an instance; every other key is required
JSON_DEFAULTS: dict[type, dict[str, object]] = {
    cls: {f.name: f.default_factory() if f.default is MISSING else f.default
          for f in fields(cls) if (f.default, f.default_factory) != (MISSING, MISSING)}
    for cls in JSON_FIELDS
}
JSON_DEFAULTS[Instance]["name"] = "unnamed"


def _read(kind, value, at: str, nullable: bool = False):
    """``value`` at path ``at`` ("" for the document) read as ``kind``: a
    dataclass from a JSON object, a tuple from a list, a JSON number or
    string as it is, an integer as an ``int``, null only where
    ``nullable``. Raises :class:`MalformedInstance` naming the path of the
    first fault: a non-object, then an unknown key, then in field order a
    missing required key or a value or list element of the wrong JSON type."""
    if type(kind) is type:
        if type(value) is not dict:
            raise MalformedInstance(f"malformed instance: {at or 'instance'} must be an "
                                    f"object, got {value!r}")
        table, defaults = JSON_FIELDS[kind], JSON_DEFAULTS[kind]
        prefix = f"{at}." if at else ""
        if not value.keys() <= table.keys():
            unknown = next(key for key in value if key not in table)
            raise MalformedInstance(f"malformed instance: unknown key {prefix + unknown!r}")
        values = dict(defaults)
        for key, field_kind in table.items():
            if key not in value:
                if key not in defaults:
                    raise MalformedInstance(f"instance lacks required key {prefix + key!r}")
            elif type(field_kind) is str and type(value[key]) in _PYTHON[field_kind]:
                values[key] = value[key]  # the common case, without a call
            else:
                values[key] = _read(field_kind, value[key], prefix + key,
                                    defaults.get(key, MISSING) is None)
        return kind(**values)
    json_type = _LIST if type(kind) is list else kind
    if type(value) in _PYTHON[json_type]:
        if json_type is kind:
            return value
        if type(kind[0]) is str and all(type(e) in _PYTHON[kind[0]] for e in value):
            return tuple(value)  # scalars, each path built only on a fault
        return tuple(_read(kind[0], e, f"{at}[{k}]") for k, e in enumerate(value))
    if kind is _INTEGER and type(value) is float and value.is_integer():
        return int(value)  # JSON Schema's integer: a number with no fraction
    if not (nullable and value is None):
        raise MalformedInstance(f"malformed instance: {at} must be {json_type}"
                                f"{' or null' if nullable else ''}, got {value!r}")
    return None


def from_dict(d) -> Instance:
    """Instance from its JSON form; raises :class:`MalformedInstance` on the
    first fault in reading order, named by its path, or on a value of the
    wrong shape."""
    try:
        return _read(Instance, d, "")
    except (TypeError, ValueError) as e:
        raise MalformedInstance(f"malformed instance: {e}") from None


def to_dict(obj) -> dict:
    """The JSON form of an instance or of one of its objects: each field of
    ``JSON_FIELDS`` that is not None, with lists for tuples."""
    out = {}
    for key, kind in JSON_FIELDS[type(obj)].items():
        value = getattr(obj, key)
        if value is None:
            continue
        if type(kind) is type:
            value = to_dict(value)
        elif type(kind) is list:
            value = [to_dict(e) if type(kind[0]) is type else
                     list(e) if type(e) is tuple else e for e in value]
        out[key] = value
    return out


def dumps(instance: Instance) -> str:
    return json.dumps(to_dict(instance), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInstance(f"invalid JSON at line {e.lineno} column {e.colno}: "
                                f"{e.msg}") from None
    return from_dict(data)


def save(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance))


def load(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# canonical catalog
# ---------------------------------------------------------------------------

def _two_trip() -> Instance:
    """Two trips over one connection; red double uncouples to a red single."""
    return Instance(
        name="TwoTrip",
        unit_types=(UnitType("r", 2, 100), UnitType("b", 3, 150)),
        compositions=(Composition("b1", ("b",)), Composition("r1", ("r",)),
                      Composition("rr", ("r", "r"))),
        trips=(
            Trip("t1", "A", "B", 480, 540, 50.0, 160, ("b1", "r1", "rr")),
            Trip("t2", "B", "A", 600, 660, 50.0, 60, ("b1", "r1", "rr")),
        ),
        connections=(Connection("c1", "OneToOne", ("t1",), ("t2",)),),
        depots=(
            Depot("A", "r", 2, 1), Depot("A", "b", 1, 1),
            Depot("B", "r", 0, 1), Depot("B", "b", 0, 0),
        ),
        n_max=2,
    )


def _situation1() -> Instance:
    """Pure red double whose only legal continuations are pure red, while the
    small models can still assemble a mixed composition from the depot."""
    return Instance(
        name="Situation1",
        unit_types=(UnitType("r", 2, 100), UnitType("b", 1, 200)),
        compositions=(Composition("r1", ("r",)), Composition("rr", ("r", "r")),
                      Composition("rb", ("r", "b"))),
        trips=(
            Trip("t1", "A", "B", 480, 540, 10.0, 0, ("rr",)),
            Trip("t2", "B", "A", 600, 660, 100.0, 380, ("rr", "r1", "rb")),
        ),
        connections=(Connection("c1", "OneToOne", ("t1",), ("t2",)),),
        depots=(Depot("A", "r", 2, 0), Depot("B", "b", 1, 1)),
        costs=CostParams(ending_deviation_per_unit=0.0),
        n_max=2,
        shunting=ShuntConfig(uncouple_side="rear", couple_side="front"),
    )


def _situation2() -> Instance:
    """Pure doubles must turn mixed; the small models dodge the coupling cost
    with a half/half fractional hyperflow, the full models cannot."""
    placed = ("rr", "bb", "rb", "br")
    return Instance(
        name="Situation2",
        unit_types=(UnitType("r", 2, 100), UnitType("b", 2, 100)),
        compositions=(Composition("rr", ("r", "r")), Composition("bb", ("b", "b")),
                      Composition("rb", ("r", "b")), Composition("br", ("b", "r"))),
        trips=(
            Trip("t0", "A", "B", 480, 540, 10.0, 0, ("rr", "bb")),
            Trip("t1", "B", "A", 600, 660, 10.0, 0, placed),
            Trip("t2", "A", "B", 720, 780, 10.0, 0, ("rb", "br")),
        ),
        connections=(
            Connection("c0", "OneToOne", ("t0",), ("t1",)),
            Connection("c1", "OneToOne", ("t1",), ("t2",)),
        ),
        depots=(
            Depot("A", "r", 2, 1), Depot("A", "b", 2, 1),
            Depot("B", "r", 0, 1), Depot("B", "b", 0, 1),
        ),
        n_max=2,
    )


def _flow_constraint_gap() -> Instance:
    """Mixed composition that may not turn around: dropping the connection
    constraints lets the hypergraph models rebuild it through the depot."""
    return Instance(
        name="FlowConstraintGap",
        unit_types=(UnitType("r", 2, 100), UnitType("b", 1, 60)),
        compositions=(Composition("rb", ("r", "b")), Composition("br", ("b", "r")),
                      Composition("rr", ("r", "r")), Composition("r1", ("r",))),
        trips=(
            Trip("t1", "A", "B", 480, 540, 20.0, 0, ("rb",)),
            Trip("t2", "B", "A", 600, 660, 20.0, 0, ("br", "rr")),
        ),
        connections=(Connection("c1", "OneToOne", ("t1",), ("t2",)),),
        depots=(Depot("A", "r", 1, 0), Depot("A", "b", 1, 0),
                Depot("B", "r", 1, 0)),
        costs=CostParams(ending_deviation_per_unit=0.0),
        n_max=2,
    )


_CATALOG = {"TwoTrip": _two_trip, "Situation1": _situation1, "Situation2": _situation2,
            "FlowConstraintGap": _flow_constraint_gap}
CANONICAL_NAMES = tuple(_CATALOG)  # the built-in instances, known without building them


def canonical_instances() -> dict[str, Instance]:
    """Named catalog of built-in instances."""
    return {name: make() for name, make in _CATALOG.items()}


def canonical(name: str) -> Instance:
    if name not in _CATALOG:
        raise NotFound(f"no canonical instance named {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[name]()

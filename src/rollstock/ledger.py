"""Depot ledger: the depot moves a selection implies, and whether they fit.

The models guard depot inventories differently: HD with a running level on
the depot timeline, HA/HAbar by matching units over direct arcs, C with
cumulative cut rows. All of them accept the same selections of trips and
composition changes, because all of them rest on the moves decided here:

* a unit pulled in after trip t moves at (t.arr_station, t.arr_time);
* a unit pulled out for trip t moves at (t.dep_station, t.dep_time);
* a trip with no predecessor connection draws its whole composition from
  the depot at departure, one with no successor returns it at arrival;
* at equal times ins count before outs.

A selection names pulled positions ``(trip, position, unit_type)``; a
:class:`Ledger` files their moves per (station, unit type) as events
``(time, direction, key, count)``. The oracle and the projection check test
a selection with :meth:`Ledger.prefix_ok` (depot variants) or
:meth:`Ledger.matching_ok` (direct-arc variants); the composition model's
cut rows and the completion of an HA or C flow to HD are sweeps over the
same events.

Every ground truth asks which choice of an option per trip and per
connection a model accepts. :func:`walk` enumerates those choices once for
the oracle, the projection check and the small-variant replay.
"""

from __future__ import annotations

IN, OUT = "in", "out"


def place(trip, direction: str) -> tuple[str, int]:
    """(station, time) at which a unit of ``trip`` moves in or out."""
    if direction == IN:
        return trip.arr_station, trip.arr_time
    return trip.dep_station, trip.dep_time


def staging(instance, trip_id: str, units) -> tuple[list, list]:
    """(pulled_in, pulled_out) positions of a last or first trip."""
    positions = [(trip_id, n, r) for n, r in enumerate(units, 1)]
    return (positions if instance.successor_connection(trip_id) is None else [],
            positions if instance.predecessor_connection(trip_id) is None else [])


def through_depot(conn, units_of) -> tuple[list, list]:
    """(pulled_in, pulled_out) of a connection that uses no change: every
    predecessor unit goes into the depot, every successor unit comes out."""
    def positions(trips):
        return [(t, n, r) for t in trips for n, r in enumerate(units_of[t], 1)]
    return positions(conn.predecessors), positions(conn.successors)


def arc_pulls(instance, tags) -> tuple:
    """(pulled_in, pulled_out) of a selected trip or change (hyper)arc."""
    if "trip" in tags:
        return staging(instance, tags["trip"], tags["seq"])
    return tags.get("uncoupled", ()), tags.get("coupled", ())


def walk(instance, trip_options: dict, conn_options, cost=None, bound=None):
    """Every choice of one option per trip whose connections all have an
    option, depth first over the trips in timetable order and each trip's
    options in the order given.

    ``conn_options(conn, chosen)`` lists a connection's options once its
    last trip is chosen; a branch where it lists none is cut, and so is one
    whose summed ``cost(trip, option)`` reaches ``bound()``. Yields
    ``(chosen, options, trip_cost)``: the option per trip id and the option
    list per connection id, live dicts that the next step changes.
    """
    order = sorted(instance.trips, key=lambda t: (t.dep_time, t.id))
    pos = {t.id: i for i, t in enumerate(order)}
    due: list[list] = [[] for _ in order]
    for conn in instance.connections:
        due[max(pos[t] for t in (*conn.predecessors, *conn.successors))].append(conn)
    chosen: dict = {}
    options: dict = {}

    def descend(i: int, partial: float):
        if bound is not None and partial >= bound():
            return
        if i == len(order):
            yield chosen, options, partial
            return
        t = order[i]
        for opt in trip_options[t.id]:
            chosen[t.id] = opt
            for conn in due[i]:
                options[conn.id] = conn_options(conn, chosen)
                if not options[conn.id]:
                    break
            else:
                yield from descend(i + 1, partial + (cost(t, opt) if cost else 0.0))

    yield from descend(0, 0.0)


def levels(start, events):
    """(time, inventory) after each event, in time order with ins first."""
    level = start
    for time, direction, _key, count in sorted(events,
                                               key=lambda e: (e[0], e[1] == OUT)):
        level += count if direction == IN else -count
        yield time, level


def _match_units(supply: list, demand: list, init: int, allowed) -> bool:
    """Bipartite check: can every demand be served by the start inventory or
    an allowed supply? Entries are ``(time, key)`` pairs."""
    match: dict[int, int] = {}

    def augment(d: int, seen: set[int]) -> bool:
        for s in range(len(supply)):
            if s in seen or not allowed(supply[s], demand[d]):
                continue
            seen.add(s)
            if s not in match or augment(match[s], seen):
                match[s] = d
                return True
        return False

    order = sorted(range(len(demand)), key=lambda i: demand[i][0])
    unmatched = sum(1 for d in order if not augment(d, set()))
    return unmatched <= init


class Ledger:
    """Depot events of one selection, per (station, unit type)."""

    def __init__(self, instance):
        self.instance = instance
        self.events: dict[tuple[str, str], list] = {}

    @classmethod
    def of_selection(cls, instance, units_of: dict, pulls) -> Ledger:
        """Moves of the units chosen per trip plus the (pulled_in,
        pulled_out) positions of each connection's option."""
        ledger = cls(instance)
        for pulled_in, pulled_out in pulls:
            ledger.add(pulled_in, pulled_out)
        for t in instance.trips:
            ledger.add(*staging(instance, t.id, units_of[t.id]))
        return ledger

    def add(self, pulled_in=(), pulled_out=(), key=None, count=1) -> None:
        """File pulled positions; an event's key is the moving trip unless
        ``key`` names another."""
        trips = self.instance.trip_by_id
        for direction, positions in ((IN, pulled_in), (OUT, pulled_out)):
            for (t, _n, r) in positions:
                station, time = place(trips[t], direction)
                self.events.setdefault((station, r), []).append(
                    (time, direction, t if key is None else key, count))

    def prefix_ok(self, depots: dict) -> bool:
        """Depot variants: no running inventory ever drops below zero."""
        return all(level >= 0 for k, evs in self.events.items()
                   for _, level in levels(_start(depots, k), evs))

    def matching_ok(self, depots: dict, pairs=None) -> bool:
        """Direct-arc variants: every pull-out is served by the start
        inventory or by a pull-in no later than it; ``pairs`` limits the
        (unit_type, source trip, target trip) arcs, None allows all."""
        for k, evs in self.events.items():
            r = k[1]
            supply = [(time, key) for time, d, key, _ in evs if d == IN]
            demand = [(time, key) for time, d, key, _ in evs if d == OUT]

            def allowed(s, d):
                return s[0] <= d[0] and (pairs is None or (r, s[1], d[1]) in pairs)
            if not _match_units(supply, demand, _start(depots, k), allowed):
                return False
        return True

    def end_level(self, depot) -> int:
        """Inventory of ``depot`` after every move."""
        evs = self.events.get((depot.station, depot.unit_type), ())
        return depot.start_inventory + sum(c if d == IN else -c for _, d, _, c in evs)


def _start(depots: dict, key: tuple[str, str]) -> int:
    depot = depots.get(key)
    return depot.start_inventory if depot else 0

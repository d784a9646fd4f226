"""Immutable multimodal city network with fare-aware edge costs.

The network is an undirected multigraph: PoIs are vertices, and each pair of
PoIs may be linked by several parallel edges, one per transport mode. Money
is handled as integer cents throughout; fare rates are fixed-point decimals
with four decimal places (of a cent), and rounding to whole cents happens
half-up once per edge. This keeps every cost comparison exact, so the solver
and the brute-force checks can assert integer equality.
"""

from __future__ import annotations

import math
import re
import statistics
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import eq, itemgetter, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigurationError

Money = int  # integer cents
ModeId = int  # dense index into the fare table

_CENT = Decimal("1")
_RATE_QUANTUM = Decimal("0.0001")
_RATE_TEXT = re.compile(r"-?[0-9]+(\.[0-9]+)?")  # the text save_network_json writes, ``-0.0000`` included
EARTH_RADIUS_M = 6371_000.0

LANDMARKS = 12  # landmarks per network, for the searches' lower bounds and landmark_bound
TIGHTNESS_LANDMARKS = 4  # the first landmarks, which alone landmark_tightness reads
BOUND_SHARE = 10  # a search uses the bounds only when its targets' band is at most 1/BOUND_SHARE of its reach

# landmark_bound bounds nothing on a network whose landmark_tightness, read from the first
# TIGHTNESS_LANDMARKS landmarks, is under this. Measured over those four: 0.91-0.93 on the perfbench cities
# (seeds 0 and 3) and 0.86-0.94 on road_network lattices of 5-55 PoIs a side, where per-person queries keep
# 1-6 of 10 PoIs per category; 0.57-0.64 on random_network(1, {200, 2000, 5000}, 3), where forced pruning
# kept every PoI of bench_planner.py's queries and only added its searches (200 PoIs: 2.7 -> 3.9 ms; 2000
# PoIs: 132 -> 146 ms). Past the gate the bounds read every landmark.
PRUNE_TIGHTNESS = 0.8

_REAL = frozenset((int, float))  # the exact types of an edge's distance and time and of a coordinate
_FLOAT_MAX = sys.float_info.max

REPAIR_MODE = "UN"  # fare-table name of the edges connect_components adds
REPAIR_DISTANCE_M = 1000.0  # a repair edge's length when an endpoint has no coordinates
REPAIR_SPEED_M_PER_MIN = 500.0  # a repair edge's time is its length over this speed


def _as_decimal(value: float | int | str | Decimal) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(float.__repr__(value))  # the shortest repr, also of a subclass with a repr of its own
    return Decimal(value)


@dataclass(frozen=True)
class FarePolicy:
    """Per-mode fare: flat fare per edge plus distance and time rates.

    ``base_fare`` is in whole cents; the two rates are in cents per meter /
    cents per minute, quantized to four decimal places. A rate that is not a
    number, text other than ASCII digits with an optional sign and fraction,
    not finite or too large to keep four places raises
    :class:`ConfigurationError` naming the field.
    """

    base_fare: Money
    cost_per_meter: Decimal
    cost_per_minute: Decimal

    def __post_init__(self) -> None:
        if type(self.base_fare) is not int:  # whole cents: not a float such as 120.9, nor a bool
            raise ConfigurationError("base_fare_cents must be an integer")
        for name in ("cost_per_meter", "cost_per_minute"):
            rate = getattr(self, name)
            if isinstance(rate, bool) or not isinstance(rate, (int, float, str, Decimal)):
                raise ConfigurationError(f"{name}_cents must be a number")
            if isinstance(rate, str) and not _RATE_TEXT.fullmatch(rate):
                raise ConfigurationError(f"{name}_cents must be plain decimal text such as 1.5")
            try:
                rate = _as_decimal(rate).quantize(_RATE_QUANTUM)
            except InvalidOperation:  # not a number, an infinity, or too many digits
                rate = None
            if rate is None or not rate.is_finite():  # a quiet NaN quantizes to itself
                raise ConfigurationError(f"{name}_cents must be finite and fit four decimal places")
            object.__setattr__(self, name, rate)
        if self.base_fare < 0 or self.cost_per_meter < 0 or self.cost_per_minute < 0:
            raise ConfigurationError("fare policy components must be nonnegative")

    def scaled(self, factor: int) -> FarePolicy:
        """Policy with every component multiplied by a positive integer."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return FarePolicy(self.base_fare * factor, self.cost_per_meter * factor, self.cost_per_minute * factor)


@dataclass(frozen=True)
class FareTable:
    """Dense mode registry: mode id ``i`` has ``names[i]`` and ``policies[i]``."""

    names: tuple[str, ...]
    policies: tuple[FarePolicy, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.policies):
            raise ConfigurationError("fare table names and policies must align")
        if not all(isinstance(name, str) for name in self.names):
            raise ConfigurationError("mode names must be strings")
        if len(set(self.names)) != len(self.names):
            raise ConfigurationError("mode names must be unique")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, FarePolicy]]) -> FareTable:
        items = list(pairs)
        return cls(tuple(name for name, _ in items), tuple(policy for _, policy in items))

    @property
    def mode_count(self) -> int:
        return len(self.names)

    def policy(self, mode: ModeId) -> FarePolicy:
        if not 0 <= mode < len(self.policies):
            raise ConfigurationError(f"no fare policy for mode id {mode}")
        return self.policies[mode]

    def name(self, mode: ModeId) -> str:
        if not 0 <= mode < len(self.names):
            raise ConfigurationError(f"no fare policy for mode id {mode}")
        return self.names[mode]

    def id_of(self, name: str) -> ModeId:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigurationError(f"unknown transport mode {name!r}") from None

    def with_mode(self, name: str, policy: FarePolicy) -> FareTable:
        """Extended table with one extra mode appended (fresh id)."""
        if name in self.names:
            raise ConfigurationError(f"mode {name!r} already exists")
        return FareTable(self.names + (name,), self.policies + (policy,))

    def scaled(self, factor: int) -> FareTable:
        return FareTable(self.names, tuple(p.scaled(factor) for p in self.policies))


@dataclass(frozen=True)
class Poi:
    """A point of interest; ``category`` is None until categorization. Its
    id is its position in :attr:`MultiModalNetwork.pois`."""

    external_id: str
    name: str = ""
    category: int | None = None
    coords: tuple[float, float] | None = None  # (lat, lon) degrees


class TransitEdge(NamedTuple):
    """Undirected edge between two PoIs for a single transport mode. Its id
    is its position in :attr:`MultiModalNetwork.edges`. A named tuple, so it
    compares equal to the plain tuple ``(u, v, mode, distance_m, time_min)``."""

    u: int
    v: int
    mode: ModeId
    distance_m: float
    time_min: float

    def other(self, poi: int) -> int:
        return self.v if poi == self.u else self.u


def _measure_fault(u: int, v: int, distance_m: float, time_min: float) -> str | None:
    """Why an edge's distance or time is invalid, or None when each is an
    ``int`` (not a bool) or a ``float`` (not a subclass), finite and
    nonnegative."""
    # a NaN fails both comparisons; an infinity, or an int too large for a float, the second
    if not (type(distance_m) in _REAL and 0 <= distance_m <= _FLOAT_MAX):
        return f"edge ({u}, {v}) has invalid distance {distance_m}"
    if not (type(time_min) in _REAL and 0 <= time_min <= _FLOAT_MAX):
        return f"edge ({u}, {v}) has invalid time {time_min}"
    return None


def _measures_valid(column: Sequence[float]) -> bool:
    """Whether :func:`_measure_fault` passes every number of ``column``,
    decided at C speed: a NaN first in the column makes ``min`` and ``max``
    NaN, which fails both comparisons; any other NaN is skipped by them and
    found by ``isnan``, which runs once every number fits a float."""
    return (
        {*map(type, column)} <= _REAL
        and 0 <= min(column)
        and max(column) <= _FLOAT_MAX
        and not any(map(math.isnan, column))
    )


def _transit_edge(u: int, v: int, mode: ModeId, distance_m: float, time_min: float) -> TransitEdge:
    """The edge, once :func:`_measure_fault` passes its distance and time:
    the check of the edges :func:`connect_components` adds without a
    builder."""
    fault = _measure_fault(u, v, distance_m, time_min)
    if fault is not None:
        raise ConfigurationError(fault)
    return TransitEdge(u, v, mode, distance_m, time_min)


@dataclass(frozen=True)
class PathResult:
    """A concrete route: total cost, chosen edges per hop, visited PoIs."""

    cost: Money
    legs: tuple[tuple[int, ModeId], ...]  # (edge id, mode id) per hop
    poi_sequence: tuple[int, ...]


def edge_cost(edge: TransitEdge, fares: FareTable) -> Money:
    """Traversal cost in cents: base fare + time rate + distance rate.

    Rounding is half-up to whole cents, applied once per edge. A cost with
    more whole cents than the decimal context's precision holds raises
    :class:`~gtpmm.errors.ConfigurationError` naming the edge's endpoints,
    with ``edge`` 0.
    """
    return _edge_costs((edge,), fares)[0]


def _edge_costs(edges: Iterable[TransitEdge], fares: FareTable) -> list[Money]:
    """:func:`edge_cost` of each edge, in order: the one loop that prices
    edges. A failing edge raises with its index in ``edges`` as ``edge``.
    Each mode's rates are read once per call, and each distinct distance or
    time is converted to a decimal once per call (a number equal to one
    already converted, such as ``3`` after ``3.0``, takes that decimal,
    which has the same value), so each cost is the edge's own. Equal costs
    are one ``int`` object.
    """
    rates = [(Decimal(policy.base_fare), policy.cost_per_minute, policy.cost_per_meter) for policy in fares.policies]
    decimals: dict[float, Decimal] = {}
    shared: dict[Money, Money] = {}
    costs: list[Money] = []
    for index, (u, v, mode, distance_m, time_min) in enumerate(edges):
        if not 0 <= mode < len(rates):
            raise ConfigurationError(f"no fare policy for mode id {mode}", edge=index)
        base, per_minute, per_meter = rates[mode]
        minutes = decimals.get(time_min)
        if minutes is None:
            minutes = decimals[time_min] = _as_decimal(time_min)
        meters = decimals.get(distance_m)
        if meters is None:
            meters = decimals[distance_m] = _as_decimal(distance_m)
        total = base + per_minute * minutes + per_meter * meters
        try:
            cost = int(total.quantize(_CENT, rounding=ROUND_HALF_UP))
        except InvalidOperation:
            message = f"edge ({u}, {v}) costs {total:.3e} cents, too many to hold"
            raise ConfigurationError(message, edge=index) from None
        costs.append(shared.setdefault(cost, cost))
    return costs


@dataclass(frozen=True)
class MultiModalNetwork:
    """Finalized, immutable multigraph. Build via :class:`NetworkBuilder`.

    All query operations on a finalized network are pure functions, so a
    single instance can serve any number of concurrent readers.

    The views :attr:`adjacency`, :attr:`cheapest_neighbors`,
    :attr:`has_free_hop`, :attr:`landmarks` and :attr:`landmark_tightness`
    are derived from ``edges`` and ``edge_costs`` on first use and cached on
    the instance. They are not dataclass fields, so they take no part in
    equality or ``repr``, a network that is never searched never builds
    them, and a copy made with :func:`dataclasses.replace` derives its own.
    """

    pois: tuple[Poi, ...]
    edges: tuple[TransitEdge, ...]
    fare_table: FareTable
    edge_costs: tuple[Money, ...] = field(repr=False)

    @property
    def poi_count(self) -> int:
        return len(self.pois)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per PoI, the ids of its edges in ascending order; a self-loop is
        listed once."""
        ids: list[list[int]] = [[] for _ in self.pois]
        for eid, edge in enumerate(self.edges):
            ids[edge.u].append(eid)
            if edge.v != edge.u:
                ids[edge.v].append(eid)
        return tuple(map(tuple, ids))

    @cached_property
    def cheapest_neighbors(self) -> tuple[tuple[tuple[int, Money], ...], ...]:
        """Per PoI, one ``(neighbor, cost)`` pair per distinct neighbor at the
        cheapest cost among the parallel edges, in ascending neighbor id;
        self-loops are left out."""
        best: list[dict[int, Money]] = [{} for _ in self.pois]
        for edge, cost in zip(self.edges, self.edge_costs):
            u, v = edge.u, edge.v
            known = best[u].get(v)
            if u != v and (known is None or cost < known):
                best[u][v] = cost
                best[v][u] = cost
        return tuple(tuple(sorted(row.items())) for row in best)

    @cached_property
    def has_free_hop(self) -> bool:
        """Whether the cheapest edge between some two distinct PoIs costs
        nothing; :meth:`SearchTree.path_from` reads no path back then."""
        return any(cost == 0 for row in self.cheapest_neighbors for _, cost in row)

    @cached_property
    def landmarks(self) -> tuple[Sequence[Money], ...]:
        """Exact cost from each of up to :data:`LANDMARKS` landmark PoIs to
        every PoI, -1 where the landmark does not reach it: one full search
        per row.

        Landmarks are picked farthest-point: the first is PoI 0, each next
        one the PoI farthest from every landmark so far, where an unreached
        PoI counts as farthest (so every component gets a landmark before
        any gets a second) and ties go to the lowest id. The picking stops
        early once every PoI costs 0 from some landmark, as a further
        landmark would bound nothing. Each pick reads only the rows before
        it, so the first :data:`TIGHTNESS_LANDMARKS` rows are those of a
        network with that many landmarks; :attr:`landmark_tightness` reads
        those alone, and the searches and :func:`landmark_bound` read every
        row.
        """
        neighbors = self.cheapest_neighbors
        rows: list[Sequence[Money]] = []
        nearest = [-1] * len(neighbors)  # cost to the nearest landmark, -1 if none reaches
        landmark = 0
        while neighbors and len(rows) < LANDMARKS:
            row = _costs_from(neighbors, landmark)
            nearest = [d if n < 0 or 0 <= d < n else n for n, d in zip(nearest, row)]
            rows.append(_compact(row))
            if -1 in nearest:
                landmark = nearest.index(-1)
            elif max(nearest) > 0:
                landmark = nearest.index(max(nearest))
            else:
                break
        return tuple(rows)

    @cached_property
    def landmark_tightness(self) -> float:
        """How close the landmark bounds come to exact costs, from 0 to 1,
        read from the first :data:`TIGHTNESS_LANDMARKS` landmarks.

        Each of those landmarks ``a`` in turn plays a query PoI: the bound
        on ``d(a, v)`` from the others ``L``, ``max |d_L(a) - d_L(v)|``, is
        summed over every PoI ``v`` and over every ``a``, and divided by the
        summed exact ``d(a, v)``. No search runs; the rows are read once,
        in O(TIGHTNESS_LANDMARKS² · n). The tightness is 0 with fewer than
        two landmarks, when every cost is 0, and on a disconnected network,
        where a bound across components bounds nothing. It reads a fixed
        number of rows, so :data:`PRUNE_TIGHTNESS` keeps its calibration
        whatever :data:`LANDMARKS` is; the bounds past the gate, which read
        every row, are only tighter.
        """
        rows = self.landmarks[:TIGHTNESS_LANDMARKS]
        if len(rows) < 2 or -1 in rows[0]:
            return 0.0
        bound = exact = 0
        for row in rows:
            at = row.index(0)  # the landmark, or a PoI at cost 0 from it, which every row sees alike
            gaps = [map(abs, map(sub, repeat(other[at]), other)) for other in rows if other is not row]
            bound += sum(map(max, *gaps) if len(gaps) > 1 else gaps[0])
            exact += sum(row)
        return bound / exact if exact else 0.0

    def check_poi(self, poi_id: int) -> None:
        """Raises :class:`ConfigurationError` naming ``poi_id`` unless it is an ``int`` PoI id of this network."""
        if type(poi_id) is not int:
            raise ConfigurationError(f"PoI id {poi_id!r} is not an int")
        if not 0 <= poi_id < len(self.pois):
            raise ConfigurationError(f"PoI id {_id_text(poi_id)} is out of range")


_ID_DIGITS = 20  # an int id of more digits is abbreviated in error messages


def _id_text(poi_id: int) -> str:
    """``poi_id`` as text, an int of more than :data:`_ID_DIGITS` digits as
    its leading digits and its digit count: ``100000000000... (401 digits)``."""
    if -(10**_ID_DIGITS) < poi_id < 10**_ID_DIGITS:
        return str(poi_id)
    magnitude = abs(poi_id)
    digits = int(magnitude.bit_length() * math.log10(2))  # the digit count, or one less
    digits += magnitude >= 10**digits
    return f"{'-' if poi_id < 0 else ''}{magnitude // 10 ** (digits - 12)}... ({digits} digits)"


class NetworkBuilder:
    """Single-writer accumulator; ``finalize`` prices and freezes.

    The one place a network's input is checked: :meth:`add_poi` and
    :meth:`add_edges` reject a field of the wrong type or range, and
    ``finalize`` an edge whose mode has no fare policy or whose cost does not
    fit, with the edge's id as the error's ``edge``. The file loaders only
    parse, and name the file and record of a rejected value.

    Equal values are kept as one object: each PoI id is one ``int``, which
    every edge at that PoI holds as ``u`` or ``v``, and each distinct
    distance or time is one number per type and sign, so ``3`` and ``3.0``
    stay apart, as do ``0.0`` and ``-0.0``.
    """

    def __init__(self, allow_self_loops: bool = False):
        self._pois: list[Poi] = []
        self._ids: list[int] = []  # the one int object of each PoI id
        self._edges: list[TransitEdge] = []
        self._numbers: dict[type, dict[float, float]] = {int: {}, float: {}}  # the one object per type and value
        self._zeros: dict[float, float] = {}  # the one zero float per sign, by copysign(1.0, zero)
        self._external_ids: set[str] = set()
        self._allow_self_loops = allow_self_loops

    def add_poi(
        self,
        external_id: str,
        *,
        name: str = "",
        category: int | None = None,
        coords: Sequence[float] | None = None,
    ) -> int:
        if not (isinstance(external_id, str) and isinstance(name, str)):
            raise ConfigurationError("external_id and name must be strings")
        if category is not None and (type(category) is not int or category < 0):  # not a bool, float or NaN
            raise ConfigurationError("category must be null or a nonnegative integer")
        if coords is not None:
            numbers = isinstance(coords, (list, tuple)) and len(coords) == 2 and {*map(type, coords)} <= _REAL
            if not (numbers and -90 <= coords[0] <= 90 and -180 <= coords[1] <= 180):  # also rejects NaN and infinities
                raise ConfigurationError("coords must be null or [lat, lon] in degrees")
            coords = tuple(coords)
        if external_id in self._external_ids:
            raise ConfigurationError(f"duplicate external_id {external_id!r}")
        self._external_ids.add(external_id)
        poi_id = len(self._pois)
        self._pois.append(Poi(external_id, name or external_id, category, coords))
        self._ids.append(poi_id)
        return poi_id

    def add_edge(self, u: int, v: int, mode: ModeId, distance_m: float, time_min: float) -> int:
        """:meth:`add_edges` of the one edge, checked by :meth:`_edge_fault`
        alone: its id. A rejected edge raises with ``edge`` 0."""
        fault = self._edge_fault(u, v, mode, distance_m, time_min)
        if fault is not None:
            raise ConfigurationError(fault, edge=0)
        ids = self._ids
        self._edges.append(TransitEdge(ids[u], ids[v], mode, self._number(distance_m), self._number(time_min)))
        return len(self._edges) - 1

    def add_edges(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        modes: Sequence[ModeId],
        distances_m: Sequence[float],
        times_min: Sequence[float],
    ) -> range:
        """Add one edge per position of the five columns, which must be of
        one length; the range of the new edges' ids.

        Each edge must pass :meth:`_edge_fault`, the one edge check. The
        columns are first checked whole, at C speed: their types as a set,
        their least and greatest values and, for distance and time, NaN.
        Only when that finds a fault does each edge run the check, and the
        first that fails raises :class:`ConfigurationError` with the check's
        message and its index in the columns as ``edge``; then no edge is
        added.
        """
        columns = (us, vs, modes, distances_m, times_min)
        if len({*map(len, columns)}) > 1:
            raise ConfigurationError("edge columns must be of one length")
        if not self._all_valid(*columns):
            for index, row in enumerate(zip(*columns)):
                fault = self._edge_fault(*row)
                if fault is not None:
                    raise ConfigurationError(fault, edge=index)
        ids = self._ids.__getitem__
        start = len(self._edges)
        distances_m, times_min = self._shared(distances_m), self._shared(times_min)
        rows = zip(map(ids, us), map(ids, vs), modes, distances_m, times_min)
        self._edges.extend(map(tuple.__new__, repeat(TransitEdge), rows))  # TransitEdge(*row), at C speed
        return range(start, len(self._edges))

    def _edge_fault(self, u: int, v: int, mode: ModeId, distance_m: float, time_min: float) -> str | None:
        """Why the edge cannot be added, or None: ``u`` and ``v`` must be
        ``int`` ids (not bools) of PoIs added so far, distinct unless the
        builder allows self-loops, ``mode`` a nonnegative ``int``, and the
        distance and time must pass :func:`_measure_fault`."""
        if type(u) is not int or type(v) is not int or type(mode) is not int or mode < 0:  # not a bool or float
            return "u and v must be PoI ids and mode a mode id"
        if not (0 <= u < len(self._pois) and 0 <= v < len(self._pois)):
            return f"edge endpoints ({u}, {v}) reference unknown PoIs"
        if u == v and not self._allow_self_loops:
            return f"self-loop at PoI {u} ({self._pois[u].external_id!r}) rejected"
        return _measure_fault(u, v, distance_m, time_min)

    def _all_valid(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        modes: Sequence[ModeId],
        distances_m: Sequence[float],
        times_min: Sequence[float],
    ) -> bool:
        """Whether :meth:`_edge_fault` passes every edge of the columns,
        decided a column at a time at C speed."""
        if not us:
            return True
        count = len(self._pois)
        return (
            {*map(type, us), *map(type, vs), *map(type, modes)} == {int}
            and min(us) >= 0
            and min(vs) >= 0
            and min(modes) >= 0
            and max(us) < count
            and max(vs) < count
            and (self._allow_self_loops or not any(map(eq, us, vs)))
            and _measures_valid(distances_m)
            and _measures_valid(times_min)
        )

    def _number(self, x: float) -> float:
        """The one object the builder keeps for ``x``'s type and value, and
        for a zero float its sign (as ``0.0 == -0.0``, a table by value
        would merge the two)."""
        if x == 0 and type(x) is float:
            return self._zeros.setdefault(math.copysign(1.0, x), x)
        return self._numbers[type(x)].setdefault(x, x)

    def _shared(self, column: Sequence[float]) -> list[float]:
        """:meth:`_number` of each number of ``column``, at C speed when the
        column holds one type and no zero."""
        kinds = {*map(type, column)}
        if len(kinds) != 1 or 0 in column:
            return list(map(self._number, column))
        return list(map(self._numbers[kinds.pop()].setdefault, column, column))

    def finalize(self, fare_table: FareTable) -> MultiModalNetwork:
        return MultiModalNetwork(
            pois=tuple(self._pois),
            edges=tuple(self._edges),
            fare_table=fare_table,
            edge_costs=tuple(_edge_costs(self._edges, fare_table)),
        )


def cheapest_parallel_edge(net: MultiModalNetwork, u: int, v: int) -> tuple[int, Money] | None:
    """Cheapest edge among all parallel (u, v) edges, or None.

    Ties break toward the lowest mode id, then the lowest edge id.
    """
    net.check_poi(u)
    net.check_poi(v)
    if u == v:
        return None
    edges, costs = net.edges, net.edge_costs
    best: tuple[Money, ModeId, int] | None = None
    for eid in net.adjacency[u]:
        edge = edges[eid]
        if edge.u == v or edge.v == v:  # an edge at u that ends at v, as u != v
            key = (costs[eid], edge.mode, eid)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[2], best[0]


def _costs_from(neighbors: Sequence[Sequence[tuple[int, Money]]], source: int) -> list[Money]:
    """Cost from ``source`` to every PoI over the ``neighbors`` rows, -1
    where unreached: a plain Dijkstra over the whole component."""
    costs: list[Money | None] = [None] * len(neighbors)
    costs[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d > costs[u]:
            continue  # stale entry
        for v, cost in neighbors[u]:
            candidate = d + cost
            known = costs[v]
            if known is None or candidate < known:
                costs[v] = candidate
                heappush(heap, (candidate, v))
    return [-1 if cost is None else cost for cost in costs]


def _compact(row: list[Money]) -> Sequence[Money]:
    """``row`` as 64-bit integers, or as it is when a cost does not fit."""
    try:
        return array("q", row)
    except OverflowError:
        return row


def landmark_bound(net: MultiModalNetwork, pois: Iterable[int]) -> Callable[[int, int], Money] | None:
    """A lower bound on the cost between any two PoIs of ``pois``, as a
    function of the pair, or None when the network's landmark_tightness is
    under :data:`PRUNE_TIGHTNESS` or some landmark row misses one of them.

    The one pair bound and the one reading of the gate, for the pruning,
    NNCM's candidate order and :func:`_goal_order`. The bound of ``(a,
    b)`` is ``max |d_L(a) - d_L(b)|`` over the
    :attr:`MultiModalNetwork.landmarks` rows ``d_L``, at most their cost
    by the triangle inequality. A row that misses a PoI splits ``pois`` across
    components, where it bounds nothing. Only pairs of ``pois`` may be
    asked; past the gate, every PoI of them is checked first.
    """
    if net.landmark_tightness < PRUNE_TIGHTNESS:
        return None
    pois = tuple(pois)
    for poi in pois:
        net.check_poi(poi)
    columns = [[row[poi] for poi in pois] for row in net.landmarks]  # a row at a time: faster than per PoI
    if any(-1 in column for column in columns):
        return None
    at = dict(zip(pois, zip(*columns)))

    def bound(a: int, b: int) -> Money:
        return max(map(abs, map(sub, at[a], at[b])))

    return bound


def _landmark_bounds(
    net: MultiModalNetwork, starts: Iterable[int], targets: Iterable[int]
) -> tuple[Sequence[Money], Money, Money, Sequence[Money], Money, Money] | None:
    """Lower bounds on the cost from a PoI to the nearest PoI of ``targets``
    from two landmarks, as ``(row1, lo1, hi1, row2, lo2, hi2)``, or None
    when they would not pay for themselves (ALT: A* search with landmarks
    and the triangle inequality, Goldberg and Harrelson, SODA 2005).

    ``row`` is a landmark ``L``'s :attr:`MultiModalNetwork.landmarks` row
    ``d_L``, and ``lo`` and ``hi`` are the least and greatest ``d_L(t)``
    over the targets ``t`` that ``L`` reaches (the others are unreachable
    from the starts). By the triangle inequality ``d(v, t) >= max(lo -
    d_L(v), d_L(v) - hi)`` for each such ``t``, so ``h(v)``, that or 0,
    maxed over the landmarks, is a lower bound. It is an integer and
    consistent, ``|h(u) - h(v)| <= w(u, v)`` on every edge, because each
    ``d_L`` is exact: so an A* search with it settles every PoI at its
    exact cost, whatever the landmarks.

    Only a landmark whose component holds every start counts; any other
    bounds every PoI a search meets by the same constant. Each one that
    counts is judged on its own by :func:`_bounds_pay_off`, from its reach
    and its targets' band. Of those that pay off, the two with the largest
    bound at the starts (the least over the starts) are taken, ties to the
    earlier landmark, or the one twice when only one pays off, so that the
    searches can inline exactly two bounds. When none pays off the search
    goes without bounds.

    One start ``s`` and one target ``t``, as in a point-to-point search and
    at each re-aim of a goal-by-goal one, take a loop of their own with the
    same picks in the same order: each landmark's bound is then ``|d_L(s) -
    d_L(t)|`` and its band 0, which pays off at any reach, so
    :func:`_bounds_pay_off` is asked once, for the first pick.
    """
    starts, targets = tuple(starts), tuple(targets)
    if not starts or not targets:
        return None
    if len(starts) == 1 and len(targets) == 1:
        (source,), (target,) = starts, targets
        best = second = -1
        row1 = row2 = ()
        y1 = y2 = 0
        for row in net.landmarks:
            x, y = row[source], row[target]
            if x < 0 or y < 0:
                continue
            bound = x - y if x > y else y - x
            if bound > best:  # ties keep the earlier landmark first, as the sort below does
                second, row2, y2 = best, row1, y1
                best, row1, y1 = bound, row, y
            elif bound > second:
                second, row2, y2 = bound, row, y
        if best < 0 or not _bounds_pay_off(row1[source] + y1, 0):
            return None
        if second < 0:
            row2, y2 = row1, y1
        return row1, y1, y1, row2, y2, y2
    costs_at_starts = itemgetter(starts[0], *starts)  # a tuple even for one start
    costs_at_targets = itemgetter(targets[0], *targets)
    picked = []  # (bound at the starts, row, lo, hi) per landmark that counts and pays off
    for row in net.landmarks:
        at_starts, reached = costs_at_starts(row), costs_at_targets(row)
        near, hi = min(at_starts), max(reached)
        if near < 0 or hi < 0:
            continue
        lo = min(reached)
        if lo < 0:
            lo = min(cost for cost in reached if cost >= 0)
        if not _bounds_pay_off(near + hi, hi - lo):
            continue
        far = max(at_starts)
        picked.append((lo - far if lo > far else near - hi if near > hi else 0, row, lo, hi))
    if not picked:
        return None
    picked.sort(key=itemgetter(0), reverse=True)  # stable: equal bounds keep the earlier landmark first
    (_, row1, lo1, hi1), (_, row2, lo2, hi2) = picked[0], picked[min(1, len(picked) - 1)]
    return row1, lo1, hi1, row2, lo2, hi2


def _bounds_pay_off(reach: Money, band: Money) -> bool:
    """Whether a landmark's bounds save a search more work than they cost:
    when the targets' band ``hi - lo`` is at most ``1 / BOUND_SHARE`` of
    the reach ``d_L(s) + hi`` (an upper bound on the cost from the nearest
    start ``s`` to the farthest target). The rule only picks the faster
    search; either gives the same result.

    A goal group of one target has band 0, so its bounds always pay off.
    The rule decides for :func:`layer_costs`, which aims at its targets
    as one group; for :func:`shortest_paths` where :func:`_goal_order`
    gives no order, so that one group holds its targets; and past
    the gate, where it aims at one target at a time, only for the last
    group of a search that stops re-aiming.

    :func:`_landmark_bounds` asks it of each landmark, as each has its own
    band and reach, and takes its two bounds from those it passes. Judging
    only the landmark of the largest bound, with 12 landmarks, left 3 of
    the 15 layer searches of a perfbench plan-city pass (seed 1) unbounded:
    they popped 1,570, 1,555 and 1,277 heap entries against 652, 542 and
    557.

    The bounds cost work at every heap push, about a fifth more time per
    search where they prune nothing, and leave unbounded every PoI whose
    landmark cost lies within the band. Timed per search with the bounds
    forced on and off (2-vCPU host, Python 3.11.7): every point-to-point
    search (band 0) took 0.1 to 0.8 of its plain time; on the perfbench
    city every many-target search had a band under 0.09 of its reach and
    took 0.2 to 0.6; on the random networks of
    ``benchmarks/bench_planner.py`` every many-target search had a band
    over 0.11 of its reach and took 1.2. A share of 1/20 made the city's
    plan passes 1.4 times as slow, and 1/5 the 200-PoI random plans 1.05
    times, against 1/10.
    """
    return band * BOUND_SHARE <= reach


def _goal_order(net: MultiModalNetwork, source: int, targets: Collection[int]) -> list[int] | None:
    """``targets`` in the order a search from ``source`` aims at them one at
    a time, or None when it aims at all of them at once: when there are
    fewer than two, or when :func:`landmark_bound` gives no bound on the
    source and the targets (its gate is closed, or some landmark row
    misses one of them).

    The order is ascending :func:`landmark_bound` from the source, ties to
    the lower PoI id. Only the search's speed depends on it. Under the gate
    one target at a time does not pay: on ``random_network(1, {200, 2000,
    5000}, 3)``, at tightness 0.57-0.64, it made the tree searches of
    ``benchmarks/bench_planner.py``'s plans 1.3 to 1.4 times as slow as
    the one group.
    """
    bound = None if len(targets) < 2 else landmark_bound(net, (source, *targets))
    if bound is None:
        return None
    return sorted(targets, key=lambda target: (bound(source, target), target))


def reference_path(net: MultiModalNetwork, source: int, target: int) -> PathResult | None:
    """Minimum-cost path between two PoIs, or None when disconnected, by a
    plain Dijkstra: the reference the checks (:func:`~gtpmm.planner.group_cost`
    and the brute-force oracle) use, so that they share no search code with
    the planner. :func:`shortest_path` returns the same paths.

    One Dijkstra over :attr:`MultiModalNetwork.cheapest_neighbors`; each hop
    then takes its edge from :func:`cheapest_parallel_edge`. With no transfer
    penalty in the cost model this per-hop choice is globally optimal.
    Deterministic: equal tentative costs settle the lower PoI id first, and
    equal-cost predecessors resolve to the lower PoI id.
    """
    net.check_poi(source)
    net.check_poi(target)
    if source == target:
        return PathResult(0, (), (source,))

    dist: dict[int, Money] = {source: 0}
    pred: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[Money, int]] = [(0, source)]
    neighbors = net.cheapest_neighbors

    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            break
        for v, cost in neighbors[u]:
            if v in settled:
                continue
            candidate = d + cost
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                pred[v] = u
                heappush(heap, (candidate, v))
            elif candidate == known and u < pred[v]:
                pred[v] = u

    if target not in settled:
        return None

    sequence = [target]
    while sequence[-1] != source:
        sequence.append(pred[sequence[-1]])
    sequence.reverse()
    legs = []
    for a, b in zip(sequence, sequence[1:]):
        eid, _ = cheapest_parallel_edge(net, a, b)
        legs.append((eid, net.edges[eid].mode))
    return PathResult(dist[target], tuple(legs), tuple(sequence))


class SearchTree(Mapping[int, PathResult]):
    """What one :func:`shortest_paths` search found: a read-only mapping
    from each reached target to its cheapest path, each path built when it
    is read. The tree keeps no path: :class:`~gtpmm.planner.Legs` keeps
    each one it reads.

    ``costs`` maps each reached target to its cost, and ``targets`` holds
    every PoI the search was asked for; one missing from ``costs`` is
    unreachable from ``source``. Of the search's state the tree keeps only
    the predecessor per PoI and the tie set, which :meth:`path_from` reads:
    the PoIs that a second predecessor offered their final cost. A tie at
    a cost that a later offer beat is dropped with that cost, as the PoI's
    one cheapest predecessor may come after it; keeping it would only make
    :meth:`path_from` decline a path it can tell. A search that re-aims at
    one target after another offers many PoIs costs it later beats, and
    with such ties kept the planner searched legs point to point that the
    tree could have told.
    """

    def __init__(
        self,
        net: MultiModalNetwork,
        source: int,
        targets: frozenset[int],
        costs: dict[int, Money],
        pred: list[int],
        tied: set[int],
    ) -> None:
        self.source = source
        self.targets = targets
        self.costs = costs
        self._net = net
        self._pred = pred
        self._tied = tied
        self._hops: dict[tuple[int, int], tuple[int, ModeId]] = {}  # paths to many targets share hops

    def __getitem__(self, target: int) -> PathResult:
        cost = self.costs[target]  # a KeyError for a PoI the search did not reach
        sequence = [target]
        while sequence[-1] != self.source:
            sequence.append(self._pred[sequence[-1]])
        sequence.reverse()
        legs = []
        for hop in zip(sequence, sequence[1:]):
            if hop not in self._hops:
                eid, _ = cheapest_parallel_edge(self._net, *hop)
                self._hops[hop] = (eid, self._net.edges[eid].mode)
            legs.append(self._hops[hop])
        return PathResult(cost, tuple(legs), tuple(sequence))

    def __iter__(self) -> Iterator[int]:
        return iter(self.costs)

    def __len__(self) -> int:
        return len(self.costs)

    def path_from(self, target: int) -> PathResult | None:
        """The path from ``target``, a reached target, back to ``source``
        that ``shortest_path(net, target, source)`` returns, or None when
        the tree cannot tell it.

        The tree tells it when the path is the only cheapest one, as every
        search then finds it: when no edge of the network is free
        (:attr:`MultiModalNetwork.has_free_hop`) and no PoI on the path is
        in the tie set. Over priced edges every PoI that ends a cheapest
        path to ``v`` is settled before ``v`` in both loops of
        :func:`shortest_paths`, whatever goal the bounded loop aims at, as
        its ``(f, g)`` is lower, and offers ``v`` its final cost; so a PoI
        that no second predecessor offered its final cost has one cheapest
        predecessor, and a chain of such PoIs is the one cheapest path.
        Across a free edge both ends have equal ``f`` and ``g``, and the
        lower id can be settled without hearing from the other.
        """
        if self._net.has_free_hop:
            return None
        forward = self[target]
        if not self._tied.isdisjoint(forward.poi_sequence):
            return None
        return PathResult(forward.cost, forward.legs[::-1], forward.poi_sequence[::-1])


def shortest_path(net: MultiModalNetwork, source: int, target: int) -> PathResult | None:
    """Minimum-cost path between two PoIs, or None when disconnected.

    :func:`shortest_paths` with the one target: a goal-directed search that
    returns :func:`reference_path`'s path.
    """
    return shortest_paths(net, source, (target,)).get(target)


def shortest_paths(net: MultiModalNetwork, source: int, targets: Iterable[int]) -> SearchTree:
    """Cheapest path from ``source`` to every reachable PoI of ``targets``,
    as a :class:`SearchTree`.

    A Dijkstra run until every target is settled, made goal-directed when
    :func:`_landmark_bounds` gives bounds: then it is an A* search that
    pops by ``f = g + h``, ``g`` the cost so far and ``h`` the bound.

    The bounds aim at goal groups in turn. Where :func:`_goal_order` gives
    an order, ascending :func:`landmark_bound` from the source, each
    target starts as a group of its own: the search aims at the first, and
    each time it settles the target it aims at, it re-aims at the next
    target not yet settled, re-keying every open entry with that target's
    bounds. A re-keyed entry costs about what a pushed one
    does, so the re-keying is kept in step with the search's own work:
    once the entries re-keyed so far outnumber the PoIs reached, one last
    group holds every target left. Elsewhere one group holds every target
    from the start. An ALT bound is tight for one target at a time; for a
    band of targets spread over the network it is weak, and when
    :func:`_bounds_pay_off` turns a group's bounds down the search goes on
    in the plain loop.

    Every settled cost is exact: each group's bound is consistent, and at
    a group's start the open entries hold, for each PoI they reach, the
    cheapest cost through the PoIs settled so far, which are exact; so
    the first open PoI of a cheapest path to the popped PoI has no greater
    ``f``, as with a single bound. Each path equals
    ``reference_path(net, source, target)`` because the search pops in
    ``(f, g, PoI id)`` order. A PoI ``v``'s predecessor is the lowest-id
    PoI that ends a cheapest path to ``v`` among those settled before
    ``v``, and each such ``u`` is settled before ``v`` just when Dijkstra
    settles it first, whatever group is aimed at then: over a priced edge
    ``u`` has a lower ``(f, g)``, and over a free edge the two have equal
    ``f`` and ``g`` (a consistent bound cannot change across a free edge),
    so, as in Dijkstra, the PoI id alone orders them. A PoI is tied when a
    second predecessor offers it its final cost; an offer of a cost later
    beaten is forgotten. A target missing from the result is unreachable.
    """
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    wanted = frozenset(remaining)

    # Per-search state in flat lists indexed by PoI id: tentative cost (None
    # until reached), predecessor and settled mark; and per PoI that a
    # second predecessor offered its tentative cost, that cost.
    dist: list[Money | None] = [None] * net.poi_count
    pred = [-1] * net.poi_count
    settled = [False] * net.poi_count
    ties: dict[int, Money] = {}
    dist[source] = 0
    neighbors = net.cheapest_neighbors
    # Two loops, so that a search without bounds pays nothing for them at each push; the bounded loop hands
    # its open entries to the plain loop when a group's bounds would not pay off.
    goals = _goal_order(net, source, remaining)
    bounds = _landmark_bounds(net, (source,), remaining if goals is None else goals[:1])
    heap: list[tuple[Money, int]] = [(0, source)] if bounds is None else []
    if bounds is not None:
        row1, lo1, hi1, row2, lo2, hi2 = bounds
        goal = -1 if goals is None else goals[0]  # the one group's search ends when no target remains
        later = iter(goals or ())
        bounded: list[tuple[Money, Money, int]] = [(0, 0, source)]
        rekeyed = 0  # open entries re-keyed so far
        while bounded and remaining:
            _, d, u = heappop(bounded)
            if settled[u]:
                continue
            settled[u] = True
            remaining.discard(u)
            if not remaining:
                break
            for v, cost in neighbors[u]:
                if settled[v]:
                    continue
                candidate = d + cost
                known = dist[v]
                if known is None or candidate < known:
                    dist[v] = candidate
                    pred[v] = u
                    x, y = row1[v], row2[v]  # f = g + h(v), inlined: this block runs once per push
                    h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                    h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                    heappush(bounded, (candidate + (h1 if h1 > h2 else h2), candidate, v))
                elif candidate == known:
                    ties[v] = candidate
                    if u < pred[v]:
                        pred[v] = u
            if u == goal:  # re-aim at the next target not settled while no more entries were re-keyed than PoIs reached
                if rekeyed <= len(dist) - dist.count(None):
                    goal = next(target for target in later if not settled[target])
                    bounds = _landmark_bounds(net, (source,), (goal,))  # a single target's band always pays off
                else:
                    goal = -1
                    bounds = _landmark_bounds(net, (source,), remaining)
                if bounds is None:  # the open entries go on in the plain loop
                    heap = [(g, v) for _, g, v in bounded if g == dist[v] and not settled[v]]
                    heapify(heap)
                    break
                row1, lo1, hi1, row2, lo2, hi2 = bounds
                entries, bounded = bounded, []
                for _, g, v in entries:
                    if g == dist[v] and not settled[v]:  # live: not stale, not settled
                        x, y = row1[v], row2[v]  # the new f, inlined as at a push: a max() call costs twice as much
                        h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                        h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                        bounded.append((g + (h1 if h1 > h2 else h2), g, v))
                heapify(bounded)
                rekeyed += len(bounded)
    while heap and remaining:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        remaining.discard(u)
        if not remaining:
            break
        for v, cost in neighbors[u]:
            if settled[v]:
                continue
            candidate = d + cost
            known = dist[v]
            if known is None or candidate < known:
                dist[v] = candidate
                pred[v] = u
                heappush(heap, (candidate, v))
            elif candidate == known:
                ties[v] = candidate
                if u < pred[v]:
                    pred[v] = u

    costs = {target: dist[target] for target in wanted if settled[target]}
    tied = {v for v, cost in ties.items() if cost == dist[v]}  # a tie at a cost later beaten is no tie
    return SearchTree(net, source, wanted, costs, pred, tied)


def layer_costs(
    net: MultiModalNetwork, starts: Mapping[int, Money], weight: int, targets: Iterable[int]
) -> dict[int, tuple[Money, int]]:
    """Cheapest ``(starts[i] + weight * d(i, j), i)`` over the PoIs ``i`` of
    ``starts``, for every PoI ``j`` of ``targets`` that some ``i`` reaches.

    One Dijkstra seeded at every ``i`` with key ``(starts[i], i)``, over
    edge costs multiplied by ``weight``; a negative ``weight`` raises
    :class:`~gtpmm.errors.ConfigurationError`, as it would make every
    priced edge a negative cycle. Keys compare as
    ``(cost, origin)`` pairs, so an equal cost goes to the lower origin. A
    pair is packed into one integer, ``cost * poi_count + origin``, which
    orders the same way and survives adding ``weight * w * poi_count``.
    The search stops once every target is settled. When
    :func:`_landmark_bounds` gives bounds it is an A* search that pops by
    key plus bound times ``weight * poi_count``; that bound is consistent
    on the packed keys too, so every PoI is settled at its exact minimum
    key and the result is the Dijkstra's. The bounds aim at every target
    at once, never at one target at a time as :func:`shortest_paths` does:
    that changes the order of the result, which is the order of the next
    layer's starts and of the DP table, and saved at most 2 to 3 ms of a
    perfbench pass.
    """
    if weight < 0:
        raise ConfigurationError(f"layer weight {weight} is negative")
    scale = net.poi_count
    remaining = set(targets)
    for poi in (*starts, *remaining):
        net.check_poi(poi)
    found: dict[int, tuple[Money, int]] = {}
    if not remaining:
        return found

    step = weight * scale
    dist: list[Money | None] = [None] * scale  # tentative key per PoI id, None until reached
    for origin, start in starts.items():
        dist[origin] = start * scale + origin
    neighbors = net.cheapest_neighbors
    # Two copies of one loop, so that a search without bounds pays nothing for them at each push.
    bounds = _landmark_bounds(net, starts, remaining)
    if bounds is None:
        heap = [(dist[origin], origin) for origin in starts]
        heapify(heap)
        while heap:
            key, u = heappop(heap)
            if key > dist[u]:
                continue  # stale entry; u was settled at a lower key
            if u in remaining:
                found[u] = divmod(key, scale)
                remaining.discard(u)
                if not remaining:
                    break
            for v, cost in neighbors[u]:
                candidate = key + cost * step
                known = dist[v]
                if known is None or candidate < known:
                    dist[v] = candidate
                    heappush(heap, (candidate, v))
        return found

    row1, lo1, hi1, row2, lo2, hi2 = bounds
    bounded = []
    for origin in starts:
        key, x, y = dist[origin], row1[origin], row2[origin]
        bounded.append((key + max(0, lo1 - x, x - hi1, lo2 - y, y - hi2) * step, key, origin))
    heapify(bounded)
    while bounded:
        _, key, u = heappop(bounded)
        if key > dist[u]:
            continue  # stale entry; u was settled at a lower key
        if u in remaining:
            found[u] = divmod(key, scale)
            remaining.discard(u)
            if not remaining:
                break
        for v, cost in neighbors[u]:
            candidate = key + cost * step
            known = dist[v]
            if known is None or candidate < known:
                dist[v] = candidate
                x, y = row1[v], row2[v]  # f = key + h(v) * step, inlined: this block runs once per push
                h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                heappush(bounded, (candidate + (h1 if h1 > h2 else h2) * step, candidate, v))
    return found


def connected_components(net: MultiModalNetwork) -> list[set[int]]:
    """Partition of all PoI ids into components, ordered by smallest member."""
    seen = [False] * net.poi_count
    components: list[set[int]] = []
    for start in range(net.poi_count):
        if seen[start]:
            continue
        seen[start] = True
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for eid in net.adjacency[u]:
                v = net.edges[eid].other(u)
                if not seen[v]:
                    seen[v] = True
                    component.add(v)
                    queue.append(v)
        components.append(component)
    return components


def median_fare_policy(fares: FareTable) -> FarePolicy:
    """Component-wise median of all policies; neutral default for repairs."""
    if not fares.policies:
        raise ConfigurationError("cannot take the median of an empty fare table")
    base = statistics.median(p.base_fare for p in fares.policies)
    per_meter = statistics.median(p.cost_per_meter for p in fares.policies)
    per_minute = statistics.median(p.cost_per_minute for p in fares.policies)
    return FarePolicy(
        int(_as_decimal(base).quantize(_CENT, rounding=ROUND_HALF_UP)),
        _as_decimal(per_meter).quantize(_RATE_QUANTUM, rounding=ROUND_HALF_UP),
        _as_decimal(per_minute).quantize(_RATE_QUANTUM, rounding=ROUND_HALF_UP),
    )


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points in degrees."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def connect_components(net: MultiModalNetwork) -> tuple[MultiModalNetwork, list[TransitEdge]]:
    """Make the network connected by chaining its components together.

    Appends exactly ``components - 1`` edges, ids from ``net.edge_count`` on,
    under a fresh mode :data:`REPAIR_MODE` priced by
    :func:`median_fare_policy`, joining the lowest-id PoI of consecutive
    components in ascending order. Added edges measure the great-circle
    distance when both endpoints carry coordinates and
    :data:`REPAIR_DISTANCE_M` otherwise; travel time is distance /
    :data:`REPAIR_SPEED_M_PER_MIN`. The PoIs, edges and edge costs of ``net``
    carry over as they are. An already-connected network is returned
    unchanged.
    """
    if net.poi_count == 0:
        raise ConfigurationError("cannot repair an empty network")
    components = connected_components(net)
    if len(components) == 1:
        return net, []

    fares = net.fare_table.with_mode(REPAIR_MODE, median_fare_policy(net.fare_table))
    repair_mode = fares.mode_count - 1
    representatives = [min(component) for component in components]
    added: list[TransitEdge] = []
    for left, right in zip(representatives, representatives[1:]):
        a, b = net.pois[left].coords, net.pois[right].coords
        distance = haversine_m(a, b) if a is not None and b is not None else REPAIR_DISTANCE_M
        time = distance / REPAIR_SPEED_M_PER_MIN
        added.append(_transit_edge(left, right, repair_mode, distance, time))

    repaired = replace(
        net,
        edges=net.edges + tuple(added),
        fare_table=fares,
        edge_costs=net.edge_costs + tuple(_edge_costs(added, fares)),
    )
    return repaired, added

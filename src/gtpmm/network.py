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
import statistics
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import itemgetter, sub
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError

Money = int  # integer cents
ModeId = int  # dense index into the fare table

_CENT = Decimal("1")
_RATE_QUANTUM = Decimal("0.0001")
EARTH_RADIUS_M = 6371_000.0

LANDMARKS = 4  # landmarks per network, for the searches' lower bounds
BOUND_SHARE = 10  # a search uses the bounds only when its targets' band is at most 1/BOUND_SHARE of its reach

REPAIR_MODE = "UN"  # fare-table name of the edges connect_components adds
REPAIR_DISTANCE_M = 1000.0  # a repair edge's length when an endpoint has no coordinates
REPAIR_SPEED_M_PER_MIN = 500.0  # a repair edge's time is its length over this speed


def _as_decimal(value: float | int | str | Decimal) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(repr(value))
    return Decimal(value)


@dataclass(frozen=True)
class FarePolicy:
    """Per-mode fare: flat fare per edge plus distance and time rates.

    ``base_fare`` is in whole cents; the two rates are in cents per meter /
    cents per minute, quantized to four decimal places.
    """

    base_fare: Money
    cost_per_meter: Decimal
    cost_per_minute: Decimal

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_per_meter", _as_decimal(self.cost_per_meter).quantize(_RATE_QUANTUM))
        object.__setattr__(self, "cost_per_minute", _as_decimal(self.cost_per_minute).quantize(_RATE_QUANTUM))
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
    """A point of interest; ``category`` is None until categorization."""

    id: int
    external_id: str
    name: str = ""
    category: int | None = None
    coords: tuple[float, float] | None = None  # (lat, lon) degrees


@dataclass(frozen=True)
class TransitEdge:
    """Undirected edge between two PoIs for a single transport mode."""

    id: int
    u: int
    v: int
    mode: ModeId
    distance_m: float
    time_min: float

    def other(self, poi: int) -> int:
        return self.v if poi == self.u else self.u


def _transit_edge(edge_id: int, u: int, v: int, mode: ModeId, distance_m: float, time_min: float) -> TransitEdge:
    """The edge, once its distance and time are finite and nonnegative: the
    one check for edges from :class:`NetworkBuilder` and from
    :func:`connect_components`, which adds its edges without a builder."""
    if not (math.isfinite(distance_m) and distance_m >= 0):
        raise ConfigurationError(f"edge ({u}, {v}) has invalid distance {distance_m}")
    if not (math.isfinite(time_min) and time_min >= 0):
        raise ConfigurationError(f"edge ({u}, {v}) has invalid time {time_min}")
    return TransitEdge(edge_id, u, v, mode, distance_m, time_min)


@dataclass(frozen=True)
class PathResult:
    """A concrete route: total cost, chosen edges per hop, visited PoIs."""

    cost: Money
    legs: tuple[tuple[int, ModeId], ...]  # (edge id, mode id) per hop
    poi_sequence: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.legs)


def edge_cost(edge: TransitEdge, fares: FareTable) -> Money:
    """Traversal cost in cents: base fare + time rate + distance rate.

    Rounding is half-up to whole cents, applied once per edge.
    """
    policy = fares.policy(edge.mode)
    total = (
        policy.base_fare
        + policy.cost_per_minute * _as_decimal(edge.time_min)
        + policy.cost_per_meter * _as_decimal(edge.distance_m)
    )
    return int(total.quantize(_CENT, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class MultiModalNetwork:
    """Finalized, immutable multigraph. Build via :class:`NetworkBuilder`.

    All query operations on a finalized network are pure functions, so a
    single instance can serve any number of concurrent readers.

    The search views :attr:`cheapest_neighbors`, :attr:`landmarks` and
    :attr:`landmark_tightness` are derived from ``edges`` and
    ``edge_costs`` on first use and cached on the instance. They are not dataclass fields, so they take no part in
    equality or ``repr``, and a network that is never searched never builds
    them.
    """

    pois: tuple[Poi, ...]
    edges: tuple[TransitEdge, ...]
    fare_table: FareTable
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)
    edge_costs: tuple[Money, ...] = field(repr=False)

    @property
    def poi_count(self) -> int:
        return len(self.pois)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
    def landmarks(self) -> tuple[Sequence[Money], ...]:
        """Exact cost from each of up to :data:`LANDMARKS` landmark PoIs to
        every PoI, -1 where the landmark does not reach it.

        Landmarks are picked farthest-point: the first is PoI 0, each next
        one the PoI farthest from every landmark so far, where an unreached
        PoI counts as farthest (so every component gets a landmark before
        any gets a second) and ties go to the lowest id. The picking stops
        early once every PoI costs 0 from some landmark, as a further
        landmark would bound nothing.
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
        """How close the landmark bounds come to exact costs, from 0 to 1.

        Each landmark ``a`` in turn plays a query PoI: the bound on
        ``d(a, v)`` from the other landmarks ``L``, ``max |d_L(a) -
        d_L(v)|``, is summed over every PoI ``v`` and over every ``a``, and
        divided by the summed exact ``d(a, v)``. No search runs; the rows
        are read once. The tightness is 0 with fewer than two landmarks,
        when every cost is 0, and on a disconnected network, where a bound
        across components bounds nothing.
        """
        rows = self.landmarks
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
        if not 0 <= poi_id < len(self.pois):
            raise ConfigurationError(f"PoI id {poi_id} is out of range")


def _valid_coords(value: object) -> bool:
    """True for a ``[lat, lon]`` list or tuple of numbers within ±90 and ±180 degrees."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(type(x) in (int, float) for x in value)):
        return False
    lat, lon = value
    return -90 <= lat <= 90 and -180 <= lon <= 180  # also rejects NaN and infinities


class NetworkBuilder:
    """Single-writer accumulator; ``finalize`` validates and freezes."""

    def __init__(self, allow_self_loops: bool = False):
        self._pois: list[Poi] = []
        self._edges: list[TransitEdge] = []
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
        if coords is not None:
            if not _valid_coords(coords):
                raise ConfigurationError("coords must be null or [lat, lon] in degrees")
            coords = tuple(coords)
        if external_id in self._external_ids:
            raise ConfigurationError(f"duplicate external_id {external_id!r}")
        self._external_ids.add(external_id)
        poi_id = len(self._pois)
        self._pois.append(Poi(poi_id, external_id, name or external_id, category, coords))
        return poi_id

    def add_edge(self, u: int, v: int, mode: ModeId, distance_m: float, time_min: float) -> int:
        if not (0 <= u < len(self._pois) and 0 <= v < len(self._pois)):
            raise ConfigurationError(f"edge endpoints ({u}, {v}) reference unknown PoIs")
        if u == v and not self._allow_self_loops:
            raise ConfigurationError(f"self-loop at PoI {u} rejected")
        edge = _transit_edge(len(self._edges), u, v, mode, distance_m, time_min)
        self._edges.append(edge)
        return edge.id

    def finalize(self, fare_table: FareTable) -> MultiModalNetwork:
        adjacency: list[list[int]] = [[] for _ in self._pois]
        costs: list[Money] = []
        for edge in self._edges:
            if not 0 <= edge.mode < fare_table.mode_count:
                raise ConfigurationError(f"no fare policy for mode id {edge.mode}")
            costs.append(edge_cost(edge, fare_table))
            adjacency[edge.u].append(edge.id)
            if edge.v != edge.u:
                adjacency[edge.v].append(edge.id)
        return MultiModalNetwork(
            pois=tuple(self._pois),
            edges=tuple(self._edges),
            fare_table=fare_table,
            adjacency=tuple(tuple(ids) for ids in adjacency),
            edge_costs=tuple(costs),
        )


def rebuild_with_fares(net: MultiModalNetwork, fare_table: FareTable) -> MultiModalNetwork:
    """Same topology under a different fare table (edge costs recomputed)."""
    return replace(net, fare_table=fare_table, edge_costs=tuple(edge_cost(edge, fare_table) for edge in net.edges))


def cheapest_parallel_edge(net: MultiModalNetwork, u: int, v: int) -> tuple[int, Money] | None:
    """Cheapest edge among all parallel (u, v) edges, or None.

    Ties break toward the lowest mode id, then the lowest edge id.
    """
    net.check_poi(u)
    net.check_poi(v)
    best: tuple[Money, ModeId, int] | None = None
    for eid in net.adjacency[u]:
        edge = net.edges[eid]
        if edge.other(u) != v or u == v:
            continue
        key = (net.edge_costs[eid], edge.mode, eid)
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
    bounds every PoI a search meets by the same constant. The one with the
    largest bound that holds at every start (ties to the earlier landmark)
    decides, by :func:`_bounds_pay_off`, whether the search uses bounds;
    if so, the next largest is the second (or the first again when it is
    the only one, so that the searches can inline exactly two bounds).
    """
    starts, targets = tuple(starts), tuple(targets)
    if not starts or not targets:
        return None
    costs_at_starts = itemgetter(starts[0], *starts)  # a tuple even for one start
    costs_at_targets = itemgetter(targets[0], *targets)
    picked = []  # (bound at the starts, row, lo, hi) per landmark that counts
    best = -1
    for row in net.landmarks:
        at_starts, reached = costs_at_starts(row), costs_at_targets(row)
        near, hi = min(at_starts), max(reached)
        if near < 0 or hi < 0:
            continue
        lo = min(reached)
        if lo < 0:
            lo = min(cost for cost in reached if cost >= 0)
        far = max(at_starts)
        bound = lo - far if lo > far else near - hi if near > hi else 0
        if bound > best:  # ties keep the earlier landmark
            best, reach, band = bound, near + hi, hi - lo
        picked.append((bound, row, lo, hi))
    if best < 0 or not _bounds_pay_off(reach, band):
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


def shortest_costs(net: MultiModalNetwork, source: int, targets: Iterable[int]) -> dict[int, Money]:
    """Cheapest cost from ``source`` to every reachable PoI of ``targets``.

    :func:`layer_costs` seeded at ``source`` alone. A target missing from
    the result is unreachable; ``source``, if it is a target, costs 0. The
    network is undirected, so the costs also hold from each target back to
    ``source``, and each equals ``shortest_path(net, source, target).cost``.
    """
    return {target: cost for target, (cost, _) in layer_costs(net, {source: 0}, 1, targets).items()}


def shortest_path(net: MultiModalNetwork, source: int, target: int) -> PathResult | None:
    """Minimum-cost path between two PoIs, or None when disconnected.

    :func:`shortest_paths` with the one target: a goal-directed search that
    returns :func:`reference_path`'s path.
    """
    return shortest_paths(net, source, (target,)).get(target)


def shortest_paths(net: MultiModalNetwork, source: int, targets: Iterable[int]) -> dict[int, PathResult]:
    """Cheapest path from ``source`` to every reachable PoI of ``targets``.

    A Dijkstra run until every target is settled, made goal-directed when
    :func:`_landmark_bounds` gives bounds: then it is an A* search that
    pops by ``f = g + h``, ``g`` the cost so far and ``h`` the bound. The
    bound is consistent, so every settled cost is exact. Each path equals
    ``reference_path(net, source, target)`` because the search pops in
    ``(f, g, PoI id)`` order. A PoI ``v``'s predecessor is the lowest-id
    PoI that ends a cheapest path to ``v`` among those settled before
    ``v``, and each such ``u`` is settled before ``v`` just when Dijkstra
    settles it first: over a priced edge ``u`` has a lower ``(f, g)``, and
    over a free edge the two have equal ``f`` and ``g`` (a consistent
    bound cannot change across a free edge), so, as in Dijkstra, the PoI
    id alone orders them. A target missing from the result is unreachable.
    """
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    wanted = set(remaining)

    # Per-search state in flat lists indexed by PoI id: tentative cost (None
    # until reached), predecessor and settled mark.
    dist: list[Money | None] = [None] * net.poi_count
    pred = [-1] * net.poi_count
    settled = [False] * net.poi_count
    dist[source] = 0
    neighbors = net.cheapest_neighbors
    # Two copies of one loop, so that a search without bounds pays nothing for them at each push.
    bounds = _landmark_bounds(net, (source,), remaining)
    if bounds is None:
        heap: list[tuple[Money, int]] = [(0, source)]
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
                elif candidate == known and u < pred[v]:
                    pred[v] = u
    else:
        row1, lo1, hi1, row2, lo2, hi2 = bounds
        bounded: list[tuple[Money, Money, int]] = [(0, 0, source)]
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
                elif candidate == known and u < pred[v]:
                    pred[v] = u

    hops: dict[tuple[int, int], tuple[int, ModeId]] = {}  # paths to many targets share hops
    paths: dict[int, PathResult] = {}
    for target in wanted:
        if not settled[target]:
            continue
        sequence = [target]
        while sequence[-1] != source:
            sequence.append(pred[sequence[-1]])
        sequence.reverse()
        legs = []
        for hop in zip(sequence, sequence[1:]):
            if hop not in hops:
                eid, _ = cheapest_parallel_edge(net, *hop)
                hops[hop] = (eid, net.edges[eid].mode)
            legs.append(hops[hop])
        paths[target] = PathResult(dist[target], tuple(legs), tuple(sequence))
    return paths


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
    key and the result is the Dijkstra's.
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
    adjacency = list(net.adjacency)
    for left, right in zip(representatives, representatives[1:]):
        a, b = net.pois[left].coords, net.pois[right].coords
        distance = haversine_m(a, b) if a is not None and b is not None else REPAIR_DISTANCE_M
        time = distance / REPAIR_SPEED_M_PER_MIN
        edge = _transit_edge(net.edge_count + len(added), left, right, repair_mode, distance, time)
        added.append(edge)
        adjacency[left] += (edge.id,)
        adjacency[right] += (edge.id,)

    repaired = replace(
        net,
        edges=net.edges + tuple(added),
        fare_table=fares,
        adjacency=tuple(adjacency),
        edge_costs=net.edge_costs + tuple(edge_cost(edge, fares) for edge in added),
    )
    return repaired, added

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
from collections import deque
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable

from .errors import ConfigurationError

Money = int  # integer cents
ModeId = int  # dense index into the fare table

_CENT = Decimal("1")
_RATE_QUANTUM = Decimal("0.0001")
EARTH_RADIUS_M = 6371_000.0


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

    The search view :attr:`cheapest_neighbors` is derived from ``edges`` and
    ``edge_costs`` on first use and cached on the instance. It is not a
    dataclass field, so it takes no part in equality or ``repr``, and a
    network that is never searched never builds it.
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

    def check_poi(self, poi_id: int) -> None:
        if not 0 <= poi_id < len(self.pois):
            raise ConfigurationError(f"PoI id {poi_id} is out of range")


class NetworkBuilder:
    """Single-writer accumulator; ``finalize`` validates and freezes."""

    def __init__(self, allow_self_loops: bool = False):
        self._pois: list[Poi] = []
        self._edges: list[TransitEdge] = []
        self._allow_self_loops = allow_self_loops

    def add_poi(
        self,
        external_id: str,
        *,
        name: str = "",
        category: int | None = None,
        coords: tuple[float, float] | None = None,
    ) -> int:
        poi_id = len(self._pois)
        self._pois.append(Poi(poi_id, external_id, name or external_id, category, coords))
        return poi_id

    def add_edge(self, u: int, v: int, mode: ModeId, distance_m: float, time_min: float) -> int:
        if not (0 <= u < len(self._pois) and 0 <= v < len(self._pois)):
            raise ConfigurationError(f"edge endpoints ({u}, {v}) reference unknown PoIs")
        if u == v and not self._allow_self_loops:
            raise ConfigurationError(f"self-loop at PoI {u} rejected")
        if not (math.isfinite(distance_m) and distance_m >= 0):
            raise ConfigurationError(f"edge ({u}, {v}) has invalid distance {distance_m}")
        if not (math.isfinite(time_min) and time_min >= 0):
            raise ConfigurationError(f"edge ({u}, {v}) has invalid time {time_min}")
        edge_id = len(self._edges)
        self._edges.append(TransitEdge(edge_id, u, v, mode, distance_m, time_min))
        return edge_id

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


def shortest_path(net: MultiModalNetwork, source: int, target: int) -> PathResult | None:
    """Minimum-cost path between two PoIs, or None when disconnected.

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

    One Dijkstra over :attr:`MultiModalNetwork.cheapest_neighbors` that stops
    once every target is settled. A target missing from the result is
    unreachable; ``source``, if it is a target, costs 0. The network is
    undirected, so the costs also hold from each target back to ``source``,
    and each equals ``shortest_path(net, source, target).cost``.
    """
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    found: dict[int, Money] = {}
    if not remaining:
        return found

    dist: dict[int, Money] = {source: 0}
    heap: list[tuple[Money, int]] = [(0, source)]
    neighbors = net.cheapest_neighbors

    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry; u was settled at a lower cost
        if u in remaining:
            found[u] = d
            remaining.discard(u)
            if not remaining:
                break
        for v, cost in neighbors[u]:
            candidate = d + cost
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                heappush(heap, (candidate, v))
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


def connect_components(
    net: MultiModalNetwork,
    repair_mode_name: str = "UN",
    repair_policy: FarePolicy | None = None,
    *,
    default_distance_m: float = 1000.0,
    default_speed_m_per_min: float = 500.0,
) -> tuple[MultiModalNetwork, list[TransitEdge]]:
    """Make the network connected by chaining its components together.

    Adds exactly ``components - 1`` edges under a fresh mode (default name
    ``"UN"``), joining the lowest-id PoI of consecutive components in
    ascending order. Added edges measure the great-circle distance when both
    endpoints carry coordinates and fall back to ``default_distance_m``
    otherwise; travel time is distance / ``default_speed_m_per_min``.
    An already-connected network is returned unchanged.
    """
    if net.poi_count == 0:
        raise ConfigurationError("cannot repair an empty network")
    components = connected_components(net)
    if len(components) == 1:
        return net, []

    policy = repair_policy if repair_policy is not None else median_fare_policy(net.fare_table)
    fares = net.fare_table.with_mode(repair_mode_name, policy)
    repair_mode = fares.mode_count - 1

    builder = NetworkBuilder(allow_self_loops=True)
    for poi in net.pois:
        builder.add_poi(poi.external_id, name=poi.name, category=poi.category, coords=poi.coords)
    for edge in net.edges:
        builder.add_edge(edge.u, edge.v, edge.mode, edge.distance_m, edge.time_min)

    representatives = [min(component) for component in components]
    added_ids = []
    for left, right in zip(representatives, representatives[1:]):
        a, b = net.pois[left], net.pois[right]
        if a.coords is not None and b.coords is not None:
            distance = haversine_m(a.coords, b.coords)
        else:
            distance = default_distance_m
        added_ids.append(builder.add_edge(left, right, repair_mode, distance, distance / default_speed_m_per_min))

    repaired = builder.finalize(fares)
    return repaired, [repaired.edges[eid] for eid in added_ids]

"""Seeded synthetic networks and query instances for tests and benchmarks.

Fare rates are drawn as whole cents and distances/times as whole units, so
every edge cost is exact before rounding; that keeps cost comparisons stable
under integer fare scaling.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError
from .network import FarePolicy, FareTable, MultiModalNetwork, NetworkBuilder
from .planner import QueryInstance
from .rng import SplitMix64, fold


_ROAD_SPACING_M = 200.0
_ROAD_ORIGIN = (48.85, 2.35)  # (lat, lon) of the lattice's corner
_M_PER_DEG_LAT = 111_320.0


def synthetic_fare_table(seed: int, n_modes: int) -> FareTable:
    """Random integer-cent fare policies named M0..M{n-1}; base fare >= 50c."""
    rng = SplitMix64(fold(seed, "fares"))
    pairs = []
    for mode in range(n_modes):
        pairs.append(
            (
                f"M{mode}",
                FarePolicy(
                    base_fare=50 + rng.below(451),
                    cost_per_meter=rng.below(4),
                    cost_per_minute=1 + rng.below(20),
                ),
            )
        )
    return FareTable.from_pairs(pairs)


def _add_random_edge(builder: NetworkBuilder, rng: SplitMix64, u: int, v: int, n_modes: int) -> None:
    n_parallel = 1 + rng.below(min(n_modes, 3))
    modes = rng.sample(range(n_modes), n_parallel)
    for mode in sorted(modes):
        builder.add_edge(u, v, mode, float(100 + rng.below(4900)), float(1 + rng.below(59)))


def random_network(
    seed: int,
    n_pois: int,
    n_modes: int = 3,
    extra_edges: int | None = None,
    fare_table: FareTable | None = None,
) -> MultiModalNetwork:
    """Connected random multigraph: a random spanning tree plus extras."""
    if n_pois < 1:
        raise ConfigurationError("need at least one PoI")
    fares = fare_table if fare_table is not None else synthetic_fare_table(seed, n_modes)
    if fares.mode_count < n_modes:
        raise ConfigurationError("fare table has fewer modes than requested")
    rng = SplitMix64(fold(seed, "network"))
    builder = NetworkBuilder()
    for i in range(n_pois):
        builder.add_poi(f"p{i:04d}")
    for i in range(1, n_pois):
        _add_random_edge(builder, rng, rng.below(i), i, n_modes)
    extras = extra_edges if extra_edges is not None else n_pois // 2
    attempts = 0
    while extras > 0 and attempts < 20 * n_pois and n_pois > 1:
        attempts += 1
        u, v = rng.below(n_pois), rng.below(n_pois)
        if u == v:
            continue
        _add_random_edge(builder, rng, u, v, n_modes)
        extras -= 1
    return builder.finalize(fares)


def road_network(
    seed: int, side: int, jitter: float = 0.4, fare_table: FareTable | None = None
) -> MultiModalNetwork:
    """Connected city-like network on a ``side`` x ``side`` lattice of PoIs.

    Each PoI sits at its lattice place (200 m apart) moved by up to
    ``jitter`` of the spacing along each axis, and carries (lat, lon)
    coordinates. Every PoI links to its right and lower neighbours, and one
    in ten lattice cells gets a diagonal each way. A link carries one to
    three parallel modes that share its length and travel time (a minute
    per started 400 m plus up to 2 minutes of waiting, both in whole
    units), so modes of equal fares tie. The modes are those of ``fare_table``, by default three of
    :func:`synthetic_fare_table`. With ``jitter`` 0 every lattice link is
    equally long.
    """
    if side < 1:
        raise ConfigurationError("need at least one PoI")
    fares = fare_table if fare_table is not None else synthetic_fare_table(seed, 3)
    n_modes = fares.mode_count
    rng = SplitMix64(fold(seed, "roads"))
    m_per_deg_lon = _M_PER_DEG_LAT * math.cos(math.radians(_ROAD_ORIGIN[0]))
    builder = NetworkBuilder()
    xy = []
    for i in range(side * side):
        x = (i % side + jitter * (2 * rng.uniform() - 1)) * _ROAD_SPACING_M
        y = (i // side + jitter * (2 * rng.uniform() - 1)) * _ROAD_SPACING_M
        xy.append((x, y))
        builder.add_poi(f"r{i:05d}", coords=(_ROAD_ORIGIN[0] + y / _M_PER_DEG_LAT, _ROAD_ORIGIN[1] + x / m_per_deg_lon))

    def link(u: int, v: int) -> None:
        meters = float(round(math.dist(xy[u], xy[v])))
        minutes = float(1 + meters // 400 + rng.below(3))
        for mode in sorted(rng.sample(range(n_modes), 1 + rng.below(min(n_modes, 3)))):
            builder.add_edge(u, v, mode, meters, minutes)

    for i in range(side * side):
        col, row = i % side, i // side
        if col + 1 < side:
            link(i, i + 1)
        if row + 1 < side:
            link(i, i + side)
            if col + 1 < side and rng.below(10) == 0:
                link(i, i + side + 1)
            if col > 0 and rng.below(10) == 0:
                link(i, i + side - 1)
    return builder.finalize(fares)


def random_disconnected_network(
    seed: int,
    n_components: int,
    pois_per_component: int = 4,
    n_modes: int = 2,
) -> MultiModalNetwork:
    """Exactly ``n_components`` islands, each an internally connected cluster."""
    if n_components < 1 or pois_per_component < 1:
        raise ConfigurationError("components and sizes must be positive")
    fares = synthetic_fare_table(seed, n_modes)
    rng = SplitMix64(fold(seed, "islands"))
    builder = NetworkBuilder()
    for island in range(n_components):
        offset = island * pois_per_component
        for i in range(pois_per_component):
            builder.add_poi(f"c{island:03d}n{i:03d}")
        for i in range(1, pois_per_component):
            _add_random_edge(builder, rng, offset + rng.below(i), offset + i, n_modes)
    return builder.finalize(fares)


def random_instance(
    seed: int,
    net: MultiModalNetwork,
    k: int,
    pois_per_category: int,
    n_agents: int,
) -> QueryInstance:
    """Disjoint random category sets plus random agent endpoints."""
    needed = k * pois_per_category
    if needed > net.poi_count:
        raise ConfigurationError(
            f"need {needed} PoIs for {k} categories of {pois_per_category}, have {net.poi_count}"
        )
    rng = SplitMix64(fold(seed, "instance"))
    pool = list(range(net.poi_count))
    rng.shuffle(pool)
    categories = [pool[c * pois_per_category : (c + 1) * pois_per_category] for c in range(k)]
    agents = [(rng.below(net.poi_count), rng.below(net.poi_count)) for _ in range(n_agents)]
    return QueryInstance(agents, categories)

"""Seeded inputs for the benchmark, generated here and nowhere else.

Nothing in this module calls ``gtpmm.synth``, ``gtpmm.rng`` or
``gtpmm.bench.draw_instance``: a change to the package's own generators must
not change what the benchmark measures. The only package calls are the
public builder API (``NetworkBuilder``, ``FarePolicy``, ``FareTable``) that
any caller building a network in memory would use.

Every shape (PoI counts, query sizes, file sizes) is fixed; the seed
chooses positions, links, modes and fares, and where the queries sit. That
keeps the figures of different seeds comparable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from gtpmm import FarePolicy, FareTable, NetworkBuilder

_MASK64 = (1 << 64) - 1


class Rng:
    """SplitMix64, so the streams never depend on the Python version."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, tag: str = ""):
        state = seed & _MASK64
        for byte in tag.encode():
            state = self._mix((state + 0x9E3779B97F4A7C15 + byte) & _MASK64)
        self._state = state

    @staticmethod
    def _mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return self._mix(self._state) % n

    def uniform(self) -> float:
        return self.below(1 << 53) * (2.0**-53)

    def chance(self, p: float) -> bool:
        return self.uniform() < p

    def sample(self, population: range | list, k: int) -> list:
        pool = list(population)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


# --- the city network -------------------------------------------------------------

# name, base fare (cents), cents per meter, cents per minute, speed (m/min)
CITY_MODES = (
    ("Bus", 120, "0.0150", "1.5000", 300.0),
    ("Tram", 150, "0.0120", "1.2000", 350.0),
    ("Subway", 250, "0.0080", "0.8000", 600.0),
    ("Ferry", 300, "0.0200", "0.5000", 250.0),
)
CITY_SIDE = 55  # PoIs per lattice row and column
CITY_POIS = CITY_SIDE * CITY_SIDE
CITY_SPACING_M = 180.0
_CITY_ORIGIN = (52.30, 4.80)  # (lat, lon) of the south-west corner
_M_PER_DEG_LAT = 111_320.0


def city_fare_table() -> FareTable:
    return FareTable.from_pairs((name, FarePolicy(base, per_m, per_min)) for name, base, per_m, per_min, _ in CITY_MODES)


def build_city(seed: int):
    """Connected city on a jittered square lattice: every PoI links to its
    right and lower neighbours, and diagonal links in either direction are
    drawn from the seed. Each link carries one to three parallel modes, so
    the cheapest-mode choice is real work.

    The lattice is complete and the diagonals are drawn alike in both
    directions, so every seed's city is statistically the same under the
    lattice's symmetries; cities with missing links and long express links
    made the search work of the same queries vary by 9% between seeds."""
    rng = Rng(seed, "city")
    side = CITY_SIDE
    lon_scale = _M_PER_DEG_LAT * math.cos(math.radians(_CITY_ORIGIN[0]))
    builder = NetworkBuilder()
    xy: list[tuple[float, float]] = []
    for i in range(CITY_POIS):
        x = (i % side + 0.8 * (rng.uniform() - 0.5)) * CITY_SPACING_M
        y = (i // side + 0.8 * (rng.uniform() - 0.5)) * CITY_SPACING_M
        xy.append((x, y))
        coords = (_CITY_ORIGIN[0] + y / _M_PER_DEG_LAT, _CITY_ORIGIN[1] + x / lon_scale)
        builder.add_poi(f"c{i:05d}", name=f"poi {i}", coords=coords)

    def link(u: int, v: int) -> None:
        meters = math.dist(xy[u], xy[v])
        for mode in sorted(rng.sample(range(len(CITY_MODES)), 1 + rng.below(3))):
            minutes = meters / CITY_MODES[mode][4] + 0.5 + rng.below(40) / 10
            builder.add_edge(u, v, mode, round(meters, 1), round(minutes, 2))

    for i in range(CITY_POIS):
        col, row = i % side, i // side
        if col + 1 < side:
            link(i, i + 1)
        if row + 1 < side:
            link(i, i + side)
            if col + 1 < side and rng.chance(0.1):
                link(i, i + side + 1)
            if col > 0 and rng.chance(0.1):
                link(i, i + side - 1)
    return builder.finalize(city_fare_table())


# --- plan-city queries --------------------------------------------------------------

# (k, PoIs per category, agents, shared?) -- fixed shapes; the seed picks PoIs.
QUERY_SHAPES = (
    (2, 4, 8, True),
    (3, 3, 5, False),
    (3, 4, 8, False),
    (5, 3, 3, True),
    (2, 5, 6, True),
    (3, 5, 5, False),
    (4, 10, 20, False),
)  # an odd count, so the median latency falls inside one query's samples
_TOUR_RADIUS = 0.3  # of the city's width
_DISTRICT_RADIUS = 2.5  # lattice cells


@dataclass(frozen=True)
class QuerySpec:
    agents: tuple[tuple[int, int], ...]
    categories: tuple[tuple[int, ...], ...]
    shared: bool


def plan_queries(seed: int) -> list[QuerySpec]:
    """One query per shape. A group leaves from one district, visits one
    district per category and ends in another, on a tour around the city
    centre; each group's PoIs are drawn from a disc of a few lattice cells.

    The layout is drawn once, from a fixed stream, and the seed picks which
    of the square lattice's eight symmetries (rotations and reflections)
    maps it onto the city. Every seed thus asks for different PoIs with the
    same geometry. How far apart the legs are decides how much of the city
    each search settles: with PoIs drawn afresh for every seed, the work of
    the median query varied by 7-9% between seeds, against 3% this way."""
    rng = Rng(0, "queries")
    side = CITY_SIDE
    symmetry = seed % 8

    def place(row: int, col: int) -> int:
        if symmetry & 1:
            col = side - 1 - col
        if symmetry & 2:
            row = side - 1 - row
        if symmetry & 4:
            row, col = col, row
        return row * side + col

    queries = []
    for q, (k, p, n_agents, shared) in enumerate(QUERY_SHAPES):
        used: set[tuple[int, int]] = set()
        groups = []
        for g in range(k + 2):
            angle = 2 * math.pi * (0.61 * q + g / (k + 2))
            cx = side / 2 + _TOUR_RADIUS * side * math.cos(angle)
            cy = side / 2 + _TOUR_RADIUS * side * math.sin(angle)
            pool = [
                (row, col)
                for row in range(side)
                for col in range(side)
                if (col - cx) ** 2 + (row - cy) ** 2 <= _DISTRICT_RADIUS**2 and (row, col) not in used
            ]
            members = rng.sample(pool, p)
            used.update(members)
            groups.append(tuple(place(row, col) for row, col in members))
        sources, categories, dests = groups[0], groups[1:-1], groups[-1]
        agents = tuple((sources[rng.below(p)], dests[rng.below(p)]) for _ in range(n_agents))
        queries.append(QuerySpec(agents, tuple(categories), shared))
    return queries


# --- ingest raw files ------------------------------------------------------------

INGEST_POIS = 5000
INGEST_ISLANDS = 20
INGEST_EXTRA_EDGES = 12_500
GTFS_STOPS = 1000
GTFS_ROUTES = 20
GTFS_TRIPS_PER_ROUTE = 25
GTFS_STOPS_PER_TRIP = 40

FARE_CSV = """mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy
Bus,1.20-2.40,0.00010-0.00020,0.010-0.020,
Tram,1.50,0.00012,0.012,low
Subway,2.00-3.00,0.00008,0.008-0.012,mid
Ferry,3.00-4.00,0.00020-0.00030,0.005,seeded-uniform
Train,2.50-5.00,0.00006-0.00009,0.006-0.009,
"""
_EDGE_MODES = ("Bus", "Tram", "Subway", "Ferry", "Train")
_GTFS_ROUTE_TYPES = (3, 0, 1, 4, 2)  # Bus, Tram, Subway, Ferry, Train


@dataclass(frozen=True)
class IngestFiles:
    fares: Path
    edge_list: Path
    gtfs: Path
    edge_list_islands: int  # components of the edge-list network, by construction


def write_ingest_files(seed: int, directory: Path) -> IngestFiles:
    """Fare-range CSV, a fragmented edge-list CSV and a GTFS feed."""
    directory.mkdir(parents=True, exist_ok=True)
    fares = directory / "fares.csv"
    fares.write_text(FARE_CSV, encoding="utf-8")
    edge_list = directory / "edges.csv"
    _write_edge_list(seed, edge_list)
    gtfs = directory / "gtfs"
    _write_gtfs(seed, gtfs)
    return IngestFiles(fares, edge_list, gtfs, INGEST_ISLANDS)


def _write_edge_list(seed: int, path: Path) -> None:
    """``INGEST_ISLANDS`` equal islands, each a random tree plus extra links
    inside the island, so repair has exactly ``islands - 1`` links to add."""
    rng = Rng(seed, "edges")
    size = INGEST_POIS // INGEST_ISLANDS
    # External ids are shuffled so sorted-id order differs from island order.
    labels = [f"s{n:06d}" for n in rng.sample(range(10 * INGEST_POIS), INGEST_POIS)]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("u", "v", "mode", "distance_m", "time_min"))

        def row(u: int, v: int) -> None:
            mode = _EDGE_MODES[rng.below(len(_EDGE_MODES))]
            writer.writerow((labels[u], labels[v], mode, 50 + rng.below(5000), (1 + rng.below(400)) / 10))

        for island in range(INGEST_ISLANDS):
            base = island * size
            for i in range(1, size):
                row(base + rng.below(i), base + i)
        for _ in range(INGEST_EXTRA_EDGES):
            island = rng.below(INGEST_ISLANDS) * size
            u, v = island + rng.below(size), island + rng.below(size)
            if u != v:
                row(u, v)


def _gtfs_time(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}:00"


def _write_gtfs(seed: int, directory: Path) -> None:
    """Routes run along random stop sequences; stops no route serves stay
    isolated, so the feed's network is fragmented."""
    rng = Rng(seed, "gtfs")
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "stops.txt").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("stop_id", "stop_name", "stop_lat", "stop_lon"))
        for s in range(GTFS_STOPS):
            lat = 40.70 + rng.below(20_000) / 100_000
            lon = -74.05 + rng.below(20_000) / 100_000
            writer.writerow((f"S{s:05d}", f"Stop {s}", f"{lat:.5f}", f"{lon:.5f}"))
    served = GTFS_STOPS * 9 // 10
    patterns = [rng.sample(range(served), GTFS_STOPS_PER_TRIP) for _ in range(GTFS_ROUTES)]
    with (directory / "routes.txt").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("route_id", "route_type"))
        for r in range(GTFS_ROUTES):
            writer.writerow((f"R{r:03d}", _GTFS_ROUTE_TYPES[r % len(_GTFS_ROUTE_TYPES)]))
    with (directory / "trips.txt").open("w", newline="", encoding="utf-8") as handle, (
        directory / "stop_times.txt"
    ).open("w", newline="", encoding="utf-8") as times:
        trips, stop_times = csv.writer(handle), csv.writer(times)
        trips.writerow(("route_id", "trip_id"))
        stop_times.writerow(("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence"))
        for r, pattern in enumerate(patterns):
            for t in range(GTFS_TRIPS_PER_ROUTE):
                trip_id = f"R{r:03d}T{t:02d}"
                trips.writerow((f"R{r:03d}", trip_id))
                clock = 300 + 30 * t + rng.below(10)
                for sequence, stop in enumerate(pattern, start=1):
                    arrival = clock
                    clock += rng.below(2)  # dwell
                    stop_times.writerow((trip_id, f"S{stop:05d}", _gtfs_time(arrival), _gtfs_time(clock), sequence))
                    clock += 1 + rng.below(6)

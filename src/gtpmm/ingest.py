"""Build networks from files: fare configs, edge lists, and GTFS feeds.

File formats
------------
Fare config (CSV): ``mode,base_fare,cost_per_meter,cost_per_minute,
resolution_strategy``. Money values are in major currency units and are
converted to cents on load; each value is either a single number (``3.20``)
or a range (``2.50-4.00``). The per-row strategy, when nonempty, overrides
the strategy passed to :func:`resolve_fares`.

Edge list (CSV): header exactly ``u,v,mode,distance_m,time_min``; ``u``/``v``
are external PoI ids, ``mode`` is a fare-config mode name. Dense internal
ids are assigned in sorted external-id order.

GTFS: the standard ``stops.txt``, ``routes.txt``, ``trips.txt`` and
``stop_times.txt`` files; times are ``HH:MM:SS`` with hours allowed past 24.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import ConfigurationError, ParseError
from .network import (
    _CENT,
    _RATE_QUANTUM,
    FarePolicy,
    FareTable,
    MultiModalNetwork,
    NetworkBuilder,
    _valid_coords,
    haversine_m,
)
from .rng import SplitMix64

EDGE_LIST_HEADER = ("u", "v", "mode", "distance_m", "time_min")

# Standard GTFS route_type -> mode name.
ROUTE_TYPE_MODES: dict[int, str] = {
    0: "Tram",
    1: "Subway",
    2: "Train",
    3: "Bus",
    4: "Ferry",
    6: "Gondola",
    7: "Funicular",
}

FARE_STRATEGIES = ("low", "high", "mid", "seeded-uniform")


@contextmanager
def _csv_file(path: Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 CSV text (a byte-order mark is tolerated); a
    file that cannot be read, e.g. a directory, or that is not UTF-8 raises
    :class:`ParseError` naming it, also when decoding fails mid-read."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError:
        raise ParseError("file is not UTF-8 text", file=str(path)) from None
    except OSError as error:
        raise ParseError(f"cannot read file: {error.strerror}", file=str(path)) from None


def read_json(path: str | Path, kind: str) -> object:
    """The JSON document in the ``kind`` file at ``path``; invalid JSON,
    text that is not UTF-8 and an unreadable file raise :class:`ParseError`
    naming the file, and the line for invalid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error.msg}", file=str(path), line=error.lineno) from None
    except UnicodeDecodeError:
        raise ParseError(f"{kind} file is not UTF-8 text", file=str(path)) from None
    except OSError as error:
        raise ParseError(f"cannot read {kind} file: {error.strerror}", file=str(path)) from None


# --- fare configuration -------------------------------------------------------


@dataclass(frozen=True)
class FareRange:
    """Per-mode fare bounds in cents; low == high for fixed fares."""

    mode: str
    base_fare: tuple[Decimal, Decimal]
    cost_per_meter: tuple[Decimal, Decimal]
    cost_per_minute: tuple[Decimal, Decimal]
    strategy: str | None = None


def _parse_money_range(text: str, *, file: str, line: int) -> tuple[Decimal, Decimal]:
    """Parse ``lo-hi`` or a single value, in major units, to a cents range."""
    raw = text.strip().lstrip("~")
    parts = raw.split("-") if "-" in raw else [raw, raw]
    if len(parts) != 2:
        raise ParseError(f"cannot parse money range {text!r}", file=file, line=line)
    try:
        low = Decimal(parts[0].strip()) * 100
        high = Decimal(parts[1].strip()) * 100
    except InvalidOperation:
        raise ParseError(f"cannot parse money range {text!r}", file=file, line=line) from None
    if not (low.is_finite() and high.is_finite()):
        raise ParseError(f"money range {text!r} is not finite", file=file, line=line)
    if low < 0 or low > high:
        raise ParseError(f"inverted or negative range {text!r}", file=file, line=line)
    return low, high


def load_fare_config(path: str | Path) -> list[FareRange]:
    """Read the fare config CSV into per-mode ranges."""
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", file=str(path))
    ranges: list[FareRange] = []
    seen: set[str] = set()
    with _csv_file(path) as handle:
        reader = csv.DictReader(handle)
        expected = ["mode", "base_fare", "cost_per_meter", "cost_per_minute", "resolution_strategy"]
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
            raise ParseError(f"expected header {','.join(expected)}", file=str(path), line=1)
        for row_number, row in enumerate(reader, start=2):
            mode = (row["mode"] or "").strip()
            if not mode:
                raise ParseError("empty mode name", file=str(path), line=row_number)
            if mode in seen:
                raise ParseError(f"duplicate mode {mode!r}", file=str(path), line=row_number)
            seen.add(mode)
            strategy = (row["resolution_strategy"] or "").strip() or None
            if strategy is not None and strategy not in FARE_STRATEGIES:
                raise ParseError(f"unknown resolution strategy {strategy!r}", file=str(path), line=row_number)
            ranges.append(
                FareRange(
                    mode=mode,
                    base_fare=_parse_money_range(row["base_fare"], file=str(path), line=row_number),
                    cost_per_meter=_parse_money_range(row["cost_per_meter"], file=str(path), line=row_number),
                    cost_per_minute=_parse_money_range(row["cost_per_minute"], file=str(path), line=row_number),
                    strategy=strategy,
                )
            )
    return ranges


def _pick(bounds: tuple[Decimal, Decimal], strategy: str, rng: SplitMix64, quantum: Decimal) -> Decimal:
    low, high = bounds
    if strategy == "low":
        value = low
    elif strategy == "high":
        value = high
    elif strategy == "mid":
        value = (low + high) / 2
    elif strategy == "seeded-uniform":
        value = low + (high - low) * Decimal(repr(rng.uniform()))
    else:
        raise ConfigurationError(f"unknown fare strategy {strategy!r}")
    return value.quantize(quantum, rounding=ROUND_HALF_UP)


def resolve_fares(
    ranges: Iterable[FareRange], strategy: str = "low", seed: int = 0
) -> FareTable:
    """Collapse fare ranges into a concrete fare table.

    ``low``/``high``/``mid`` pick the respective bound or midpoint;
    ``seeded-uniform`` samples each component uniformly within its range
    (three draws per mode, in file order, from one SplitMix64 stream). A
    per-row strategy in the config overrides ``strategy`` for that mode.
    """
    if strategy not in FARE_STRATEGIES:
        raise ConfigurationError(f"unknown fare strategy {strategy!r}")
    rng = SplitMix64(seed)
    pairs = []
    for r in ranges:
        effective = r.strategy or strategy
        base = _pick(r.base_fare, effective, rng, _CENT)
        per_meter = _pick(r.cost_per_meter, effective, rng, _RATE_QUANTUM)
        per_minute = _pick(r.cost_per_minute, effective, rng, _RATE_QUANTUM)
        pairs.append((r.mode, FarePolicy(int(base), per_meter, per_minute)))
    return FareTable.from_pairs(pairs)


# --- edge lists ---------------------------------------------------------------


def load_edge_list(path: str | Path, fare_table: FareTable) -> MultiModalNetwork:
    """Build a network from an edge-list CSV (see module docstring)."""
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", file=str(path))
    rows: list[tuple[int, str, str, str, float, float]] = []
    externals: set[str] = set()
    with _csv_file(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != EDGE_LIST_HEADER:
            raise ParseError(f"expected header {','.join(EDGE_LIST_HEADER)}", file=str(path), line=1)
        for row_number, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 columns, got {len(row)}", file=str(path), line=row_number)
            u, v, mode, distance_text, time_text = (cell.strip() for cell in row)
            if u == v:
                raise ParseError(f"self-loop at {u!r}", file=str(path), line=row_number)
            try:
                distance = float(distance_text)
                time = float(time_text)
            except ValueError:
                raise ParseError("distance and time must be numeric", file=str(path), line=row_number) from None
            if not (0 <= distance < math.inf and 0 <= time < math.inf):
                raise ParseError("distance and time must be finite and nonnegative", file=str(path), line=row_number)
            if mode not in fare_table.names:
                raise ParseError(f"unknown mode {mode!r}", file=str(path), line=row_number)
            externals.update((u, v))
            rows.append((row_number, u, v, mode, distance, time))

    builder = NetworkBuilder()
    ids = {external: builder.add_poi(external) for external in sorted(externals)}
    for _, u, v, mode, distance, time in rows:
        builder.add_edge(ids[u], ids[v], fare_table.id_of(mode), distance, time)
    return builder.finalize(fare_table)


def save_edge_list(net: MultiModalNetwork, path: str | Path) -> None:
    """Write a network back out in the edge-list format (round-trippable)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(EDGE_LIST_HEADER)
        for edge in net.edges:
            writer.writerow(
                (
                    net.pois[edge.u].external_id,
                    net.pois[edge.v].external_id,
                    net.fare_table.name(edge.mode),
                    f"{edge.distance_m:g}",
                    f"{edge.time_min:g}",
                )
            )


# --- GTFS ---------------------------------------------------------------------


@dataclass(frozen=True)
class GtfsStop:
    stop_id: str
    name: str
    lat: float
    lon: float


@dataclass(frozen=True)
class GtfsStopTime:
    trip_id: str
    stop_id: str
    arrival_min: float
    departure_min: float
    sequence: int
    line: int  # source line, for error reporting


@dataclass
class GtfsFeed:
    """Parsed GTFS tables with identifiers resolved."""

    stops: dict[str, GtfsStop] = field(default_factory=dict)
    route_types: dict[str, int] = field(default_factory=dict)
    trip_routes: dict[str, str] = field(default_factory=dict)
    stop_times: dict[str, list[GtfsStopTime]] = field(default_factory=dict)


def _parse_gtfs_time(text: str, *, file: str, line: int) -> float:
    """``HH:MM:SS`` to minutes since midnight; hours may exceed 24."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ParseError(f"cannot parse time {text!r}", file=file, line=line)
    try:
        hours, minutes, seconds = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"cannot parse time {text!r}", file=file, line=line) from None
    if minutes >= 60 or seconds >= 60 or hours < 0 or minutes < 0 or seconds < 0:
        raise ParseError(f"time {text!r} out of range", file=file, line=line)
    return hours * 60 + minutes + seconds / 60


@contextmanager
def _gtfs_table(directory: Path, name: str, required: tuple[str, ...]) -> Iterator[tuple[Path, csv.DictReader]]:
    path = directory / name
    if not path.exists():
        raise ParseError("required GTFS file missing", file=str(path))
    with _csv_file(path) as handle:
        reader = csv.DictReader(handle)
        fields = set(reader.fieldnames or ())
        missing = [column for column in required if column not in fields]
        if missing:
            raise ParseError(f"missing columns {missing}", file=str(path), line=1)
        yield path, reader


def parse_gtfs(directory: str | Path) -> GtfsFeed:
    """Parse a GTFS directory; every error names its file and line."""
    directory = Path(directory)
    feed = GtfsFeed()

    with _gtfs_table(directory, "stops.txt", ("stop_id", "stop_name", "stop_lat", "stop_lon")) as (path, reader):
        for row_number, row in enumerate(reader, start=2):
            stop_id = row["stop_id"].strip()
            if stop_id in feed.stops:
                raise ParseError(f"duplicate stop_id {stop_id!r}", file=str(path), line=row_number)
            try:
                lat, lon = float(row["stop_lat"]), float(row["stop_lon"])
            except ValueError:
                raise ParseError("stop coordinates must be numeric", file=str(path), line=row_number) from None
            if not _valid_coords((lat, lon)):
                raise ParseError("stop latitude or longitude out of range", file=str(path), line=row_number)
            feed.stops[stop_id] = GtfsStop(stop_id, row["stop_name"].strip(), lat, lon)

    with _gtfs_table(directory, "routes.txt", ("route_id", "route_type")) as (path, reader):
        for row_number, row in enumerate(reader, start=2):
            try:
                route_type = int(row["route_type"])
            except ValueError:
                raise ParseError("route_type must be an integer", file=str(path), line=row_number) from None
            if route_type not in ROUTE_TYPE_MODES:
                raise ParseError(f"unsupported route_type {route_type}", file=str(path), line=row_number)
            feed.route_types[row["route_id"].strip()] = route_type

    with _gtfs_table(directory, "trips.txt", ("route_id", "trip_id")) as (path, reader):
        for row_number, row in enumerate(reader, start=2):
            route_id = row["route_id"].strip()
            if route_id not in feed.route_types:
                raise ParseError(f"trip references unknown route {route_id!r}", file=str(path), line=row_number)
            feed.trip_routes[row["trip_id"].strip()] = route_id

    with _gtfs_table(
        directory, "stop_times.txt", ("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence")
    ) as (path, reader):
        for row_number, row in enumerate(reader, start=2):
            trip_id = row["trip_id"].strip()
            stop_id = row["stop_id"].strip()
            if trip_id not in feed.trip_routes:
                raise ParseError(f"stop_time references unknown trip {trip_id!r}", file=str(path), line=row_number)
            if stop_id not in feed.stops:
                raise ParseError(f"stop_time references unknown stop {stop_id!r}", file=str(path), line=row_number)
            arrival = _parse_gtfs_time(row["arrival_time"], file=str(path), line=row_number)
            departure = _parse_gtfs_time(row["departure_time"], file=str(path), line=row_number)
            if departure < arrival:
                raise ParseError("departure before arrival", file=str(path), line=row_number)
            try:
                sequence = int(row["stop_sequence"])
            except ValueError:
                raise ParseError("stop_sequence must be an integer", file=str(path), line=row_number) from None
            feed.stop_times.setdefault(trip_id, []).append(
                GtfsStopTime(trip_id, stop_id, arrival, departure, sequence, row_number)
            )

    stop_times_file = str(directory / "stop_times.txt")
    for trip_id, entries in feed.stop_times.items():
        entries.sort(key=lambda e: e.sequence)
        for previous, current in zip(entries, entries[1:]):
            if current.sequence <= previous.sequence:
                raise ParseError(
                    f"stop_sequence not strictly increasing in trip {trip_id!r}",
                    file=stop_times_file,
                    line=current.line,
                )
            if current.arrival_min < previous.departure_min:
                raise ParseError(
                    f"times not monotone in trip {trip_id!r}", file=stop_times_file, line=current.line
                )
    return feed


def load_gtfs(directory: str | Path, fare_table: FareTable) -> MultiModalNetwork:
    """Network from a GTFS feed: one PoI per stop, one edge per consecutive
    stop pair within a trip.

    Edge time is the departure-to-arrival delta (dwell excluded); distance
    is the great-circle length between the stops. Parallel observations of
    the same (stop pair, mode) collapse to the minimum time.
    """
    feed = parse_gtfs(directory)
    builder = NetworkBuilder()
    ids: dict[str, int] = {}
    coords: list[tuple[float, float]] = []
    for stop_id in sorted(feed.stops):
        stop = feed.stops[stop_id]
        ids[stop_id] = builder.add_poi(stop_id, name=stop.name, coords=(stop.lat, stop.lon))
        coords.append((stop.lat, stop.lon))

    best: dict[tuple[int, int, int], float] = {}  # (u, v, mode) -> minutes, u < v
    for trip_id, entries in sorted(feed.stop_times.items()):
        mode_name = ROUTE_TYPE_MODES[feed.route_types[feed.trip_routes[trip_id]]]
        mode = fare_table.id_of(mode_name)
        for previous, current in zip(entries, entries[1:]):
            u, v = ids[previous.stop_id], ids[current.stop_id]
            if u == v:
                continue
            key = (min(u, v), max(u, v), mode)
            minutes = current.arrival_min - previous.departure_min
            if key not in best or minutes < best[key]:
                best[key] = minutes

    for (u, v, mode), minutes in sorted(best.items()):
        builder.add_edge(u, v, mode, haversine_m(coords[u], coords[v]), minutes)
    return builder.finalize(fare_table)


# --- serialized networks --------------------------------------------------------


def save_network_json(net: MultiModalNetwork, path: str | Path) -> None:
    """Serialize a finalized network (PoIs, edges, resolved fares) to JSON."""
    document = {
        "modes": [
            {
                "name": net.fare_table.names[mode],
                "base_fare_cents": net.fare_table.policies[mode].base_fare,
                "cost_per_meter_cents": str(net.fare_table.policies[mode].cost_per_meter),
                "cost_per_minute_cents": str(net.fare_table.policies[mode].cost_per_minute),
            }
            for mode in range(net.fare_table.mode_count)
        ],
        "pois": [
            {
                "external_id": poi.external_id,
                "name": poi.name,
                "category": poi.category,
                "coords": list(poi.coords) if poi.coords else None,
            }
            for poi in net.pois
        ],
        "edges": [
            {"u": e.u, "v": e.v, "mode": e.mode, "distance_m": e.distance_m, "time_min": e.time_min}
            for e in net.edges
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def load_network_json(path: str | Path) -> MultiModalNetwork:
    """Load a network serialized by :func:`save_network_json`."""
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", file=str(path))
    document = read_json(path, "network")

    if not isinstance(document, dict):
        raise ParseError("a network must be a JSON object with 'modes', 'pois' and 'edges'", file=str(path))
    for key in ("modes", "pois", "edges"):
        if not isinstance(document.get(key), list):
            raise ParseError(f"a network needs a list under {key!r}", file=str(path))

    pairs = []
    for index, entry in enumerate(document["modes"]):
        try:
            policy = FarePolicy(
                int(entry["base_fare_cents"]),
                Decimal(entry["cost_per_meter_cents"]),
                Decimal(entry["cost_per_minute_cents"]),
            )
            pairs.append((entry["name"], policy))
        except (KeyError, TypeError, ValueError, ArithmeticError, ConfigurationError) as error:
            raise _malformed(path, f"modes[{index}]", error) from None
    try:
        fare_table = FareTable.from_pairs(pairs)
    except ConfigurationError as error:
        raise ParseError(f"modes: {error}", file=str(path)) from None

    builder = NetworkBuilder(allow_self_loops=True)  # save_network_json writes any network, self-loops too
    for index, poi in enumerate(document["pois"]):
        try:
            external_id = poi["external_id"]
            name = poi.get("name", "")
            if type(external_id) is not str or type(name) is not str:
                raise ParseError(f"pois[{index}]: external_id and name must be strings", file=str(path))
            builder.add_poi(external_id, name=name, category=poi.get("category"), coords=poi.get("coords"))
        except (KeyError, TypeError, ConfigurationError) as error:
            raise _malformed(path, f"pois[{index}]", error) from None
    modes = fare_table.mode_count
    for index, edge in enumerate(document["edges"]):
        try:
            u, v, mode = edge["u"], edge["v"], edge["mode"]
            if type(u) is not int or type(v) is not int or type(mode) is not int or not 0 <= mode < modes:
                raise ParseError(f"edges[{index}]: u and v must be PoI ids and mode a mode id", file=str(path))
            builder.add_edge(u, v, mode, edge["distance_m"], edge["time_min"])
        except (KeyError, TypeError, ConfigurationError) as error:
            raise _malformed(path, f"edges[{index}]", error) from None
    return builder.finalize(fare_table)


def _malformed(path: Path, element: str, error: Exception) -> ParseError:
    """ParseError naming the JSON element a loader rejected and why."""
    if isinstance(error, KeyError):
        reason = f"missing key {error}"
    elif isinstance(error, ConfigurationError):
        reason = str(error)
    else:
        reason = "malformed entry or value"
    return ParseError(f"{element}: {reason}", file=str(path))


# --- categorization -----------------------------------------------------------


@dataclass(frozen=True)
class CategoryConfig:
    """How to assign the ``k`` intermediate categories to PoIs.

    Strategies: ``round-robin`` (PoI id modulo k, equal sizes up to
    remainder), ``seeded-random`` (independent uniform draws; may fail the
    nonemptiness check), ``by-name-keyword`` (first keyword contained in the
    PoI name wins, case-insensitive; unmatched PoIs stay uncategorized).
    """

    k: int
    strategy: str = "round-robin"
    seed: int = 0
    keywords: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("category count must be at least 1")
        if self.strategy not in ("round-robin", "seeded-random", "by-name-keyword"):
            raise ConfigurationError(f"unknown category strategy {self.strategy!r}")
        if self.strategy == "by-name-keyword":
            bad = [c for c in self.keywords.values() if not 0 <= c < self.k]
            if bad:
                raise ConfigurationError(f"keyword categories out of range: {bad}")


def categorize(net: MultiModalNetwork, cfg: CategoryConfig) -> tuple[MultiModalNetwork, list[tuple[int, ...]]]:
    """Assign categories and return (relabeled network, k id-tuples).

    Fails with the offending index if any category ends up empty.
    """
    if cfg.k > net.poi_count:
        raise ConfigurationError(f"cannot split {net.poi_count} PoIs into {cfg.k} categories")

    assignment: dict[int, int] = {}
    if cfg.strategy == "round-robin":
        for poi in net.pois:
            assignment[poi.id] = poi.id % cfg.k
    elif cfg.strategy == "seeded-random":
        rng = SplitMix64(cfg.seed)
        for poi in net.pois:
            assignment[poi.id] = rng.below(cfg.k)
    else:
        lowered = [(keyword.lower(), category) for keyword, category in cfg.keywords.items()]
        for poi in net.pois:
            name = poi.name.lower()
            for keyword, category in lowered:
                if keyword in name:
                    assignment[poi.id] = category
                    break

    sets: list[list[int]] = [[] for _ in range(cfg.k)]
    for poi_id, category in sorted(assignment.items()):
        sets[category].append(poi_id)
    for index, ids_in_set in enumerate(sets):
        if not ids_in_set:
            raise ConfigurationError(f"category {index} is empty after assignment")

    relabeled = replace(net, pois=tuple(replace(poi, category=assignment.get(poi.id)) for poi in net.pois))
    return relabeled, [tuple(ids_in_set) for ids_in_set in sets]

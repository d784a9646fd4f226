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
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, Overflow, ROUND_HALF_UP
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigurationError, ParseError
from .network import (
    _CENT,
    _RATE_QUANTUM,
    FarePolicy,
    FareTable,
    MultiModalNetwork,
    NetworkBuilder,
    haversine_m,
)
from .rng import SplitMix64

FARE_CONFIG_HEADER = ("mode", "base_fare", "cost_per_meter", "cost_per_minute", "resolution_strategy")
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


def _csv_records(path: Path, columns: tuple[str, ...], *, exact: bool) -> Iterator[tuple[int, list[str]]]:
    """The records of the CSV file at ``path`` as ``(line, cells)``: the
    line a record starts on, and its cells under ``columns``, in that order
    and stripped of surrounding whitespace.

    The file is read as UTF-8 (a byte-order mark is tolerated). Its header
    must be ``columns`` exactly when ``exact``, and otherwise hold each of
    them; a column named twice is read from its last position. A blank line
    (no cells, or one of whitespace) is skipped; any other record must have
    as many cells as the header. Every failure, an unreadable or non-UTF-8
    file included, is a :class:`ParseError` naming the file.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = [name.strip() for name in next(reader, ())]
            if exact and tuple(header) != columns:
                raise ParseError(f"expected header {','.join(columns)}", file=str(path), line=1)
            positions = {name: index for index, name in enumerate(header)}
            missing = [column for column in columns if column not in positions]
            if missing:
                raise ParseError(f"missing columns {missing}", file=str(path), line=1)
            picks = [positions[column] for column in columns]
            width, last = len(header), reader.line_num
            for row in reader:
                line, last = last + 1, reader.line_num
                if len(row) != width:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    raise ParseError(f"expected {width} columns, got {len(row)}", file=str(path), line=line)
                yield line, [row[index].strip() for index in picks]
    except UnicodeDecodeError:
        raise ParseError("file is not UTF-8 text", file=str(path)) from None
    except OSError as error:
        raise ParseError(f"cannot read file: {error.strerror}", file=str(path)) from None
    except csv.Error as error:  # a cell past csv.field_size_limit()
        raise ParseError(f"malformed CSV: {error}", file=str(path), line=reader.line_num) from None


def read_json(path: str | Path, kind: str) -> object:
    """The JSON document in the ``kind`` file at ``path``; invalid JSON,
    text that is not UTF-8, a number of more digits than ``int`` converts,
    nesting deeper than the decoder recurses and an unreadable file raise
    :class:`ParseError` naming the file, and the line for invalid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error.msg}", file=str(path), line=error.lineno) from None
    except UnicodeDecodeError:
        raise ParseError(f"{kind} file is not UTF-8 text", file=str(path)) from None
    except (ValueError, RecursionError):
        raise ParseError("invalid JSON: a number too long or nesting too deep to decode", file=str(path)) from None
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
    """Parse ``lo-hi`` or a single value, in major units, to a cents range.

    The upper end must round to :data:`~gtpmm.network._RATE_QUANTUM`, the
    finest quantum :func:`resolve_fares` rounds to, within the decimal
    context's precision; then so does every value a strategy picks.
    """
    raw = text.strip().lstrip("~")
    parts = raw.split("-") if "-" in raw else [raw, raw]
    if len(parts) != 2:
        raise ParseError(f"cannot parse money range {text!r}", file=file, line=line)
    try:
        low = Decimal(parts[0].strip()) * 100
        high = Decimal(parts[1].strip()) * 100
    except InvalidOperation:
        raise ParseError(f"cannot parse money range {text!r}", file=file, line=line) from None
    except Overflow:  # an exponent past the decimal context's limit
        raise ParseError(f"money range {text!r} is too large", file=file, line=line) from None
    if not (low.is_finite() and high.is_finite()):
        raise ParseError(f"money range {text!r} is not finite", file=file, line=line)
    if low < 0 or low > high:
        raise ParseError(f"inverted or negative range {text!r}", file=file, line=line)
    try:
        high.quantize(_RATE_QUANTUM)
    except InvalidOperation:
        raise ParseError(f"money range {text!r} is too large", file=file, line=line) from None
    return low, high


def load_fare_config(path: str | Path) -> list[FareRange]:
    """Read the fare config CSV into per-mode ranges."""
    path = Path(path)
    ranges: list[FareRange] = []
    seen: set[str] = set()
    for line, (mode, base_fare, per_meter, per_minute, strategy) in _csv_records(path, FARE_CONFIG_HEADER, exact=True):
        if not mode:
            raise ParseError("empty mode name", file=str(path), line=line)
        if mode in seen:
            raise ParseError(f"duplicate mode {mode!r}", file=str(path), line=line)
        seen.add(mode)
        if strategy and strategy not in FARE_STRATEGIES:
            raise ParseError(f"unknown resolution strategy {strategy!r}", file=str(path), line=line)
        ranges.append(
            FareRange(
                mode=mode,
                base_fare=_parse_money_range(base_fare, file=str(path), line=line),
                cost_per_meter=_parse_money_range(per_meter, file=str(path), line=line),
                cost_per_minute=_parse_money_range(per_minute, file=str(path), line=line),
                strategy=strategy or None,
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
    rows: list[tuple[int, str, str, str, float, float]] = []
    externals: set[str] = set()
    for line, (u, v, mode, distance_text, time_text) in _csv_records(path, EDGE_LIST_HEADER, exact=True):
        try:
            distance = float(distance_text)
            time = float(time_text)
        except ValueError:
            raise ParseError("distance and time must be numeric", file=str(path), line=line) from None
        externals.update((u, v))
        rows.append((line, u, v, mode, distance, time))

    builder = NetworkBuilder()
    ids = {external: builder.add_poi(external) for external in sorted(externals)}
    try:
        for line, u, v, mode, distance, time in rows:
            builder.add_edge(ids[u], ids[v], fare_table.id_of(mode), distance, time)
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # edge ids follow the rows
        line = line if error.edge is None else rows[error.edge][0]
        raise ParseError(str(error), file=str(path), line=line) from None


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
    line: int  # source line, for error reporting


class GtfsStopTime(NamedTuple):
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
    try:
        return hours * 60 + minutes + seconds / 60
    except OverflowError:  # more minutes than a float holds
        raise ParseError(f"time {text!r} out of range", file=file, line=line) from None


def parse_gtfs(directory: str | Path) -> GtfsFeed:
    """Parse a GTFS directory; every error names its file and line.

    Each distinct time text of ``stop_times.txt`` is parsed once per call
    and its minutes reused, so a malformed time is still reported at the
    first line that holds it.
    """
    directory = Path(directory)
    feed = GtfsFeed()

    path = directory / "stops.txt"
    file = str(path)
    for line, (stop_id, name, lat_text, lon_text) in _csv_records(
        path, ("stop_id", "stop_name", "stop_lat", "stop_lon"), exact=False
    ):
        if stop_id in feed.stops:
            raise ParseError(f"duplicate stop_id {stop_id!r}", file=file, line=line)
        try:
            lat, lon = float(lat_text), float(lon_text)
        except ValueError:
            raise ParseError("stop coordinates must be numeric", file=file, line=line) from None
        feed.stops[stop_id] = GtfsStop(stop_id, name, lat, lon, line)

    path = directory / "routes.txt"
    file = str(path)
    for line, (route_id, route_type_text) in _csv_records(path, ("route_id", "route_type"), exact=False):
        try:
            route_type = int(route_type_text)
        except ValueError:
            raise ParseError("route_type must be an integer", file=file, line=line) from None
        if route_type not in ROUTE_TYPE_MODES:
            raise ParseError(f"unsupported route_type {route_type}", file=file, line=line)
        feed.route_types[route_id] = route_type

    path = directory / "trips.txt"
    file = str(path)
    for line, (route_id, trip_id) in _csv_records(path, ("route_id", "trip_id"), exact=False):
        if route_id not in feed.route_types:
            raise ParseError(f"trip references unknown route {route_id!r}", file=file, line=line)
        feed.trip_routes[trip_id] = route_id

    path = directory / "stop_times.txt"
    file = str(path)
    minutes: dict[str, float] = {}  # time text -> its minutes, parsed at the first line holding it
    for line, (trip_id, stop_id, arrival_text, departure_text, sequence_text) in _csv_records(
        path, ("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence"), exact=False
    ):
        if trip_id not in feed.trip_routes:
            raise ParseError(f"stop_time references unknown trip {trip_id!r}", file=file, line=line)
        if stop_id not in feed.stops:
            raise ParseError(f"stop_time references unknown stop {stop_id!r}", file=file, line=line)
        arrival = minutes.get(arrival_text)
        if arrival is None:
            arrival = minutes[arrival_text] = _parse_gtfs_time(arrival_text, file=file, line=line)
        departure = minutes.get(departure_text)
        if departure is None:
            departure = minutes[departure_text] = _parse_gtfs_time(departure_text, file=file, line=line)
        if departure < arrival:
            raise ParseError("departure before arrival", file=file, line=line)
        try:
            sequence = int(sequence_text)
        except ValueError:
            raise ParseError("stop_sequence must be an integer", file=file, line=line) from None
        feed.stop_times.setdefault(trip_id, []).append(
            GtfsStopTime(trip_id, stop_id, arrival, departure, sequence, line)
        )

    for trip_id, entries in feed.stop_times.items():
        entries.sort(key=lambda e: e.sequence)
        for previous, current in zip(entries, entries[1:]):
            if current.sequence <= previous.sequence:
                raise ParseError(
                    f"stop_sequence not strictly increasing in trip {trip_id!r}",
                    file=file,
                    line=current.line,
                )
            if current.arrival_min < previous.departure_min:
                raise ParseError(f"times not monotone in trip {trip_id!r}", file=file, line=current.line)
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
        try:
            ids[stop_id] = builder.add_poi(stop_id, name=stop.name, coords=(stop.lat, stop.lon))
        except ConfigurationError as error:  # a latitude or longitude out of range
            raise ParseError(str(error), file=str(Path(directory) / "stops.txt"), line=stop.line) from None
        coords.append((stop.lat, stop.lon))

    # (u, v, mode) -> (minutes, the stop_times.txt line they were read at), u < v
    best: dict[tuple[int, int, int], tuple[float, int]] = {}
    try:
        for trip_id, entries in sorted(feed.stop_times.items()):
            line = entries[0].line
            mode = fare_table.id_of(ROUTE_TYPE_MODES[feed.route_types[feed.trip_routes[trip_id]]])
            for previous, current in zip(entries, entries[1:]):
                u, v = ids[previous.stop_id], ids[current.stop_id]
                if u == v:
                    continue
                key = (min(u, v), max(u, v), mode)
                minutes = current.arrival_min - previous.departure_min
                if key not in best or minutes < best[key][0]:
                    best[key] = (minutes, current.line)
        edges = sorted(best.items())
        for (u, v, mode), (minutes, line) in edges:
            builder.add_edge(u, v, mode, haversine_m(coords[u], coords[v]), minutes)
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # a trip's mode, or an edge's cost; edge ids follow the sorted edges
        line = line if error.edge is None else edges[error.edge][1][1]
        raise ParseError(str(error), file=str(Path(directory) / "stop_times.txt"), line=line) from None


# --- serialized networks --------------------------------------------------------


# The text json.dumps writes with indent=2, built here because with an indent
# it falls back to its pure-Python encoder: strings and numbers go through the
# C functions that encoder calls, and a network's records through fixed templates.


def _json_value(value: object) -> str:
    """The JSON text of a scalar: strings, exact ints and finite floats
    through the C functions the json encoder itself calls."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    return json.dumps(value)  # a bool, an int or float subclass, a non-finite float


def _template(value: dict | list, indent: str) -> str:
    """``value``, whose values are all :data:`_SLOT`, as ``json.dumps``
    writes it with ``indent=2`` when opened at ``indent``, with a ``%s`` in
    place of each value."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent).replace(json.dumps(_SLOT), "%s")


def _json_list(records: list[str]) -> str:
    """A list of records written at the second level, as ``json.dumps``
    writes it with ``indent=2``."""
    return "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"


_SLOT = "\0"  # a value no template's keys contain
_NETWORK = _template(dict.fromkeys(("modes", "pois", "edges"), _SLOT), "")
_MODE_RECORD = _template(
    dict.fromkeys(("name", "base_fare_cents", "cost_per_meter_cents", "cost_per_minute_cents"), _SLOT), "    "
)
_POI_RECORD = _template(dict.fromkeys(("external_id", "name", "category", "coords"), _SLOT), "    ")
_EDGE_RECORD = _template(dict.fromkeys(("u", "v", "mode", "distance_m", "time_min"), _SLOT), "    ")
_COORDS = _template([_SLOT, _SLOT], "      ")


def save_network_json(net: MultiModalNetwork, path: str | Path) -> None:
    """Serialize a finalized network (PoIs, edges, resolved fares) to JSON.

    The file holds ``{"modes": [...], "pois": [...], "edges": [...]}`` as
    ``json.dumps`` writes it with ``indent=2``, and a newline; each record
    is filled into one fixed template.
    """
    fares = net.fare_table
    modes = [
        _MODE_RECORD
        % tuple(map(_json_value, (name, policy.base_fare, str(policy.cost_per_meter), str(policy.cost_per_minute))))
        for name, policy in zip(fares.names, fares.policies)
    ]
    pois = [
        _POI_RECORD
        % (
            _json_value(poi.external_id),
            _json_value(poi.name),
            _json_value(poi.category),
            _COORDS % (_json_value(poi.coords[0]), _json_value(poi.coords[1])) if poi.coords else "null",
        )
        for poi in net.pois
    ]
    edges = [
        _EDGE_RECORD
        % (_json_value(e.u), _json_value(e.v), _json_value(e.mode), _json_value(e.distance_m), _json_value(e.time_min))
        for e in net.edges
    ]
    text = _NETWORK % (_json_list(modes), _json_list(pois), _json_list(edges))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_network_json(path: str | Path) -> MultiModalNetwork:
    """Load a network serialized by :func:`save_network_json`."""
    path = Path(path)
    document = read_json(path, "network")

    if not isinstance(document, dict):
        raise ParseError("a network must be a JSON object with 'modes', 'pois' and 'edges'", file=str(path))
    for key in ("modes", "pois", "edges"):
        if not isinstance(document.get(key), list):
            raise ParseError(f"a network needs a list under {key!r}", file=str(path))

    pairs = []
    for index, entry in enumerate(document["modes"]):
        try:
            policy = FarePolicy(entry["base_fare_cents"], entry["cost_per_meter_cents"], entry["cost_per_minute_cents"])
            pairs.append((entry["name"], policy))
        except (KeyError, TypeError, ConfigurationError) as error:
            raise _malformed(path, f"modes[{index}]", error) from None
    try:
        fare_table = FareTable.from_pairs(pairs)
    except ConfigurationError as error:
        raise ParseError(f"modes: {error}", file=str(path)) from None

    builder = NetworkBuilder(allow_self_loops=True)  # save_network_json writes any network, self-loops too
    for index, poi in enumerate(document["pois"]):
        try:
            external_id, name = poi["external_id"], poi.get("name", "")
            builder.add_poi(external_id, name=name, category=poi.get("category"), coords=poi.get("coords"))
        except (KeyError, TypeError, ConfigurationError) as error:
            raise _malformed(path, f"pois[{index}]", error) from None
    for index, edge in enumerate(document["edges"]):
        try:
            builder.add_edge(edge["u"], edge["v"], edge["mode"], edge["distance_m"], edge["time_min"])
        except (KeyError, TypeError, ConfigurationError) as error:
            raise _malformed(path, f"edges[{index}]", error) from None
    try:
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # an edge's mode or cost; its id is its index in 'edges'
        raise ParseError(f"edges[{error.edge}]: {error}", file=str(path)) from None


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
            bad = {
                keyword: category
                for keyword, category in self.keywords.items()
                if not isinstance(keyword, str) or type(category) is not int or not 0 <= category < self.k
            }
            if bad:
                raise ConfigurationError(f"keywords must map strings to categories 0 to {self.k - 1}: {bad}")


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

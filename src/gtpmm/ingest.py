"""Build networks from files: fare configs, edge lists, and GTFS feeds.

File formats
------------
Fare config (CSV): ``mode,base_fare,cost_per_meter,cost_per_minute,
resolution_strategy``. Money values are in major currency units and are
converted to cents on load; each value is either a single number (``3.20``)
or a range (``2.50-4.00``), in ASCII without ``_``. The per-row strategy,
when nonempty, overrides the strategy passed to :func:`resolve_fares`.

Edge list (CSV): header exactly ``u,v,mode,distance_m,time_min``; ``u``/``v``
are external PoI ids, ``mode`` is a fare-config mode name, and each distance
and time is a number in ASCII without ``_``. Dense internal ids are assigned
in sorted external-id order.

GTFS: the standard ``stops.txt``, ``routes.txt``, ``trips.txt`` and
``stop_times.txt`` files; times are ``HH:MM:SS`` with hours allowed past 24,
each time part, ``stop_sequence`` and ``route_type`` is ASCII digits, and
each ``stop_lat`` and ``stop_lon`` a number in ASCII without ``_``.
"""

from __future__ import annotations

import csv
import gc
import json
import math
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, Overflow, ROUND_HALF_UP, localcontext
from functools import cache, wraps
from itertools import chain, cycle, islice, repeat
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring_ascii
from operator import itemgetter, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, ParamSpec, Sequence, TextIO, TypeVar

from .errors import ConfigurationError, ParseError
from .network import (
    _CENT,
    _MONEY,
    _RATE_QUANTUM,
    _measures_valid,
    FarePolicy,
    FareTable,
    MultiModalNetwork,
    NetworkBuilder,
    Poi,
    TransitEdge,
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

_Args = ParamSpec("_Args")
_Built = TypeVar("_Built")


def _gc_paused(build: Callable[_Args, _Built]) -> Callable[_Args, _Built]:
    """``build`` with CPython's cyclic garbage collector paused while it
    runs, and enabled again when it returns or raises.

    A network build allocates tens of thousands of containers (CSV rows,
    decoded JSON records, PoI and edge tuples), each of which counts
    towards the collector's next pass, and makes no reference cycle, so
    those passes free nothing; ``tests/test_ingest.py`` checks that a build
    leaves no cyclic garbage. A collector the caller disabled stays
    disabled.
    """

    @wraps(build)
    def paused(*args: _Args.args, **kwargs: _Args.kwargs) -> _Built:
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _csv_records(path: Path, columns: tuple[str, ...], *, exact: bool) -> Iterator[tuple[int, tuple[str, ...]]]:
    """The records of the CSV file at ``path`` as ``(line, cells)``: the
    line a record starts on, and its cells under ``columns`` (two or more),
    in that order and as read. ``int()``, ``float()`` and ``Decimal()``
    ignore surrounding whitespace, so a caller strips only the cells it
    reads as text.

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
            pick = itemgetter(*(positions[column] for column in columns))
            width, last = len(header), reader.line_num
            for row in reader:
                line, last = last + 1, reader.line_num
                if len(row) != width:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    raise ParseError(f"expected {width} columns, got {len(row)}", file=str(path), line=line)
                yield line, pick(row)
    except UnicodeDecodeError:
        raise ParseError("file is not UTF-8 text", file=str(path)) from None
    except OSError as error:
        raise ParseError(f"cannot read file: {error.strerror}", file=str(path)) from None
    except csv.Error as error:  # a cell past csv.field_size_limit()
        raise ParseError(f"malformed CSV: {error}", file=str(path), line=reader.line_num) from None


def _columns(rows: list[tuple], width: int) -> list[list]:
    """The ``width`` columns of ``rows``, each read at C speed by one
    ``itemgetter`` (``zip(*rows)`` would make and track an iterator per
    row, and so run the garbage collector many more times)."""
    return [list(map(itemgetter(index), rows)) for index in range(width)]


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
    """Parse ``lo-hi`` or a single value, in major units, to a cents range;
    each value is ASCII text without ``_``, so that ``1_0`` and another
    script's digits, which ``Decimal()`` reads, fail.

    The upper end must round to :data:`~gtpmm.network._RATE_QUANTUM`, the
    finest quantum :func:`resolve_fares` rounds to, within the 28 digits of
    money arithmetic; then so does every value a strategy picks.
    """
    text = text.strip()
    raw = text.lstrip("~")
    parts = raw.split("-") if "-" in raw else [raw, raw]
    if len(parts) != 2 or not all(part.isascii() and "_" not in part for part in parts):  # Decimal() takes both
        raise ParseError(f"cannot parse money range {text!r}", file=file, line=line)
    try:
        low = _MONEY.multiply(Decimal(parts[0].strip(), _MONEY), 100)
        high = _MONEY.multiply(Decimal(parts[1].strip(), _MONEY), 100)
    except InvalidOperation:
        raise ParseError(f"cannot parse money range {text!r}", file=file, line=line) from None
    except Overflow:  # an exponent past the limit of money arithmetic
        raise ParseError(f"money range {text!r} is too large", file=file, line=line) from None
    if not (low.is_finite() and high.is_finite()):
        raise ParseError(f"money range {text!r} is not finite", file=file, line=line)
    if low < 0 or low > high:
        raise ParseError(f"inverted or negative range {text!r}", file=file, line=line)
    try:
        high.quantize(_RATE_QUANTUM, context=_MONEY)
    except InvalidOperation:
        raise ParseError(f"money range {text!r} is too large", file=file, line=line) from None
    return low, high


def load_fare_config(path: str | Path) -> list[FareRange]:
    """Read the fare config CSV into per-mode ranges."""
    path = Path(path)
    ranges: list[FareRange] = []
    seen: set[str] = set()
    for line, (mode, base_fare, per_meter, per_minute, strategy) in _csv_records(path, FARE_CONFIG_HEADER, exact=True):
        mode, strategy = mode.strip(), strategy.strip()
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
    with localcontext(_MONEY):
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


def _floats(texts: Sequence[str]) -> list[float]:
    """``float()`` of each of ``texts``, at C speed; ValueError unless each,
    stripped of surrounding whitespace, is ASCII text without ``_`` that
    ``float()`` reads. ``float()`` alone reads ``1_000`` and another
    script's digits."""
    joined = "".join(texts)
    if "_" in joined or not (joined.isascii() or "".join(map(str.strip, texts)).isascii()):
        raise ValueError("a number that is not ASCII or holds '_'")
    return list(map(float, texts))


@_gc_paused
def load_edge_list(path: str | Path, fare_table: FareTable) -> MultiModalNetwork:
    """Build a network from an edge-list CSV (see module docstring).

    The records are read :data:`_CHUNK` at a time and split into columns
    at C speed, their distances and times parsed by :func:`_floats` and
    their ids and modes stripped there, so that no cell text outlives its
    batch. The columns keep one object per distinct id and mode text, the
    first read, through one dict per call, so an id named on many records
    is held once; ids and modes are then checked a column at a time. A number
    :func:`_floats` rejects fails at its row, ahead of a CSV fault at a
    later one, then an empty ``u`` or ``v``, then an unknown mode or an
    edge the builder rejects, each at its first line.

    The garbage collector is paused while it runs (:func:`_gc_paused`):
    the build makes a container per row and no reference cycle.
    """
    path = Path(path)
    records = _csv_records(path, EDGE_LIST_HEADER, exact=True)
    lines, us, vs, names, distances, times = [], [], [], [], [], []  # one list per column
    texts: dict[str, str] = {}  # each id and mode text read, to its first object
    while True:
        batch, fault = [], None
        try:
            batch.extend(islice(records, _CHUNK))  # list.extend keeps the records read before a CSV fault
        except ParseError as error:
            fault = error
        if batch:  # zip(*...) tracks an iterator per record, which costs nothing with the collector paused
            batch_lines, cells = zip(*batch)
            batch_us, batch_vs, batch_names, distance_texts, time_texts = zip(*cells)
            try:
                distances += _floats(distance_texts)
                times += _floats(time_texts)
            except ValueError:
                for line, distance_text, time_text in zip(batch_lines, distance_texts, time_texts):
                    try:
                        _floats((distance_text, time_text))
                    except ValueError:
                        raise ParseError("distance and time must be numeric", file=str(path), line=line) from None
            lines += batch_lines
            for column, batch_texts in ((us, batch_us), (vs, batch_vs), (names, batch_names)):
                stripped = [*map(str.strip, batch_texts)]
                column += map(texts.setdefault, stripped, stripped)  # the first object of each text
        if fault is not None:
            raise fault
        if len(batch) < _CHUNK:
            break

    if "" in us or "" in vs:
        first = min(column.index("") for column in (us, vs) if "" in column)
        raise ParseError("empty PoI id", file=str(path), line=lines[first])
    builder = NetworkBuilder()
    ids = {external: builder.add_poi(external) for external in sorted({*us, *vs})}
    mode_ids = {name: mode for mode, name in enumerate(fare_table.names)}
    modes = list(map(mode_ids.get, names))
    known = modes.index(None) if None in modes else len(modes)  # the rows before the first unknown mode
    for column in (us, vs, modes, distances, times):
        del column[known:]
    try:
        builder.add_edges(list(map(ids.__getitem__, us)), list(map(ids.__getitem__, vs)), modes, distances, times)
        if known < len(names):  # every row before it passed
            fare_table.id_of(names[known])  # raises, naming the mode
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # edge ids follow the rows
        raise ParseError(str(error), file=str(path), line=lines[known if error.edge is None else error.edge]) from None


def save_edge_list(net: MultiModalNetwork, path: str | Path) -> None:
    """Write a network back out in the edge-list format, round-trippable:
    each distance and time is written by :func:`_number_text`."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(EDGE_LIST_HEADER)
        for edge in net.edges:
            writer.writerow(
                (
                    net.pois[edge.u].external_id,
                    net.pois[edge.v].external_id,
                    net.fare_table.name(edge.mode),
                    _number_text(edge.distance_m),
                    _number_text(edge.time_min),
                )
            )


def _number_text(number: float) -> str:
    """``number`` as ``:g`` writes it, six significant digits, when
    ``float()`` reads that back equal, and otherwise as its ``repr``."""
    text = f"{number:g}"
    return text if float(text) == number else repr(number)


# --- GTFS ---------------------------------------------------------------------


class GtfsStop(NamedTuple):
    name: str
    lat: float
    lon: float
    line: int  # source line, for error reporting


class GtfsStopTime(NamedTuple):
    stop_id: str
    arrival_min: float
    departure_min: float
    sequence: int
    line: int  # source line, for error reporting


_stop_id, _arrival, _departure, _stop_time_sequence = map(itemgetter, range(4))  # GtfsStopTime fields


@dataclass
class GtfsFeed:
    """Parsed GTFS tables with identifiers resolved."""

    stops: dict[str, GtfsStop] = field(default_factory=dict)  # by stop_id
    route_types: dict[str, int] = field(default_factory=dict)
    trip_routes: dict[str, str] = field(default_factory=dict)
    stop_times: dict[str, list[GtfsStopTime]] = field(default_factory=dict)  # by trip_id, in stop_sequence order


def _parse_gtfs_time(text: str, *, file: str, line: int) -> float:
    """``HH:MM:SS``, with surrounding whitespace, to minutes since
    midnight; hours may exceed 24. Each part is ASCII digits alone: no
    sign, underscore, inner space or other script's digit, which ``int()``
    would take."""
    text = text.strip()
    parts = text.split(":")
    if len(parts) != 3 or not all(part.isascii() and part.isdigit() for part in parts):
        raise ParseError(f"cannot parse time {text!r}", file=file, line=line)
    try:
        hours, minutes, seconds = map(int, parts)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"cannot parse time {text!r}", file=file, line=line) from None
    if minutes >= 60 or seconds >= 60:
        raise ParseError(f"time {text!r} out of range", file=file, line=line)
    try:
        return hours * 60 + minutes + seconds / 60
    except OverflowError:  # more minutes than a float holds
        raise ParseError(f"time {text!r} out of range", file=file, line=line) from None


def _parse_gtfs_int(text: str, column: str, *, file: str, line: int) -> int:
    """An integer cell of column ``column``, with surrounding whitespace:
    ASCII digits alone, as in :func:`_parse_gtfs_time`."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{column} must be an integer", file=file, line=line)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{column} must be an integer", file=file, line=line) from None


def parse_gtfs(directory: str | Path) -> GtfsFeed:
    """Parse a GTFS directory; every error names its file and line.

    Each distinct time and ``stop_sequence`` text of ``stop_times.txt`` is
    parsed once per call and its value reused, so a malformed one is still
    reported at the first line that holds it. Each stop time's ``stop_id``
    is the key object of ``stops``, so a stop is held once however many
    stop times name it.
    """
    directory = Path(directory)
    feed = GtfsFeed()

    path = directory / "stops.txt"
    file = str(path)
    for line, (stop_id, name, lat_text, lon_text) in _csv_records(
        path, ("stop_id", "stop_name", "stop_lat", "stop_lon"), exact=False
    ):
        stop_id, name = stop_id.strip(), name.strip()
        if not stop_id:
            raise ParseError("empty stop_id", file=file, line=line)
        if stop_id in feed.stops:
            raise ParseError(f"duplicate stop_id {stop_id!r}", file=file, line=line)
        try:
            lat, lon = _floats((lat_text, lon_text))
        except ValueError:
            raise ParseError("stop coordinates must be numeric", file=file, line=line) from None
        feed.stops[stop_id] = GtfsStop(name, lat, lon, line)

    path = directory / "routes.txt"
    file = str(path)
    for line, (route_id, route_type_text) in _csv_records(path, ("route_id", "route_type"), exact=False):
        route_id = route_id.strip()
        if route_id in feed.route_types:
            raise ParseError(f"duplicate route_id {route_id!r}", file=file, line=line)
        route_type = _parse_gtfs_int(route_type_text, "route_type", file=file, line=line)
        if route_type not in ROUTE_TYPE_MODES:
            raise ParseError(f"unsupported route_type {route_type}", file=file, line=line)
        feed.route_types[route_id] = route_type

    path = directory / "trips.txt"
    file = str(path)
    for line, (route_id, trip_id) in _csv_records(path, ("route_id", "trip_id"), exact=False):
        route_id, trip_id = route_id.strip(), trip_id.strip()
        if trip_id in feed.trip_routes:
            raise ParseError(f"duplicate trip_id {trip_id!r}", file=file, line=line)
        if route_id not in feed.route_types:
            raise ParseError(f"trip references unknown route {route_id!r}", file=file, line=line)
        feed.trip_routes[trip_id] = route_id

    path = directory / "stop_times.txt"
    file = str(path)
    minutes: dict[str, float] = {}  # time cell -> its minutes, parsed at the first line holding it
    sequences: dict[str, int] = {}  # stop_sequence cell -> its integer, likewise
    stop_times = feed.stop_times
    stop_keys = {stop_id: stop_id for stop_id in feed.stops}  # each stop id to the key object feed.stops holds
    for line, (trip_id, stop_id, arrival_text, departure_text, sequence_text) in _csv_records(
        path, ("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence"), exact=False
    ):
        trip_id, stop_id = trip_id.strip(), stop_id.strip()
        entries = stop_times.get(trip_id)
        if entries is None:  # the trip's first row
            if trip_id not in feed.trip_routes:
                raise ParseError(f"stop_time references unknown trip {trip_id!r}", file=file, line=line)
            entries = stop_times[trip_id] = []
        stop_key = stop_keys.get(stop_id)
        if stop_key is None:
            raise ParseError(f"stop_time references unknown stop {stop_id!r}", file=file, line=line)
        arrival = minutes.get(arrival_text)
        if arrival is None:
            arrival = minutes[arrival_text] = _parse_gtfs_time(arrival_text, file=file, line=line)
        departure = minutes.get(departure_text)
        if departure is None:
            departure = minutes[departure_text] = _parse_gtfs_time(departure_text, file=file, line=line)
        if departure < arrival:
            raise ParseError("departure before arrival", file=file, line=line)
        sequence = sequences.get(sequence_text)
        if sequence is None:
            sequence = sequences[sequence_text] = _parse_gtfs_int(sequence_text, "stop_sequence", file=file, line=line)
        # tuple.__new__ skips the named tuple's own __new__, a Python-level call per row
        entries.append(tuple.__new__(GtfsStopTime, (stop_key, arrival, departure, sequence, line)))

    for trip_id, entries in stop_times.items():
        entries.sort(key=_stop_time_sequence)
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


@_gc_paused
def load_gtfs(directory: str | Path, fare_table: FareTable) -> MultiModalNetwork:
    """Network from a GTFS feed: one PoI per stop, one edge per consecutive
    stop pair within a trip.

    Edge time is the departure-to-arrival delta (dwell excluded); distance
    is the great-circle length between the stops. Parallel observations of
    the same (stop pair, mode) collapse to the minimum time.

    The garbage collector is paused while it runs, :func:`parse_gtfs`
    included (:func:`_gc_paused`): the build makes a container per stop
    time and no reference cycle.
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
            stops = list(map(ids.__getitem__, map(_stop_id, entries)))
            spans = map(sub, map(_arrival, entries[1:]), map(_departure, entries))  # each hop's minutes
            for u, v, minutes, current in zip(stops, stops[1:], spans, entries[1:]):
                if u == v:
                    continue
                key = (u, v, mode) if u < v else (v, u, mode)
                known = best.get(key)
                if known is None or minutes < known[0]:
                    best[key] = (minutes, current.line)
        edges = sorted(best.items())
        us, vs, modes = _columns([key for key, _ in edges], 3)
        distances = [haversine_m(coords[u], coords[v]) for u, v in zip(us, vs)]
        builder.add_edges(us, vs, modes, distances, [minutes for _, (minutes, _) in edges])
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


_SLOT = "\0"  # a value no template's keys contain
_NETWORK = _template(dict.fromkeys(("modes", "pois", "edges"), _SLOT), "")
_MODE_RECORD = _template(
    dict.fromkeys(("name", "base_fare_cents", "cost_per_meter_cents", "cost_per_minute_cents"), _SLOT), "    "
)
_POI_RECORD = _template(dict.fromkeys(("external_id", "name", "category", "coords"), _SLOT), "    ")
_EDGE_RECORD = _template(dict.fromkeys(TransitEdge._fields, _SLOT), "    ")
_COORDS = _template([_SLOT, _SLOT], "      ")
_CHUNK = 1024  # records per write and per edge-list read, and about the edge rows per add_edges of a load
_TEXT_CHUNK = 1 << 15  # characters read at a time, so that each piece of a network file's text stays small


def _write_list(handle: TextIO, records: Iterator[str]) -> None:
    """Write a list of records at the second level, as ``json.dumps``
    writes it with ``indent=2``, :data:`_CHUNK` records at a time."""
    chunk = list(islice(records, _CHUNK))
    if not chunk:
        handle.write("[]")
        return
    handle.write("[\n    ")
    while chunk:
        handle.write(",\n    ".join(chunk))
        chunk = list(islice(records, _CHUNK))
        handle.write(",\n    " if chunk else "\n  ]")


def save_network_json(net: MultiModalNetwork, path: str | Path) -> None:
    """Serialize a finalized network (PoIs, edges, resolved fares) to JSON.

    The file holds ``{"modes": [...], "pois": [...], "edges": [...]}`` as
    ``json.dumps`` writes it with ``indent=2``, and a newline; each record
    is filled into one fixed template (an edge's by ``%s`` alone when
    :func:`_plain_edges` allows), and the records are written
    :data:`_CHUNK` at a time, so the file's text is never held whole.
    """
    fares = net.fare_table
    modes = (
        _MODE_RECORD
        % tuple(map(_json_value, (name, policy.base_fare, str(policy.cost_per_meter), str(policy.cost_per_minute))))
        for name, policy in zip(fares.names, fares.policies)
    )
    pois = (
        _POI_RECORD
        % (
            _json_value(poi.external_id),
            _json_value(poi.name),
            _json_value(poi.category),
            _COORDS % (_json_value(poi.coords[0]), _json_value(poi.coords[1])) if poi.coords else "null",
        )
        for poi in net.pois
    )
    edges = (
        map(_EDGE_RECORD.__mod__, net.edges)
        if _plain_edges(net.edges)
        else (_EDGE_RECORD % tuple(map(_json_value, edge)) for edge in net.edges)
    )
    head, after_modes, after_pois, tail = _NETWORK.split("%s")
    with Path(path).open("w", encoding="utf-8") as handle:
        for text, records in ((head, modes), (after_modes, pois), (after_pois, edges)):
            handle.write(text)
            _write_list(handle, records)
        handle.write(tail + "\n")


def _plain_edges(edges: tuple[TransitEdge, ...]) -> bool:
    """Whether ``%s`` writes each field of ``edges`` as :func:`_json_value`
    does, so that their records fill the template at C speed: when every
    ``u``, ``v`` and ``mode`` is an ``int`` of exact type and every
    distance and time passes the builder's check, as on any network a
    builder made."""
    if not edges:
        return True
    ids = chain.from_iterable(map(itemgetter(0, 1, 2), edges))
    return {*map(type, ids)} <= {int} and all(_measures_valid(tuple(map(itemgetter(i), edges))) for i in (3, 4))


_edge_values = itemgetter(*TransitEdge._fields)


class _Chunks:
    """The text of an open file, read :data:`_TEXT_CHUNK` characters at a
    time, and a position in what is read. Text a method does not take
    raises ValueError."""

    def __init__(self, handle: TextIO):
        self.handle, self.text, self.at = handle, "", 0

    def more(self) -> bool:
        """Read one more chunk after the unread text; False at the end."""
        chunk = self.handle.read(_TEXT_CHUNK)
        if chunk:
            self.text, self.at = self.text[self.at :] + chunk, 0
        return bool(chunk)

    def peek(self) -> str:
        """The next character that is not whitespace, unread; '' at the end."""
        while (at := WHITESPACE.match(self.text, self.at).end()) == len(self.text) and self.more():
            pass
        self.at = at
        return self.text[at : at + 1]

    def take(self, chars: str) -> str:
        """The next character that is not whitespace, read; one of ``chars``."""
        char = self.peek()
        if not char or char not in chars:
            raise ValueError(f"expected one of {chars!r}")
        self.at += 1
        return char

    def key(self) -> str:
        """The next object key, read with its ':'."""
        self.take('"')
        while True:
            try:
                key, self.at = scanstring(self.text, self.at)
                break
            except json.JSONDecodeError:
                if not self.more():
                    raise
        self.take(":")
        return key

    def batches(self, decoder: json.JSONDecoder) -> Iterator[list]:
        """The items of the array that starts here, a batch at a time as
        ``decoder`` decodes them, read through its ']'. What is read of it
        is decoded whole when the array ends in it, else up to its last '}',
        since ``[`` items ``]`` is valid JSON only when the items are whole.
        Only the last batch may be empty."""
        self.take("[")
        first = True
        while True:
            cut = self.text.rfind("}", self.at) + 1
            try:
                batch = decoder.decode(f"[{self.text[self.at : cut]}]") if cut else []
            except json.JSONDecodeError:
                batch = []
            if batch:
                self.at, first = cut, False
                yield batch
                if self.take(",]") == "]":
                    return
                continue
            try:
                batch, end = decoder.raw_decode(f"[{self.text[self.at :]}")
            except json.JSONDecodeError:
                if not self.more():
                    raise ValueError("an array cut short") from None
                continue
            if not (first or batch):
                raise ValueError("a ',' before an array's ']'")
            self.at += end - 1
            yield batch
            return


def _network_sections(path: Path) -> Iterator[tuple[str, list]]:
    """The network file at ``path`` as ``(key, batch)`` pairs, in file
    order: the items of its ``modes``, ``pois`` and ``edges`` a decoded
    batch at a time, modes and PoIs as plain JSON and each edge record
    straight to the tuple of its values by the C-level object hook
    :data:`_edge_values`, which takes a fraction of a dict's memory. The
    file is read a chunk at a time, so that neither its bytes nor its text,
    each about its size, are held whole. Only :func:`save_network_json`'s
    layout is taken: those three keys in that order, and their items as
    objects, each edge's with an edge record's keys; any other text raises
    ValueError, at the latest once the last batch is taken."""
    # One int object per int text, so the copies of a PoI id that edges' ``u``
    # and ``v`` decode are freed at once. Kept until the edges enter the
    # builder, they would leave some 0.8 MB of small-object pools half used by
    # the distances and times decoded among them, which it keeps.
    parse_int = cache(int)
    plain = json.JSONDecoder(parse_int=parse_int)
    edges = json.JSONDecoder(object_hook=_edge_values, parse_int=parse_int)
    with path.open(encoding="utf-8") as handle:
        chunks = _Chunks(handle)
        chunks.take("{")
        for key, kind, decoder in (("modes", dict, plain), ("pois", dict, plain), ("edges", tuple, edges)):
            if chunks.key() != key:
                raise ValueError(f"expected the key {key!r}")
            try:
                for batch in chunks.batches(decoder):
                    if {*map(type, batch)} - {kind}:
                        raise ValueError(f"an item of another type under {key!r}")
                    yield key, batch
            except KeyError:  # the edge hook met an object without an edge record's keys
                raise ValueError("an object under 'edges' without an edge's keys") from None
            chunks.take("}" if key == "edges" else ",")
        if chunks.peek():
            raise ValueError("text after the network object")


@_gc_paused
def load_network_json(path: str | Path) -> MultiModalNetwork:
    """Load a network serialized by :func:`save_network_json`.

    A file in that layout is built as it is read: :func:`_network_sections`
    decodes it a chunk at a time, each decoded batch of modes and PoIs goes
    into the builder before the next chunk is decoded, and the edge rows go
    in about :data:`_CHUNK` at a time, so the decoded document is never
    held whole; each edge record is decoded straight to the tuple of its
    values. Any other file, and one that fails anywhere, is decoded whole
    by :func:`read_json` as plain JSON and built again by the same steps
    (:func:`_build_network`), which then name the fault of a malformed one.

    The garbage collector is paused while it runs (:func:`_gc_paused`):
    the build decodes a container per record and makes no reference cycle.
    """
    path = Path(path)
    try:
        return _build_network(path, _network_sections(path))
    except (OSError, ValueError, RecursionError, ParseError):
        pass  # the whole document names the fault, or reads the other layout
    document = read_json(path, "network")
    if not isinstance(document, dict):
        raise ParseError("a network must be a JSON object with 'modes', 'pois' and 'edges'", file=str(path))
    for key in ("modes", "pois", "edges"):
        if not isinstance(document.get(key), list):
            raise ParseError(f"a network needs a list under {key!r}", file=str(path))
    return _build_network(path, ((key, document.pop(key)) for key in ("modes", "pois", "edges")))


def _build_network(path: Path, sections: Iterable[tuple[str, list]]) -> MultiModalNetwork:
    """The network of the file at ``path`` from its decoded records, as
    ``(key, batch)`` pairs in file order: one or more batches of ``modes``,
    then of ``pois``, then of ``edges``. Edge rows go into the builder by
    :func:`_add_edge_rows` once :data:`_CHUNK` of them are gathered, so that
    the whole-column checks of :meth:`NetworkBuilder.add_edges` stay
    amortized. The first record at fault raises :class:`ParseError` naming
    it by its index in its list."""
    pairs: list[tuple[str, FarePolicy]] = []
    fare_table = None  # made once the modes are read
    builder = NetworkBuilder(allow_self_loops=True)  # save_network_json writes any network, self-loops too
    pois = edges = 0  # the PoIs and edges added so far
    rows: list = []  # edge entries not yet added
    for key, batch in sections:
        if key == "modes":
            for index, entry in enumerate(batch, len(pairs)):
                try:
                    cents = entry["base_fare_cents"], entry["cost_per_meter_cents"], entry["cost_per_minute_cents"]
                    policy = FarePolicy(*cents)
                    pairs.append((entry["name"], policy))
                except (KeyError, TypeError, ConfigurationError) as error:
                    raise _malformed(path, f"modes[{index}]", error) from None
            continue
        if fare_table is None:
            try:
                fare_table = FareTable.from_pairs(pairs)
            except ConfigurationError as error:
                raise ParseError(f"modes: {error}", file=str(path)) from None
        if key == "pois":
            for index, poi in enumerate(batch, pois):
                try:
                    external_id, name = poi["external_id"], poi.get("name", "")
                    builder.add_poi(external_id, name=name, category=poi.get("category"), coords=poi.get("coords"))
                except (KeyError, TypeError, ConfigurationError) as error:
                    raise _malformed(path, f"pois[{index}]", error) from None
            pois += len(batch)
            continue
        rows += batch
        if len(rows) >= _CHUNK:
            edges, rows = _add_edge_rows(builder, rows, edges, path), []
    _add_edge_rows(builder, rows, edges, path)
    try:
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # an edge's mode or cost; its id is its index in 'edges'
        raise ParseError(f"edges[{error.edge}]: {error}", file=str(path)) from None


def _add_edge_rows(builder: NetworkBuilder, rows: list, start: int, path: Path) -> int:
    """Add a network file's decoded edges ``rows``, from its index ``start``
    in ``edges`` on: the stream's edge rows, or the whole document's
    entries, by one :meth:`NetworkBuilder.add_edges`; the count of edges
    added then. The first entry at fault raises :class:`ParseError` naming
    it by its index."""
    if {*map(type, rows)} - {tuple}:  # the whole document's entries, which hold no tuple
        for index, entry in enumerate(rows):
            try:
                rows[index] = _edge_values(entry)
            except (KeyError, TypeError) as error:
                _add_edge_rows(builder, rows[:index], start, path)  # a fault of an earlier edge comes first
                raise _malformed(path, f"edges[{start + index}]", error) from None
    try:
        return builder.add_edges(*_columns(rows, len(TransitEdge._fields))).stop
    except ConfigurationError as error:
        raise _malformed(path, f"edges[{start + error.edge}]", error) from None


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
        if type(self.k) is not int:
            raise ConfigurationError(f"category count must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ConfigurationError("category count must be at least 1")
        if type(self.seed) is not int:
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
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


@_gc_paused
def categorize(net: MultiModalNetwork, cfg: CategoryConfig) -> tuple[MultiModalNetwork, list[tuple[int, ...]]]:
    """Assign categories and return (relabeled network, k id-tuples).

    Fails with the offending index if any category ends up empty. The
    garbage collector is paused while it runs (:func:`_gc_paused`): the
    relabeling makes a tuple per PoI and no reference cycle.
    """
    k, pois = cfg.k, net.pois
    if k > len(pois):
        raise ConfigurationError(f"cannot split {len(pois)} PoIs into {k} categories")

    categories: list[int | None]  # per PoI id
    if cfg.strategy == "round-robin":
        categories = [*islice(cycle(range(k)), len(pois))]
    elif cfg.strategy == "seeded-random":
        below = SplitMix64(cfg.seed).below
        categories = [below(k) for _ in pois]
    else:
        lowered = [(keyword.lower(), category) for keyword, category in cfg.keywords.items()]
        names = map(str.lower, map(itemgetter(1), pois))  # Poi.name
        categories = [next((category for keyword, category in lowered if keyword in name), None) for name in names]

    members: dict[int | None, list[int]] = {category: [] for category in (*range(k), None)}  # None: no keyword matched
    for poi_id, category in enumerate(categories):
        members[category].append(poi_id)
    for index in range(k):
        if not members[index]:
            raise ConfigurationError(f"category {index} is empty after assignment")

    # each PoI's fields with its new category, made into a Poi at C speed
    fields = zip(map(itemgetter(0), pois), map(itemgetter(1), pois), categories, map(itemgetter(3), pois))
    relabeled = replace(net, pois=tuple(map(tuple.__new__, repeat(Poi), fields)))
    return relabeled, [tuple(members[index]) for index in range(k)]

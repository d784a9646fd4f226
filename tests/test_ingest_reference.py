"""The file loaders and ``_component_roots`` against the per-record code they replaced.

The references below are verbatim copies of ``load_edge_list``,
``parse_gtfs``, ``load_gtfs`` and ``_component_roots`` as they were before
the edge list went to per-column lists, a trip's stop times to its list by
one ``dict.get``, a trip's hops to columns and the union-find's ``root`` was
inlined; only their names are changed. On good files the networks and feeds
must be equal, the dict order of ``GtfsFeed.stop_times`` included; on
faulty files the exception must be of the same type, with the same message,
file and line, also when a file holds several faults. Files with an empty
PoI or stop id, which the loaders now reject, are tested in
``test_ingest.py``, as are the signed, underscored and non-ASCII integer
cells that ``parse_gtfs`` now rejects and the underscored and non-ASCII
number cells that both loaders now reject; no file drawn here holds one.

So are ``load_network_json``, ``_network_document`` and ``_add_edge_rows``
as they were before the load built the network as it read the file, with
the decoder and the method of ``_Chunks`` that read an array whole, and
the Python-level object hook ``_edge_row``, ``_as_object`` and the hooked
``read_json`` they decoded with (copied in ``test_network_json_chunks.py``):
the same network, or the same ``ParseError``, on saved networks at every
chunk size, on odd and mutated texts, on perfbench's ingest networks, on
files whose builder fault comes before a JSON fault later in the file and
on edge records with a key beyond an edge's or without one of its keys.
"""

from __future__ import annotations

import csv
import json
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_network_json_chunks import (
    CHUNKS,
    NETWORKS,
    TEXTS,
    _tricky_network,
    mutated,
    reference_as_object,
    reference_edge_row,
    reference_read_json,
)

from gtpmm import ingest
from gtpmm.errors import ConfigurationError, ParseError
from gtpmm.fixtures import default_fare_ranges, gtfs_minimal_dir
from gtpmm.ingest import (
    EDGE_LIST_HEADER,
    ROUTE_TYPE_MODES,
    CategoryConfig,
    GtfsFeed,
    GtfsStop,
    GtfsStopTime,
    _build_network,
    _Chunks,
    _columns,
    _csv_records,
    _edge_values,
    _gc_paused,
    _malformed,
    _network_sections,
    _parse_gtfs_time,
    _stop_time_sequence,
    categorize,
    load_edge_list,
    load_fare_config,
    load_gtfs,
    load_network_json,
    parse_gtfs,
    resolve_fares,
    save_network_json,
)
from gtpmm.network import (
    FarePolicy,
    FareTable,
    MultiModalNetwork,
    NetworkBuilder,
    TransitEdge,
    _component_roots,
    connect_components,
    haversine_m,
)
from gtpmm.synth import road_network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def reference_load_edge_list(path: str | Path, fare_table: FareTable) -> MultiModalNetwork:
    """Build a network from an edge-list CSV (see module docstring)."""
    path = Path(path)
    rows: list[tuple[int, str, str, str, float, float]] = []
    externals: set[str] = set()
    for line, (u, v, mode, distance_text, time_text) in _csv_records(path, EDGE_LIST_HEADER, exact=True):
        u, v, mode = u.strip(), v.strip(), mode.strip()
        try:
            distance = float(distance_text)
            time = float(time_text)
        except ValueError:
            raise ParseError("distance and time must be numeric", file=str(path), line=line) from None
        externals.update((u, v))
        rows.append((line, u, v, mode, distance, time))

    builder = NetworkBuilder()
    ids = {external: builder.add_poi(external) for external in sorted(externals)}
    lines, us, vs, names, distances, times = _columns(rows, 6)
    mode_ids = {name: mode for mode, name in enumerate(fare_table.names)}
    modes = [mode_ids.get(name) for name in names]
    known = modes.index(None) if None in modes else len(modes)  # the rows before the first unknown mode
    try:
        builder.add_edges(
            [ids[u] for u in us[:known]], [ids[v] for v in vs[:known]], modes[:known], distances[:known], times[:known]
        )
        if known < len(modes):  # every row before it passed
            fare_table.id_of(names[known])  # raises, naming the mode
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # edge ids follow the rows
        raise ParseError(str(error), file=str(path), line=lines[known if error.edge is None else error.edge]) from None


def reference_parse_gtfs(directory: str | Path) -> GtfsFeed:
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
        stop_id, name = stop_id.strip(), name.strip()
        if stop_id in feed.stops:
            raise ParseError(f"duplicate stop_id {stop_id!r}", file=file, line=line)
        try:
            lat, lon = float(lat_text), float(lon_text)
        except ValueError:
            raise ParseError("stop coordinates must be numeric", file=file, line=line) from None
        feed.stops[stop_id] = GtfsStop(name, lat, lon, line)

    path = directory / "routes.txt"
    file = str(path)
    for line, (route_id, route_type_text) in _csv_records(path, ("route_id", "route_type"), exact=False):
        route_id = route_id.strip()
        if route_id in feed.route_types:
            raise ParseError(f"duplicate route_id {route_id!r}", file=file, line=line)
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
        route_id, trip_id = route_id.strip(), trip_id.strip()
        if trip_id in feed.trip_routes:
            raise ParseError(f"duplicate trip_id {trip_id!r}", file=file, line=line)
        if route_id not in feed.route_types:
            raise ParseError(f"trip references unknown route {route_id!r}", file=file, line=line)
        feed.trip_routes[trip_id] = route_id

    path = directory / "stop_times.txt"
    file = str(path)
    minutes: dict[str, float] = {}  # time cell -> its minutes, parsed at the first line holding it
    for line, (trip_id, stop_id, arrival_text, departure_text, sequence_text) in _csv_records(
        path, ("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence"), exact=False
    ):
        trip_id, stop_id = trip_id.strip(), stop_id.strip()
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
        # tuple.__new__ skips the named tuple's own __new__, a Python-level call per row
        entry = tuple.__new__(GtfsStopTime, (stop_id, arrival, departure, sequence, line))
        feed.stop_times.setdefault(trip_id, []).append(entry)

    for trip_id, entries in feed.stop_times.items():
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


def reference_load_gtfs(directory: str | Path, fare_table: FareTable) -> MultiModalNetwork:
    """Network from a GTFS feed: one PoI per stop, one edge per consecutive
    stop pair within a trip.

    Edge time is the departure-to-arrival delta (dwell excluded); distance
    is the great-circle length between the stops. Parallel observations of
    the same (stop pair, mode) collapse to the minimum time.
    """
    feed = reference_parse_gtfs(directory)
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
        us, vs, modes = _columns([key for key, _ in edges], 3)
        distances = [haversine_m(coords[u], coords[v]) for u, v in zip(us, vs)]
        builder.add_edges(us, vs, modes, distances, [minutes for _, (minutes, _) in edges])
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # a trip's mode, or an edge's cost; edge ids follow the sorted edges
        line = line if error.edge is None else edges[error.edge][1][1]
        raise ParseError(str(error), file=str(Path(directory) / "stop_times.txt"), line=line) from None


def reference_component_roots(net: MultiModalNetwork) -> list[int]:
    """Per PoI, the lowest PoI id in its component.

    A union-find over the edges with path halving that always hangs the
    higher root under the lower, so every parent id is at most its child's
    and one ascending pass flattens every PoI onto its root."""
    parent = list(range(net.poi_count))

    def root(poi: int) -> int:
        while parent[poi] != poi:
            parent[poi] = poi = parent[parent[poi]]  # the right side is read before either target is set
        return poi

    for u, v, *_ in net.edges:
        u, v = root(u), root(v)
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    for poi in range(len(parent)):
        parent[poi] = parent[parent[poi]]
    return parent


# --- the network file loader before it built as it read ------------------------------------


class ReferenceChunks(_Chunks):
    """``_Chunks`` with the decoder it held and the method that read an array whole."""

    def __init__(self, handle):
        super().__init__(handle)
        self.decoder = json.JSONDecoder(object_hook=reference_edge_row, parse_int=cache(int))

    def objects(self) -> list:
        """The items of the array that starts here, read through its ']'.
        What is read of it is decoded whole when the array ends in it, else
        up to its last '}', since ``[`` items ``]`` is valid JSON only when
        the items are whole."""
        self.take("[")
        items: list = []
        while True:
            cut = self.text.rfind("}", self.at) + 1
            try:
                batch = self.decoder.decode(f"[{self.text[self.at : cut]}]") if cut else []
            except json.JSONDecodeError:
                batch = []
            if batch:
                items += batch
                self.at = cut
                if self.take(",]") == "]":
                    return items
                continue
            try:
                rest, end = self.decoder.raw_decode(f"[{self.text[self.at :]}")
            except json.JSONDecodeError:
                if not self.more():
                    raise ValueError("an array cut short") from None
                continue
            if items and not rest:
                raise ValueError("a ',' before an array's ']'")
            self.at += end - 1
            return items + rest


def reference_network_document(path: Path) -> dict:
    """The network file at ``path`` as :func:`read_json` decodes it with
    :func:`_edge_row`, when it is an object of arrays of objects, as
    :func:`save_network_json` writes it; any other text raises ValueError.
    The file is read a chunk at a time, so that neither its bytes nor its
    text, each about its size, are held whole."""
    document = {}
    with path.open(encoding="utf-8") as handle:
        chunks = ReferenceChunks(handle)
        chunks.take("{")
        while True:
            key = chunks.key()
            document[key] = chunks.objects()
            if chunks.take(",}") == "}":
                break
        if chunks.peek():
            raise ValueError("text after the network object")
    return document


@_gc_paused
def reference_load_network_json(path: str | Path) -> MultiModalNetwork:
    """Load a network serialized by :func:`save_network_json`.

    The file is decoded a chunk at a time by :func:`_network_document`; a
    file it does not take is decoded whole by :func:`read_json`, which names
    the fault of a malformed one. Each edge record is decoded straight to
    the tuple of its values, and the edges enter the builder by one
    :meth:`NetworkBuilder.add_edges`.

    The garbage collector is paused while it runs (:func:`_gc_paused`):
    the build decodes a container per record and makes no reference cycle.
    """
    path = Path(path)
    try:
        document = reference_network_document(path)
    except (OSError, ValueError, RecursionError):
        document = reference_as_object(reference_read_json(path, "network", reference_edge_row))

    if not isinstance(document, dict):
        raise ParseError("a network must be a JSON object with 'modes', 'pois' and 'edges'", file=str(path))
    for key in ("modes", "pois", "edges"):
        if not isinstance(document.get(key), list):
            raise ParseError(f"a network needs a list under {key!r}", file=str(path))

    pairs = []
    for index, entry in enumerate(map(reference_as_object, document["modes"])):
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
    for index, poi in enumerate(map(reference_as_object, document["pois"])):
        try:
            external_id, name = poi["external_id"], poi.get("name", "")
            builder.add_poi(external_id, name=name, category=poi.get("category"), coords=poi.get("coords"))
        except (KeyError, TypeError, ConfigurationError) as error:
            raise _malformed(path, f"pois[{index}]", error) from None
    reference_add_edge_rows(builder, document.pop("edges"), path)  # the rows are dropped once the edges hold their values
    try:
        return builder.finalize(fare_table)
    except ConfigurationError as error:  # an edge's mode or cost; its id is its index in 'edges'
        raise ParseError(f"edges[{error.edge}]: {error}", file=str(path)) from None


def reference_add_edge_rows(builder: NetworkBuilder, rows: list, path: Path) -> None:
    """Add a network file's decoded ``edges``, edge rows and, for a record
    with keys beyond an edge's, dicts, by one
    :meth:`NetworkBuilder.add_edges`; the first entry at fault raises
    :class:`ParseError` naming it by its index."""
    if {*map(type, rows)} - {tuple}:
        for index, entry in enumerate(rows):
            if type(entry) is tuple:
                continue
            try:
                rows[index] = _edge_values(entry)
            except (KeyError, TypeError) as error:
                reference_add_edge_rows(builder, rows[:index], path)  # a fault of an earlier edge comes first
                raise _malformed(path, f"edges[{index}]", error) from None
    try:
        builder.add_edges(*_columns(rows, len(TransitEdge._fields)))
    except ConfigurationError as error:
        raise _malformed(path, f"edges[{error.edge}]", error) from None


def outcome(function, *args):
    """``function(*args)``, or the type, message, file and line of the
    ParseError or ConfigurationError it raised."""
    try:
        return function(*args)
    except ParseError as error:
        return ("ParseError", str(error), error.file, error.line)
    except ConfigurationError as error:
        return ("ConfigurationError", str(error), error.edge)


def assert_same_edge_list(path, fares):
    result = outcome(load_edge_list, path, fares)
    assert result == outcome(reference_load_edge_list, path, fares)
    return result


def assert_same_gtfs(directory, fares):
    """``parse_gtfs`` and ``load_gtfs`` of ``directory`` as the references
    give them: equal feeds with their trips in the same dict order, equal
    networks, or the same error."""
    feed = outcome(parse_gtfs, directory)
    reference = outcome(reference_parse_gtfs, directory)
    assert feed == reference
    if isinstance(feed, GtfsFeed):
        assert list(feed.stop_times) == list(reference.stop_times)
        assert [type(entry) for entries in feed.stop_times.values() for entry in entries] == [
            GtfsStopTime for entries in feed.stop_times.values() for _ in entries
        ]
    result = outcome(load_gtfs, directory, fares)
    assert result == outcome(reference_load_gtfs, directory, fares)
    return feed, result


def assert_same_roots(net):
    roots = _component_roots(net)
    assert roots == reference_component_roots(net)
    return roots


# --- perfbench's seed-0 ingest files and the minimal feed ------------------------------


@pytest.fixture(scope="module")
def perfbench_files(tmp_path_factory):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    files = inputs.write_ingest_files(0, tmp_path_factory.mktemp("ingest"))
    return files, resolve_fares(load_fare_config(files.fares), "low", 0)


def test_the_perfbench_edge_list_loads_as_the_reference_loads_it(perfbench_files):
    files, fares = perfbench_files
    net = assert_same_edge_list(files.edge_list, fares)
    assert (net.poi_count, net.edge_count) == (5000, 17_427)
    roots = assert_same_roots(net)
    assert roots.count(0) > 1 and len(set(roots)) == files.edge_list_islands
    repaired, added = connect_components(net)
    assert len(added) == files.edge_list_islands - 1
    assert set(assert_same_roots(repaired)) == {0}


def test_the_perfbench_feed_parses_and_loads_as_the_reference_does(perfbench_files):
    files, fares = perfbench_files
    feed, net = assert_same_gtfs(files.gtfs, fares)
    assert sum(map(len, feed.stop_times.values())) == 20_000
    assert net.poi_count == 1000
    roots = assert_same_roots(net)
    assert len(set(roots)) > 1  # stops no route serves stay apart
    assert_same_roots(connect_components(net)[0])


def test_the_minimal_feed_parses_and_loads_as_the_reference_does():
    feed, net = assert_same_gtfs(gtfs_minimal_dir(), resolve_fares(default_fare_ranges(), "low"))
    assert list(feed.stop_times) == ["T1"] and net.edge_count == 2
    assert assert_same_roots(net) == [0, 0, 0]


# --- files with two faults -----------------------------------------------------------------


FARES = FareTable.from_pairs([("Bus", FarePolicy(100, 1, 2)), ("Tram", FarePolicy(50, 0, 3))])
HUGE_FARES = FareTable.from_pairs([("Bus", FarePolicy(10**15, 10**9, 10**9)), ("Tram", FarePolicy(0, 0, 1))])


def write_edge_list(path: Path, rows) -> Path:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(EDGE_LIST_HEADER)
        writer.writerows(rows)
    return path


@pytest.mark.parametrize(
    "rows, message, line",
    [
        # a number that does not parse, at a row after an unknown mode and a negative distance
        ([("a", "b", "Zeppelin", 1, 1), ("a", "c", "Bus", -1, 1), ("b", "c", "Bus", "x", 1)], "numeric", 4),
        # an unknown mode after a negative distance: the rows before it are checked first
        ([("a", "b", "Bus", 1, 1), ("a", "c", "Bus", -1, 1), ("b", "c", "Zeppelin", 1, 1)], "invalid distance", 3),
        # a negative distance after an unknown mode: no row past the unknown mode is checked
        ([("a", "b", "Bus", 1, 1), ("a", "c", "Zeppelin", 1, 1), ("b", "c", "Bus", -1, 1)], "unknown transport mode", 3),
        # a self-loop before a time the builder rejects
        ([("a", "b", "Bus", 1, 1), (" a", "a ", "Tram", 1, 1), ("b", "c", "Bus", 1, "inf")], "self-loop", 3),
        ([("a", "b", "Bus", 1, "nan"), ("a", "a", "Bus", 1, 1)], "invalid time", 2),
    ],
)
def test_an_edge_list_with_two_faults_fails_at_the_same_one(tmp_path, rows, message, line):
    result = assert_same_edge_list(write_edge_list(tmp_path / "edges.csv", rows), FARES)
    assert result[0] == "ParseError" and message in result[1] and result[3] == line


def test_an_edge_whose_cost_does_not_fit_fails_at_the_same_line(tmp_path):
    rows = [("a", "b", "Tram", 1, 1), ("b", "c", "Bus", 1e300, 1), ("a", "c", "Bus", 1e300, 1)]
    result = assert_same_edge_list(write_edge_list(tmp_path / "edges.csv", rows), HUGE_FARES)
    assert result[0] == "ParseError" and result[3] == 3


STOPS = ("stop_id,stop_name,stop_lat,stop_lon", "A,Alpha,47.0,8.0", "B,Beta,47.1,8.1", "C,Gamma,47.2,8.2")
ROUTES = ("route_id,route_type", "R1,3", "R2,0")
TRIPS = ("route_id,trip_id", "R1,T1", "R2,T2")
STOP_TIMES_HEADER = "trip_id,stop_id,arrival_time,departure_time,stop_sequence"


def write_feed(directory: Path, stop_times, stops=STOPS, routes=ROUTES, trips=TRIPS) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    tables = {"stops.txt": stops, "routes.txt": routes, "trips.txt": trips}
    tables["stop_times.txt"] = (STOP_TIMES_HEADER, *stop_times)
    for name, lines in tables.items():
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory


@pytest.mark.parametrize(
    "stop_times, message, line",
    [
        # a bad time on a row after an unknown stop
        (("T1,A,09:00:00,09:00:00,1", "T1,Z,09:05:00,09:05:00,2", "T1,B,09:61:00,09:61:00,3"), "unknown stop 'Z'", 3),
        # an unknown stop on a row after a bad time
        (("T1,A,09:00:00,09:00:00,1", "T1,B,9h05,09:05:00,2", "T1,Z,09:10:00,09:10:00,3"), "cannot parse time", 3),
        # an unknown trip after a departure before its arrival, then the reverse
        (("T1,A,09:00:00,08:59:00,1", "T9,B,09:05:00,09:05:00,2"), "departure before arrival", 2),
        (("T9,A,09:00:00,09:00:00,1", "T1,B,09:05:00,09:04:00,2"), "unknown trip 'T9'", 2),
        # an unknown trip and an unknown stop on one row, a trip's first or a later one
        (("T9,Z,09:00:00,09:00:00,1",), "unknown trip 'T9'", 2),
        (("T1,A,09:00:00,09:00:00,1", " T1 ,Z,09:05:00,09:05:00,2"), "unknown stop 'Z'", 3),
        # an unknown trip on a known trip's later row, after the trips' first rows
        (("T1,A,09:00:00,09:00:00,1", "T2,B,09:00:00,09:00:00,1", "T3,C,09:05:00,09:05:00,2"), "unknown trip 'T3'", 4),
        # a stop_sequence that is not an integer after a non-increasing one: rows fail before trips
        (("T1,A,09:00:00,09:00:00,1", "T1,B,09:05:00,09:05:00,1", "T2,C,09:05:00,09:05:00,x"), "stop_sequence must", 4),
        # a non-increasing sequence in one trip and a time reversal in an earlier trip, at a later line
        (
            (
                "T2,A,09:00:00,09:00:00,1",
                "T1,A,09:00:00,09:00:00,1",
                "T1,B,09:05:00,09:05:00,1",
                "T2,B,08:55:00,08:55:00,2",
            ),
            "times not monotone in trip 'T2'",
            5,
        ),
        # both faults in one trip: the first pair in sequence order names its fault
        (
            (
                "T1,C,09:20:00,09:20:00,5",
                "T1,A,09:00:00,09:10:00,1",
                "T1,B,09:05:00,09:05:00,2",
                "T1,A,09:30:00,09:30:00,5",
            ),
            "times not monotone in trip 'T1'",
            4,
        ),
        (
            (
                "T1,A,09:00:00,09:00:00,1",
                "T1,B,09:05:00,09:05:00,3",
                "T1,C,09:06:00,09:06:00,3",
                "T1,A,09:01:00,09:01:00,4",
            ),
            "stop_sequence not strictly increasing in trip 'T1'",
            4,
        ),
    ],
)
def test_a_feed_with_two_faults_fails_at_the_same_one(tmp_path, stop_times, message, line):
    feed, net = assert_same_gtfs(write_feed(tmp_path / "gtfs", stop_times), FARES)
    assert feed == net
    assert feed[0] == "ParseError" and message in feed[1] and feed[3] == line


def test_a_trip_of_a_mode_the_fares_lack_fails_at_its_first_line(tmp_path):
    routes = ("route_id,route_type", "R1,3", "R2,1")  # Subway
    stop_times = ("T2,B,09:00:00,09:00:00,1", "T1,A,09:00:00,09:00:00,1", "T2,C,09:05:00,09:05:00,2")
    feed, net = assert_same_gtfs(write_feed(tmp_path / "gtfs", stop_times, routes=routes), FARES)
    assert isinstance(feed, GtfsFeed)
    assert net[0] == "ParseError" and "Subway" in net[1] and net[3] == 2


# --- Hypothesis-made files -----------------------------------------------------------------


IDS = ("a", "b", "c", "d", "10", "9", " b", "c ")
MODES = ("Bus", "Tram", " Bus", "Tram ")
NUMBERS = ("1", "2.5", " 3 ", "0", "12.25", "1e3", "7")
BAD_NUMBERS = ("-1", "nan", "inf", "x", "", "1e400", "1e300", "-0.0")
BAD_MODES = ("Zeppelin", "bus")

FILES = settings(max_examples=200, deadline=None)


@st.composite
def edge_list_rows(draw):
    """Rows of ids, modes and numbers that load, with up to three cells set
    to make a self-loop or to text that fails (or to a distance whose cost
    is too large), and some blank lines."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        u = draw(st.sampled_from(IDS))
        v = draw(st.sampled_from([other for other in IDS if other.strip() != u.strip()]))
        rows.append([u, v, draw(st.sampled_from(MODES)), draw(st.sampled_from(NUMBERS)), draw(st.sampled_from(NUMBERS))])
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(1, 4))
        bad = (None, [rows[row][0]], BAD_MODES, BAD_NUMBERS, BAD_NUMBERS)[column]  # a self-loop, or text that fails
        rows[row][column] = draw(st.sampled_from(bad))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    return rows


@FILES
@given(rows=edge_list_rows(), huge=st.booleans())
def test_drawn_edge_lists_load_as_the_reference_loads_them(tmp_path_factory, rows, huge):
    path = write_edge_list(tmp_path_factory.getbasetemp() / "drawn_edges.csv", rows)
    result = assert_same_edge_list(path, HUGE_FARES if huge else FARES)
    if isinstance(result, MultiModalNetwork):
        assert_same_roots(result)


TIMES = tuple(f"{hour:02d}:{minute:02d}:00" for hour in (8, 9, 10, 25) for minute in (0, 5, 30))
BAD_TIMES = ("9:5", "09:60:00", "x", "-1:00:00")


@st.composite
def feeds(draw):
    """A feed of four stops, two routes and three trips (one of a route
    whose mode the fares may lack), whose stop times are drawn in any row
    order, then up to three cells set to text that fails: an unknown trip
    or stop, a malformed time or sequence, a departure before its arrival,
    a repeated sequence or times out of order."""
    stop_ids = ("A", "B", "C", "D")
    trips = ("T1", "T2", "T3")
    rows = []
    for trip in trips:
        clock = draw(st.integers(0, 2))
        for sequence in sorted(draw(st.sets(st.integers(1, 9), max_size=4))):
            stop = draw(st.sampled_from(stop_ids))
            arrival, departure = clock, clock + draw(st.integers(0, 1))  # at most 2 + 4 * 2 - 1, within TIMES
            clock = departure + draw(st.integers(0, 1))
            cells = [trip, stop, TIMES[arrival], TIMES[departure], str(sequence)]
            if draw(st.booleans()):
                cells[0], cells[1] = f" {trip}", f"{stop} "
            rows.append(cells)
    rows = draw(st.permutations(rows)) if rows else rows
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 4))
        bad = [("T9", "T1", "T2"), ("Z", "A", "B"), BAD_TIMES + TIMES, BAD_TIMES + TIMES, ("x", "1", "2", "5")]
        rows[row][column] = draw(st.sampled_from(bad[column]))
    stops = [*STOPS, "D,Delta,47.3,8.3"]
    if draw(st.booleans()):
        stops[draw(st.integers(1, 4))] = draw(st.sampled_from(("A,Again,47.0,8.0", "E,Far,91,8.0", "E,Bad,x,8.0")))
    routes = ("route_id,route_type", "R1,3", "R2," + draw(st.sampled_from(("0", "1", "99"))))
    return stops, routes, (*TRIPS, "R1,T3"), [",".join(cells) for cells in rows]


@FILES
@given(feed=feeds())
def test_drawn_feeds_parse_and_load_as_the_reference_does(tmp_path_factory, feed):
    stops, routes, trips, stop_times = feed
    directory = write_feed(tmp_path_factory.getbasetemp() / "drawn_gtfs", stop_times, stops, routes, trips)
    _, net = assert_same_gtfs(directory, FARES)
    if isinstance(net, MultiModalNetwork):
        assert_same_roots(net)


@FILES
@given(
    count=st.integers(1, 14),
    edges=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=30),
)
def test_component_roots_are_the_reference_roots_on_drawn_networks(count, edges):
    builder = NetworkBuilder(allow_self_loops=True)
    for poi in range(count):
        builder.add_poi(f"p{poi}")
    for u, v in edges:
        if u < count and v < count:
            builder.add_edge(u, v, 0, 1.0, 1.0)
    assert_same_roots(builder.finalize(FARES))


# --- network files ---------------------------------------------------------------------------


def assert_same_network_json(path):
    result = outcome(load_network_json, path)
    assert result == outcome(reference_load_network_json, path)
    return result


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_saved_networks_load_as_the_reference_loads_them(tmp_path, monkeypatch, name, chunk):
    path = tmp_path / "net.json"
    save_network_json(NETWORKS[name](), path)
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)
    assert assert_same_network_json(path) == NETWORKS[name]()


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", sorted(TEXTS))
def test_odd_network_texts_load_as_the_reference_loads_them(tmp_path, monkeypatch, case, chunk):
    path = tmp_path / "net.json"
    path.write_text(TEXTS[case], encoding="utf-8", newline="")
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)
    assert_same_network_json(path)


@pytest.fixture(scope="module")
def tricky_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("tricky") / "net.json"
    save_network_json(_tricky_network(), path)
    return path.read_text(encoding="utf-8")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_network_texts_load_as_the_reference_loads_them(tmp_path_factory, tricky_text, data):
    path = tmp_path_factory.mktemp("mutated") / "net.json"
    path.write_text(mutated(data, tricky_text), encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ingest, "_TEXT_CHUNK", data.draw(st.sampled_from(CHUNKS)))
        assert_same_network_json(path)


def test_the_perfbench_ingest_networks_load_as_the_reference_loads_them(perfbench_files, tmp_path):
    files, fares = perfbench_files
    for tag, raw, k in (("edges", load_edge_list(files.edge_list, fares), 8), ("gtfs", load_gtfs(files.gtfs, fares), 5)):
        net, _ = categorize(connect_components(raw)[0], CategoryConfig(k=k))
        path = tmp_path / f"{tag}.json"
        save_network_json(net, path)
        assert assert_same_network_json(path) == net


# a record the builder rejects, in the first batch of 'modes', 'pois' or 'edges' or the last of 'pois', as
# (where, old text, new text); an edge fault in the last batch of 'edges' is met only after the JSON fault
BUILDER_FAULTS = {
    "first mode": (str.index, '"base_fare_cents": ', '"base_fare_cents": -'),
    "first PoI": (str.index, '"external_id": "r', '"external_id": 7, "x": "r'),
    "last PoI": (str.rindex, '"external_id": "r', '"external_id": 7, "x": "r'),
    "first edge": (str.index, '"distance_m": ', '"distance_m": -'),
}


@pytest.mark.parametrize("fault", sorted(BUILDER_FAULTS))
def test_a_builder_fault_before_a_later_json_fault_fails_as_the_reference_fails(tmp_path, fault):
    """The stream meets the builder's fault first; the whole document names
    the JSON fault, as the reference did."""
    path = tmp_path / "net.json"
    save_network_json(road_network(1, 30), path)
    find, old, new = BUILDER_FAULTS[fault]
    text = path.read_text(encoding="utf-8")
    at = find(text, old)
    text = text[:at] + new + text[at + len(old) :]
    end = "]\n}\n"  # the closing ']' of 'edges' and '}' of the network
    assert text.endswith(end)
    path.write_text(text[: -len(end)], encoding="utf-8")
    with pytest.raises(ParseError, match=r"(modes|pois|edges)\[\d+\]"):
        _build_network(path, _network_sections(path))  # what the stream alone would say
    result = assert_same_network_json(path)
    assert result[0] == "ParseError" and "invalid JSON" in result[1]
    json.loads(path.read_text(encoding="utf-8") + end)  # no other fault


@pytest.mark.parametrize("chunk", CHUNKS)
def test_edge_records_with_an_extra_key_stream_and_load_as_the_reference_loads_them(tmp_path, monkeypatch, chunk):
    """The edge hook reads an edge record's five values and drops any other
    key, so such a file streams; the whole document is never decoded."""
    net = road_network(1, 6)
    path = tmp_path / "net.json"
    save_network_json(net, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"time_min": ', '"note": [1, "}"], "time_min": '), encoding="utf-8")
    assert reference_load_network_json(path) == net

    def whole(*args, **kwargs):
        raise AssertionError("the whole document was decoded")

    monkeypatch.setattr(ingest, "read_json", whole)
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)
    assert load_network_json(path) == net


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("edge", [0, 3, -1])
def test_an_edge_record_without_u_is_named_as_the_reference_names_it(tmp_path, monkeypatch, edge, chunk):
    net = road_network(1, 6)
    path = tmp_path / "net.json"
    save_network_json(net, path)
    parts = path.read_text(encoding="utf-8").split('"u": ')  # only edge records have the key 'u'
    edge %= net.edge_count
    text = '"u": '.join(parts[: edge + 1]) + '"w": ' + '"u": '.join(parts[edge + 1 :])
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)
    result = assert_same_network_json(path)
    assert result == ("ParseError", f"{path}: edges[{edge}]: missing key 'u'", str(path), None)

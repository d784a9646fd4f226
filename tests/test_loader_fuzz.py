"""Mutation fuzzing of the file loaders: a saved walkthrough network, its
edge-list CSV, the default fare config, the minimal GTFS feed and a query
file of ``gtpmm plan --query``. JSON fields are set to values of other
types, non-finite or huge numbers and booleans, keys are dropped and whole
records replaced; CSV cells are set, dropped or added, columns repeated,
rows replaced, and the file text gains blank or whitespace-only lines, is
cut short or gets a byte that is not UTF-8. Every failure must be a
``ParseError`` naming the file; every success must give fares that
resolve, a network that ``connect_components`` accepts and whose edge costs
the decimal pricing loop agrees with, or a query that ``gtpmm plan``
plans."""

from __future__ import annotations

import copy
import csv
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import (
    GtpError,
    ParseError,
    connect_components,
    load_edge_list,
    load_fare_config,
    load_gtfs,
    load_network_json,
    resolve_fares,
    save_network_json,
)
from gtpmm.cli import _load_query, main
from gtpmm.fixtures import data_path, default_fare_ranges, gtfs_minimal_dir, walkthrough_fare_table, walkthrough_network
from gtpmm.ingest import FARE_STRATEGIES, save_edge_list
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder
from test_network import parent_edge_costs

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)  # what UTF-8 can hold
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, float("nan"), float("inf"), -float("inf"), 10**400, -1, 0, 1.5, -0.0]),
    st.sampled_from(["", "x", "NaN", "1", [], {}, [1, 2], ["x", 1], {"u": 0}]).map(copy.deepcopy),
    st.integers(-3, 40),
    st.floats(),
    _TEXT,
)
ODD_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "Infinity", "1" + "0" * 400, "1e400", "-1", "1.5", "True", "Bus"]),
    st.sampled_from(["v01", "v03", "v10", "Zeppelin", " 5 ", "1e-400", "0x10"]),
    st.sampled_from(["a\nb", "\r\n", '"', " ", "\t", "1-2", "2-1", "~1", "low", "mid", "seeded-uniform"]),
    st.sampled_from(["A", "B", "R1", "T1", "3", "6", "99", "09:00:00", "24:59:59", "00:60:00", "-1:00:00"]),
    st.sampled_from(["9" * 20 + ":00:00", "1" + "0" * 400 + ":00:00", "90", "-181", "47.3", "8.5"]),
    _TEXT,
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The saved walkthrough network as a JSON document and as CSV rows."""
    directory = tmp_path_factory.mktemp("fuzz")
    net = walkthrough_network()
    save_network_json(net, directory / "net.json")
    save_edge_list(net, directory / "edges.csv")
    document = json.loads((directory / "net.json").read_text())
    with (directory / "edges.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    return directory, document, rows


def assert_repairable(net):
    """``net``'s edge costs are the parent decimal loop's, and
    ``connect_components`` accepts ``net``; an empty network, which a
    header-only or cut-short file loads to, has nothing to repair."""
    assert list(net.edge_costs) == parent_edge_costs(net.edges, net.fare_table)
    if net.poi_count:
        connect_components(net)


def assert_parse_error_or_repairable(load, path):
    try:
        net = load(path)
    except ParseError as error:
        assert error.file == str(path)
    else:
        assert_repairable(net)


@st.composite
def json_mutations(draw, document):
    """``document`` with one to three records changed: a field set to an odd
    value, a key dropped, or the record replaced by an odd value or by a copy
    of another record."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(["modes", "pois", "edges"]))
        records = document[section]
        index = draw(st.integers(0, len(records) - 1))
        record = records[index]
        action = draw(st.sampled_from(["set", "drop", "replace"]))
        if action == "replace":
            others = [other for name in ("modes", "pois", "edges") for other in document[name]]
            records[index] = draw(st.one_of(ODD_VALUES, st.sampled_from(others).map(copy.deepcopy)))
        elif isinstance(record, dict) and action == "drop" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        elif isinstance(record, dict):
            record[draw(st.sampled_from(sorted(record)))] = draw(ODD_VALUES)
    return document


@st.composite
def csv_mutations(draw, rows):
    """``rows`` with one to three changed: a cell set to odd text, dropped
    or added, the row replaced by odd cells or by a copy of another row, or
    a column repeated in every row."""
    rows = copy.deepcopy(rows)
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(rows) - 1))
        row = rows[index]
        action = draw(st.sampled_from(["set", "drop", "add", "replace", "repeat-column"]))
        if action == "replace":
            rows[index] = draw(st.one_of(st.lists(ODD_CELLS, max_size=6), st.sampled_from(rows).map(list)))
        elif action == "add":
            row.insert(draw(st.integers(0, len(row))), draw(ODD_CELLS))
        elif action == "repeat-column":
            column = draw(st.integers(0, max(len(row) - 1, 0)))
            for other in rows:
                other[column:column] = other[column : column + 1]
        elif row and action == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
    return rows


@st.composite
def csv_files(draw, rows):
    """The bytes of ``rows`` after :func:`csv_mutations`, then maybe with a
    blank or whitespace-only line put in, cut short, or given a byte that
    is not UTF-8."""
    text = io.StringIO()
    csv.writer(text).writerows(draw(csv_mutations(rows)))
    data = text.getvalue().encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(["blank", "truncate", "invalid-utf8"]))
        if action == "blank":
            starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
            at = draw(st.sampled_from(starts))
            data = data[:at] + draw(st.sampled_from([b"\n", b"\r\n", b"  \n", b"\t\r\n", b" "])) + data[at:]
        elif action == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        else:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@FUZZ
@given(data=st.data())
def test_mutated_network_json_fails_as_a_parse_error_or_loads(saved, data):
    directory, document, _ = saved
    path = directory / "mutated.json"
    path.write_text(json.dumps(data.draw(json_mutations(document))), encoding="utf-8")
    assert_parse_error_or_repairable(load_network_json, path)


@FUZZ
@given(data=st.data())
def test_mutated_edge_list_fails_as_a_parse_error_or_loads(saved, data):
    directory, _, rows = saved
    path = directory / "mutated.csv"
    path.write_bytes(data.draw(csv_files(rows)))
    fares = walkthrough_fare_table()
    assert_parse_error_or_repairable(lambda p: load_edge_list(p, fares), path)


@FUZZ
@given(data=st.data())
def test_mutated_fare_config_fails_as_a_parse_error_or_resolves(saved, data):
    directory = saved[0]
    path = directory / "fares.csv"
    path.write_bytes(data.draw(csv_files(read_rows(data_path("default_fares.csv")))))
    try:
        ranges = load_fare_config(path)
    except ParseError as error:
        assert error.file == str(path)
    else:
        for strategy in FARE_STRATEGIES:
            resolve_fares(ranges, strategy, seed=1)


GTFS_TABLES = ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt")


@FUZZ
@given(data=st.data())
def test_mutated_gtfs_feed_fails_as_a_parse_error_or_loads(saved, data):
    """One to four of the minimal feed's tables mutated; an error may name
    any of them, as a mutated table can make another one's references fail."""
    feed = saved[0] / "gtfs"
    shutil.rmtree(feed, ignore_errors=True)
    shutil.copytree(gtfs_minimal_dir(), feed)
    for table in data.draw(st.lists(st.sampled_from(GTFS_TABLES), min_size=1, max_size=4, unique=True)):
        (feed / table).write_bytes(data.draw(csv_files(read_rows(feed / table))))
    fares = resolve_fares(default_fare_ranges(), "low")
    try:
        net = load_gtfs(feed, fares)
    except ParseError as error:
        assert error.file in {str(feed / table) for table in GTFS_TABLES}
    else:
        assert_repairable(net)


_FARES = FareTable.from_pairs([("A", FarePolicy(100, 1, 0)), ("B", FarePolicy(0, 0, 2))])


@FUZZ
@given(
    pois=st.lists(st.tuples(ODD_VALUES, ODD_VALUES, ODD_VALUES, ODD_VALUES), min_size=1, max_size=4),
    edges=st.lists(st.tuples(*[st.one_of(st.integers(-1, 4), ODD_VALUES)] * 5), max_size=4),
)
def test_a_network_the_builder_accepts_loads_back_from_its_file(tmp_path_factory, pois, edges):
    """What the builder takes, in any field, the network JSON loader takes
    back: both run the same checks."""
    builder = NetworkBuilder(allow_self_loops=True)
    for external_id, name, category, coords in pois:
        try:
            builder.add_poi(external_id, name=name, category=category, coords=coords)
        except GtpError:
            pass
    for u, v, mode, distance, time in edges:
        try:
            builder.add_edge(u, v, mode, distance, time)
        except GtpError:
            pass
    try:
        net = builder.finalize(_FARES)
    except GtpError:
        return
    path = tmp_path_factory.getbasetemp() / "built.json"
    save_network_json(net, path)
    assert load_network_json(path) == net


# The walkthrough network's PoIs are ids 0-9 and external ids v01-v10.
QUERY = {"agents": [["v10", "v01"], [2, "v05"]], "categories": [["v07", 3], ["v05"], ["v03", "v08"]]}
QUERY_VALUES = st.one_of(
    ODD_VALUES,
    st.sampled_from([-1, 9, 10, 10**400, -(10**400), "v01", "v10", "v99", "V01", " v01"]),
    st.sampled_from([[["v01"]], [[0, 1]], [[]], [[], []], [["v01", "v02"]], [[["v03"]]], [0, [1]]]).map(copy.deepcopy),
)


@st.composite
def query_mutations(draw):
    """:data:`QUERY` with one to three places changed: the document, its
    agent or category list, one agent or category, or one PoI reference in
    them set to an odd value, dropped (a key or a list item), or given an
    odd item."""
    document = copy.deepcopy(QUERY)
    for _ in range(draw(st.integers(1, 3))):
        places = [(None, None)]  # the document itself
        if isinstance(document, dict):
            places += [(document, key) for key in document]
            for key in ("agents", "categories"):
                lists = document.get(key)
                if isinstance(lists, list):
                    places += [(lists, index) for index in range(len(lists))]
                    places += [(item, index) for item in lists if isinstance(item, list) for index in range(len(item))]
        owner, key = draw(st.sampled_from(places))
        action = draw(st.sampled_from(["set", "drop", "add"]))
        if owner is None:
            if action == "set":
                document = draw(QUERY_VALUES)
            continue
        if action == "set":
            owner[key] = draw(QUERY_VALUES)
        elif action == "drop":
            del owner[key]
        elif isinstance(owner[key], list):
            owner[key].insert(draw(st.integers(0, len(owner[key]))), draw(QUERY_VALUES))
    return document


@pytest.fixture(scope="module")
def walkthrough_file(saved):
    directory = saved[0]
    return load_network_json(directory / "net.json"), directory / "net.json"


@FUZZ
@given(data=st.data())
def test_mutated_query_fails_as_a_parse_error_or_plans(saved, walkthrough_file, data):
    """A query file that does not load is a ``ParseError`` naming it, and
    ``gtpmm plan`` then exits with 2 and one error line, under 200
    characters past the file's name, however long an id it echoes; one
    that loads names only PoIs of the network, and ``gtpmm plan`` plans it."""
    net, net_path = walkthrough_file
    path = saved[0] / "query.json"
    path.write_text(json.dumps(data.draw(query_mutations())), encoding="utf-8")
    try:
        inst = _load_query(net, str(path))
    except ParseError as error:
        assert error.file == str(path)
        expected = 2
    else:
        assert inst.referenced_pois() <= set(range(net.poi_count))
        expected = 0
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
        assert main(["plan", "--network", str(net_path), "--query", str(path)]) == expected
    if expected:
        assert stderr.getvalue().startswith(f"error: {path}") and stderr.getvalue().count("\n") == 1
        assert len(stderr.getvalue()) - len(str(path)) < 200


@pytest.mark.parametrize(
    "text",
    ['{"agents": [["v10", "v01"]], "categories": [[1' + "0" * 5000 + "]]}", "[" * 100_000 + "]" * 100_000],
    ids=["number-past-the-digit-limit", "nested-past-the-recursion-limit"],
)
def test_query_json_the_decoder_cannot_hold_is_a_parse_error(saved, walkthrough_file, text):
    net, net_path = walkthrough_file
    path = saved[0] / "query.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        _load_query(net, str(path))
    assert excinfo.value.file == str(path)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
        assert main(["plan", "--network", str(net_path), "--query", str(path)]) == 2
    assert stderr.getvalue() == f"error: {path}: invalid JSON: a number too long or nesting too deep to decode\n"

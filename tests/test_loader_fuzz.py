"""Mutation fuzzing of the network loaders: a saved walkthrough network and
its edge-list CSV, with fields set to values of other types, non-finite or
huge numbers and booleans, keys or columns dropped, and whole records
replaced. Every failure must be a ``ParseError`` naming the file; every
success must give a network that ``connect_components`` accepts."""

from __future__ import annotations

import copy
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import GtpError, ParseError, connect_components, load_edge_list, load_network_json, save_network_json
from gtpmm.fixtures import walkthrough_fare_table, walkthrough_network
from gtpmm.ingest import save_edge_list
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder

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


def assert_parse_error_or_repairable(load, path):
    try:
        net = load(path)
    except ParseError as error:
        assert error.file == str(path)
    else:
        connect_components(net)


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
    """``rows`` with one to three changed: a cell set to odd text, a cell
    dropped, or the row replaced by odd cells or by a copy of another row."""
    rows = copy.deepcopy(rows)
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(rows) - 1))
        row = rows[index]
        action = draw(st.sampled_from(["set", "drop", "replace"]))
        if action == "replace":
            rows[index] = draw(st.one_of(st.lists(ODD_CELLS, max_size=6), st.sampled_from(rows).map(list)))
        elif row and action == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
    return rows


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
    text = io.StringIO()
    csv.writer(text).writerows(data.draw(csv_mutations(rows)))
    path.write_text(text.getvalue(), encoding="utf-8", newline="")
    fares = walkthrough_fare_table()
    assert_parse_error_or_repairable(lambda p: load_edge_list(p, fares), path)


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

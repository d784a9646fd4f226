"""The network file reader that decodes a chunk at a time against the whole-text decode,
and the load that builds from it as it reads."""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import ingest
from gtpmm.errors import ParseError
from gtpmm.fixtures import walkthrough_fare_table, walkthrough_network
from gtpmm.ingest import _edge_values, load_network_json, save_network_json
from gtpmm.network import NetworkBuilder, TransitEdge
from gtpmm.synth import road_network

CHUNKS = (1, 2, 7, 64, ingest._TEXT_CHUNK)


# Verbatim copies of ``_edge_row``, ``_as_object`` and ``read_json`` as they
# were while the network loader decoded every JSON object through the
# Python-level hook ``_edge_row``; only their names are changed. ``_whole``
# decodes a file as that loader's whole-document read did, and
# ``test_ingest_reference.py``'s reference loader decodes with them.


def reference_edge_row(entry: dict) -> dict | tuple:
    """The JSON decoder's object hook: an object whose five keys are an
    edge record's as the tuple of its values, in :class:`TransitEdge`
    field order, which takes a fraction of the dict's memory; any other
    object as it is."""
    if len(entry) == len(TransitEdge._fields):
        try:
            return _edge_values(entry)
        except KeyError:  # five keys, not all of them an edge's
            pass
    return entry


def reference_as_object(entry: object) -> object:
    """``entry``, or the object :func:`_edge_row` made a tuple of: a mode,
    a PoI or the document that happens to hold exactly an edge record's
    keys, read as the dict it was."""
    return dict(zip(TransitEdge._fields, entry)) if type(entry) is tuple else entry


def reference_read_json(path: str | Path, kind: str, object_hook: Callable[[dict], object] | None = None) -> object:
    """The JSON document in the ``kind`` file at ``path``, each JSON object
    decoded through ``object_hook`` when it is given; invalid JSON, text
    that is not UTF-8, a number of more digits than ``int`` converts,
    nesting deeper than the decoder recurses and an unreadable file raise
    :class:`ParseError` naming the file, and the line for invalid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=object_hook)
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error.msg}", file=str(path), line=error.lineno) from None
    except UnicodeDecodeError:
        raise ParseError(f"{kind} file is not UTF-8 text", file=str(path)) from None
    except (ValueError, RecursionError):
        raise ParseError("invalid JSON: a number too long or nesting too deep to decode", file=str(path)) from None
    except OSError as error:
        raise ParseError(f"cannot read {kind} file: {error.strerror}", file=str(path)) from None


def _whole(path):
    return reference_as_object(reference_read_json(path, "network", reference_edge_row))


def _streamed(path):
    """The document the streaming reader reads from ``path``: each key's batches joined."""
    document = {}
    for key, batch in ingest._network_sections(path):
        document.setdefault(key, []).extend(batch)
    return document


def _tricky_network():
    """PoI names that hold the characters the reader cuts and splits at."""
    builder = NetworkBuilder()
    for index, name in enumerate(['}, {"a": 1}', "]", '"}\\', "", "é\U0001f600 }"]):
        builder.add_poi(f"p{index}}}", name=name, coords=(index, -index) if index % 2 else None)
    for index in range(4):
        builder.add_edge(index, index + 1, index % 2, 10.0 * index + 0.5, 1.25)
    return builder.finalize(walkthrough_fare_table())


NETWORKS = {"walkthrough": walkthrough_network, "road": lambda: road_network(1, 6), "tricky": _tricky_network}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_a_saved_network_reads_in_chunks_as_it_reads_whole(tmp_path, monkeypatch, name, chunk):
    net = NETWORKS[name]()
    path = tmp_path / "net.json"
    save_network_json(net, path)
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)
    assert _streamed(path) == _whole(path)
    assert load_network_json(path) == net


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_a_saved_network_loads_as_it_is_read_without_the_whole_document(tmp_path, monkeypatch, name, chunk):
    net = NETWORKS[name]()
    path = tmp_path / "net.json"
    save_network_json(net, path)
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)

    def whole(*args, **kwargs):
        raise AssertionError("the whole document was decoded")

    monkeypatch.setattr(ingest, "read_json", whole)
    assert load_network_json(path) == net


def test_edge_rows_enter_the_builder_about_a_thousand_at_a_time(tmp_path, monkeypatch):
    net = road_network(1, 30)
    path = tmp_path / "net.json"
    save_network_json(net, path)
    calls = []
    add_edges = NetworkBuilder.add_edges

    def spy(self, *columns):
        calls.append(len(columns[0]))
        return add_edges(self, *columns)

    monkeypatch.setattr(NetworkBuilder, "add_edges", spy)
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", 1024)  # a few edge records per batch
    assert load_network_json(path) == net
    assert sum(calls) == net.edge_count > 2 * ingest._CHUNK
    assert all(ingest._CHUNK <= count < ingest._CHUNK + 20 for count in calls[:-1]) and calls[-1] <= ingest._CHUNK


def test_a_load_the_stream_gives_up_leaves_no_cyclic_garbage(tmp_path):
    """A builder fault the stream meets is named again from the whole
    document; the half-built network and the stream leave nothing for the
    garbage collector."""
    path = tmp_path / "net.json"
    save_network_json(road_network(1, 6), path)
    path.write_text(path.read_text().replace('"distance_m": ', '"distance_m": -', 1))
    for collected in (None, 0):  # the first call fills first-call caches
        gc.collect()
        with pytest.raises(ParseError, match=r"edges\[0\]: edge \(0, 1\) has invalid distance"):
            load_network_json(path)
        assert collected is None or gc.collect() == collected


def test_one_load_peaks_at_little_more_than_the_network_it_keeps(tmp_path):
    """Measured on ``road_network(1, 30)``: the load keeps 0.66 MB and peaks
    at 1.45 times that; decoding the whole document first peaked at 1.81
    times."""
    path = tmp_path / "net.json"
    save_network_json(road_network(1, 30), path)
    load_network_json(path)  # first-call caches
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        loaded = load_network_json(path)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.edge_count > 3000
    assert peak - start < 1.6 * (end - start)


def test_the_reader_holds_a_few_chunks_of_the_text_at_most(tmp_path, monkeypatch):
    path = tmp_path / "net.json"
    save_network_json(road_network(1, 20), path)
    held = []
    more = ingest._Chunks.more

    def spy(self):
        grew = more(self)
        held.append(len(self.text))
        return grew

    monkeypatch.setattr(ingest, "_TEXT_CHUNK", 1024)
    monkeypatch.setattr(ingest._Chunks, "more", spy)
    edges = _streamed(path)["edges"]
    assert len(path.read_text()) > 50 * 1024
    assert max(held) < 2 * 1024
    ends = [end for edge in edges for end in edge[:2]]
    assert len({*map(id, ends)}) == len({*ends}) == 400  # one int object per PoI id, not per edge end


TEXTS = {
    "empty": "",
    "empty-object": "{}",
    "empty-arrays": '{"modes": [], "pois": [ ], "edges": [\n]}',
    "trailing-comma": '{"modes": [{"a": 1},]}',
    "trailing-key-comma": '{"modes": [],}',
    "extra-data": '{"modes": []} []',
    "not-an-object": "[]",
    "scalar-items": '{"modes": [1, 2]}',
    "nested-objects": '{"modes": [{"a": {"b": {}}}, {"c": [{"d": 1}]}]}',
    "non-array-value": '{"modes": {"a": 1}}',
    "duplicate-keys": '{"modes": [{"a": 1}], "pois": [], "modes": [{"b": 2}]}',
    "crlf": '{\r\n"modes": [\r\n{"a": 1}\r\n]\r\n}\r\n',
    "bom": '\ufeff{"modes": []}',
    "unterminated": '{"modes": [{"a": 1}',
    "edge-keyed-document": json.dumps(dict.fromkeys(("u", "v", "mode", "distance_m", "time_min"), [])),
}


def _agree(path, monkeypatch, chunk):
    """The chunked read raises ValueError, or equals the whole read; it never
    takes a file the whole read rejects."""
    monkeypatch.setattr(ingest, "_TEXT_CHUNK", chunk)
    try:
        whole = _whole(path)
    except ParseError:
        whole = None
    try:
        chunked = _streamed(path)
    except (ValueError, RecursionError):
        return
    assert whole is not None
    assert chunked == whole


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", sorted(TEXTS))
def test_odd_texts_read_in_chunks_as_they_read_whole_or_not_at_all(tmp_path, monkeypatch, case, chunk):
    path = tmp_path / "net.json"
    path.write_text(TEXTS[case], encoding="utf-8", newline="")
    _agree(path, monkeypatch, chunk)


@pytest.fixture(scope="module")
def tricky_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("tricky") / "net.json"
    save_network_json(_tricky_network(), path)
    return path.read_text(encoding="utf-8")


def mutated(data, text: str) -> str:
    """``text``, a saved network, re-indented and with one to three
    characters inserted, replaced or deleted, as ``data`` draws them."""
    text = json.dumps(json.loads(text), indent=data.draw(st.sampled_from([None, 0, 2])))
    for _ in range(data.draw(st.integers(1, 3))):  # insert, replace or delete one character
        at, removed = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 1))
        added = data.draw(st.sampled_from(["", *'{}[],:" \n\r0a-.\\']))
        text = text[:at] + added + text[at + removed :]
    return text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_network_texts_read_in_chunks_as_they_read_whole_or_not_at_all(tmp_path_factory, tricky_text, data):
    path = tmp_path_factory.mktemp("mutated") / "net.json"
    path.write_text(mutated(data, tricky_text), encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _agree(path, monkeypatch, data.draw(st.sampled_from(CHUNKS)))

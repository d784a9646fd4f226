"""The record contract of :class:`Poi` and :class:`GtfsStop`: named tuples
with fixed fields and defaults, compared and hashed by value, copied with
``_replace`` and never changed in place; and the network file written from
their fields in order."""

from __future__ import annotations

import json

import pytest

from gtpmm import CategoryConfig, categorize, load_gtfs, resolve_fares, save_network_json
from gtpmm.fixtures import default_fare_ranges, gtfs_minimal_dir, walkthrough_fare_table
from gtpmm.ingest import GtfsStop, GtfsStopTime, parse_gtfs
from gtpmm.network import NetworkBuilder, Poi


def test_poi_fields_and_defaults():
    assert Poi._fields == ("external_id", "name", "category", "coords")
    assert Poi("x") == ("x", "", None, None)
    assert (Poi("x").name, Poi("x").category, Poi("x").coords) == ("", None, None)
    assert Poi("x", "X", 2, (1.0, 2.0)) == Poi(external_id="x", name="X", category=2, coords=(1.0, 2.0))


def test_add_poi_stores_the_name_or_else_the_external_id():
    builder = NetworkBuilder()
    for external_id, name in (("a", ""), ("b", "Bahnhof"), ("c", "c")):
        builder.add_poi(external_id, name=name)
    builder.add_poi("d", category=1, coords=[47.0, 8.5])
    net = builder.finalize(walkthrough_fare_table())
    assert net.pois == (Poi("a", "a"), Poi("b", "Bahnhof"), Poi("c", "c"), Poi("d", "d", 1, (47.0, 8.5)))
    assert {type(poi) for poi in net.pois} == {Poi}
    assert type(net.pois[3].coords) is tuple  # a list of coordinates is kept as a tuple


RECORDS = {
    "poi": (Poi, ("S1", "Central", 3, (47.3769, 8.5417)), {"category": None}),
    "gtfs-stop": (GtfsStop, ("Central Station", 47.3769, 8.5417, 2), {"lat": 0.0}),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_compare_and_hash_by_value(kind):
    record_type, values, _ = RECORDS[kind]
    record, same = record_type(*values), record_type(*values)
    assert record == same and record is not same and hash(record) == hash(same)
    assert record == tuple(values) and hash(record) == hash(tuple(values))
    assert len({record, same}) == 1
    assert record != record_type(*values[:-1], "other")


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_are_copied_by_replace_and_left_unchanged(kind):
    record_type, values, change = RECORDS[kind]
    record = record_type(*values)
    copy = record._replace(**change)
    assert type(copy) is record_type
    assert copy._asdict() == {**record._asdict(), **change}
    assert record == record_type(*values)  # the original is unchanged
    with pytest.raises(AttributeError):
        setattr(record, record_type._fields[0], "changed")
    with pytest.raises(TypeError):
        record[0] = "changed"
    with pytest.raises(ValueError):
        record._replace(missing=1)


def test_a_parsed_feed_holds_its_stops_and_stop_times_as_named_tuples():
    feed = parse_gtfs(gtfs_minimal_dir())
    assert feed.stops["A"] == GtfsStop("Central Station", 47.3769, 8.5417, 2)
    assert {type(stop) for stop in feed.stops.values()} == {GtfsStop}
    first = feed.stop_times["T1"][0]
    assert type(first) is GtfsStopTime
    assert first == GtfsStopTime(stop_id="A", arrival_min=540.0, departure_min=540.0, sequence=1, line=2)
    assert [entry.sequence for entry in feed.stop_times["T1"]] == [1, 2, 3]


def test_saved_network_is_the_json_dump_of_each_poi_as_a_dict(tmp_path):
    """The file of a categorized network with names, coordinates and None
    categories and coordinates is ``json.dumps(indent=2)`` of its records,
    each PoI by ``_asdict``, its fields in order."""
    net = load_gtfs(gtfs_minimal_dir(), resolve_fares(default_fare_ranges(), "low"))
    builder = NetworkBuilder()
    for poi in net.pois:
        builder.add_poi(poi.external_id, name=poi.name, coords=poi.coords)
    builder.add_poi("X1")  # no name, no coordinates
    builder.add_poi("X2", name="Parkhaus \"Nord\"\n", coords=(-0.0, 180))
    for edge in net.edges:
        builder.add_edge(edge.u, edge.v, edge.mode, edge.distance_m, edge.time_min)
    net = builder.finalize(net.fare_table)
    categorized, _ = categorize(net, CategoryConfig(k=2, strategy="by-name-keyword", keywords={"park": 1, "a": 0}))
    assert [poi.category for poi in categorized.pois] == [0, 0, 1, None, 1]
    assert categorized.pois[3] == Poi("X1", "X1")

    out = tmp_path / "net.json"
    save_network_json(categorized, out)
    fares = categorized.fare_table
    document = {
        "modes": [
            {
                "name": name,
                "base_fare_cents": policy.base_fare,
                "cost_per_meter_cents": str(policy.cost_per_meter),
                "cost_per_minute_cents": str(policy.cost_per_minute),
            }
            for name, policy in zip(fares.names, fares.policies)
        ],
        "pois": [poi._asdict() for poi in categorized.pois],
        "edges": [edge._asdict() for edge in categorized.edges],
    }
    assert out.read_bytes() == (json.dumps(document, indent=2) + "\n").encode("utf-8")

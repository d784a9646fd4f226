"""File ingestion: fare configs, edge lists, GTFS feeds, and categorization."""

from __future__ import annotations

import json
import re
import shutil
from decimal import Decimal

import pytest

from gtpmm import (
    CategoryConfig,
    ConfigurationError,
    ParseError,
    categorize,
    load_edge_list,
    load_fare_config,
    load_gtfs,
    load_network_json,
    resolve_fares,
    save_edge_list,
    save_network_json,
)
from gtpmm.fixtures import default_fare_ranges, walkthrough_fare_table, gtfs_minimal_dir
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder


# --- fare config ------------------------------------------------------------------


def test_low_strategy_picks_lower_bounds():
    fares = resolve_fares(default_fare_ranges(), "low")
    bus = fares.policy(fares.id_of("Bus"))
    assert bus == FarePolicy(250, Decimal("1"), Decimal("5"))


def test_high_strategy_picks_upper_bounds():
    fares = resolve_fares(default_fare_ranges(), "high")
    assert fares.policy(fares.id_of("Ferry")).base_fare == 1000


def test_mid_strategy_takes_midpoints():
    fares = resolve_fares(default_fare_ranges(), "mid")
    assert fares.policy(fares.id_of("Bus")).base_fare == 325
    assert fares.policy(fares.id_of("Bus")).cost_per_meter == Decimal("2")


def test_fixed_fare_is_unaffected_by_strategy():
    for strategy in ("low", "high", "mid"):
        fares = resolve_fares(default_fare_ranges(), strategy)
        assert fares.policy(fares.id_of("Train")).base_fare == 500


def test_seeded_uniform_is_reproducible_and_in_range():
    first = resolve_fares(default_fare_ranges(), "seeded-uniform", seed=99)
    second = resolve_fares(default_fare_ranges(), "seeded-uniform", seed=99)
    other = resolve_fares(default_fare_ranges(), "seeded-uniform", seed=100)
    assert first == second
    assert first != other
    bus = first.policy(first.id_of("Bus"))
    assert 250 <= bus.base_fare <= 400
    assert Decimal("1") <= bus.cost_per_meter <= Decimal("3")
    assert Decimal("5") <= bus.cost_per_minute <= Decimal("10")


def test_per_row_strategy_overrides_call_strategy(tmp_path):
    config = tmp_path / "fares.csv"
    config.write_text(
        "mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy\n"
        "A,1.00-2.00,0,0,high\n"
        "B,1.00-2.00,0,0,\n"
    )
    fares = resolve_fares(load_fare_config(config), "low")
    assert fares.policy(fares.id_of("A")).base_fare == 200
    assert fares.policy(fares.id_of("B")).base_fare == 100


def test_inverted_range_is_rejected(tmp_path):
    config = tmp_path / "fares.csv"
    config.write_text(
        "mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy\n"
        "A,4.00-2.00,0,0,\n"
    )
    with pytest.raises(ParseError, match="fares.csv:2"):
        load_fare_config(config)


def test_unreadable_fare_config_is_named(tmp_path):
    directory = tmp_path / "fares.csv"
    directory.mkdir()
    with pytest.raises(ParseError, match=r"fares\.csv: cannot read file"):
        load_fare_config(directory)
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy\n\xffA,1,0,0,\n")
    with pytest.raises(ParseError, match=r"binary\.csv: file is not UTF-8 text"):
        load_fare_config(binary)


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigurationError):
        resolve_fares(default_fare_ranges(), "cheapest")


def test_missing_fare_file_named():
    with pytest.raises(ParseError, match="nope.csv"):
        load_fare_config("nope.csv")


# --- edge list --------------------------------------------------------------------


def test_walkthrough_fixture_loads(walkthrough_net):
    assert walkthrough_net.poi_count == 10
    assert walkthrough_net.edge_count == 32  # 16 PoI pairs x 2 modes
    assert [p.external_id for p in walkthrough_net.pois] == [f"v{i:02d}" for i in range(1, 11)]


def test_header_only_file_gives_empty_network(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,mode,distance_m,time_min\n")
    net = load_edge_list(path, walkthrough_fare_table())
    assert net.poi_count == 0
    assert net.edge_count == 0


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,mode,distance,time\n")
    with pytest.raises(ParseError, match="edges.csv:1"):
        load_edge_list(path, walkthrough_fare_table())


def test_negative_distance_rejected_with_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,mode,distance_m,time_min\na,b,Bus,100,1\na,c,Bus,-5,1\n")
    with pytest.raises(ParseError, match="edges.csv:3"):
        load_edge_list(path, walkthrough_fare_table())


def test_unknown_mode_rejected_with_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,mode,distance_m,time_min\na,b,Zeppelin,100,1\n")
    with pytest.raises(ParseError, match="Zeppelin"):
        load_edge_list(path, walkthrough_fare_table())


def test_self_loop_rejected(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,mode,distance_m,time_min\na,a,Bus,100,1\n")
    with pytest.raises(ParseError, match="edges.csv:2"):
        load_edge_list(path, walkthrough_fare_table())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_distance_rejected_with_line(tmp_path, value):
    path = tmp_path / "edges.csv"
    path.write_text(f"u,v,mode,distance_m,time_min\na,b,Bus,100,1\na,c,Bus,{value},1\n")
    with pytest.raises(ParseError, match=r"edges\.csv:3: distance and time must be finite"):
        load_edge_list(path, walkthrough_fare_table())


def test_non_utf8_edge_list_is_named(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_bytes(b"u,v,mode,distance_m,time_min\na,b,Bus,100,1\n\xff\xfe,c,Bus,100,1\n")
    with pytest.raises(ParseError, match=r"edges\.csv: file is not UTF-8 text"):
        load_edge_list(path, walkthrough_fare_table())


def test_edge_list_directory_is_named(tmp_path):
    path = tmp_path / "edges.csv"
    path.mkdir()
    with pytest.raises(ParseError, match=r"edges\.csv: cannot read file"):
        load_edge_list(path, walkthrough_fare_table())


def test_byte_order_mark_is_tolerated(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_bytes("﻿u,v,mode,distance_m,time_min\na,b,Bus,100,1\n".encode("utf-8"))
    net = load_edge_list(path, walkthrough_fare_table())
    assert net.poi_count == 2
    assert net.edge_count == 1


def test_edge_list_round_trip(tmp_path, walkthrough_net):
    out = tmp_path / "roundtrip.csv"
    save_edge_list(walkthrough_net, out)
    reloaded = load_edge_list(out, walkthrough_net.fare_table)
    assert [p.external_id for p in reloaded.pois] == [p.external_id for p in walkthrough_net.pois]
    assert reloaded.edges == walkthrough_net.edges
    assert reloaded.edge_costs == walkthrough_net.edge_costs


def test_network_json_round_trip(tmp_path, walkthrough_net):
    out = tmp_path / "net.json"
    save_network_json(walkthrough_net, out)
    reloaded = load_network_json(out)
    assert reloaded.edges == walkthrough_net.edges
    assert reloaded.edge_costs == walkthrough_net.edge_costs
    assert reloaded.fare_table == walkthrough_net.fare_table


def test_network_json_round_trips_coordinates(tmp_path):
    builder = NetworkBuilder()
    for index, coords in enumerate([(90.0, -180.0), (-90, 180), (-33.87, 151.21), None]):
        builder.add_poi(f"p{index}", coords=coords)
    net = builder.finalize(walkthrough_fare_table())
    out = tmp_path / "net.json"
    save_network_json(net, out)
    assert load_network_json(out).pois == net.pois


def test_network_json_round_trips_self_loops(tmp_path):
    builder = NetworkBuilder(allow_self_loops=True)
    builder.add_poi("a", coords=(47.0, 8.5))
    builder.add_poi("b")
    builder.add_edge(0, 1, 0, 120.0, 2.0)
    builder.add_edge(1, 1, 1, 0.0, 0.5)
    builder.add_edge(0, 0, 0, 3.5, 0.0)
    net = builder.finalize(walkthrough_fare_table())
    out = tmp_path / "net.json"
    save_network_json(net, out)
    assert load_network_json(out) == net


def _drop_edges(document):
    del document["edges"]
    return document


def _set(section, index, key, value):
    def mutate(document):
        document[section][index][key] = value
        return document

    return mutate


def _duplicate_external_id(document):
    document["pois"][4]["external_id"] = document["pois"][2]["external_id"]
    return document


# case -> (mutation of a saved walkthrough network, what the error must name)
MALFORMED_NETWORKS = {
    "no-edges": (_drop_edges, "'edges'"),
    "list-document": (lambda document: [document], "JSON object"),
    "nan-distance": (_set("edges", 3, "distance_m", "NaN"), "edges[3]"),
    "non-integer-id": (_set("edges", 2, "u", 1.0), "edges[2]: u and v must be PoI ids"),
    "unknown-mode": (_set("edges", 0, "mode", 99), "edges[0]: u and v must be PoI ids and mode a mode id"),
    "nan-rate": (_set("modes", 1, "cost_per_meter_cents", "NaN"), "modes[1]"),
    "non-numeric-rate": (_set("modes", 0, "cost_per_minute_cents", "abc"), "modes[0]"),
    "duplicate-external-id": (_duplicate_external_id, "pois[4]: duplicate external_id 'v03'"),
    "negative-distance": (_set("edges", 1, "distance_m", -3.0), "edges[1]: edge (0, 2) has invalid distance -3.0"),
    "unknown-poi": (_set("edges", 0, "v", 99), "edges[0]: edge endpoints (0, 99) reference unknown PoIs"),
    "negative-fare": (_set("modes", 0, "base_fare_cents", -5), "modes[0]: fare policy components must be nonnegative"),
    "non-numeric-coords": (_set("pois", 1, "coords", ["x", 1]), "pois[1]: coords must be null or [lat, lon]"),
    "one-element-coords": (_set("pois", 2, "coords", [1]), "pois[2]: coords"),
    "three-element-coords": (_set("pois", 2, "coords", [1, 2, 3]), "pois[2]: coords"),
    "string-coords": (_set("pois", 0, "coords", "47.4,8.5"), "pois[0]: coords"),
    "boolean-coords": (_set("pois", 0, "coords", [True, 8.5]), "pois[0]: coords"),
    "nan-coords": (_set("pois", 3, "coords", [float("nan"), 8.5]), "pois[3]: coords"),
    "latitude-out-of-range": (_set("pois", 3, "coords", [90.5, 8.5]), "pois[3]: coords"),
    "longitude-out-of-range": (_set("pois", 5, "coords", [47.4, -180.5]), "pois[5]: coords"),
    "integer-external-id": (_set("pois", 1, "external_id", 5), "pois[1]: external_id and name must be strings"),
    "boolean-external-id": (_set("pois", 2, "external_id", True), "pois[2]: external_id and name"),
    "null-external-id": (_set("pois", 3, "external_id", None), "pois[3]: external_id and name"),
    "integer-name": (_set("pois", 4, "name", 7), "pois[4]: external_id and name must be strings"),
    "boolean-name": (_set("pois", 0, "name", False), "pois[0]: external_id and name"),
    "null-name": (_set("pois", 5, "name", None), "pois[5]: external_id and name"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NETWORKS))
def test_malformed_network_json_raises_parse_error(tmp_path, walkthrough_net, case):
    mutate, named = MALFORMED_NETWORKS[case]
    path = tmp_path / "net.json"
    save_network_json(walkthrough_net, path)
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    with pytest.raises(ParseError, match=re.escape(f"{path}: ")) as excinfo:
        load_network_json(path)
    assert named in str(excinfo.value)


def test_unreadable_network_file_raises_parse_error(tmp_path):
    binary = tmp_path / "net.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_network_json(binary)
    with pytest.raises(ParseError, match="cannot read network file"):
        load_network_json(tmp_path)


@pytest.mark.parametrize("value", ["NaN", "inf", "0.5-Infinity"])
def test_non_finite_fare_is_rejected_with_line(tmp_path, value):
    config = tmp_path / "fares.csv"
    config.write_text(
        "mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy\n"
        "A,1.00,0,0,\n"
        f"B,1.00,{value},0,\n"
    )
    with pytest.raises(ParseError, match="fares.csv:3: .* not finite"):
        load_fare_config(config)


# --- GTFS -------------------------------------------------------------------------


def gtfs_fares() -> FareTable:
    return resolve_fares(default_fare_ranges(), "low")


def test_minimal_feed_yields_two_edges():
    net = load_gtfs(gtfs_minimal_dir(), gtfs_fares())
    assert net.poi_count == 3
    assert net.edge_count == 2
    assert sorted(edge.time_min for edge in net.edges) == [5.0, 7.0]
    assert all(net.fare_table.name(edge.mode) == "Bus" for edge in net.edges)
    assert all(edge.distance_m > 0 for edge in net.edges)


def copy_feed(tmp_path):
    target = tmp_path / "feed"
    shutil.copytree(gtfs_minimal_dir(), target)
    return target


def test_parallel_observations_keep_minimum_time(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "trips.txt").write_text("route_id,trip_id\nR1,T1\nR1,T2\n")
    with (feed / "stop_times.txt").open("a") as handle:
        handle.write("T2,A,10:00:00,10:00:00,1\nT2,B,10:04:00,10:04:00,2\n")
    net = load_gtfs(feed, gtfs_fares())
    assert net.edge_count == 2
    assert sorted(edge.time_min for edge in net.edges) == [4.0, 7.0]


def test_empty_stop_times_gives_pois_without_edges(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stop_times.txt").write_text("trip_id,stop_id,arrival_time,departure_time,stop_sequence\n")
    net = load_gtfs(feed, gtfs_fares())
    assert net.poi_count == 3
    assert net.edge_count == 0


def test_missing_file_is_named(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "routes.txt").unlink()
    with pytest.raises(ParseError, match="routes.txt"):
        load_gtfs(feed, gtfs_fares())


def test_dangling_stop_reference_reports_line(tmp_path):
    feed = copy_feed(tmp_path)
    with (feed / "stop_times.txt").open("a") as handle:
        handle.write("T1,GHOST,09:20:00,09:20:00,4\n")
    with pytest.raises(ParseError, match="stop_times.txt:5"):
        load_gtfs(feed, gtfs_fares())


def test_non_monotone_sequence_reports_line(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stop_times.txt").write_text(
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence\n"
        "T1,A,09:00:00,09:00:00,2\n"
        "T1,B,09:05:00,09:05:00,2\n"
    )
    with pytest.raises(ParseError, match="stop_times.txt:3"):
        load_gtfs(feed, gtfs_fares())


def test_decreasing_times_report_line(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stop_times.txt").write_text(
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence\n"
        "T1,A,09:10:00,09:10:00,1\n"
        "T1,B,09:05:00,09:05:00,2\n"
    )
    with pytest.raises(ParseError, match="stop_times.txt:3"):
        load_gtfs(feed, gtfs_fares())


def test_unsupported_route_type_reports_line(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "routes.txt").write_text("route_id,route_type\nR1,12\n")
    with pytest.raises(ParseError, match="routes.txt:2"):
        load_gtfs(feed, gtfs_fares())


@pytest.mark.parametrize("coords", ["nan,8.57", "47.39,inf", "91,8.57", "47.39,-180.5"])
def test_invalid_stop_coordinate_reports_line(tmp_path, coords):
    feed = copy_feed(tmp_path)
    with (feed / "stops.txt").open("a") as handle:
        handle.write(f"D,Harbor,{coords}\n")
    with pytest.raises(ParseError, match=r"stops\.txt:5: stop latitude or longitude out of range"):
        load_gtfs(feed, gtfs_fares())


def test_non_utf8_stops_file_is_named(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stops.txt").write_bytes(b"stop_id,stop_name,stop_lat,stop_lon\nA,Caf\xe9,47.37,8.54\n")
    with pytest.raises(ParseError, match=r"stops\.txt: file is not UTF-8 text"):
        load_gtfs(feed, gtfs_fares())


def test_stops_directory_is_named(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stops.txt").unlink()
    (feed / "stops.txt").mkdir()
    with pytest.raises(ParseError, match=r"stops\.txt: cannot read file"):
        load_gtfs(feed, gtfs_fares())


def test_hours_past_midnight_normalize(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stop_times.txt").write_text(
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence\n"
        "T1,A,24:59:00,25:00:00,1\n"
        "T1,B,25:30:00,25:30:00,2\n"
    )
    net = load_gtfs(feed, gtfs_fares())
    assert [edge.time_min for edge in net.edges] == [30.0]


# --- categorization ---------------------------------------------------------------


def test_round_robin_splits_evenly(walkthrough_net):
    _, sets = categorize(walkthrough_net, CategoryConfig(k=5, strategy="round-robin"))
    assert [len(s) for s in sets] == [2, 2, 2, 2, 2]
    everything = [poi for s in sets for poi in s]
    assert sorted(everything) == list(range(10))


def test_round_robin_relabels_network(walkthrough_net):
    relabeled, sets = categorize(walkthrough_net, CategoryConfig(k=5))
    for category, ids in enumerate(sets):
        for poi in ids:
            assert relabeled.pois[poi].category == category
    assert relabeled.edges == walkthrough_net.edges


def test_seeded_random_is_reproducible(walkthrough_net):
    _, first = categorize(walkthrough_net, CategoryConfig(k=3, strategy="seeded-random", seed=7))
    _, second = categorize(walkthrough_net, CategoryConfig(k=3, strategy="seeded-random", seed=7))
    _, third = categorize(walkthrough_net, CategoryConfig(k=3, strategy="seeded-random", seed=8))
    assert first == second
    assert first != third
    assert sorted(poi for s in first for poi in s) == list(range(10))


def test_keyword_strategy_groups_by_name():
    builder = NetworkBuilder()
    builder.add_poi("1", name="Grand Hotel")
    builder.add_poi("2", name="Hotel Krone")
    builder.add_poi("3", name="City Park")
    builder.add_poi("4", name="Museum")
    net = builder.finalize(walkthrough_fare_table())
    cfg = CategoryConfig(k=2, strategy="by-name-keyword", keywords={"hotel": 0, "park": 1})
    relabeled, sets = categorize(net, cfg)
    assert sets[0] == (0, 1)
    assert sets[1] == (2,)
    assert relabeled.pois[3].category is None  # uncategorized


def test_empty_category_is_reported():
    builder = NetworkBuilder()
    builder.add_poi("1", name="Hotel")
    builder.add_poi("2", name="Hotel Annex")
    net = builder.finalize(walkthrough_fare_table())
    cfg = CategoryConfig(k=2, strategy="by-name-keyword", keywords={"hotel": 0})
    with pytest.raises(ConfigurationError, match="category 1"):
        categorize(net, cfg)


def test_more_categories_than_pois_rejected(walkthrough_net):
    with pytest.raises(ConfigurationError):
        categorize(walkthrough_net, CategoryConfig(k=11))


def builder_copy_with_categories(net, categories):
    """Verbatim copy of the builder loop ``categorize`` used to run."""
    assignment = {poi: category for category, ids in enumerate(categories) for poi in ids}
    builder = NetworkBuilder(allow_self_loops=True)
    for poi in net.pois:
        builder.add_poi(poi.external_id, name=poi.name, category=assignment.get(poi.id), coords=poi.coords)
    for edge in net.edges:
        builder.add_edge(edge.u, edge.v, edge.mode, edge.distance_m, edge.time_min)
    return builder.finalize(net.fare_table)


def test_categorize_equals_a_builder_copy(walkthrough_net):
    categorized, _ = categorize(walkthrough_net, CategoryConfig(k=2))
    gtfs_net = load_gtfs(gtfs_minimal_dir(), gtfs_fares())
    cases = [
        (walkthrough_net, CategoryConfig(k=5)),
        (walkthrough_net, CategoryConfig(k=3, strategy="seeded-random", seed=7)),
        (walkthrough_net, CategoryConfig(k=2, strategy="by-name-keyword", keywords={"v0": 0, "v1": 1})),
        (categorized, CategoryConfig(k=4)),  # relabels PoIs that already have categories
        (gtfs_net, CategoryConfig(k=3)),  # PoIs with names and coordinates
    ]
    for net, cfg in cases:
        relabeled, sets = categorize(net, cfg)
        assert relabeled == builder_copy_with_categories(net, sets)

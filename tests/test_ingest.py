"""File ingestion: fare configs, edge lists, GTFS feeds, and categorization."""

from __future__ import annotations

import json
import re
import shutil
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    save_network_json,
)
from gtpmm.fixtures import default_fare_ranges, gtfs_minimal_dir, walkthrough_fare_table, walkthrough_network
from gtpmm.ingest import FARE_STRATEGIES, _csv_records, _json_value, _parse_gtfs_time, parse_gtfs, save_edge_list
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder
from gtpmm.synth import random_network, road_network


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
    with pytest.raises(ParseError, match=r"edges\.csv:2: self-loop at PoI 0 \('a'\)"):
        load_edge_list(path, walkthrough_fare_table())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_distance_rejected_with_line(tmp_path, value):
    path = tmp_path / "edges.csv"
    path.write_text(f"u,v,mode,distance_m,time_min\na,b,Bus,100,1\na,c,Bus,{value},1\n")
    with pytest.raises(ParseError, match=r"edges\.csv:3: edge \(0, 2\) has invalid distance"):
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
    categorized, _ = categorize(walkthrough_net, CategoryConfig(3))
    save_network_json(categorized, out)
    assert load_network_json(out).pois == categorized.pois


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


def reference_network_text(net) -> str:
    """The text save_network_json writes, by ``json.dumps`` with ``indent=2``."""
    fares = net.fare_table
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
    return json.dumps(document, indent=2) + "\n"


def odd_values_network():
    """Unicode, control characters and quotes in ids and names, categories,
    missing coordinates, integer, zero and negative-zero distances and
    times, and self-loops."""
    builder = NetworkBuilder(allow_self_loops=True)
    builder.add_poi("Zürich HB", name='the "main" station\tnorth\n', category=0, coords=(47.378, 8.54))
    builder.add_poi("東京", name="\x00\x1f\u2028\\", category=7)
    builder.add_poi("\U0001F68C", coords=(-0.0, 0))
    for u, v, mode, distance, time in [
        (0, 1, 0, 120, 2),
        (1, 2, 1, 1, 0),
        (2, 0, 0, -0.0, 0.5),
        (1, 1, 1, 0.0, 1e-7),
        (0, 0, 0, 1e16, 123456.789),
    ]:
        builder.add_edge(u, v, mode, distance, time)
    return builder.finalize(walkthrough_fare_table())


def edgeless_network():
    builder = NetworkBuilder()
    builder.add_poi("a")
    builder.add_poi("b", coords=(1.5, 2.5))
    return builder.finalize(walkthrough_fare_table())


WRITTEN_NETWORKS = {
    "walkthrough": walkthrough_network,
    "road-8": lambda: road_network(1, 8),
    "road-55": lambda: road_network(1, 55),
    "random-50": lambda: random_network(1, 50, 3),
    "empty": lambda: NetworkBuilder().finalize(FareTable((), ())),
    "edgeless": edgeless_network,
    "odd-values": odd_values_network,
    "gtfs": lambda: load_gtfs(gtfs_minimal_dir(), resolve_fares(default_fare_ranges(), "low")),
}


@pytest.mark.parametrize("case", sorted(WRITTEN_NETWORKS))
def test_network_json_is_the_indented_json_dump(tmp_path, case):
    net = WRITTEN_NETWORKS[case]()
    out = tmp_path / "net.json"
    save_network_json(net, out)
    assert out.read_bytes() == reference_network_text(net).encode("utf-8")


@pytest.mark.parametrize("value", ["", None, 0, -0.0, 1e300, True, float("nan"), "ü\u2028\0"])
def test_json_value_is_the_json_dump(value):
    """The network writer's scalars, the non-finite and bool fallbacks included."""
    assert _json_value(value) == json.dumps(value)


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


def _priced_distance(document):
    """Every mode at 3 cents a meter, and edges[4] 1e30 m long."""
    for mode in document["modes"]:
        mode["cost_per_meter_cents"] = "3"
    document["edges"][4]["distance_m"] = 1e30
    return document


# case -> (mutation of a saved walkthrough network, what the error must name)
MALFORMED_NETWORKS = {
    "no-edges": (_drop_edges, "'edges'"),
    "list-document": (lambda document: [document], "JSON object"),
    "nan-distance": (_set("edges", 3, "distance_m", "NaN"), "edges[3]"),
    "boolean-distance": (_set("edges", 3, "distance_m", True), "edges[3]: edge (0, 3) has invalid distance True"),
    "non-integer-id": (_set("edges", 2, "u", 1.0), "edges[2]: u and v must be PoI ids"),
    "unknown-mode": (_set("edges", 0, "mode", 99), "edges[0]: no fare policy for mode id 99"),
    "list-mode-name": (_set("modes", 1, "name", ["Bus"]), "modes: mode names must be strings"),
    "integer-mode-name": (_set("modes", 0, "name", 5), "modes: mode names must be strings"),
    "null-mode-name": (_set("modes", 2, "name", None), "modes: mode names must be strings"),
    "nan-rate": (_set("modes", 1, "cost_per_meter_cents", "NaN"), "modes[1]"),
    "non-numeric-rate": (_set("modes", 0, "cost_per_minute_cents", "abc"), "modes[0]"),
    "boolean-rate": (_set("modes", 0, "cost_per_meter_cents", True), "modes[0]: cost_per_meter_cents must be a number"),
    "list-rate": (_set("modes", 2, "cost_per_minute_cents", [0, [1], 0]), "modes[2]: cost_per_minute_cents must be"),
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
    "huge-time": (_set("edges", 2, "time_min", 1e30), "edges[2]: edge 2 (0, 3) costs 1.000e+32 cents, too many to hold"),
    "huge-distance": (_priced_distance, "edges[4]: edge 4 ("),
    "huge-integer-distance": (_set("edges", 1, "distance_m", 10**400), "edges[1]: edge (0, 2) has invalid distance"),
    "huge-integer-time": (_set("edges", 1, "time_min", 10**400), "edges[1]: edge (0, 2) has invalid time"),
    "fractional-fare": (_set("modes", 1, "base_fare_cents", 120.9), "modes[1]: base_fare_cents must be an integer"),
    "integral-float-fare": (_set("modes", 0, "base_fare_cents", 120.0), "modes[0]: base_fare_cents must be"),
    "boolean-fare": (_set("modes", 2, "base_fare_cents", True), "modes[2]: base_fare_cents must be an integer"),
    "string-fare": (_set("modes", 0, "base_fare_cents", "120"), "modes[0]: base_fare_cents must be"),
    "string-category": (_set("pois", 1, "category", "x"), "pois[1]: category must be null or a nonnegative integer"),
    "negative-category": (_set("pois", 2, "category", -3), "pois[2]: category must be null or a nonnegative"),
    "float-category": (_set("pois", 3, "category", 1.0), "pois[3]: category must be"),
    "boolean-category": (_set("pois", 4, "category", False), "pois[4]: category must be"),
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


def test_edge_list_edge_whose_cost_does_not_fit_is_named(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("u,v,mode,distance_m,time_min\na,b,M,1.0,1.0\nb,c,M,1e30,1.0\n")
    fares = FareTable.from_pairs([("M", FarePolicy(0, Decimal(3), Decimal(0)))])
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: edge 1 (1, 2) costs 3.000e+30 cents")):
        load_edge_list(path, fares)
    path.write_text("u,v,mode,distance_m,time_min\na,b,M,1.0,1.0\n\nb,c,M,1e30,1.0\n")  # a blank line is skipped
    with pytest.raises(ParseError, match=re.escape(f"{path}:4: edge 1 (1, 2) costs")):
        load_edge_list(path, fares)


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


@pytest.mark.parametrize("strategy", FARE_STRATEGIES)
@pytest.mark.parametrize("value", ["1e40", "1e999999999", "1.00-1e30"])
def test_too_large_fare_is_rejected_with_line(tmp_path, strategy, value):
    config = tmp_path / "fares.csv"
    config.write_text(
        "mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy\n"
        "A,1.00,0,0,\n"
        f"B,{value},0,0,{strategy}\n"
    )
    with pytest.raises(ParseError, match="fares.csv:3: .* too large"):
        load_fare_config(config)


@pytest.mark.parametrize("strategy", FARE_STRATEGIES)
def test_largest_accepted_fare_resolves_under_every_strategy(tmp_path, strategy):
    largest = "9" * 22 + ".99"  # 10**24 - 1 cents, whose rate at 1e-4 cents has 28 digits, the context's precision
    config = tmp_path / "fares.csv"
    config.write_text(
        "mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy\n"
        f"A,0-{largest},0-{largest},{largest},{strategy}\n"
    )
    policy = resolve_fares(load_fare_config(config), seed=3).policy(0)
    assert 0 <= policy.base_fare <= 10**24 - 1
    assert 0 <= policy.cost_per_meter <= 10**24 - 1
    assert policy.cost_per_minute == 10**24 - 1


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
    with pytest.raises(ParseError, match=r"routes\.txt: cannot read file: No such file"):
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
    with pytest.raises(ParseError, match=r"stops\.txt:5: coords must be null or \[lat, lon\] in degrees"):
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


def test_time_past_what_a_float_holds_reports_line(tmp_path):
    feed = copy_feed(tmp_path)
    hours = "1" * 400
    with (feed / "stop_times.txt").open("a") as handle:
        handle.write(f"T1,A,{hours}:00:00,{hours}:00:00,4\n")
    with pytest.raises(ParseError, match=r"stop_times\.txt:5: time '1+:00:00' out of range"):
        load_gtfs(feed, gtfs_fares())


def test_edge_whose_cost_does_not_fit_names_its_stop_time(tmp_path):
    feed = copy_feed(tmp_path)
    with (feed / "stop_times.txt").open("a") as handle:
        handle.write(f"T1,A,{10**30}:00:00,{10**30}:00:00,4\n")
    with pytest.raises(ParseError, match=r"stop_times\.txt:5: edge \d+ \(0, 2\) costs .* too many to hold"):
        load_gtfs(feed, gtfs_fares())


def test_trip_of_a_mode_the_fares_lack_names_its_stop_times(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "routes.txt").write_text("route_id,route_type\nR1,6\n")
    with pytest.raises(ParseError, match=r"stop_times\.txt:2: unknown transport mode 'Gondola'"):
        load_gtfs(feed, walkthrough_fare_table())


def test_hours_past_midnight_normalize(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stop_times.txt").write_text(
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence\n"
        "T1,A,24:59:00,25:00:00,1\n"
        "T1,B,25:30:00,25:30:00,2\n"
    )
    net = load_gtfs(feed, gtfs_fares())
    assert [edge.time_min for edge in net.edges] == [30.0]


# --- stop times against a per-row parse ------------------------------------------

STOP_TIME_COLUMNS = ("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence")


def reference_stop_times(feed) -> dict[str, list[tuple]] | str:
    """The stop times of ``feed`` read row by row, every time cell parsed
    on its own: ``(trip_id, stop_id, arrival, departure, sequence, line)``
    per row, in stop-sequence order per trip; or the text of the first
    error, as ``parse_gtfs`` words it."""
    trips = {row[1] for row in read_table(feed / "trips.txt")[1:]}
    stops = {row[0] for row in read_table(feed / "stops.txt")[1:]}
    path = feed / "stop_times.txt"
    file = str(path)
    rows: dict[str, list[tuple]] = {}
    try:
        for line, (trip_id, stop_id, arrival_text, departure_text, sequence_text) in _csv_records(
            path, STOP_TIME_COLUMNS, exact=False
        ):
            if trip_id not in trips:
                raise ParseError(f"stop_time references unknown trip {trip_id!r}", file=file, line=line)
            if stop_id not in stops:
                raise ParseError(f"stop_time references unknown stop {stop_id!r}", file=file, line=line)
            arrival = _parse_gtfs_time(arrival_text, file=file, line=line)
            departure = _parse_gtfs_time(departure_text, file=file, line=line)
            if departure < arrival:
                raise ParseError("departure before arrival", file=file, line=line)
            try:
                sequence = int(sequence_text)
            except ValueError:
                raise ParseError("stop_sequence must be an integer", file=file, line=line) from None
            rows.setdefault(trip_id, []).append((trip_id, stop_id, arrival, departure, sequence, line))
        for trip_id, entries in rows.items():
            entries.sort(key=lambda entry: entry[4])
            for previous, current in zip(entries, entries[1:]):
                if current[4] <= previous[4]:
                    raise ParseError(
                        f"stop_sequence not strictly increasing in trip {trip_id!r}", file=file, line=current[5]
                    )
                if current[2] < previous[3]:
                    raise ParseError(f"times not monotone in trip {trip_id!r}", file=file, line=current[5])
    except ParseError as error:
        return str(error)
    return rows


def read_table(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def parsed_stop_times(feed) -> dict[str, list[tuple]] | str:
    try:
        stop_times = parse_gtfs(feed).stop_times
    except ParseError as error:
        return str(error)
    return {
        trip: [(e.trip_id, e.stop_id, e.arrival_min, e.departure_min, e.sequence, e.line) for e in entries]
        for trip, entries in stop_times.items()
    }


def write_stop_times(feed, rows) -> None:
    lines = [",".join(STOP_TIME_COLUMNS)] + [",".join(map(str, row)) for row in rows]
    (feed / "stop_times.txt").write_text("\n".join(lines) + "\n")


BAD_GTFS_TIMES = ["09:60:00", "-1:00:00", "09:00", "09:00:00:00", "x", "", "1" + "0" * 400 + ":00:00"]


@st.composite
def stop_time_rows(draw):
    """Rows of trips T1 and T2 at stops A to C. Their times are read off a
    clock that mostly moves on by a few minutes, so that texts repeat
    within and across rows, written with or without the hour's leading
    zero. The rows may then take one fault, in one to three rows: an
    unknown trip or stop, a malformed sequence or time, or the arrival and
    departure swapped."""
    rows, clock = [], 540
    for sequence in range(1, draw(st.integers(0, 10)) + 1):
        times = []
        for step in (st.integers(-1, 5), st.integers(0, 2)):  # travel, then dwell
            clock += draw(step)
            times.append(draw(st.sampled_from(["{:02d}:{:02d}:00", "{}:{:02d}:00"])).format(*divmod(clock, 60)))
        if draw(st.integers(0, 3)) == 0:  # now and then out of order
            sequence = draw(st.integers(0, 10))
        rows.append([draw(st.sampled_from(["T1", "T2"])), draw(st.sampled_from("ABC")), *times, sequence])
    fault = draw(st.sampled_from([None] * 6 + ["trip", "stop", "time", "sequence", "swap"]))
    for _ in range(draw(st.integers(1, 3)) if fault and rows else 0):
        row = draw(st.sampled_from(rows))
        if fault == "trip":
            row[0] = "T9"
        elif fault == "stop":
            row[1] = "Z"
        elif fault == "time":
            row[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(BAD_GTFS_TIMES))
        elif fault == "sequence":
            row[4] = draw(st.sampled_from(["x", "1.5", ""]))
        else:
            row[2], row[3] = row[3], row[2]
    return rows


@pytest.fixture(scope="module")
def two_trip_feed(tmp_path_factory):
    """The minimal feed with a second trip, T2, on its route."""
    feed = tmp_path_factory.mktemp("stop-times") / "feed"
    shutil.copytree(gtfs_minimal_dir(), feed)
    (feed / "trips.txt").write_text("route_id,trip_id\nR1,T1\nR1,T2\n")
    return feed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=stop_time_rows())
def test_stop_times_parse_equals_a_per_row_parse(two_trip_feed, rows):
    write_stop_times(two_trip_feed, rows)
    assert parsed_stop_times(two_trip_feed) == reference_stop_times(two_trip_feed)


def test_a_bad_time_repeated_later_is_reported_at_its_first_line(two_trip_feed):
    write_stop_times(
        two_trip_feed,
        [
            ("T1", "A", "09:00:00", "09:00:00", 1),
            ("T1", "B", "09:61:00", "09:61:00", 2),
            ("T2", "C", "09:61:00", "09:61:00", 1),
        ],
    )
    message = f"{two_trip_feed / 'stop_times.txt'}:3: time '09:61:00' out of range"
    assert parsed_stop_times(two_trip_feed) == reference_stop_times(two_trip_feed) == message


def test_a_time_first_read_as_an_arrival_is_the_same_as_a_departure(two_trip_feed):
    write_stop_times(
        two_trip_feed,
        [
            ("T1", "A", "09:00:00", "09:00:00", 1),
            ("T1", "B", "09:05:00", "09:06:00", 2),
            ("T2", "A", "09:04:00", "09:05:00", 1),
        ],
    )
    parsed = parsed_stop_times(two_trip_feed)
    assert parsed == reference_stop_times(two_trip_feed)
    assert parsed["T2"] == [("T2", "A", 544.0, 545.0, 1, 4)]
    assert parsed["T1"][1][2] == 545.0


def test_departure_before_arrival_of_two_times_read_before(two_trip_feed):
    write_stop_times(
        two_trip_feed,
        [("T1", "A", "09:00:00", "09:05:00", 1), ("T1", "B", "09:05:00", "09:00:00", 2)],
    )
    message = f"{two_trip_feed / 'stop_times.txt'}:3: departure before arrival"
    assert parsed_stop_times(two_trip_feed) == reference_stop_times(two_trip_feed) == message


# --- CSV records: the rules the fare config, the edge list and GTFS share --------------

FARE_HEADER = "mode,base_fare,cost_per_meter,cost_per_minute,resolution_strategy"
EDGE_HEADER = "u,v,mode,distance_m,time_min"
SPANNING = '"a\nb"'  # a quoted cell on two lines

# file -> (header, a valid record, a record the loader rejects, why)
CSV_RECORDS = {
    "fares.csv": (FARE_HEADER, "Bus,1,0,0,", "Tram,4.00-2.00,0,0,", "inverted or negative range"),
    "edges.csv": (EDGE_HEADER, "a,c,Bus,1,1", "a,c,Bus,-5,1", "has invalid distance -5.0"),
    "stops.txt": (
        "stop_id,stop_name,stop_lat,stop_lon",
        "A,Central Station,47.3769,8.5417",
        "D,Harbor,north,8.57",
        "stop coordinates must be numeric",
    ),
    "routes.txt": ("route_id,route_type", "R1,3", "R2,12", "unsupported route_type 12"),
    "trips.txt": ("route_id,trip_id", "R1,T1", "R9,T2", "trip references unknown route 'R9'"),
    "stop_times.txt": (
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence",
        "T1,A,09:00:00,09:00:00,1",
        "T1,GHOST,09:05:00,09:05:00,2",
        "stop_time references unknown stop 'GHOST'",
    ),
}


def load_csv_text(tmp_path, name, text):
    """Write ``text`` as the CSV file ``name``, a GTFS table (into a copy of
    the minimal feed) or a fare or edge file, and load it with its loader."""
    if name.endswith(".txt"):
        feed = copy_feed(tmp_path)
        (feed / name).write_text(text, newline="")
        return load_gtfs(feed, gtfs_fares())
    path = tmp_path / name
    path.write_text(text, newline="")
    return load_fare_config(path) if name == "fares.csv" else load_edge_list(path, walkthrough_fare_table())


def at(name, line, why):
    """A pattern for an error at ``line`` of the file ``name`` that says ``why``."""
    return re.escape(f"{name}:{line}: ") + ".*" + re.escape(why)


def with_spanning_cell(name, header, record, *rest):
    """The CSV text of ``header``, ``record`` with a cell on two lines, and
    ``rest``: a fare or edge file has its first cell quoted on two lines,
    a GTFS table gains a column whose first cell is."""
    if name.endswith(".txt"):
        return "\n".join([f"{header},note", f"{record},{SPANNING}", *(f"{line},x" for line in rest)]) + "\n"
    first, others = record.split(",", 1)
    return "\n".join([header, f'"{first}\n{first}",{others}', *rest]) + "\n"


@pytest.mark.parametrize("name", sorted(CSV_RECORDS))
def test_error_after_a_spanning_record_names_its_line(tmp_path, name):
    """Lines are counted, not records: the record after one on lines 2-3
    starts on line 4."""
    header, good, bad, why = CSV_RECORDS[name]
    with pytest.raises(ParseError, match=at(name, 4, why)):
        load_csv_text(tmp_path, name, with_spanning_cell(name, header, good, bad))


@pytest.mark.parametrize("name", sorted(CSV_RECORDS))
def test_error_in_a_spanning_record_names_its_first_line(tmp_path, name):
    header, _, bad, why = CSV_RECORDS[name]
    with pytest.raises(ParseError, match=at(name, 2, why)):
        load_csv_text(tmp_path, name, with_spanning_cell(name, header, bad))


@pytest.mark.parametrize("name", sorted(CSV_RECORDS))
def test_record_with_the_wrong_cell_count_names_its_line(tmp_path, name):
    """Records cut to one, two or all but one cell (the fare config's
    ``Bus,1`` among them) and records with a cell too many."""
    header, good, _, _ = CSV_RECORDS[name]
    cells = good.split(",")
    width = len(cells)
    for count in sorted({1, 2, width - 1, width + 1} - {width}):
        record = ",".join((cells + ["x"])[:count])
        directory = tmp_path / str(count)
        directory.mkdir()
        with pytest.raises(ParseError, match=re.escape(f"{name}:3: expected {width} columns, got {count}")):
            load_csv_text(directory, name, f"{header}\n{good}\n{record}\n")


@pytest.mark.parametrize("name", sorted(CSV_RECORDS))
def test_blank_and_whitespace_lines_are_skipped(tmp_path, name):
    header, good, bad, why = CSV_RECORDS[name]
    with pytest.raises(ParseError, match=at(name, 6, why)):
        load_csv_text(tmp_path, name, f"{header}\n\n{good}\n  \n\t\n{bad}\n")


def test_padded_header_names_are_stripped(tmp_path):
    """The fare config's header was compared stripped but its cells read by
    the unstripped names, a ``KeyError``."""
    config = tmp_path / "fares.csv"
    config.write_text(" mode , base_fare,cost_per_meter,cost_per_minute,resolution_strategy \nBus,1,0,0,\n")
    assert [fare.mode for fare in load_fare_config(config)] == ["Bus"]
    feed = copy_feed(tmp_path)
    (feed / "routes.txt").write_text("route_id , route_type\nR1,3\n")
    assert load_gtfs(feed, gtfs_fares()).edge_count == 2


def test_gtfs_columns_in_any_order_and_a_repeated_one_read_last(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "stops.txt").write_text(
        "stop_lon,stop_lat,stop_name,stop_id,stop_id\n"
        "8.5417,47.3769,Central Station,X,A\n"
        "8.5500,47.3800,Market Square,X,B\n"
        "8.5600,47.3900,Lakeside Park,X,C\n"
    )
    assert load_gtfs(feed, gtfs_fares()) == load_gtfs(gtfs_minimal_dir(), gtfs_fares())


def test_gtfs_missing_column_names_the_header(tmp_path):
    feed = copy_feed(tmp_path)
    (feed / "trips.txt").write_text("route_id,trip\nR1,T1\n")
    with pytest.raises(ParseError, match=re.escape("trips.txt:1: missing columns ['trip_id']")):
        load_gtfs(feed, gtfs_fares())


def test_cell_past_the_csv_field_limit_is_named(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(f"{EDGE_HEADER}\na,b,Bus,1,1\na,{'c' * 200_000},Bus,1,1\n")
    with pytest.raises(ParseError, match=r"edges\.csv:3: malformed CSV: field larger than field limit"):
        load_edge_list(path, walkthrough_fare_table())


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


@pytest.mark.parametrize("keywords", [{"v0": 1.5}, {"v0": 1.0}, {"v0": True}, {"v0": 3}, {"v0": -1}, {5: 1}])
def test_keyword_config_is_checked_when_built(keywords):
    with pytest.raises(ConfigurationError, match="keywords must map strings to categories 0 to 2"):
        CategoryConfig(k=3, strategy="by-name-keyword", keywords=keywords)


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

"""``benchmarks/bench_io.py`` still runs against the package.

The script is not imported by the package, so a rename in ``gtpmm.ingest``
would only show when someone next ran it; this measures a small network
and a small GTFS feed, and runs ``--against`` on stand-in measurements.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from gtpmm.fixtures import default_fare_ranges
from gtpmm.ingest import load_edge_list, load_gtfs, resolve_fares
from gtpmm.synth import road_network

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench_io(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # the script imports bench_planner's host probe
    spec = importlib.util.spec_from_file_location("bench_io", BENCHMARKS / "bench_io.py")
    bench_io = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_io)
    return bench_io


def test_bench_io_measures_a_small_network(bench_io, tmp_path):

    assert set(bench_io.NETWORKS) == {"road", "random"}
    row = bench_io.measure("road", road_network(1, 8), tmp_path)
    assert set(row) == {
        "network",
        "pois",
        "edges",
        "repeats",
        "save_s",
        "save_p25_s",
        "save_p75_s",
        "load_s",
        "load_p25_s",
        "load_p75_s",
        "edge_costs_s",
        "edge_costs_p25_s",
        "edge_costs_p75_s",
        "bytes",
        "sha256",
        "edge_costs_sha256",
        "network_mb",
        "save_peak_mb",
        "load_peak_mb",
        "edge_list_load_s",
        "edge_list_load_p25_s",
        "edge_list_load_p75_s",
        "edge_list_bytes",
        "edge_list_sha256",
        "edge_list_network_sha256",
        "edge_list_load_peak_mb",
        "categorize_s",
        "categorize_p25_s",
        "categorize_p75_s",
        "categorize_sha256",
        "host_ref_ms",
    }
    assert (row["network"], row["pois"], row["repeats"]) == ("road", 64, bench_io.REPEATS)
    data = (tmp_path / "road.json").read_bytes()
    assert (row["bytes"], row["sha256"]) == (len(data), hashlib.sha256(data).hexdigest())
    assert row["save_p25_s"] <= row["save_s"] <= row["save_p75_s"]
    assert row["load_p25_s"] <= row["load_s"] <= row["load_p75_s"]
    assert row["edge_list_load_p25_s"] <= row["edge_list_load_s"] <= row["edge_list_load_p75_s"]
    assert row["edge_costs_p25_s"] <= row["edge_costs_s"] <= row["edge_costs_p75_s"] < row["load_s"]
    costs = repr(road_network(1, 8).edge_costs).encode()
    assert row["edge_costs_sha256"] == hashlib.sha256(costs).hexdigest()
    assert 0 < row["network_mb"] < 1  # 64 PoIs and their edges, not the whole process
    assert row["network_mb"] < row["load_peak_mb"] < 1  # the load holds more than the network it returns
    assert 0 < row["save_peak_mb"] < 1
    assert not tracemalloc.is_tracing()
    data = (tmp_path / "road.csv").read_bytes()
    assert (row["edge_list_bytes"], row["edge_list_sha256"]) == (len(data), hashlib.sha256(data).hexdigest())
    from_csv = load_edge_list(tmp_path / "road.csv", road_network(1, 8).fare_table)
    assert row["edge_list_network_sha256"] == network_sha256(from_csv)
    assert row["network_mb"] < row["edge_list_load_peak_mb"] < 1
    assert row["categorize_p25_s"] <= row["categorize_s"] <= row["categorize_p75_s"]
    sets = [tuple(range(category, 64, 8)) for category in range(8)]  # round-robin over 64 PoIs
    assert row["categorize_sha256"] == hashlib.sha256(repr(sets).encode()).hexdigest()
    assert row["host_ref_ms"] > 0


def test_network_mb_counts_the_loaded_network_alone(bench_io, tmp_path, monkeypatch):
    """Rows that a load frees onto CPython's tuple free list, which keeps
    them allocated, are not counted, and neither is the network counted
    short by a load that reuses rows freed before it."""
    net = road_network(1, 8)
    path = tmp_path / "road.json"
    bench_io.save_network_json(net, path)
    bench_io.network_bytes(path)  # first-call caches
    alone = bench_io.network_bytes(path)
    load = bench_io.load_network_json

    def freeing(path):
        rows = [(index, 0, 0, 0.0, 0.0) for index in range(1000)]  # freed onto the free list of 5-tuples
        del rows
        return load(path)

    monkeypatch.setattr(bench_io, "load_network_json", freeing)
    assert bench_io.network_bytes(path) == pytest.approx(alone, rel=0.01)  # the freed rows, counted, would double it
    monkeypatch.setattr(bench_io, "load_network_json", load)
    rows = [(index, 0, 0, 0.0, 0.0) for index in range(1000)]
    del rows  # untraced, on the free list when the measured load begins
    assert bench_io.network_bytes(path) == pytest.approx(alone, rel=0.01)
    assert not tracemalloc.is_tracing()


def test_bench_io_measures_a_small_gtfs_feed(bench_io, tmp_path):

    feed = bench_io.write_feed(tmp_path, routes=2)
    assert (bench_io.write_feed(tmp_path / "again", routes=2) / "stop_times.txt").read_bytes() == (
        feed / "stop_times.txt"
    ).read_bytes()
    row = bench_io.measure_gtfs(feed)
    assert set(row) == {
        "feed",
        "stops",
        "stop_times",
        "distinct_times",
        "edges",
        "repeats",
        "load_s",
        "load_p25_s",
        "load_p75_s",
        "bytes",
        "sha256",
        "edge_costs_sha256",
        "network_sha256",
        "load_peak_mb",
        "host_ref_ms",
    }
    net = load_gtfs(feed, resolve_fares(default_fare_ranges(), "low"))
    assert row["network_sha256"] == network_sha256(net)
    stop_times = 2 * bench_io.GTFS_TRIPS_PER_ROUTE * bench_io.GTFS_STOPS_PER_TRIP
    assert (row["stops"], row["stop_times"], row["repeats"]) == (bench_io.GTFS_STOPS, stop_times, bench_io.REPEATS)
    assert 0 < row["distinct_times"] < stop_times and 0 < row["edges"] <= 2 * (bench_io.GTFS_STOPS_PER_TRIP - 1)
    data = b"".join((feed / name).read_bytes() for name in bench_io.GTFS_TABLES)
    assert (row["bytes"], row["sha256"]) == (len(data), hashlib.sha256(data).hexdigest())
    assert row["load_p25_s"] <= row["load_s"] <= row["load_p75_s"]
    assert 0 < row["load_peak_mb"] < 1  # 1,000 stops and 800 stop times
    assert not tracemalloc.is_tracing()


def network_sha256(net) -> str:
    return hashlib.sha256(repr((net.pois, net.edges, net.edge_costs)).encode()).hexdigest()


def test_the_edge_list_round_trip_must_give_back_the_edges(bench_io, monkeypatch, tmp_path):
    """A loader that reads the distances back rounded fails the measurement."""
    original = bench_io.load_edge_list

    def rounding(path, fares):
        net = original(path, fares)
        return replace(net, edges=tuple(edge._replace(distance_m=round(edge.distance_m, -1)) for edge in net.edges))

    monkeypatch.setattr(bench_io, "load_edge_list", rounding)
    with pytest.raises(RuntimeError, match="changed its edges in an edge-list round trip"):
        bench_io.measure("road", road_network(1, 3), tmp_path)


def _fake_measurement(src, scenario, digest="d", host_ref_ms=4.0):
    timing = {"load_s": 1.0, "load_p25_s": 0.95, "load_p75_s": 1.05, "host_ref_ms": host_ref_ms}
    digests = {"sha256": digest, "edge_costs_sha256": "c"}
    digests["network_sha256" if scenario == "gtfs" else "edge_list_network_sha256"] = "n"
    memory = {"load_peak_mb": 3.0}
    if scenario != "gtfs":
        memory |= {"network_mb": 2.0, "save_peak_mb": 0.5, "edge_list_load_peak_mb": 4.0}
    return {"scenario": scenario, "src": str(src), **digests, **timing, **memory}


def test_against_runs_the_parent_right_before_the_change_and_writes_both_rows(bench_io, monkeypatch, tmp_path):
    calls = []

    def measured_in(src, scenario):
        calls.append((src, scenario))
        return _fake_measurement(src, scenario)

    monkeypatch.setattr(bench_io, "measured_in", measured_in)
    output = tmp_path / "io.json"
    parent = tmp_path / "parent"
    status = bench_io.main(["--label", "float pricing", "--against", str(parent), "--output", str(output)])

    assert status == 0
    change_src = BENCHMARKS.parent / "src"
    assert calls == [(src, scenario) for scenario in ("road", "random", "gtfs") for src in (parent / "src", change_src)]
    rows = json.loads(output.read_text())
    assert [row["label"] for row in rows] == ["parent: float pricing", "change: float pricing"]
    for row, src in zip(rows, (parent / "src", change_src)):
        assert [net["scenario"] for net in row["networks"]] == ["road", "random"]
        assert row["gtfs"]["scenario"] == "gtfs"
        assert {net["src"] for net in row["networks"]} == {row["gtfs"]["src"]} == {str(src)}
        assert not any(entry["host_drifted"] for entry in (*row["networks"], row["gtfs"]))  # equal host references
    assert {"python", "cpu_count"} <= set(rows[0])


def test_against_marks_the_pairs_whose_host_references_drift_past_the_load_spread(bench_io, monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    # the change side's host_ref_ms per scenario, against the parent's 4.0 and a load spread of 0.1 on both sides
    change_host = {"road": 4.2, "random": 4.8, "gtfs": 4.0}

    def measured_in(src, scenario):
        host = 4.0 if src == parent / "src" else change_host[scenario]
        return _fake_measurement(src, scenario, host_ref_ms=host)

    monkeypatch.setattr(bench_io, "measured_in", measured_in)
    output = tmp_path / "io.json"
    assert bench_io.main(["--label", "x", "--against", str(parent), "--output", str(output)]) == 0
    for row in json.loads(output.read_text()):
        # drift 0.05, 0.2 and 0 of the lower reference, against a spread of 0.1
        assert [net["host_drifted"] for net in row["networks"]] == [False, True]
        assert row["gtfs"]["host_drifted"] is False


def test_against_marks_a_drift_that_the_slowed_side_s_own_spread_would_hide(bench_io, monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    # a GTFS pair seen on a shared host: host_ref_ms 4.38 against 5.65 (29% apart), load_s 54.1 against 77.2 ms,
    # and the slowed side's load spread 37% of its median, against 4% on the steady side
    sides = {"parent": (4.38, 0.0541, 0.04), "change": (5.65, 0.0772, 0.37)}

    def measured_in(src, scenario):
        host, load, spread = sides["parent" if src == parent / "src" else "change"]
        timing = {"load_s": load, "load_p25_s": load * (1 - spread / 2), "load_p75_s": load * (1 + spread / 2)}
        return _fake_measurement(src, scenario, host_ref_ms=host) | timing

    monkeypatch.setattr(bench_io, "measured_in", measured_in)
    output = tmp_path / "io.json"
    assert bench_io.main(["--label", "x", "--against", str(parent), "--output", str(output)]) == 0
    for row in json.loads(output.read_text()):
        assert row["gtfs"]["host_drifted"] is True
        assert [net["host_drifted"] for net in row["networks"]] == [True, True]


@pytest.mark.parametrize(
    "scenario, key",
    [
        ("road", "edge_costs_sha256"),
        ("gtfs", "edge_costs_sha256"),
        ("random", "edge_list_network_sha256"),  # the edge list loads to another network
        ("gtfs", "network_sha256"),
    ],
)
def test_against_exits_1_when_a_sha256_differs(bench_io, monkeypatch, tmp_path, capsys, scenario, key):
    parent = tmp_path / "parent"

    def measured_in(src, name):
        measurement = _fake_measurement(src, name)
        if src == parent / "src" and name == scenario:
            measurement[key] = "other"
        return measurement

    monkeypatch.setattr(bench_io, "measured_in", measured_in)
    output = tmp_path / "io.json"
    assert bench_io.main(["--label", "x", "--against", str(parent), "--output", str(output)]) == 1
    assert f"a sha256 differs on {scenario}" in capsys.readouterr().err
    assert len(json.loads(output.read_text())) == 2  # the rows are kept


@pytest.mark.parametrize(
    "scenario, key, scale, status",
    [
        ("random", "load_peak_mb", 1.02, 1),
        ("random", "network_mb", 1.015, 1),
        ("random", "save_peak_mb", 1.2, 1),
        ("random", "edge_list_load_peak_mb", 1.02, 1),
        ("gtfs", "load_peak_mb", 1.02, 1),
        ("random", "load_peak_mb", 1.005, 0),  # within 1%
        ("gtfs", "load_peak_mb", 1.005, 0),
        ("random", "load_peak_mb", 0.5, 0),
    ],
)
def test_against_exits_1_when_a_memory_figure_rises_by_more_than_1_percent(
    bench_io, monkeypatch, tmp_path, capsys, scenario, key, scale, status
):
    parent = tmp_path / "parent"

    def measured_in(src, name):
        measurement = _fake_measurement(src, name)
        if src != parent / "src" and name == scenario:
            measurement[key] *= scale
        return measurement

    monkeypatch.setattr(bench_io, "measured_in", measured_in)
    output = tmp_path / "io.json"
    assert bench_io.main(["--label", "x", "--against", str(parent), "--output", str(output)]) == status
    out, err = capsys.readouterr()
    ratios = "network_mb 1.000, save_peak_mb 1.000, load_peak_mb 1.000, edge_list_load_peak_mb 1.000"
    assert f"road change/parent: {ratios}" in out
    assert f"{key} {scale:.3f}" in out.split(f"{scenario} change/parent:")[1].splitlines()[0]
    assert "gtfs change/parent: load_peak_mb" in out
    assert (f"memory rose by more than 1% on {scenario} {key}" in err) == bool(status)
    assert len(json.loads(output.read_text())) == 2  # the rows are kept


def test_scenario_option_prints_one_measurement(bench_io, monkeypatch, capsys):
    monkeypatch.setattr(bench_io, "NETWORKS", {"road": lambda: road_network(1, 3)})
    monkeypatch.setattr(bench_io, "measure", lambda name, net, directory: {"network": name, "pois": net.poi_count})
    assert bench_io.main(["--scenario", "road"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"network": "road", "pois": 9}

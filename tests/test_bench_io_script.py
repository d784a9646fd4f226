"""``benchmarks/bench_io.py`` still runs against the package.

The script is not imported by the package, so a rename in ``gtpmm.ingest``
would only show when someone next ran it; this measures a small network.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from gtpmm.synth import road_network

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_bench_io_measures_a_small_network(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # the script imports bench_planner's host probe
    spec = importlib.util.spec_from_file_location("bench_io", BENCHMARKS / "bench_io.py")
    bench_io = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_io)

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
        "bytes",
        "sha256",
        "edge_list_load_s",
        "edge_list_load_p25_s",
        "edge_list_load_p75_s",
        "edge_list_bytes",
        "edge_list_sha256",
        "host_ref_ms",
    }
    assert (row["network"], row["pois"], row["repeats"]) == ("road", 64, bench_io.REPEATS)
    data = (tmp_path / "road.json").read_bytes()
    assert (row["bytes"], row["sha256"]) == (len(data), hashlib.sha256(data).hexdigest())
    assert row["save_p25_s"] <= row["save_s"] <= row["save_p75_s"]
    assert row["load_p25_s"] <= row["load_s"] <= row["load_p75_s"]
    assert row["edge_list_load_p25_s"] <= row["edge_list_load_s"] <= row["edge_list_load_p75_s"]
    data = (tmp_path / "road.csv").read_bytes()
    assert (row["edge_list_bytes"], row["edge_list_sha256"]) == (len(data), hashlib.sha256(data).hexdigest())
    assert row["host_ref_ms"] > 0

"""``benchmarks/bench_sweep.py`` still runs against the package.

The script is not imported by the package, so a rename in ``gtpmm.bench``
would only show when someone next ran it; this runs a one-cell grid.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from gtpmm.bench import ExperimentConfig
from gtpmm.synth import road_network

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_bench_sweep_measures_a_one_cell_grid(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # the script imports bench_planner's host probe
    spec = importlib.util.spec_from_file_location("bench_sweep", BENCHMARKS / "bench_sweep.py")
    bench_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_sweep)

    assert set(bench_sweep.NETWORKS) == {"random", "road"}
    cfg = ExperimentConfig(agent_counts=(3, 4), category_counts=(2,), pois_per_category=(3,), runs=1)
    net = road_network(1, 8)
    row = bench_sweep.measure("road", net, cfg)
    assert set(row) == {
        "network",
        "pois",
        "rows",
        "sweep_s",
        "wall_time_s",
        "method_wall_time_s",
        "digest",
        "host_ref_ms",
    }
    assert (row["network"], row["pois"], row["rows"]) == ("road", 64, 8)
    assert set(row["method_wall_time_s"]) == {"ojpa", "rprm", "rpcm", "nncm"}
    assert sum(row["method_wall_time_s"].values()) <= row["wall_time_s"] + 0.05  # each rounded to 0.01 s
    assert row["wall_time_s"] <= row["sweep_s"] + 0.01
    assert row["host_ref_ms"] > 0
    assert bench_sweep.measure("road", net, cfg)["digest"] == row["digest"]  # wall time left out

"""``benchmarks/bench_planner.py`` still runs against the package.

The script is not imported by the package, so a rename in ``gtpmm.planner``
would only show when someone next ran it; this runs its smallest scenario.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_planner.py"


def test_bench_planner_measures_the_small_scenario():
    spec = importlib.util.spec_from_file_location("bench_planner", SCRIPT)
    bench_planner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_planner)

    row = bench_planner.measure(200, 3, 5, 5)
    assert set(row) == {
        "pois",
        "k",
        "pois_per_category",
        "agents",
        "repeats",
        "plan_s",
        "plan_p25_s",
        "plan_p75_s",
        "compute_dp_s",
        "assembly_s",
        "searches",
        "searches_by_kind",
        "host_ref_ms",
    }
    assert (row["pois"], row["k"], row["pois_per_category"], row["agents"]) == (200, 3, 5, 5)
    assert row["searches"] == 9
    assert row["searches_by_kind"] == {"layer": 2, "tree": 7}  # k - 1 layers; one tree per PoI or endpoint
    assert row["compute_dp_s"] <= row["plan_s"]
    assert bench_planner.planner.compute_dp.__name__ == "compute_dp"  # the timing wrapper is removed

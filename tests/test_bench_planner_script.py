"""``benchmarks/bench_planner.py`` still runs against the package.

The script is not imported by the package, so a rename in ``gtpmm.planner``
would only show when someone next ran it; this runs its smallest scenario,
in process and in the subprocess ``--against`` runs, and checks how
``--against`` pairs and summarizes its runs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_planner.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_planner", SCRIPT)
    bench_planner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_planner)
    return bench_planner


def test_bench_planner_measures_the_small_scenario():
    bench_planner = load_script()
    row = bench_planner.measure(200, 3, 5, 5)
    assert set(row) == {
        "pois",
        "k",
        "pois_per_category",
        "agents",
        "repeats",
        "landmarks_s",
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
    assert row["landmarks_s"] > 0
    assert bench_planner.planner.compute_dp.__name__ == "compute_dp"  # the timing wrapper is removed


def test_one_scenario_runs_in_a_subprocess():
    bench_planner = load_script()
    row = bench_planner.measured_in(SCRIPT.parents[1] / "src", 0)
    assert (row["pois"], row["k"], row["pois_per_category"], row["agents"]) == (200, 3, 5, 5)
    assert row["searches_by_kind"] == {"layer": 2, "tree": 7}


def test_pairs_alternate_and_record_both_medians_and_each_ratio(monkeypatch):
    bench_planner = load_script()
    calls = []
    plan_s = {"parent": iter([2.0, 2.0, 4.0, 2.0, 2.0]), "change": iter([1.0, 3.0, 2.0, 1.0, 1.0])}

    def measured_in(src, index):
        side = "change" if src == SCRIPT.parents[1] / "src" else "parent"
        calls.append(side)
        row = {"pois": 200, "k": 3, "pois_per_category": 5, "agents": 5, "repeats": 7, "plan_s": next(plan_s[side])}
        row |= {"plan_p25_s": 0.9 * row["plan_s"], "plan_p75_s": 1.1 * row["plan_s"], "landmarks_s": 0.01}
        return row | {"compute_dp_s": 0.5, "host_ref_ms": 4.0, "searches_by_kind": {"tree": 7}}

    monkeypatch.setattr(bench_planner, "measured_in", measured_in)
    row = bench_planner.paired(Path("/elsewhere"), 0)
    assert calls == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert row["parent_plan_s"] == 2.0 and row["change_plan_s"] == 1.0
    assert row["plan_ratios"] == [0.5, 1.5, 0.5, 0.5, 0.5]
    assert row["plan_ratio_median"] == 0.5 and row["change_won"] == 4
    assert row["host_drifted"] == [False] * 5 and row["plan_ratio_median_steady"] == 0.5  # equal host references
    assert row["parent_landmarks_s"] == row["change_landmarks_s"] == 0.01
    assert row["parent_searches_by_kind"] == row["change_searches_by_kind"] == {"tree": 7}


def test_pairs_whose_host_references_drift_past_the_spread_are_marked_and_left_out_of_the_steady_median(monkeypatch):
    bench_planner = load_script()
    # per pair (parent, change): plan_s, its quartile spread as a share of it, and host_ref_ms
    plan_s = {"parent": iter([2.0, 2.0, 2.0, 2.0, 2.0]), "change": iter([1.0, 3.0, 1.6, 1.2, 1.8])}
    spread = {"parent": iter([0.1, 0.1, 0.1, 0.3, 0.05]), "change": iter([0.1, 0.1, 0.1, 0.1, 0.05])}
    host = {"parent": iter([4.0, 4.0, 4.0, 4.0, 4.0]), "change": iter([4.0, 6.0, 4.3, 5.0, 3.6])}

    def measured_in(src, index):
        side = "change" if src == SCRIPT.parents[1] / "src" else "parent"
        plan, share = next(plan_s[side]), next(spread[side])
        row = {"pois": 200, "k": 3, "pois_per_category": 5, "agents": 5, "repeats": 7, "plan_s": plan}
        row |= {"plan_p25_s": plan * (1 - share / 2), "plan_p75_s": plan * (1 + share / 2), "landmarks_s": 0.01}
        return row | {"compute_dp_s": 0.5, "host_ref_ms": next(host[side]), "searches_by_kind": {"tree": 7}}

    monkeypatch.setattr(bench_planner, "measured_in", measured_in)
    row = bench_planner.paired(Path("/elsewhere"), 0)
    assert row["plan_ratios"] == [0.5, 1.5, 0.8, 0.6, 0.9]
    # drift 0, 0.5, 0.075, 0.25 and 0.111 of the lower reference, against spreads 0.1, 0.1, 0.1, 0.3 and 0.05
    assert row["host_drifted"] == [False, True, False, False, True]
    assert row["plan_ratio_median"] == 0.8  # the raw median over every pair, unscaled
    assert row["plan_ratio_median_steady"] == 0.6  # over 0.5, 0.8 and 0.6
    assert (row["parent_host_ref_ms"], row["change_host_ref_ms"]) == (4.0, 4.3)
    assert row["change_won"] == 4


def test_every_pair_drifted_leaves_no_steady_median(monkeypatch):
    bench_planner = load_script()
    host = {"parent": 4.0, "change": 8.0}

    def measured_in(src, index):
        side = "change" if src == SCRIPT.parents[1] / "src" else "parent"
        row = {"pois": 200, "k": 3, "pois_per_category": 5, "agents": 5, "repeats": 7, "plan_s": 1.0}
        row |= {"plan_p25_s": 0.9, "plan_p75_s": 1.1, "landmarks_s": 0.01}
        return row | {"compute_dp_s": 0.5, "host_ref_ms": host[side], "searches_by_kind": {"tree": 7}}

    monkeypatch.setattr(bench_planner, "measured_in", measured_in)
    row = bench_planner.paired(Path("/elsewhere"), 0)
    assert row["host_drifted"] == [True] * 5
    assert row["plan_ratio_median"] == 1.0 and row["plan_ratio_median_steady"] is None

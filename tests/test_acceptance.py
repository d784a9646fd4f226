"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

from __future__ import annotations

import math
import shutil
import time

import pytest

from gtpmm import (
    ExperimentConfig,
    ParseError,
    QueryInstance,
    SharingMode,
    brute_force_optimal,
    compute_dp,
    connect_components,
    connected_components,
    emit_csv,
    load_gtfs,
    nncm,
    plan,
    resolve_fares,
    rpcm,
    rprm,
    run_experiment,
    validate_timing,
)
from gtpmm.bench import draw_instance
from gtpmm.fixtures import WALKTHROUGH_UNIT, default_fare_ranges, walkthrough_poi, gtfs_minimal_dir
from gtpmm.oracle import enumerate_valid_paths
from gtpmm.planner import Legs
from gtpmm.rng import SplitMix64, fold
from gtpmm.synth import random_disconnected_network

from timing_cases import CASES

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE


def _verdict(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_golden_example_dp_layers_and_timing(walkthrough_net, walkthrough_inst):
    """DP layers 13/13, 17/18, 20/21 and destination totals 25/24, under 1 ms."""
    v = walkthrough_poi

    def solve():
        table = compute_dp(walkthrough_net, walkthrough_inst, SHARED)
        destinations = (v("v9"), v("v10"))
        legs = Legs().costs(walkthrough_net, tuple(table.cost[-1]), destinations)
        return table, {d: min(cost + legs[(j, d)] for j, cost in table.cost[-1].items()) for d in destinations}

    table, totals = solve()
    assert table.cost[0] == {v("v3"): 13 * WALKTHROUGH_UNIT, v("v4"): 13 * WALKTHROUGH_UNIT}
    assert table.cost[1] == {v("v5"): 17 * WALKTHROUGH_UNIT, v("v6"): 18 * WALKTHROUGH_UNIT}
    assert table.cost[2] == {v("v7"): 20 * WALKTHROUGH_UNIT, v("v8"): 21 * WALKTHROUGH_UNIT}
    assert totals == {v("v9"): 25 * WALKTHROUGH_UNIT, v("v10"): 24 * WALKTHROUGH_UNIT}

    best = math.inf
    for _ in range(10):
        started = time.perf_counter()
        solve()
        best = min(best, time.perf_counter() - started)
    assert best < 0.001, f"golden DP took {best * 1000:.3f} ms"
    _verdict("golden-example")


def test_oracle_equivalence_on_200_instances(oracle_suite):
    """Planner total == brute-force total exactly, both sharing modes, < 60 s."""
    started = time.perf_counter()
    agreements = 0
    for net, inst in oracle_suite:
        for sharing in (PER_PERSON, SHARED):
            exact = plan(net, inst, sharing).total_cost
            _, oracle_cost = brute_force_optimal(net, inst, sharing)
            assert exact == oracle_cost, f"disagreement on {inst} under {sharing}"
            agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 400
    assert elapsed < 60, f"suite took {elapsed:.1f} s"
    _verdict(f"oracle-equivalence (400 comparisons in {elapsed:.1f} s)")


def test_baseline_dominance_on_200_instances(oracle_suite):
    """Planner cost <= every baseline cost: 10 seeds per randomized baseline."""
    violations = 0
    for index, (net, inst) in enumerate(oracle_suite):
        optimal = plan(net, inst, PER_PERSON).total_cost
        if nncm(net, inst).total_cost < optimal:
            violations += 1
        for seed in range(10):
            baseline_seed = fold(index, seed)
            if rprm(net, inst, baseline_seed).total_cost < optimal:
                violations += 1
            if rpcm(net, inst, baseline_seed).total_cost < optimal:
                violations += 1
    assert violations == 0
    _verdict("baseline-dominance (200 instances x 21 baseline runs)")


def test_connectivity_repair_on_50_networks():
    """Exactly components-1 added edges and a single resulting component."""
    rng = SplitMix64(314)
    for case in range(50):
        p = 2 + rng.below(6)
        net = random_disconnected_network(seed=case, n_components=p, pois_per_component=2 + rng.below(4))
        assert len(connected_components(net)) == p
        repaired, added = connect_components(net)
        assert len(added) == p - 1
        assert len(connected_components(repaired)) == 1
    _verdict("connectivity-repair (50 networks)")


def test_valid_path_counting_on_100_vectors():
    """Iterator length equals the product of category sizes."""
    rng = SplitMix64(2718)
    for _ in range(100):
        k = 1 + rng.below(5)
        sizes = [1 + rng.below(8) for _ in range(k)]
        offset = 0
        categories = []
        for size in sizes:
            categories.append(range(offset, offset + size))
            offset += size
        inst = QueryInstance([(0, 0)], categories)
        assert sum(1 for _ in enumerate_valid_paths(inst)) == math.prod(sizes)
    _verdict("valid-path-counting (100 vectors)")


def _csv_without_wall_time(path) -> list[str]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("wall_time_ms")
    return [",".join(cell for i, cell in enumerate(line.split(",")) if i != drop) for line in lines]


def test_bench_determinism(tmp_path, walkthrough_net):
    """Two identical sweeps produce byte-identical CSVs minus wall time."""
    cfg = ExperimentConfig(agent_counts=(2, 3), category_counts=(3,), pois_per_category=(2,), runs=2, seed=17)
    first = emit_csv(run_experiment(walkthrough_net, cfg), tmp_path / "a.csv", walkthrough_net.fare_table.names)
    second = emit_csv(run_experiment(walkthrough_net, cfg), tmp_path / "b.csv", walkthrough_net.fare_table.names)
    assert _csv_without_wall_time(first) == _csv_without_wall_time(second)
    _verdict("bench-determinism")


def test_cost_trend_and_ordering_across_agent_counts(trend_net):
    """Mean cost strictly increases with the agent count for every method,
    and the exact planner is the cheapest method at every count."""
    cfg = ExperimentConfig(
        agent_counts=(5, 10, 20, 50, 100),
        category_counts=(3,),
        pois_per_category=(5,),
        runs=3,
        seed=99,
        sharing=PER_PERSON,
    )
    rows = run_experiment(trend_net, cfg)
    means: dict[str, dict[int, float]] = {}
    for row in rows:
        means.setdefault(row.method, {}).setdefault(row.agents, []).append(row.total_cost)
    for method, by_agents in means.items():
        for agents, costs in by_agents.items():
            by_agents[agents] = sum(costs) / len(costs)

    for method, by_agents in means.items():
        ordered = [by_agents[agents] for agents in cfg.agent_counts]
        assert all(a < b for a, b in zip(ordered, ordered[1:])), f"{method} mean not strictly increasing: {ordered}"
    for agents in cfg.agent_counts:
        cheapest = min(means[m][agents] for m in means)
        assert means["ojpa"][agents] == cheapest, f"ojpa not minimal at {agents} agents"
    _verdict("cost-trend-and-ordering")


def test_planner_scaling_envelope(trend_net):
    """Wall time at 20 PoIs per category stays within 20x the time at 5."""

    def measure(pois_per_category: int) -> float:
        instances = [
            draw_instance(trend_net, seed=fold(7, run), k=3, pois_per_category=pois_per_category, n_agents=10)
            for run in range(3)
        ]
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            for inst in instances:
                plan(trend_net, inst, PER_PERSON)
            best = min(best, time.perf_counter() - started)
        return best

    small = measure(5)
    large = measure(20)
    ratio = large / small
    assert ratio <= 20, f"scaling ratio {ratio:.1f} exceeds the envelope"
    _verdict(f"scaling-envelope (ratio {ratio:.1f})")


def test_timetable_fixture_suite():
    """All 20 timing cases, including the exact-boundary connection."""
    assert len(CASES) == 20
    passed = 0
    for name, journey, timetable, start, expected in CASES:
        report = validate_timing(journey, timetable, start)
        assert report.feasible is expected, name
        passed += 1
    assert passed == 20
    _verdict("timetable-feasibility (20/20)")


def test_gtfs_ingestion_fixture_and_errors(tmp_path):
    """The shipped feed yields edges of 5 and 7 minutes; malformed feeds
    fail with errors naming the file and line."""
    fares = resolve_fares(default_fare_ranges(), "low")
    net = load_gtfs(gtfs_minimal_dir(), fares)
    assert net.edge_count == 2
    assert sorted(edge.time_min for edge in net.edges) == [5.0, 7.0]

    broken = tmp_path / "broken"
    shutil.copytree(gtfs_minimal_dir(), broken)
    with (broken / "stop_times.txt").open("a") as handle:
        handle.write("T1,MISSING,09:20:00,09:20:00,4\n")
    with pytest.raises(ParseError) as excinfo:
        load_gtfs(broken, fares)
    assert "stop_times.txt" in str(excinfo.value) and ":5" in str(excinfo.value)

    headless = tmp_path / "headless"
    shutil.copytree(gtfs_minimal_dir(), headless)
    (headless / "trips.txt").unlink()
    with pytest.raises(ParseError, match="trips.txt"):
        load_gtfs(headless, fares)
    _verdict("gtfs-ingestion")

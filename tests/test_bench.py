"""Experiment harness: row layout, determinism, usage accounting, CSV output."""

from __future__ import annotations

import csv

import pytest

from gtpmm import (
    ConfigurationError,
    ExperimentConfig,
    SharingMode,
    draw_instance,
    emit_csv,
    emit_summary,
    medium_usage,
    plan,
    run_experiment,
)
from gtpmm.bench import csv_header
from gtpmm.planner import JourneyPlan, PathResult

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE


def small_cfg(**overrides) -> ExperimentConfig:
    defaults = dict(
        agent_counts=(2,),
        category_counts=(3,),
        pois_per_category=(2,),
        runs=3,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_row_count_is_cells_times_methods_times_runs(walkthrough_net):
    rows = run_experiment(walkthrough_net, small_cfg())
    assert len(rows) == 1 * 4 * 3
    assert [row.method for row in rows[:4]] == ["ojpa", "rprm", "rpcm", "nncm"]


def test_rows_are_deterministic_except_wall_time(walkthrough_net):
    first = run_experiment(walkthrough_net, small_cfg())
    second = run_experiment(walkthrough_net, small_cfg())
    stripped_first = [(r.method, r.agents, r.k, r.pois_per_category, r.run, r.total_cost, r.usage) for r in first]
    stripped_second = [(r.method, r.agents, r.k, r.pois_per_category, r.run, r.total_cost, r.usage) for r in second]
    assert stripped_first == stripped_second


def test_exact_planner_dominates_per_cell(walkthrough_net):
    rows = run_experiment(walkthrough_net, small_cfg())
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row.agents, row.k, row.pois_per_category, row.run), {})[row.method] = row.total_cost
    for cell in by_cell.values():
        assert cell["ojpa"] <= min(cell.values())


def test_sizing_error_raised_before_any_run(walkthrough_net):
    with pytest.raises(ConfigurationError, match="10 PoIs"):
        run_experiment(walkthrough_net, small_cfg(pois_per_category=(5,)))


def test_instance_draws_are_prefix_stable(walkthrough_net):
    small = draw_instance(walkthrough_net, seed=9, k=3, pois_per_category=2, n_agents=2)
    large = draw_instance(walkthrough_net, seed=9, k=3, pois_per_category=2, n_agents=5)
    assert large.agents[:2] == small.agents
    assert large.categories == small.categories


def test_instance_pools_are_disjoint(walkthrough_net):
    inst = draw_instance(walkthrough_net, seed=3, k=3, pois_per_category=2, n_agents=4)
    pools = [set(cat) for cat in inst.categories]
    sources = {s for s, _ in inst.agents}
    dests = {d for _, d in inst.agents}
    for i, a in enumerate(pools):
        for b in pools[i + 1 :]:
            assert not a & b
        assert not a & sources
        assert not a & dests


# --- medium usage -------------------------------------------------------------------


def empty_plan() -> JourneyPlan:
    identity = PathResult(0, (), (0,))
    return JourneyPlan((0,), (), (identity,), (identity,), PER_PERSON, 0)


def test_empty_plan_has_zero_usage(walkthrough_net):
    stats = medium_usage(walkthrough_net, empty_plan())
    assert stats.leg_counts == {}


def test_walkthrough_usage_counts(walkthrough_net, walkthrough_inst):
    journey = plan(walkthrough_net, walkthrough_inst, PER_PERSON)
    stats = medium_usage(walkthrough_net, journey)
    # sources: v1->v3 by Bus, v2->v3 by Car; common v3->v5->v7 by Train,
    # twice for two agents; destinations v7->v10 by Train, v7->v9 by Bus
    assert stats.leg_counts == {"Bus": 2, "Car": 1, "Train": 5}
    common_hops = sum(leg.hops for leg in journey.common_legs)
    assert common_hops * journey.n_agents == 4  # the common-leg share of Train


def test_usage_counts_sum_to_leg_traversals(walkthrough_net, walkthrough_inst):
    journey = plan(walkthrough_net, walkthrough_inst, PER_PERSON)
    stats = medium_usage(walkthrough_net, journey)
    multiplier = journey.sharing.intermediate_multiplier(journey.n_agents)
    traversals = (
        sum(leg.hops for leg in journey.source_legs)
        + sum(leg.hops for leg in journey.dest_legs)
        + multiplier * sum(leg.hops for leg in journey.common_legs)
    )
    assert sum(stats.leg_counts.values()) == traversals


def test_shared_plan_counts_common_legs_once(walkthrough_net, walkthrough_inst):
    shared = plan(walkthrough_net, walkthrough_inst, SharingMode.SHARED_INTERMEDIATE)
    stats = medium_usage(walkthrough_net, shared)
    assert sum(stats.leg_counts.values()) == (
        sum(leg.hops for leg in shared.source_legs)
        + sum(leg.hops for leg in shared.dest_legs)
        + sum(leg.hops for leg in shared.common_legs)
    )


# --- CSV emission -------------------------------------------------------------------


def test_empty_rows_give_header_only_csv(tmp_path, walkthrough_net):
    path = emit_csv([], tmp_path / "empty.csv", walkthrough_net.fare_table.names)
    lines = path.read_text().splitlines()
    assert lines == [",".join(csv_header(walkthrough_net.fare_table.names))]


def test_csv_columns_follow_mode_id_order(tmp_path, walkthrough_net):
    rows = run_experiment(walkthrough_net, small_cfg())
    path = emit_csv(rows, tmp_path / "rows.csv", walkthrough_net.fare_table.names)
    with path.open() as handle:
        header = next(csv.reader(handle))
    assert header[:7] == ["method", "agents", "k", "pois_per_category", "run", "total_cost_cents", "wall_time_ms"]
    assert header[7:] == [f"usage_{name}" for name in walkthrough_net.fare_table.names]


def test_summary_averages_runs(tmp_path, walkthrough_net):
    rows = run_experiment(walkthrough_net, small_cfg())
    path = emit_summary(rows, tmp_path / "summary.csv")
    text = path.read_text().splitlines()
    assert text[0].startswith("#")
    reader = csv.DictReader(text[1:])
    records = {record["method"]: record for record in reader}
    assert set(records) == {"ojpa", "rprm", "rpcm", "nncm"}
    ojpa_rows = [r for r in rows if r.method == "ojpa"]
    expected = sum(r.total_cost for r in ojpa_rows) / len(ojpa_rows)
    assert float(records["ojpa"]["mean_total_cost_cents"]) == pytest.approx(expected)
    assert all(record["runs"] == "3" for record in records.values())

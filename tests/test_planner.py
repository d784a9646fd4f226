"""Planner correctness: golden walkthrough values, properties, and edge cases."""

from __future__ import annotations

import itertools

import pytest

from gtpmm import (
    ConfigurationError,
    DpTable,
    InfeasibleRouteError,
    InternalConsistencyError,
    QueryInstance,
    SharingMode,
    brute_force_optimal,
    compute_dp,
    destination_totals,
    group_cost,
    plan,
    recompute_total,
    reconstruct,
    shortest_path,
)
from gtpmm.fixtures import WALKTHROUGH_UNIT, walkthrough_poi
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder, rebuild_with_fares
from gtpmm.synth import random_disconnected_network, random_instance, random_network

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE


def units(mapping):
    return {poi: cents // WALKTHROUGH_UNIT for poi, cents in mapping.items()}


# --- golden walkthrough -----------------------------------------------------------


def test_dp_layers_match_hand_computation(walkthrough_net, walkthrough_inst):
    table = compute_dp(walkthrough_net, walkthrough_inst, SHARED)
    v = walkthrough_poi
    assert units(table.cost[0]) == {v("v3"): 13, v("v4"): 13}
    assert units(table.cost[1]) == {v("v5"): 17, v("v6"): 18}
    assert units(table.cost[2]) == {v("v7"): 20, v("v8"): 21}


def test_destination_totals_match_hand_computation(walkthrough_net, walkthrough_inst):
    table = compute_dp(walkthrough_net, walkthrough_inst, SHARED)
    totals = destination_totals(walkthrough_net, walkthrough_inst, table)
    assert units(totals) == {walkthrough_poi("v9"): 25, walkthrough_poi("v10"): 24}


def test_per_person_plan_is_36_units(walkthrough_net, walkthrough_inst):
    journey = plan(walkthrough_net, walkthrough_inst, PER_PERSON)
    v = walkthrough_poi
    assert journey.common_pois == (v("v3"), v("v5"), v("v7"))
    # (5+8) sources + 2*(4+3) common + (4+5) destinations
    assert journey.total_cost == 36 * WALKTHROUGH_UNIT
    assert recompute_total(journey) == journey.total_cost


def test_shared_plan_matches_brute_force(walkthrough_net, walkthrough_inst):
    journey = plan(walkthrough_net, walkthrough_inst, SHARED)
    _, oracle_cost = brute_force_optimal(walkthrough_net, walkthrough_inst, SHARED)
    assert journey.total_cost == oracle_cost == 28 * WALKTHROUGH_UNIT


def test_reconstruct_walkthrough(walkthrough_net, walkthrough_inst):
    table = compute_dp(walkthrough_net, walkthrough_inst, PER_PERSON)
    v = walkthrough_poi
    assert reconstruct(table, v("v7")) == (v("v3"), v("v5"), v("v7"))


# --- group_cost --------------------------------------------------------------------


def test_group_cost_walkthrough_components(walkthrough_net, walkthrough_inst):
    v = walkthrough_poi
    common = (v("v3"), v("v5"), v("v7"))
    # 13 source sum + 7 intermediate + 9 destination sum
    assert group_cost(walkthrough_net, walkthrough_inst, common, SHARED) == 29 * WALKTHROUGH_UNIT
    assert group_cost(walkthrough_net, walkthrough_inst, common, PER_PERSON) == 36 * WALKTHROUGH_UNIT


def test_group_cost_rejects_poi_outside_category(walkthrough_net, walkthrough_inst):
    v = walkthrough_poi
    with pytest.raises(ConfigurationError):
        group_cost(walkthrough_net, walkthrough_inst, (v("v3"), v("v7"), v("v5")), SHARED)


def test_sharing_modes_agree_for_single_agent(walkthrough_net):
    v = walkthrough_poi
    inst = QueryInstance([(v("v1"), v("v10"))], [[v("v3"), v("v4")], [v("v5"), v("v6")]])
    assert plan(walkthrough_net, inst, PER_PERSON).total_cost == plan(walkthrough_net, inst, SHARED).total_cost


# --- degenerate and invalid instances ----------------------------------------------


def test_identity_instance_costs_nothing():
    builder = NetworkBuilder()
    builder.add_poi("only")
    net = builder.finalize(FareTable.from_pairs([("M", FarePolicy(100, 0, 0))]))
    inst = QueryInstance([(0, 0)], [[0]])
    journey = plan(net, inst, PER_PERSON)
    assert journey.total_cost == 0
    assert journey.common_pois == (0,)
    assert all(leg.legs == () for leg in (*journey.source_legs, *journey.dest_legs))
    assert journey.common_legs == ()


def test_empty_category_rejected():
    with pytest.raises(ConfigurationError):
        QueryInstance([(0, 1)], [[0], []])


def test_zero_agents_rejected():
    with pytest.raises(ConfigurationError):
        QueryInstance([], [[0]])


def test_unknown_poi_rejected(walkthrough_net):
    inst = QueryInstance([(0, 99)], [[2]])
    with pytest.raises(ConfigurationError):
        plan(walkthrough_net, inst, PER_PERSON)


def test_unreachable_pair_raises_named_infeasibility():
    net = random_disconnected_network(seed=21, n_components=2, pois_per_component=3)
    # agents on island one, category on island two
    inst = QueryInstance([(0, 1)], [[3]])
    with pytest.raises(InfeasibleRouteError) as excinfo:
        plan(net, inst, PER_PERSON)
    assert excinfo.value.pair == (0, 3)


def test_reconstruct_rejects_broken_parent_chain():
    table = DpTable(cost=[{1: 0}, {2: 5}], parent=[{1: None}, {2: None}])
    with pytest.raises(InternalConsistencyError):
        reconstruct(table, 2)
    with pytest.raises(InternalConsistencyError):
        reconstruct(table, 7)


def test_reconstruct_single_category():
    table = DpTable(cost=[{4: 10}], parent=[{4: None}])
    assert reconstruct(table, 4) == (4,)


def test_tied_chains_resolve_to_lower_poi_ids():
    # 0 -> {1,2} -> {3}: both chains cost the same, parent must be 1.
    fares = FareTable.from_pairs([("M", FarePolicy(100, 0, 0))])
    builder = NetworkBuilder()
    for i in range(4):
        builder.add_poi(f"n{i}")
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        builder.add_edge(u, v, 0, 1.0, 1.0)
    net = builder.finalize(fares)
    inst = QueryInstance([(0, 3)], [[1, 2], [3]])
    table = compute_dp(net, inst, PER_PERSON)
    assert table.parent[1][3] == 1
    assert plan(net, inst, PER_PERSON).common_pois == (1, 3)


# --- optimality and structural properties ------------------------------------------


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
@pytest.mark.parametrize("seed", range(12))
def test_matches_brute_force_on_small_instances(seed, sharing):
    net = random_network(seed, n_pois=24, n_modes=3)
    inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=3)
    journey = plan(net, inst, sharing)
    _, oracle_cost = brute_force_optimal(net, inst, sharing)
    assert journey.total_cost == oracle_cost
    assert recompute_total(journey) == journey.total_cost


def test_dp_layers_equal_brute_force_prefix_minima():
    seed = 77
    net = random_network(seed, n_pois=20, n_modes=2)
    inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=2)
    m = PER_PERSON.intermediate_multiplier(inst.n_agents)
    table = compute_dp(net, inst, PER_PERSON)

    def sp(u, v):
        result = shortest_path(net, u, v)
        assert result is not None
        return result.cost

    for c in range(inst.k):
        for j in inst.categories[c]:
            best = None
            for prefix in itertools.product(*inst.categories[: c + 1]):
                if prefix[-1] != j:
                    continue
                total = sum(sp(source, prefix[0]) for source, _ in inst.agents)
                total += m * sum(sp(a, b) for a, b in zip(prefix, prefix[1:]))
                if best is None or total < best:
                    best = total
            assert table.cost[c][j] == best


def test_appending_an_agent_never_reduces_per_person_cost():
    for seed in range(8):
        net = random_network(seed, n_pois=25, n_modes=3)
        base = random_instance(seed, net, k=2, pois_per_category=3, n_agents=2)
        extended = QueryInstance([*base.agents, (seed % 25, (seed * 7) % 25)], base.categories)
        assert plan(net, extended, PER_PERSON).total_cost >= plan(net, base, PER_PERSON).total_cost


def test_shared_never_exceeds_per_person():
    for seed in range(8):
        net = random_network(seed, n_pois=25, n_modes=3)
        inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=3)
        assert plan(net, inst, SHARED).total_cost <= plan(net, inst, PER_PERSON).total_cost


@pytest.mark.parametrize("factor", [3, 7])
def test_fare_scaling_preserves_chosen_pois(factor):
    # Synthetic rates and weights are integral, so scaling is exact and the
    # tie structure of every comparison is preserved.
    for seed in range(6):
        net = random_network(seed, n_pois=22, n_modes=3)
        inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=2)
        scaled = rebuild_with_fares(net, net.fare_table.scaled(factor))
        original = plan(net, inst, PER_PERSON)
        rescaled = plan(scaled, inst, PER_PERSON)
        assert rescaled.common_pois == original.common_pois
        assert rescaled.total_cost == factor * original.total_cost


def test_shortest_path_invocation_bound():
    # Counting endpoint pools as categories, the DP solves at most
    # (k + 2) * max_layer_size**2 distinct pairs.
    for seed in range(6):
        net = random_network(seed, n_pois=30, n_modes=2)
        inst = random_instance(seed, net, k=3, pois_per_category=4, n_agents=4)
        table = compute_dp(net, inst, PER_PERSON)
        destination_totals(net, inst, table)  # includes the final transition
        sizes = [len(cat) for cat in inst.categories]
        sizes.append(len({s for s, _ in inst.agents}))
        sizes.append(len({d for _, d in inst.agents}))
        bound = (inst.k + 2) * max(sizes) ** 2
        assert table.sp_invocations <= bound


def test_distance_stage_runs_one_search_per_category_poi(monkeypatch):
    import gtpmm.planner

    calls = []

    def counted_shortest_path(net, u, v):
        calls.append((u, v))
        return shortest_path(net, u, v)

    monkeypatch.setattr(gtpmm.planner, "shortest_path", counted_shortest_path)
    for seed in range(6):
        net = random_network(seed, n_pois=30, n_modes=2)
        inst = random_instance(seed, net, k=3, pois_per_category=4, n_agents=4)
        table = compute_dp(net, inst, PER_PERSON)
        destination_totals(net, inst, table)
        assert table.searches == sum(len(cat) for cat in inst.categories)
        assert table.sp_invocations == 0
        assert calls == []

        plan(net, inst, PER_PERSON)
        sources = {s for s, _ in inst.agents}
        destinations = {d for _, d in inst.agents}
        assert len(calls) <= len(sources) + len(destinations) + inst.k - 1
        calls.clear()


def test_unreachable_destination_is_named_from_the_last_category():
    net = random_disconnected_network(seed=21, n_components=2, pois_per_component=3)
    # sources and categories on island one, the destination on island two
    inst = QueryInstance([(0, 4)], [[1, 2]])
    table = compute_dp(net, inst, PER_PERSON)
    assert table.first_unreachable is None
    with pytest.raises(InfeasibleRouteError) as excinfo:
        plan(net, inst, PER_PERSON)
    assert excinfo.value.pair == (1, 4)


def test_plan_is_deterministic(walkthrough_net, walkthrough_inst):
    journeys = [plan(walkthrough_net, walkthrough_inst, PER_PERSON) for _ in range(10)]
    assert all(journey == journeys[0] for journey in journeys)

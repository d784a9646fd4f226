"""Exhaustive-enumeration checker: counting, costs, and argmin behavior."""

from __future__ import annotations

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import (
    EnumerationLimitError,
    InfeasibleRouteError,
    QueryInstance,
    SharingMode,
    brute_force_optimal,
    enumerate_valid_paths,
    group_cost,
    plan,
    valid_path_count,
)
from gtpmm.fixtures import WALKTHROUGH_UNIT, walkthrough_poi
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder, rebuild_with_fares
from gtpmm.synth import random_disconnected_network, random_instance, random_network

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE


def sized_instance(*sizes: int) -> QueryInstance:
    offset = 0
    categories = []
    for size in sizes:
        categories.append(list(range(offset, offset + size)))
        offset += size
    return QueryInstance([(0, 0)], categories)


# --- enumeration -------------------------------------------------------------------


def test_walkthrough_has_eight_tuples(walkthrough_inst):
    tuples = list(enumerate_valid_paths(walkthrough_inst))
    assert len(tuples) == 8 == valid_path_count(walkthrough_inst)
    assert tuples == sorted(tuples)  # lexicographic
    assert len(set(tuples)) == 8


def test_singleton_categories_yield_one_tuple():
    inst = sized_instance(1, 1, 1)
    assert list(enumerate_valid_paths(inst)) == [(0, 1, 2)]


def test_single_category_yields_ids_in_order():
    inst = QueryInstance([(0, 0)], [[5, 1, 3]])
    assert list(enumerate_valid_paths(inst)) == [(1,), (3,), (5,)]


def test_enumeration_guard_reports_size():
    inst = sized_instance(40, 40, 40)
    with pytest.raises(EnumerationLimitError) as excinfo:
        enumerate_valid_paths(inst, max_tuples=1000)
    assert excinfo.value.n_tuples == 64000
    assert excinfo.value.limit == 1000
    # the guard is overridable
    assert sum(1 for _ in enumerate_valid_paths(inst, max_tuples=10**6)) == 64000


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5))
def test_iterator_length_equals_product(sizes):
    inst = sized_instance(*sizes)
    assert sum(1 for _ in enumerate_valid_paths(inst)) == math.prod(sizes)


# --- shared group cost -------------------------------------------------------------


def test_walkthrough_shared_group_cost(walkthrough_net, walkthrough_inst):
    v = walkthrough_poi
    common = (v("v3"), v("v5"), v("v7"))
    # 13 (sources) + 7 (intermediate) + 9 (destinations)
    assert group_cost(walkthrough_net, walkthrough_inst, common, SHARED) == 29 * WALKTHROUGH_UNIT


def test_identity_instance_has_zero_distance():
    builder = NetworkBuilder()
    builder.add_poi("only")
    net = builder.finalize(FareTable.from_pairs([("M", FarePolicy(100, 0, 0))]))
    inst = QueryInstance([(0, 0)], [[0]])
    assert group_cost(net, inst, (0,), SHARED) == 0


def test_shared_group_cost_raises_on_unreachable_pair():
    net = random_disconnected_network(seed=13, n_components=2, pois_per_component=3)
    inst = QueryInstance([(0, 0)], [[4]])
    with pytest.raises(InfeasibleRouteError):
        group_cost(net, inst, (4,), SHARED)


# --- brute force -------------------------------------------------------------------


def test_walkthrough_per_person_optimum(walkthrough_net, walkthrough_inst):
    best, cost = brute_force_optimal(walkthrough_net, walkthrough_inst, PER_PERSON)
    v = walkthrough_poi
    assert best == (v("v3"), v("v5"), v("v7"))
    assert cost == 36 * WALKTHROUGH_UNIT


def test_walkthrough_shared_optimum_is_min_over_tuples(walkthrough_net, walkthrough_inst):
    best, cost = brute_force_optimal(walkthrough_net, walkthrough_inst, SHARED)
    by_hand = min(
        group_cost(walkthrough_net, walkthrough_inst, candidate, SHARED)
        for candidate in enumerate_valid_paths(walkthrough_inst)
    )
    assert cost == by_hand


def test_dominant_tuple_wins():
    # a star where category PoI 1 is strictly closer than PoI 2 on all legs
    fares = FareTable.from_pairs([("M", FarePolicy(0, 0, Decimal("1")))])
    builder = NetworkBuilder()
    for i in range(4):
        builder.add_poi(f"n{i}")
    builder.add_edge(0, 1, 0, 0.0, 100.0)
    builder.add_edge(0, 2, 0, 0.0, 500.0)
    builder.add_edge(1, 3, 0, 0.0, 100.0)
    builder.add_edge(2, 3, 0, 0.0, 500.0)
    net = builder.finalize(fares)
    inst = QueryInstance([(0, 3)], [[1, 2]])
    # two 100-minute legs at one cent per minute
    assert brute_force_optimal(net, inst, PER_PERSON) == ((1,), 200)


def test_ties_resolve_to_lexicographically_smallest():
    fares = FareTable.from_pairs([("M", FarePolicy(100, 0, 0))])
    builder = NetworkBuilder()
    for i in range(4):
        builder.add_poi(f"n{i}")
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        builder.add_edge(u, v, 0, 1.0, 1.0)
    net = builder.finalize(fares)
    inst = QueryInstance([(0, 3)], [[1, 2], [3]])
    best, _ = brute_force_optimal(net, inst, PER_PERSON)
    assert best == (1, 3)


def test_removing_a_non_optimal_poi_keeps_the_optimum():
    for seed in range(6):
        net = random_network(seed, n_pois=20, n_modes=2)
        inst = random_instance(seed, net, k=2, pois_per_category=3, n_agents=2)
        best, cost = brute_force_optimal(net, inst, PER_PERSON)
        for c in range(inst.k):
            losers = [p for p in inst.categories[c] if p != best[c]]
            shrunk = list(map(list, inst.categories))
            shrunk[c] = [p for p in shrunk[c] if p != losers[0]]
            reduced = QueryInstance(inst.agents, shrunk)
            assert brute_force_optimal(net, reduced, PER_PERSON) == (best, cost)


def test_removing_the_optimal_poi_never_improves():
    for seed in range(6):
        net = random_network(seed, n_pois=20, n_modes=2)
        inst = random_instance(seed, net, k=2, pois_per_category=3, n_agents=2)
        best, cost = brute_force_optimal(net, inst, PER_PERSON)
        for c in range(inst.k):
            shrunk = list(map(list, inst.categories))
            shrunk[c] = [p for p in shrunk[c] if p != best[c]]
            reduced = QueryInstance(inst.agents, shrunk)
            _, reduced_cost = brute_force_optimal(net, reduced, PER_PERSON)
            assert reduced_cost >= cost


def test_brute_force_agrees_with_planner(walkthrough_net):
    for seed in range(10):
        net = random_network(seed, n_pois=22, n_modes=3)
        inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=2)
        for sharing in (PER_PERSON, SHARED):
            _, cost = brute_force_optimal(net, inst, sharing)
            assert plan(net, inst, sharing).total_cost == cost


def test_checks_share_no_search_with_the_planner(monkeypatch):
    # brute_force_optimal and group_cost are the references the planner is
    # checked against: they must not run the planner's goal-directed searches
    import gtpmm.network
    import gtpmm.planner

    cases = []
    for seed in range(4):
        net = random_network(seed, n_pois=22, n_modes=3)
        inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=3)
        common = plan(net, inst, PER_PERSON).common_pois
        cases.append((net, inst, common))
    expected = [(brute_force_optimal(net, inst, SHARED), group_cost(net, inst, common)) for net, inst, common in cases]

    def planner_search(*args, **kwargs):
        raise AssertionError("a check ran one of the planner's searches")

    for module, name in [
        (gtpmm.network, "layer_costs"),
        (gtpmm.network, "shortest_costs"),
        (gtpmm.network, "shortest_path"),
        (gtpmm.network, "shortest_paths"),
        (gtpmm.network, "_landmark_bounds"),
        (gtpmm.planner, "layer_costs"),
        (gtpmm.planner, "shortest_costs"),
        (gtpmm.planner, "shortest_path"),
        (gtpmm.planner, "shortest_paths"),
    ]:
        monkeypatch.setattr(module, name, planner_search)
    monkeypatch.setattr(gtpmm.network.MultiModalNetwork, "landmarks", property(planner_search))
    for (net, inst, common), (optimum, cost) in zip(cases, expected):
        fresh = rebuild_with_fares(net, net.fare_table)  # no search view built yet
        assert brute_force_optimal(fresh, inst, SHARED) == optimum
        assert group_cost(fresh, inst, common) == cost

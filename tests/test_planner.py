"""Planner correctness: golden walkthrough values, properties, and edge cases."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    shortest_path,
)
from gtpmm.bench import draw_instance
from gtpmm.fixtures import WALKTHROUGH_UNIT, walkthrough_poi
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder, rebuild_with_fares, reference_path, shortest_costs
from gtpmm.planner import JourneyPlan, _check_instance, assemble, reconstruct
from gtpmm.synth import random_disconnected_network, random_instance, random_network
from conftest import Search
from test_network import EDGE_CASE_FARES, built_network

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
        result = reference_path(net, u, v)
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


def holds(search, a, b):
    """Whether the recorded ``search`` is a tree that holds the leg from ``a`` to ``b``, forward or back."""
    return search.kind == "tree" and (
        (search.origin == a and b in search.targets) or (search.origin == b and a in search.targets)
    )


def test_dp_runs_one_search_per_layer_and_per_smaller_endpoint_set(searches):
    sides = set()
    for seed in range(6):
        net = random_network(seed, n_pois=30, n_modes=2)
        net.__dict__["landmark_tightness"] = 0.0  # the pruning gate closed: plan() runs the DP over every PoI
        inst = random_instance(seed, net, k=3, pois_per_category=4, n_agents=(2, 4, 7)[seed % 3])
        searches.clear()
        table = compute_dp(net, inst, PER_PERSON)
        destination_totals(net, inst, table)
        dp = list(searches)
        sources = {s for s, _ in inst.agents}
        destinations = {d for _, d in inst.agents}
        first, last = inst.categories[0], inst.categories[-1]
        sides.add((len(sources) > len(first), len(destinations) > len(last)))
        expected = min(len(sources), len(first)) + (inst.k - 1) + min(len(destinations), len(last))
        assert table.searches == len(dp) == expected
        assert [search.kind for search in dp].count("layer") == inst.k - 1
        assert "path" not in {search.kind for search in dp}
        assert table.sp_invocations == 0

        searches.clear()
        journey = plan(net, inst, PER_PERSON)
        assert searches[: len(dp)] == dp  # the DP's searches, and no pruning ones before them
        common = journey.common_pois
        hops = [(a, b) for a, b in zip(common, common[1:]) if not any(holds(search, a, b) for search in dp)]
        # point to point: each common hop that no DP search holds; the source and destination legs are read
        # from the DP's searches
        assert searches[len(dp) :] == [Search("path", a, (b,)) for a, b in hops]
    assert sides == {(False, False), (True, True)}  # both sides of each endpoint choice


def test_unreachable_destination_is_named_from_the_last_category():
    net = random_disconnected_network(seed=21, n_components=2, pois_per_component=3)
    # sources and categories on island one, the destination on island two
    inst = QueryInstance([(0, 4)], [[1, 2]])
    table = compute_dp(net, inst, PER_PERSON)
    assert set(table.cost[0]) == {1, 2}  # the DP layer is reached; only the destination pairs are not
    assert table.distances == {}
    with pytest.raises(InfeasibleRouteError) as excinfo:
        plan(net, inst, PER_PERSON)
    assert excinfo.value.pair == (1, 4)


def test_plan_is_deterministic(walkthrough_net, walkthrough_inst):
    journeys = [plan(walkthrough_net, walkthrough_inst, PER_PERSON) for _ in range(10)]
    assert all(journey == journeys[0] for journey in journeys)


# --- differential test against the per-PoI distance stage it replaced -------------
#
# Verbatim copies of ``compute_dp``, ``destination_totals`` and the final stage
# of ``plan()`` from before each DP layer became one multi-source search, with
# the ``DpTable`` methods they read; the legs are point-to-point searches.


@dataclass
class _ReferenceTable:
    cost: list
    parent: list
    first_unreachable: tuple | None = None
    distances: dict = field(default_factory=dict)
    searches: int = 0

    @property
    def k(self):
        return len(self.cost)

    def search(self, net, source, targets):
        """Add the cheapest costs from ``source`` to ``targets`` to ``distances``."""
        self.searches += 1
        for target, cost in shortest_costs(net, source, targets).items():
            self.distances[(source, target) if source <= target else (target, source)] = cost

    def distance(self, u, v):
        cost = self.distances.get((u, v) if u <= v else (v, u))
        if cost is None and self.first_unreachable is None:
            self.first_unreachable = (u, v)
        return cost

    def leg(self, net, u, v):
        result = reference_path(net, u, v)
        if result is None:
            raise InfeasibleRouteError(u, v)
        return result


def _reference_compute_dp(net, inst, sharing):
    _check_instance(net, inst)
    m = sharing.intermediate_multiplier(inst.n_agents)
    table = _ReferenceTable(cost=[{} for _ in inst.categories], parent=[{} for _ in inst.categories])

    destinations = {dest for _, dest in inst.agents}
    for c, category in enumerate(inst.categories):
        targets = set(inst.categories[c - 1]) if c else {source for source, _ in inst.agents}
        if c == inst.k - 1:
            targets |= destinations
        for j in category:
            table.search(net, j, targets)

    for j in inst.categories[0]:
        total = 0
        reachable = True
        for source, _ in inst.agents:
            cost = table.distance(source, j)
            if cost is None:
                reachable = False
                break
            total += cost
        if reachable:
            table.cost[0][j] = total
            table.parent[0][j] = None

    for c in range(1, inst.k):
        previous = table.cost[c - 1]
        for j in inst.categories[c]:
            best = None
            best_parent = None
            for i in inst.categories[c - 1]:
                if i not in previous:
                    continue
                cost = table.distance(i, j)
                if cost is None:
                    continue
                candidate = previous[i] + m * cost
                if best is None or candidate < best:  # ties keep the lower PoI id i
                    best = candidate
                    best_parent = i
            if best is not None:
                table.cost[c][j] = best
                table.parent[c][j] = best_parent

    return table


def _reference_destination_totals(net, inst, table):
    totals = {}
    last = table.cost[inst.k - 1]
    for _, dest in inst.agents:
        if dest in totals:
            continue
        best = None
        for j in inst.categories[-1]:
            if j not in last:
                continue
            cost = table.distance(j, dest)
            if cost is None:
                continue
            candidate = last[j] + cost
            if best is None or candidate < best:
                best = candidate
        if best is not None:
            totals[dest] = best
    return totals


def _reference_plan(net, inst, sharing):
    table = _reference_compute_dp(net, inst, sharing)

    best_total = None
    best_last = None
    for j in inst.categories[-1]:
        if j not in table.cost[inst.k - 1]:
            continue
        total = table.cost[inst.k - 1][j]
        feasible = True
        for _, dest in inst.agents:
            cost = table.distance(j, dest)
            if cost is None:
                feasible = False
                break
            total += cost
        if feasible and (best_total is None or total < best_total):
            best_total = total
            best_last = j

    if best_last is None:
        pair = table.first_unreachable or (inst.agents[0][0], inst.categories[0][0])
        raise InfeasibleRouteError(*pair)

    common = reconstruct(table, best_last)
    try:
        journey = assemble(net, inst, common, sharing, table.leg)
    except InfeasibleRouteError as failure:
        raise InternalConsistencyError("reconstructed plan references an unreachable leg") from failure
    if best_total != journey.total_cost:
        raise InternalConsistencyError(f"DP total {best_total} != leg total {journey.total_cost}")
    return journey


def _outcome(fn, *args):
    """The result, or the pair named by the InfeasibleRouteError raised instead."""
    try:
        return fn(*args)
    except InfeasibleRouteError as failure:
        return ("infeasible", failure.pair)


def assert_dp_matches_reference(net, inst, sharing):
    table = compute_dp(net, inst, sharing)
    assert table.legs._paths == {}  # the DP keeps no paths
    assert table.sp_invocations == 0
    expected = _reference_compute_dp(net, inst, sharing)
    assert table.cost == expected.cost
    assert table.parent == expected.parent
    assert destination_totals(net, inst, table) == _reference_destination_totals(net, inst, expected)
    journey = _outcome(plan, net, inst, sharing)
    assert journey == _outcome(_reference_plan, net, inst, sharing)  # common PoIs, legs, modes, total
    return journey


@st.composite
def dp_cases(draw):
    """Up to 9 PoIs on zero-cost, tied parallel and tied-route edges (the
    edge-case fares: two free-at-zero-length modes, two equal flat fares),
    often disconnected; 1-3 possibly overlapping categories, 1-6 agents."""
    n_pois = draw(st.integers(min_value=2, max_value=9))
    node = st.integers(min_value=0, max_value=n_pois - 1)
    length = st.sampled_from([0.0, 1.0, 2.0])
    edge = st.tuples(node, node, st.integers(min_value=0, max_value=3), length, length)
    net = built_network(n_pois, EDGE_CASE_FARES, draw(st.lists(edge, max_size=16)))
    k = draw(st.integers(min_value=1, max_value=3))
    categories = draw(st.lists(st.lists(node, min_size=1, max_size=4), min_size=k, max_size=k))
    agents = draw(st.lists(st.tuples(node, node), min_size=1, max_size=6))
    sharing = draw(st.sampled_from([PER_PERSON, SHARED]))
    return net, QueryInstance(agents, categories), sharing


@settings(max_examples=300, deadline=None)
@given(case=dp_cases())
def test_dp_matches_the_per_poi_distance_stage_on_random_networks(case):
    assert_dp_matches_reference(*case)


def _endpoint_side_cases():
    islands = random_disconnected_network(seed=5, n_components=3, pois_per_component=5)  # PoIs 0-4, 5-9, 10-14
    yield islands, QueryInstance([(0, 11)], [[1, 2], [3]])  # destination off the island
    yield islands, QueryInstance([(0, 1), (6, 1)], [[1, 2], [3]])  # a source off the island
    yield islands, QueryInstance([(0, 1)], [[1, 2], [7, 8]])  # a whole later category off the island
    yield islands, QueryInstance([(0, 1), (2, 3), (4, 0)], [[1, 12], [2, 3], [3, 4, 13]])
    yield islands, QueryInstance([(0, 3), (1, 4), (2, 13), (3, 2)], [[1], [2, 4, 3]])
    for seed in range(6):
        net = random_network(seed, n_pois=30, n_modes=3)
        for agents in (2, 9):
            yield net, draw_instance(net, seed, k=3, pois_per_category=4, n_agents=agents)
            yield net, random_instance(seed, net, k=2, pois_per_category=3, n_agents=agents)
        overlapping = random_instance(seed, net, k=3, pois_per_category=5, n_agents=4)
        shifted = [overlapping.categories[0], overlapping.categories[0][2:] + overlapping.categories[1][:3]]
        yield net, QueryInstance(overlapping.agents, shifted + [overlapping.categories[2]])


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
def test_dp_matches_the_per_poi_distance_stage_on_both_sides_of_each_endpoint_choice(sharing):
    sides = set()
    outcomes = set()
    for net, inst in _endpoint_side_cases():
        journey = assert_dp_matches_reference(net, inst, sharing)
        sources = len({source for source, _ in inst.agents}) - len(inst.categories[0])
        destinations = len({dest for _, dest in inst.agents}) - len(inst.categories[-1])
        sides.add(("sources", (sources > 0) - (sources < 0)))  # -1: fewer endpoints than PoIs, 1: more
        sides.add(("destinations", (destinations > 0) - (destinations < 0)))
        outcomes.add(isinstance(journey, JourneyPlan))
    assert {(end, side) for end in ("sources", "destinations") for side in (-1, 1)} <= sides
    assert outcomes == {True, False}  # both feasible and infeasible cases were compared

"""Determinism, validity, and dominance behavior of the reference heuristics."""

from __future__ import annotations

from collections import deque

import pytest

from gtpmm import (
    QueryInstance,
    SharingMode,
    group_cost,
    nncm,
    plan,
    recompute_total,
    rpcm,
    rprm,
)
from gtpmm.baselines import _random_common
from gtpmm.bench import draw_instance, run_method
from gtpmm.errors import InfeasibleRouteError
from gtpmm.fixtures import WALKTHROUGH_UNIT, walkthrough_poi
from gtpmm.network import NetworkBuilder, PathResult, reference_path, shortest_costs, shortest_path
from gtpmm.planner import JourneyPlan
from gtpmm.rng import SplitMix64
from gtpmm.synth import random_disconnected_network, random_instance, random_network, synthetic_fare_table

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE


def test_rprm_is_seed_deterministic(walkthrough_net, walkthrough_inst):
    reference = rprm(walkthrough_net, walkthrough_inst, seed=42)
    assert all(rprm(walkthrough_net, walkthrough_inst, seed=42) == reference for _ in range(100))


def test_rpcm_and_nncm_are_deterministic(walkthrough_net, walkthrough_inst):
    assert rpcm(walkthrough_net, walkthrough_inst, seed=7) == rpcm(walkthrough_net, walkthrough_inst, seed=7)
    assert nncm(walkthrough_net, walkthrough_inst) == nncm(walkthrough_net, walkthrough_inst)


def test_different_seeds_reach_different_plans(walkthrough_net, walkthrough_inst):
    plans = {rprm(walkthrough_net, walkthrough_inst, seed=s).total_cost for s in range(30)}
    assert len(plans) > 1


def test_singleton_categories_force_the_poi_choice(walkthrough_net):
    v = walkthrough_poi
    inst = QueryInstance(
        [(v("v1"), v("v10")), (v("v2"), v("v9"))],
        [[v("v3")], [v("v5")], [v("v7")]],
    )
    for seed in range(10):
        assert rpcm(walkthrough_net, inst, seed).common_pois == (v("v3"), v("v5"), v("v7"))
        assert rprm(walkthrough_net, inst, seed).common_pois == (v("v3"), v("v5"), v("v7"))
    # with no PoI freedom, cheapest-medium equals the exact planner
    assert rpcm(walkthrough_net, inst, 0).total_cost == plan(walkthrough_net, inst, PER_PERSON).total_cost


def test_rprm_mean_over_seeds_dominated_by_planner(walkthrough_net, walkthrough_inst):
    optimal = plan(walkthrough_net, walkthrough_inst, PER_PERSON).total_cost
    costs = [rprm(walkthrough_net, walkthrough_inst, seed).total_cost for seed in range(1000)]
    assert min(costs) >= optimal
    assert sum(costs) / len(costs) >= optimal


def test_rpcm_never_beats_rprm_under_the_same_seed(walkthrough_net, walkthrough_inst):
    for seed in range(50):
        random_modes = rprm(walkthrough_net, walkthrough_inst, seed)
        cheapest_modes = rpcm(walkthrough_net, walkthrough_inst, seed)
        assert cheapest_modes.common_pois == random_modes.common_pois
        assert cheapest_modes.total_cost <= random_modes.total_cost


def test_rpcm_cost_equals_group_cost_of_its_pois(walkthrough_net, walkthrough_inst):
    for seed in range(10):
        journey = rpcm(walkthrough_net, walkthrough_inst, seed)
        assert journey.total_cost == group_cost(walkthrough_net, walkthrough_inst, journey.common_pois, PER_PERSON)


def test_nncm_walkthrough_chain(walkthrough_net, walkthrough_inst):
    journey = nncm(walkthrough_net, walkthrough_inst)
    v = walkthrough_poi
    # both first-category PoIs are 13 units from the group; the tie picks v3
    assert journey.common_pois[0] == v("v3")
    assert journey.common_pois == (v("v3"), v("v5"), v("v7"))
    assert journey.total_cost == 36 * WALKTHROUGH_UNIT


def test_nncm_single_category_single_agent(walkthrough_net):
    v = walkthrough_poi
    inst = QueryInstance([(v("v1"), v("v1"))], [[v("v3"), v("v4")]])
    journey = nncm(walkthrough_net, inst)
    assert journey.common_pois == (v("v4"),)  # v4 is 3 units away, v3 is 5


def test_baseline_plans_have_valid_shape(walkthrough_net):
    for seed in range(10):
        net = random_network(seed, n_pois=20, n_modes=2)
        inst = random_instance(seed, net, k=3, pois_per_category=3, n_agents=2)
        for method in ("rprm", "rpcm", "nncm"):
            journey = run_method(method, net, inst, PER_PERSON, seed)
            assert len(journey.common_pois) == inst.k
            for c, poi in enumerate(journey.common_pois):
                assert poi in inst.categories[c]
            assert journey.n_agents == inst.n_agents
            assert recompute_total(journey) == journey.total_cost
            # every agent's journey is source leg + common legs + destination leg
            for index, (source, dest) in enumerate(inst.agents):
                assert journey.source_legs[index].poi_sequence[0] == source
                assert journey.source_legs[index].poi_sequence[-1] == journey.common_pois[0]
                assert journey.dest_legs[index].poi_sequence[0] == journey.common_pois[-1]
                assert journey.dest_legs[index].poi_sequence[-1] == dest


def test_planner_dominates_every_baseline():
    for seed in range(25):
        net = random_network(seed, n_pois=25, n_modes=3)
        inst = random_instance(seed, net, k=3, pois_per_category=4, n_agents=3)
        optimal = plan(net, inst, PER_PERSON).total_cost
        assert nncm(net, inst).total_cost >= optimal
        for baseline_seed in range(5):
            assert rprm(net, inst, baseline_seed).total_cost >= optimal
            assert rpcm(net, inst, baseline_seed).total_cost >= optimal


# --- differential tests against the per-baseline leg code they replaced ----------
#
# Verbatim copies of the baselines' own leg and assembly helpers from before
# they shared ``gtpmm.planner.Legs`` and ``gtpmm.planner.assemble``, and of
# RPRM's per-leg BFS from before it kept one BFS tree per leg origin.


def _fewest_hops_sequence(net, source, target):
    """BFS hop-count path; neighbors expand in ascending PoI id for determinism."""
    if source == target:
        return [source]
    parent = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        neighbors = sorted({net.edges[eid].other(u) for eid in net.adjacency[u]})
        for v in neighbors:
            if v in parent:
                continue
            parent[v] = u
            if v == target:
                sequence = [v]
                while sequence[-1] != source:
                    sequence.append(parent[sequence[-1]])
                sequence.reverse()
                return sequence
            queue.append(v)
    return None


def _random_mode_leg(net, source, target, rng):
    """Fewest-hops route with an independently random mode on every hop."""
    sequence = _fewest_hops_sequence(net, source, target)
    if sequence is None:
        raise InfeasibleRouteError(source, target)
    legs = []
    cost = 0
    for a, b in zip(sequence, sequence[1:]):
        parallel = sorted(
            (eid for eid in net.adjacency[a] if net.edges[eid].other(a) == b),
            key=lambda eid: (net.edges[eid].mode, eid),
        )
        eid = parallel[rng.below(len(parallel))]
        legs.append((eid, net.edges[eid].mode))
        cost += net.edge_costs[eid]
    return PathResult(cost, tuple(legs), tuple(sequence))


def _reference_cheapest_leg(net, source, target):
    leg = reference_path(net, source, target)
    if leg is None:
        raise InfeasibleRouteError(source, target)
    return leg


def _reference_assemble(net, inst, common, sharing, leg_fn):
    source_legs = tuple(leg_fn(net, source, common[0]) for source, _ in inst.agents)
    common_legs = tuple(leg_fn(net, a, b) for a, b in zip(common, common[1:]))
    dest_legs = tuple(leg_fn(net, common[-1], dest) for _, dest in inst.agents)
    draft = JourneyPlan(common, common_legs, source_legs, dest_legs, sharing, 0)
    return JourneyPlan(common, common_legs, source_legs, dest_legs, sharing, recompute_total(draft))


def _reference_rprm(net, inst, seed, sharing=PER_PERSON):
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)

    def leg(n, u, v):
        return _random_mode_leg(n, u, v, rng)

    return _reference_assemble(net, inst, common, sharing, leg)


def _reference_rpcm(net, inst, seed, sharing=PER_PERSON):
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    return _reference_assemble(net, inst, common, sharing, lambda n, u, v: _reference_cheapest_leg(n, u, v))


def _reference_nncm(net, inst, sharing=PER_PERSON):
    cache = {}

    def cost_between(u, v):
        key = (u, v)
        if key not in cache:
            cache[key] = reference_path(net, u, v)
        leg = cache[key]
        return None if leg is None else leg.cost

    first_best = None  # (total, poi)
    for j in inst.categories[0]:
        total = 0
        for source, _ in inst.agents:
            c = cost_between(source, j)
            if c is None:
                total = -1
                break
            total += c
        if total >= 0 and (first_best is None or total < first_best[0]):
            first_best = (total, j)
    if first_best is None:
        raise InfeasibleRouteError(inst.agents[0][0], inst.categories[0][0])

    common = [first_best[1]]
    for cat in inst.categories[1:]:
        best = None
        for j in cat:
            c = cost_between(common[-1], j)
            if c is not None and (best is None or c < best[0]):
                best = (c, j)
        if best is None:
            raise InfeasibleRouteError(common[-1], cat[0])
        common.append(best[1])

    return _reference_assemble(net, inst, tuple(common), sharing, lambda n, u, v: _reference_cheapest_leg(n, u, v))


def _outcome(fn, *args):
    """The plan, or the pair named by the InfeasibleRouteError raised instead."""
    try:
        return fn(*args)
    except InfeasibleRouteError as failure:
        return ("infeasible", failure.pair)


def _looped_network(seed, n_pois=14):
    """Connected network with self-loops and 2-3 parallel modes on every link,
    added in shuffled mode order so edge ids do not follow mode ids."""
    rng = SplitMix64(seed)
    builder = NetworkBuilder(allow_self_loops=True)
    for i in range(n_pois):
        builder.add_poi(f"q{i:02d}")
    links = [(rng.below(i), i) for i in range(1, n_pois)]
    links += [(rng.below(n_pois), rng.below(n_pois)) for _ in range(n_pois // 2)]
    links += [(i, i) for i in range(0, n_pois, 3)]
    for u, v in links:
        modes = rng.sample(range(3), 2 + rng.below(2))
        for mode in modes:
            builder.add_edge(u, v, mode, float(100 + rng.below(900)), float(1 + rng.below(20)))
    return builder.finalize(synthetic_fare_table(seed, 3))


def _differential_cases():
    for seed in range(10):
        net = random_network(seed, n_pois=30, n_modes=3)
        yield net, random_instance(seed, net, k=3, pois_per_category=4, n_agents=4)
        yield net, draw_instance(net, seed, k=2, pois_per_category=3, n_agents=7)  # sources repeat unevenly
    islands = random_disconnected_network(seed=5, n_components=3, pois_per_component=5)
    for seed in range(10):
        yield islands, random_instance(seed, islands, k=1 + seed % 3, pois_per_category=2, n_agents=1 + seed % 3)
    # islands hold PoIs 0-4, 5-9 and 10-14
    yield islands, QueryInstance([(0, 1), (2, 3)], [[1, 4], [2, 3, 12]])  # one candidate off the island
    yield islands, QueryInstance([(0, 11)], [[1, 2], [3]])  # destination off the island
    yield islands, QueryInstance([(0, 1)], [[1, 2], [7, 8]])  # a whole later category off the island
    yield islands, QueryInstance([(0, 1), (6, 1)], [[1, 2], [3]])  # a source off the island
    # the second agent's destination is off the island, after the first one's leg was built
    yield islands, QueryInstance([(0, 1), (2, 13), (3, 4)], [[1, 2], [3, 4]])
    for seed in range(5):
        looped = _looped_network(seed)
        yield looped, random_instance(seed, looped, k=3, pois_per_category=3, n_agents=4)
        shared = random_instance(seed + 10, looped, k=2, pois_per_category=4, n_agents=5)
        yield looped, QueryInstance([(4, dest) for _, dest in shared.agents], shared.categories)  # one shared source


@pytest.mark.parametrize("sharing", [PER_PERSON, SharingMode.SHARED_INTERMEDIATE])
def test_baselines_match_their_previous_leg_code(sharing):
    outcomes = set()
    for net, inst in _differential_cases():
        for seed in range(3):
            expected = _outcome(_reference_rprm, net, inst, seed, sharing)
            assert _outcome(rprm, net, inst, seed, sharing) == expected
            expected = _outcome(_reference_rpcm, net, inst, seed, sharing)
            assert _outcome(rpcm, net, inst, seed, sharing) == expected
            outcomes.add(isinstance(expected, tuple))
        expected = _outcome(_reference_nncm, net, inst, sharing)
        assert _outcome(nncm, net, inst, sharing) == expected
        outcomes.add(isinstance(expected, tuple))
    assert outcomes == {True, False}  # both feasible and infeasible cases were compared


def test_cheapest_leg_baselines_search_each_pair_once(monkeypatch):
    import gtpmm.planner

    calls = []

    def counted_shortest_path(net, u, v):
        calls.append((u, v))
        return shortest_path(net, u, v)

    monkeypatch.setattr(gtpmm.planner, "shortest_path", counted_shortest_path)
    net = random_network(3, n_pois=60, n_modes=3)
    inst = draw_instance(net, 11, k=3, pois_per_category=5, n_agents=50)
    sources = {source for source, _ in inst.agents}
    assert len(sources) <= 5
    for run in (lambda: rpcm(net, inst, 4), lambda: nncm(net, inst)):
        calls.clear()
        common = run().common_pois
        # point to point: each source leg and each common hop, once; the destination legs come from one search
        expected = {(source, common[0]) for source in sources} | set(zip(common, common[1:]))
        assert sorted(calls) == sorted(expected)


def _fifty_agents_from_five_sources():
    net = random_network(3, n_pois=60, n_modes=3)
    inst = draw_instance(net, 11, k=3, pois_per_category=5, n_agents=50)
    sources = {source for source, _ in inst.agents}
    assert len(sources) <= 5
    return net, inst, sources


def test_rprm_builds_one_bfs_tree_per_leg_origin(monkeypatch):
    import gtpmm.baselines

    origins = []
    build_tree = gtpmm.baselines._bfs_tree

    def counted_bfs_tree(net, origin):
        origins.append(origin)
        return build_tree(net, origin)

    monkeypatch.setattr(gtpmm.baselines, "_bfs_tree", counted_bfs_tree)
    net, inst, sources = _fifty_agents_from_five_sources()
    for seed in range(5):
        origins.clear()
        rprm(net, inst, seed)
        assert len(origins) == len(set(origins)) <= len(sources) + inst.k


def test_nncm_scores_candidates_with_one_cost_search_per_origin(monkeypatch):
    import gtpmm.baselines
    import gtpmm.planner

    origins = []
    pairs = []

    def counted_shortest_costs(net, source, targets):
        origins.append(source)
        return shortest_costs(net, source, targets)

    def counted_shortest_path(net, u, v):
        pairs.append((u, v))
        return shortest_path(net, u, v)

    monkeypatch.setattr(gtpmm.baselines, "shortest_costs", counted_shortest_costs)
    monkeypatch.setattr(gtpmm.planner, "shortest_path", counted_shortest_path)
    net, inst, sources = _fifty_agents_from_five_sources()
    journey = nncm(net, inst)
    assert len(origins) == len(sources) + inst.k - 1
    common = journey.common_pois
    assembly = {(source, common[0]) for source in sources} | set(zip(common, common[1:]))
    assert sorted(pairs) == sorted(assembly)  # the greedy choice itself ran no point-to-point search


def test_cheapest_leg_baselines_run_one_destination_search_per_plan(monkeypatch):
    import gtpmm.planner

    origins = []
    pairs = []
    many_targets = gtpmm.planner.shortest_paths

    def counted_shortest_paths(net, source, targets):
        origins.append(source)
        return many_targets(net, source, targets)

    def counted_shortest_path(net, u, v):
        pairs.append((u, v))
        return shortest_path(net, u, v)

    monkeypatch.setattr(gtpmm.planner, "shortest_paths", counted_shortest_paths)
    monkeypatch.setattr(gtpmm.planner, "shortest_path", counted_shortest_path)
    net, inst, _ = _fifty_agents_from_five_sources()
    destinations = {dest for _, dest in inst.agents}
    assert len(destinations) > 1
    for seed in range(3):
        for run in (lambda: rpcm(net, inst, seed), lambda: nncm(net, inst)):
            origins.clear()
            pairs.clear()
            last = run().common_pois[-1]
            assert origins == [last]
            assert not {(last, dest) for dest in destinations} & set(pairs)

"""Determinism, validity, and dominance behavior of the reference heuristics."""

from __future__ import annotations

from collections import deque
from decimal import Decimal

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
from gtpmm.baselines import _bfs_tree, _random_common
from gtpmm.bench import draw_instance, run_method
from gtpmm.errors import InfeasibleRouteError
from gtpmm.fixtures import WALKTHROUGH_UNIT, walkthrough_poi
from gtpmm.network import (
    FarePolicy,
    FareTable,
    NetworkBuilder,
    PathResult,
    landmark_bound,
    reference_path,
    shortest_costs,
)
from gtpmm.planner import PRUNE_TIGHTNESS, JourneyPlan
from gtpmm.rng import SplitMix64
from gtpmm.synth import (
    random_disconnected_network,
    random_instance,
    random_network,
    road_network,
    synthetic_fare_table,
)

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE


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


def test_cheapest_leg_baselines_search_each_pair_once(searches):
    net = random_network(3, n_pois=60, n_modes=3)
    inst = draw_instance(net, 11, k=3, pois_per_category=5, n_agents=50)
    sources = {source for source, _ in inst.agents}
    assert len(sources) <= 5
    for run, point_to_point in ((lambda: rpcm(net, inst, 4), True), (lambda: nncm(net, inst), False)):
        searches.clear()
        common = run().common_pois
        pairs = [(search.origin, *search.targets) for search in searches if search.kind == "path"]
        # RPCM: each source leg and each common hop point to point, once; the destination legs come from one
        # search. NNCM reads its source legs and hops from the searches of its greedy choice.
        expected = {(source, common[0]) for source in sources} | set(zip(common, common[1:]))
        assert sorted(pairs) == (sorted(expected) if point_to_point else [])


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

    def counted_bfs_tree(net, origin, targets):
        origins.append(origin)
        return build_tree(net, origin, targets)

    monkeypatch.setattr(gtpmm.baselines, "_bfs_tree", counted_bfs_tree)
    net, inst, sources = _fifty_agents_from_five_sources()
    for seed in range(5):
        origins.clear()
        rprm(net, inst, seed)
        assert len(origins) == len(set(origins)) <= len(sources) + inst.k


def _full_bfs_tree(net, origin):
    """Verbatim copy of the ``_bfs_tree`` that grew the origin's whole component."""
    net.check_poi(origin)
    parent = [-1] * net.poi_count
    parent[origin] = origin
    queue = deque([origin])
    neighbors = net.cheapest_neighbors
    while queue:
        u = queue.popleft()
        for v, _ in neighbors[u]:
            if parent[v] == -1:
                parent[v] = u
                queue.append(v)
    return parent


def _walk_back(parent, origin, target):
    sequence = [target]
    while sequence[-1] != origin:
        sequence.append(parent[sequence[-1]])
    return sequence


def test_bfs_tree_with_targets_walks_the_full_trees_routes():
    nets = [random_network(seed, n_pois=30, n_modes=3, extra_edges=15) for seed in range(3)]
    nets.append(random_disconnected_network(1, n_components=3, pois_per_component=5))
    for net in nets:
        for origin in range(net.poi_count):
            full = _full_bfs_tree(net, origin)
            for targets in ([origin], [net.poi_count - 1 - origin], [0, origin // 2, net.poi_count - 1]):
                parent = _bfs_tree(net, origin, targets)
                for target in targets:
                    if full[target] == -1:
                        assert parent[target] == -1
                    else:
                        assert _walk_back(parent, origin, target) == _walk_back(full, origin, target)


def test_bfs_tree_stops_at_its_last_target():
    # the path 0 - 1 - ... - 9: from 2, the farther target 6 is discovered from 5
    builder = NetworkBuilder()
    for i in range(10):
        builder.add_poi(f"p{i}")
    for i in range(9):
        builder.add_edge(i, i + 1, 0, 1.0, 1.0)
    net = builder.finalize(synthetic_fare_table(1, 1))
    parent = _bfs_tree(net, 2, [4, 6])
    assert parent == [1, 2, 2, 2, 3, 4, 5, -1, -1, -1]
    assert _bfs_tree(net, 2, [2]) == [-1, -1, 2, -1, -1, -1, -1, -1, -1, -1]
    assert _bfs_tree(net, 2, range(10)) == _full_bfs_tree(net, 2)


def test_nncm_scores_candidates_with_one_cost_search_per_origin(searches):
    net, inst, sources = _fifty_agents_from_five_sources()
    journey = nncm(net, inst)
    common = journey.common_pois
    scoring = [search.origin for search in searches[:-1]]
    assert scoring == [*dict.fromkeys(source for source, _ in inst.agents), *common[:-1]]
    assert len(scoring) == len(sources) + inst.k - 1
    assert all(search.kind == "tree" for search in searches)  # no point-to-point search, for the choice or the legs
    assert searches[-1].origin == common[-1]  # the destination legs' search


def test_cheapest_leg_baselines_run_one_destination_search_per_plan(searches):
    net, inst, _ = _fifty_agents_from_five_sources()
    destinations = {dest for _, dest in inst.agents}
    assert len(destinations) > 1
    for seed in range(3):
        for run in (lambda: rpcm(net, inst, seed), lambda: nncm(net, inst)):
            searches.clear()
            last = run().common_pois[-1]
            from_last = [search for search in searches if search.origin == last]
            assert len(from_last) == 1 and from_last[0].kind == "tree"
            assert destinations <= set(from_last[0].targets)


# --- bound-ordered NNCM pricing against the per-origin scoring it replaced -------
#
# ``_reference_nncm`` above scores every candidate by point-to-point searches,
# as NNCM did before it priced candidates in landmark lower-bound order.

# Ties everywhere: M0 is free, and M1 and M2 have equal fares.
TIED_FARES = FareTable.from_pairs(
    [
        ("M0", FarePolicy(0, Decimal(0), Decimal(0))),
        ("M1", FarePolicy(100, Decimal("0.5"), Decimal(0))),
        ("M2", FarePolicy(100, Decimal("0.5"), Decimal(0))),
    ]
)
ZERO_FARES = FareTable.from_pairs([(f"M{mode}", FarePolicy(0, Decimal(0), Decimal(0))) for mode in range(3)])


def _exact_bounds(net):
    """``net``, taking its landmark bounds for exact (tightness 1), so that
    the gate is open however loose the bounds are."""
    net.__dict__["landmark_tightness"] = 1.0  # the cached view, set ahead of its first use
    return net


@pytest.fixture
def nncm_picks(monkeypatch):
    """How NNCM picked each category's PoI, ``"bound"`` or ``"search"``, in order."""
    import gtpmm.baselines

    picks = []
    for name, kind in (("_nearest_by_bound", "bound"), ("_nearest_by_search", "search")):

        def spy(*args, _pick=getattr(gtpmm.baselines, name), _kind=kind):
            picks.append(_kind)
            return _pick(*args)

        monkeypatch.setattr(gtpmm.baselines, name, spy)
    return picks


def _road_nncm_cases(fare_table=None, jitter=0.4):
    for seed in range(4):
        net = _exact_bounds(road_network(seed, 6 + seed, jitter=jitter, fare_table=fare_table))
        for agents in (1, 2, 4, 9):
            yield net, draw_instance(net, seed + agents, 3, 4, agents)  # sources repeat
            yield net, random_instance(seed + agents, net, 2, 5, agents)
            yield net, random_instance(seed + agents, net, 3, 6, agents)
        spread = random_instance(seed, net, 3, 4, 5)
        yield net, QueryInstance([(spread.agents[0][0], dest) for _, dest in spread.agents], spread.categories)


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
@pytest.mark.parametrize(
    "fares, jitter",
    [(None, 0.4), (ZERO_FARES, 0.4), (TIED_FARES, 0.0), (None, 0.0)],
)
def test_bound_ordered_nncm_matches_its_reference_on_road_networks(fares, jitter, sharing, nncm_picks):
    for net, inst in _road_nncm_cases(fares, jitter):
        nncm_picks.clear()
        assert nncm(net, inst, sharing) == _reference_nncm(net, inst, sharing)  # PoIs, legs, modes, total
        assert nncm_picks == ["bound"] * inst.k


@pytest.mark.parametrize("fares", [None, ZERO_FARES])
def test_bound_ordered_nncm_prices_a_candidate_that_is_an_origin(fares, nncm_picks):
    net = _exact_bounds(road_network(2, 7, fare_table=fares))
    cases = [
        # one source, in the first category; the pick again in the second
        (QueryInstance([(3, 40), (3, 41)], [[3, 20, 30], [3, 10, 45]]), (3, 3)),
        # two sources, both in the first category; the one with more agents wins
        (QueryInstance([(17, 40), (17, 41), (3, 2)], [[3, 17, 25], [17, 26], [4, 26]]), (17, 17)),
    ]
    for inst, picks in cases:
        for sharing in (PER_PERSON, SHARED):
            nncm_picks.clear()
            journey = nncm(net, inst, sharing)
            assert journey == _reference_nncm(net, inst, sharing)
            assert nncm_picks == ["bound"] * inst.k
            if fares is None:
                assert journey.common_pois[:2] == picks
            else:
                assert journey.common_pois == tuple(min(cat) for cat in inst.categories)  # all tie at 0


def test_bound_ordered_nncm_prices_a_tie_whose_bound_is_exact(nncm_picks):
    # From the second pick, 47, candidates 26 and 32 both cost 642; 32's bound is lower, 26's is exact.
    net = road_network(0, 7, jitter=0.0)
    inst = QueryInstance([(6, 44), (6, 7)], [[9, 16, 28, 33, 34, 44], [12, 19, 37, 42, 45, 47], [5, 8, 26, 27, 32, 43]])
    bound = landmark_bound(net, [47, 26, 32])
    assert shortest_costs(net, 47, [26, 32]) == {26: 642, 32: 642}
    assert bound(47, 32) < bound(47, 26) == 642
    for sharing in (PER_PERSON, SHARED):
        nncm_picks.clear()
        journey = nncm(net, inst, sharing)
        assert journey.common_pois == (34, 47, 26)
        assert journey == _reference_nncm(net, inst, sharing)
        assert nncm_picks == ["bound"] * 3


def test_bound_ordered_nncm_falls_back_on_disconnected_networks(nncm_picks):
    islands = _exact_bounds(random_disconnected_network(seed=5, n_components=3, pois_per_component=5))
    # islands hold PoIs 0-4, 5-9 and 10-14; each island's landmark row misses the other two
    cases = [
        QueryInstance([(0, 1), (2, 3)], [[1, 4], [2, 3]]),  # all on one island
        QueryInstance([(0, 11)], [[1, 2], [3]]),  # destination off the island
        QueryInstance([(0, 1), (6, 1)], [[1, 2], [3]]),  # a source off the island
        QueryInstance([(0, 1)], [[1, 2], [7, 8]]),  # a whole later category off the island
        QueryInstance([(0, 1), (2, 3)], [[1, 4], [2, 3, 12]]),  # one candidate off the island
    ]
    for inst in cases:
        for sharing in (PER_PERSON, SHARED):
            nncm_picks.clear()
            assert _outcome(nncm, islands, inst, sharing) == _outcome(_reference_nncm, islands, inst, sharing)
            assert nncm_picks and set(nncm_picks) == {"search"}


def test_bound_ordered_nncm_prices_few_candidates_and_reuses_their_legs(searches, monkeypatch):
    import gtpmm.baselines

    assemble = gtpmm.baselines.assemble

    def marked_assemble(*args):
        searches.append("assemble")  # marks the plan's assembly among the searches
        return assemble(*args)

    monkeypatch.setattr(gtpmm.baselines, "assemble", marked_assemble)
    net = road_network(1, 30)
    assert net.landmark_tightness >= PRUNE_TIGHTNESS  # the gate is open on its own
    inst = draw_instance(net, 11, k=5, pois_per_category=10, n_agents=50)
    sources = {source for source, _ in inst.agents}
    journey = nncm(net, inst)
    assert journey == _reference_nncm(net, inst)

    split = searches.index("assemble")
    *pricing, fill = searches[:split]
    common = journey.common_pois
    assert fill.origin == common[-1]  # the destination legs' search
    assert all(search.kind == "tree" for search in pricing)
    assert len(pricing) < len(sources) + inst.k - 1  # the per-origin scoring's count
    assert {(a, (b,)) for a, b in zip(common, common[1:])} <= {search[1:3] for search in pricing}  # hops priced as legs
    assert searches[split + 1 :] == []  # source legs read back from the first pick's search, hops from theirs

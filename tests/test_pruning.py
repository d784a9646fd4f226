"""Bound-pruned planning: plan() against the unpruned DP, the oracle, and its fallbacks.

``plan()`` drops the category PoIs whose landmark lower bound exceeds the
exact cost of one chain, on networks that pass the
``PRUNE_TIGHTNESS`` gate. These tests hold it to the DP over every PoI,
with the same plans, totals, per-leg modes and tie-breaks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import (
    InfeasibleRouteError,
    InternalConsistencyError,
    QueryInstance,
    SharingMode,
    brute_force_optimal,
    compute_dp,
    group_cost,
    plan,
)
from gtpmm import planner
from gtpmm.bench import draw_instance
from gtpmm.network import PRUNE_TIGHTNESS, TIGHTNESS_LANDMARKS, FarePolicy, FareTable, landmark_bound, reference_path
from gtpmm.planner import Legs, _chain_bounds, _first_unreachable, _prune, _summed_bounds, assemble, reconstruct
from gtpmm.synth import random_disconnected_network, random_instance, random_network, road_network

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE

# Ties everywhere: M0 is free, and M1 and M2 have equal fares, so each link
# carrying both ties between them.
TIED_FARES = FareTable.from_pairs(
    [
        ("M0", FarePolicy(0, Decimal(0), Decimal(0))),
        ("M1", FarePolicy(100, Decimal("0.5"), Decimal(0))),
        ("M2", FarePolicy(100, Decimal("0.5"), Decimal(0))),
    ]
)
ZERO_FARES = FareTable.from_pairs([(f"M{mode}", FarePolicy(0, Decimal(0), Decimal(0))) for mode in range(3)])


def exact_bounds(net):
    """``net``, taking its landmark bounds for exact (tightness 1): the gate
    is open, and plan() prices a chain whenever some PoI's bound exceeds
    the least chain bound, however loose the bounds are."""
    net.__dict__["landmark_tightness"] = 1.0  # the cached view, set ahead of its first use
    return net


def destination_costs(net, inst, table):
    """The cost of every reachable (last-category PoI, destination) pair,
    searched by a fresh :class:`Legs`, apart from the trees ``compute_dp``
    kept in ``table.legs``."""
    return Legs().costs(net, tuple(table.cost[-1]), tuple(dict.fromkeys(dest for _, dest in inst.agents)))


def unpruned_plan(net, inst, sharing):
    """``compute_dp`` over every PoI, then the argmin over every reached
    last-category PoI and the plan assembly of ``plan()``: the planner as it
    ran before it pruned. The table's own winner must be that argmin."""
    table = compute_dp(net, inst, sharing)
    to_destinations = destination_costs(net, inst, table)
    best_total = None
    best_last = None
    for j in inst.categories[-1]:
        if j not in table.cost[inst.k - 1]:
            continue
        total = table.cost[inst.k - 1][j]
        feasible = True
        for _, dest in inst.agents:
            cost = to_destinations.get((j, dest))
            if cost is None:
                feasible = False
                break
            total += cost
        if feasible and (best_total is None or total < best_total):
            best_total = total
            best_last = j
    assert table.best == (None if best_last is None else (best_total, best_last))
    if best_last is None:
        raise InfeasibleRouteError(*_first_unreachable(net, inst))
    common = reconstruct(table, best_last)
    table.legs.fill(net, common[-1], [dest for _, dest in inst.agents])
    journey = assemble(net, inst, common, sharing, table.leg)
    if best_total != journey.total_cost:
        raise InternalConsistencyError(f"DP total {best_total} != leg total {journey.total_cost}")
    return journey


def outcome(fn, *args):
    """The result, or the pair named by the InfeasibleRouteError raised instead."""
    try:
        return fn(*args)
    except InfeasibleRouteError as failure:
        return ("infeasible", failure.pair)


@pytest.fixture
def dp_queries(monkeypatch):
    """The instances ``plan()`` hands to ``compute_dp``, in call order."""
    queries = []
    original = planner.compute_dp

    def spy(net, inst, sharing, **kwargs):
        queries.append(inst)
        return original(net, inst, sharing, **kwargs)

    monkeypatch.setattr(planner, "compute_dp", spy)
    return queries


def overlapping(inst):
    """``inst`` with its second category sharing PoIs with the first."""
    cats = inst.categories
    return QueryInstance(inst.agents, [cats[0], cats[0][1:] + cats[1][:2], *cats[2:]])


def road_cases(fare_table=None, jitter=0.4):
    for seed in range(4):
        net = road_network(seed, 7 + seed, jitter=jitter, fare_table=fare_table)
        for agents in (1, 3, 9):
            yield net, draw_instance(net, seed + agents, 3, 4, agents)
            yield net, random_instance(seed + agents, net, 2, 5, agents)
        yield net, overlapping(random_instance(seed, net, 3, 4, 5))
        yield net, random_instance(seed, net, 1, 6, 4)


def assert_pruned_plans_match(cases, sharing, dp_queries):
    """plan() equals the unpruned planner on every case; returns how many
    cases ran the DP over fewer PoIs than the query has."""
    pruned = 0
    for net, inst in cases:
        dp_queries.clear()
        journey = plan(net, inst, sharing)
        assert journey == unpruned_plan(net, inst, sharing)  # common PoIs, legs, modes, total
        (query,) = dp_queries
        assert query.agents == inst.agents
        assert all(set(kept) <= set(full) for kept, full in zip(query.categories, inst.categories))
        assert all(poi in kept for poi, kept in zip(journey.common_pois, query.categories))
        pruned += query.categories != inst.categories
    return pruned


# --- the gate ----------------------------------------------------------------------


def test_road_networks_pass_the_gate_and_random_ones_do_not():
    for seed in range(4):
        for side in (5, 12, 30):
            assert road_network(seed, side).landmark_tightness >= PRUNE_TIGHTNESS
    for pois in (200, 2000):
        assert random_network(1, pois, 3).landmark_tightness < PRUNE_TIGHTNESS
    assert random_disconnected_network(5, 3, 5).landmark_tightness == 0.0  # bounds across components bound nothing


def test_tightness_is_the_share_of_exact_costs_the_other_landmarks_bound():
    net = road_network(2, 6)
    rows = net.landmarks[:TIGHTNESS_LANDMARKS]  # the gate reads the first landmarks only
    bound = exact = 0
    for row in rows:
        landmark = list(row).index(0)
        for poi in range(net.poi_count):
            exact += reference_path(net, landmark, poi).cost
            bound += max(abs(other[landmark] - other[poi]) for other in rows if other is not row)
    assert len(rows) == TIGHTNESS_LANDMARKS < len(net.landmarks)
    assert net.landmark_tightness == bound / exact


# --- differential: pruned plan() against the DP over every PoI ---------------------


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
def test_pruned_plan_matches_the_unpruned_dp_on_road_networks(sharing, dp_queries):
    cases = list(road_cases())
    assert all(net.landmark_tightness >= PRUNE_TIGHTNESS for net, _ in cases)  # the gate is on
    assert assert_pruned_plans_match(cases, sharing, dp_queries) >= len(cases) // 2


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
@pytest.mark.parametrize(
    "fares, jitter",
    [(ZERO_FARES, 0.4), (TIED_FARES, 0.0), (TIED_FARES, 0.4), (None, 0.0)],
    ids=["zero-fares", "tied-modes-unjittered", "tied-modes", "unjittered"],
)
def test_pruned_plan_keeps_every_tie_break(fares, jitter, sharing, dp_queries):
    cases = [(exact_bounds(net), inst) for net, inst in road_cases(fares, jitter)]
    pruned = assert_pruned_plans_match(cases, sharing, dp_queries)
    if fares is ZERO_FARES:
        assert pruned == 0  # every bound is 0: nothing is priced, all PoIs stay, and the lowest ids win
    else:
        assert pruned > 0


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
def test_pruned_plan_matches_the_oracle_on_small_road_networks(sharing):
    for seed in range(8):
        net = exact_bounds(road_network(seed, 4 + seed % 3, fare_table=TIED_FARES if seed % 2 else None))
        inst = random_instance(seed, net, 1 + seed % 3, 3, 1 + seed % 4)
        journey = plan(net, inst, sharing)
        _, best = brute_force_optimal(net, inst, sharing)
        assert journey.total_cost == best == group_cost(net, inst, journey.common_pois, sharing)


def test_every_poi_of_every_optimal_chain_is_kept():
    """Pruning is on strict ``>``: a PoI whose bound equals the threshold
    stays, so any optimal chain, tie winners included, survives whole."""
    ties = 0
    for seed, fares, sharing in itertools.product(range(6), (TIED_FARES, ZERO_FARES, None), (PER_PERSON, SHARED)):
        net = exact_bounds(road_network(seed, 5, jitter=0.0, fare_table=fares))
        inst = random_instance(seed, net, 3, 3, 4)
        cost = {}

        def leg(u, v):
            if (u, v) not in cost:
                cost[(u, v)] = reference_path(net, u, v).cost
            return cost[(u, v)]

        m = sharing.intermediate_multiplier(inst.n_agents)
        totals = {
            chain: sum(leg(s, chain[0]) for s, _ in inst.agents)
            + m * sum(leg(a, b) for a, b in zip(chain, chain[1:]))
            + sum(leg(chain[-1], d) for _, d in inst.agents)
            for chain in itertools.product(*inst.categories)
        }
        best = min(totals.values())
        optimal = [chain for chain, total in totals.items() if total == best]
        pruned, _ = _prune(net, inst, sharing, Legs())
        if pruned is None:
            continue  # no bound stood out from the least: nothing was priced or dropped
        ties += len(optimal) > 1
        for chain in optimal:
            assert all(poi in kept for poi, kept in zip(chain, pruned.categories))
    assert ties > 0  # some pruned queries had several optimal chains


# --- the bound helpers ----------------------------------------------------------


@st.composite
def bound_cases(draw):
    """Up to 8 PoIs with 1-3 landmark-like rows, a pair bound read from them
    as :func:`~gtpmm.network.landmark_bound` reads its rows, 1-4 possibly
    overlapping categories, endpoint counts at both ends, and ``m`` of 1 or 3."""
    n = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.lists(st.integers(0, 50), min_size=n, max_size=n), min_size=1, max_size=3))

    def bound(a, b):
        return max(abs(row[a] - row[b]) for row in rows)

    poi = st.integers(0, n - 1)
    categories = draw(st.lists(st.lists(poi, min_size=1, max_size=4, unique=True), min_size=1, max_size=4))
    ends = [Counter(draw(st.lists(poi, min_size=1, max_size=5))) for _ in range(2)]
    return bound, categories, ends, draw(st.sampled_from([1, 3]))


@settings(max_examples=200, deadline=None)
@given(case=bound_cases())
def test_chain_bounds_are_the_least_bound_of_every_chain_part(case):
    """Forwards, row ``c`` holds each PoI's least bound over every chain part
    from category 0 up to it; on reversed categories, over every part from
    it to the last category, with each hop bounded in travel order."""
    bound, categories, (sources, destinations), m = case
    first = _summed_bounds(bound, sources, categories[0])
    last = _summed_bounds(bound, destinations, categories[-1])
    prefix = _chain_bounds(first, categories, m, bound)
    suffix = _chain_bounds(last, categories[::-1], m, bound)[::-1]
    assert [list(row) for row in prefix] == [list(row) for row in suffix] == categories
    for c, category in enumerate(categories):
        for j in category:
            assert prefix[c][j] == min(
                first[part[0]] + m * sum(bound(a, b) for a, b in zip(part, part[1:]))
                for part in itertools.product(*categories[:c], [j])
            )
            assert suffix[c][j] == min(
                m * sum(bound(a, b) for a, b in zip(part, part[1:])) + last[part[-1]]
                for part in itertools.product([j], *categories[c + 1 :])
            )


def test_summed_bounds_are_the_hand_sum_at_either_end():
    net = road_network(2, 6)
    inst = draw_instance(net, 2, 2, 3, 7)  # endpoints drawn from pools of 3: some repeat
    bound = landmark_bound(net, inst.referenced_pois())
    assert bound is not None  # a road network passes the gate
    sources = Counter(source for source, _ in inst.agents)
    destinations = Counter(dest for _, dest in inst.agents)
    assert max(sources.values()) > 1 and max(destinations.values()) > 1  # counts weigh the sums
    for pois in inst.categories:
        to_sources = _summed_bounds(bound, sources, pois)
        to_destinations = _summed_bounds(bound, destinations, pois)
        assert list(to_sources) == list(to_destinations) == list(pois)
        for j in pois:
            assert to_sources[j] == sum(bound(s, j) for s, _ in inst.agents)
            assert to_destinations[j] == sum(bound(j, d) for _, d in inst.agents)


def test_threshold_chain_endpoint_searches_serve_the_dp(searches):
    """The priced chain's two endpoint searches are not run again: the DP
    searches only the other kept PoIs' endpoint legs."""
    net = exact_bounds(road_network(1, 9))
    inst = random_instance(4, net, 3, 5, 9)  # more distinct endpoints than PoIs: one search per PoI
    legs = Legs()
    query, _ = _prune(net, inst, PER_PERSON, legs)
    first, last = searches[0].origin, searches[1].origin  # the chain's endpoint searches, then one per hop
    assert [search.kind for search in searches] == ["tree"] * (inst.k + 1)
    searches.clear()
    table = compute_dp(net, query, PER_PERSON, legs=legs)
    dp = list(searches)
    trees = [search.origin for search in dp if search.kind == "tree"]
    assert first not in trees and last not in trees
    assert len(trees) == len(query.categories[0]) - 1 + len(query.categories[-1]) - 1
    full = compute_dp(net, query, PER_PERSON)
    assert (table.cost, table.parent) == (full.cost, full.parent)
    assert destination_costs(net, query, table) == destination_costs(net, query, full)
    assert len(dp) == sum(full.legs.searches.values()) - 2
    assert legs.searches == Counter({"tree": inst.k + 1}) + Counter(search.kind for search in dp)


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
def test_pruned_plans_count_the_searches_they_ran(sharing, searches, monkeypatch):
    """On pruned road plans the table's ``legs.searches`` counts, kind by
    kind, the tree and layer searches run up to the end of ``compute_dp``:
    the pricing searches and the DP's. A round trip of one
    category prices its chain with one search, as the search from the
    chain's one PoI to the sources reaches the destinations too."""
    counts = []  # the table's search count as compute_dp returns it
    compute_dp = planner.compute_dp

    def marked(*args, **kwargs):
        searches.append("dp")  # marks the start of the DP's searches
        table = compute_dp(*args, **kwargs)
        searches.append("dp")  # and their end
        counts.append(Counter(table.legs.searches))
        return table

    monkeypatch.setattr(planner, "compute_dp", marked)
    cases = [*road_cases(), *road_cases(TIED_FARES, 0.0)]
    round_trips = [(net, QueryInstance([(s, s) for s, _ in inst.agents], inst.categories)) for net, inst in cases]
    cases += [(net, inst) for net, inst in round_trips if inst.k == 1]
    pruned = fewer = 0
    for net, inst in cases:
        searches.clear()
        plan(net, inst, sharing)
        start, end = [index for index, search in enumerate(searches) if search == "dp"]
        assert {search.kind for search in searches[:end] if search != "dp"} <= {"tree", "layer"}
        assert sum(counts[-1].values()) == end - 1
        assert counts[-1] == Counter(search.kind for search in searches[:end] if search != "dp")
        pruned += start > 0
        fewer += 0 < start < inst.k + 1  # fewer pricing searches than the chain has endpoints and hops
    assert pruned >= len(cases) // 2
    assert fewer > 0


# --- fallbacks ----------------------------------------------------------------------


def _gate_off_case(pois, k, p, agents):
    net = random_network(1, pois, 3)
    assert net.landmark_tightness < PRUNE_TIGHTNESS
    return net, draw_instance(net, 7, k, p, agents)


def _nothing_stands_out_case():
    net = exact_bounds(road_network(0, 8, fare_table=ZERO_FARES))  # the gate is open, and every bound is 0
    return net, draw_instance(net, 3, 3, 4, 6)


@pytest.mark.parametrize(
    "make_case",
    [lambda: _gate_off_case(200, 3, 5, 5), lambda: _gate_off_case(2000, 2, 8, 12), _nothing_stands_out_case],
    ids=["gate-off-200", "gate-off-2000", "no-bound-stands-out"],
)
def test_unpruned_queries_run_exactly_the_dp_searches(make_case, monkeypatch, dp_queries, searches):
    """With the gate off, or when no PoI's bound stands out, the pruning
    declines before any search, and plan() runs the searches of compute_dp
    over every PoI and no other cost search; only point-to-point and
    destination legs follow."""
    net, inst = make_case()
    pruner = []
    prune = planner._prune
    monkeypatch.setattr(planner, "_prune", lambda *args: pruner.append(prune(*args)) or pruner[-1])
    table = compute_dp(net, inst, PER_PERSON)
    expected = list(searches)
    searches.clear()
    spy = planner.compute_dp

    def marked(*args, **kwargs):
        searches.append("dp")
        result = spy(*args, **kwargs)
        searches.append("dp")
        return result

    monkeypatch.setattr(planner, "compute_dp", marked)
    last = plan(net, inst, PER_PERSON).common_pois[-1]
    start, end = [index for index, search in enumerate(searches) if search == "dp"]
    assert dp_queries == [inst]
    assert searches[:start] == []  # no pricing search
    assert searches[start + 1 : end] == expected
    assert len(expected) == sum(table.legs.searches.values())
    assert table.legs.searches == Counter(search.kind for search in expected)
    assert all(search.kind == "path" or search.origin == last for search in searches[end + 1 :])
    assert [query for query, _ in pruner] == [None]


def test_disconnected_networks_fall_back_to_the_unpruned_dp(dp_queries):
    islands = exact_bounds(random_disconnected_network(seed=5, n_components=3, pois_per_component=5))  # PoIs 0-4, 5-9, 10-14
    cases = [
        QueryInstance([(0, 11)], [[1, 2], [3]]),  # destination off the island
        QueryInstance([(0, 1), (6, 1)], [[1, 2], [3]]),  # a source off the island
        QueryInstance([(0, 1)], [[1, 2], [7, 8]]),  # a whole later category off the island
        QueryInstance([(0, 1), (2, 3), (4, 0)], [[1, 12], [2, 3], [3, 4, 13]]),
        QueryInstance([(0, 3), (1, 4)], [[1, 2], [2, 4, 3]]),  # all on one island; the other landmarks split it off
    ]
    for sharing in (PER_PERSON, SHARED):
        for inst in cases:
            assert _prune(islands, inst, sharing, Legs()) == (None, None)
            dp_queries.clear()
            result = outcome(plan, islands, inst, sharing)
            assert dp_queries == [inst]  # the DP ran over every PoI
            assert result == outcome(unpruned_plan, islands, inst, sharing)
            if not isinstance(result, tuple):
                continue
            assert result[1] == _first_unreachable(islands, inst)
    assert outcome(plan, islands, cases[0], PER_PERSON) == ("infeasible", (3, 11))

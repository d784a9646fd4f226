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

from gtpmm import (
    InfeasibleRouteError,
    InternalConsistencyError,
    QueryInstance,
    SharingMode,
    brute_force_optimal,
    compute_dp,
    group_cost,
    plan,
    reconstruct,
)
from gtpmm import planner
from gtpmm.bench import draw_instance
from gtpmm.network import FarePolicy, FareTable, reference_path
from gtpmm.planner import _first_unreachable, _prune, assemble
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


def unpruned_plan(net, inst, sharing):
    """``compute_dp`` over every PoI, then the argmin and plan assembly of
    ``plan()``: the planner as it ran before it pruned."""
    table = compute_dp(net, inst, sharing)
    best_total = None
    best_last = None
    for j in inst.categories[-1]:
        if j not in table.cost[inst.k - 1]:
            continue
        total = table.cost[inst.k - 1][j]
        feasible = True
        for _, dest in inst.agents:
            cost = table.distances.get((j, dest))
            if cost is None:
                feasible = False
                break
            total += cost
        if feasible and (best_total is None or total < best_total):
            best_total = total
            best_last = j
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
            assert road_network(seed, side).landmark_tightness >= planner.PRUNE_TIGHTNESS
    for pois in (200, 2000):
        assert random_network(1, pois, 3).landmark_tightness < planner.PRUNE_TIGHTNESS
    assert random_disconnected_network(5, 3, 5).landmark_tightness == 0.0  # bounds across components bound nothing


def test_tightness_is_the_share_of_exact_costs_the_other_landmarks_bound():
    net = road_network(2, 6)
    rows = net.landmarks
    bound = exact = 0
    for row in rows:
        landmark = list(row).index(0)
        for poi in range(net.poi_count):
            exact += reference_path(net, landmark, poi).cost
            bound += max(abs(other[landmark] - other[poi]) for other in rows if other is not row)
    assert len(rows) > 1
    assert net.landmark_tightness == bound / exact


# --- differential: pruned plan() against the DP over every PoI ---------------------


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
def test_pruned_plan_matches_the_unpruned_dp_on_road_networks(sharing, dp_queries):
    cases = list(road_cases())
    assert all(net.landmark_tightness >= planner.PRUNE_TIGHTNESS for net, _ in cases)  # the gate is on
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
        pruned = _prune(net, inst, sharing)
        if pruned is None:
            continue  # no bound stood out from the least: nothing was priced or dropped
        ties += len(optimal) > 1
        for chain in optimal:
            assert all(poi in kept for poi, kept in zip(chain, pruned[0].categories))
    assert ties > 0  # some pruned queries had several optimal chains


def test_threshold_chain_endpoint_searches_serve_the_dp(monkeypatch):
    """The priced chain's two endpoint searches are not run again: the DP
    searches only the other kept PoIs' endpoint legs."""
    searches = Counter()
    original = planner.shortest_costs

    def counted(net, source, targets):
        searches[source] += 1
        return original(net, source, targets)

    monkeypatch.setattr(planner, "shortest_costs", counted)
    net = exact_bounds(road_network(1, 9))
    inst = random_instance(4, net, 3, 5, 9)  # more distinct endpoints than PoIs: one search per PoI
    query, from_first, to_last = _prune(net, inst, PER_PERSON)
    (first,), (last,) = from_first, to_last
    searches.clear()
    table = compute_dp(net, query, PER_PERSON, _searched=(from_first, to_last))
    assert searches[first] == 0 and searches[last] == 0
    assert sum(searches.values()) == len(query.categories[0]) - 1 + len(query.categories[-1]) - 1
    full = compute_dp(net, query, PER_PERSON)
    assert (table.cost, table.parent, table.distances) == (full.cost, full.parent, full.distances)
    assert table.searches == full.searches - 2


# --- fallbacks ----------------------------------------------------------------------


def _gate_off_case(pois, k, p, agents):
    net = random_network(1, pois, 3)
    assert net.landmark_tightness < planner.PRUNE_TIGHTNESS
    return net, draw_instance(net, 7, k, p, agents)


def _nothing_stands_out_case():
    net = exact_bounds(road_network(0, 8, fare_table=ZERO_FARES))  # the gate is open, and every bound is 0
    return net, draw_instance(net, 3, 3, 4, 6)


@pytest.mark.parametrize(
    "make_case, pruner_calls",
    [
        (lambda: _gate_off_case(200, 3, 5, 5), 0),
        (lambda: _gate_off_case(2000, 2, 8, 12), 0),
        (_nothing_stands_out_case, 1),
    ],
    ids=["gate-off-200", "gate-off-2000", "no-bound-stands-out"],
)
def test_unpruned_queries_run_exactly_the_dp_searches(make_case, pruner_calls, monkeypatch, dp_queries):
    """With the gate off, or when no PoI's bound stands out, plan() runs
    the searches of compute_dp over every PoI and no other cost search."""
    net, inst = make_case()
    calls = []
    original = planner.layer_costs

    def counted(net, starts, weight, targets):
        calls.append((dict(starts), weight, tuple(targets)))
        return original(net, starts, weight, targets)

    monkeypatch.setattr(planner, "layer_costs", counted)
    monkeypatch.setattr("gtpmm.network.layer_costs", counted)  # shortest_costs searches through it
    pruner = []
    prune = planner._prune
    monkeypatch.setattr(planner, "_prune", lambda *args: pruner.append(args) or prune(*args))
    table = compute_dp(net, inst, PER_PERSON)
    expected = list(calls)
    calls.clear()
    plan(net, inst, PER_PERSON)
    assert dp_queries == [inst]
    assert calls == expected
    assert len(calls) == table.searches
    assert len(pruner) == pruner_calls


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
            assert _prune(islands, inst, sharing) is None
            dp_queries.clear()
            result = outcome(plan, islands, inst, sharing)
            assert dp_queries == [inst]  # the DP ran over every PoI
            assert result == outcome(unpruned_plan, islands, inst, sharing)
            if not isinstance(result, tuple):
                continue
            assert result[1] == _first_unreachable(islands, inst)
    assert outcome(plan, islands, cases[0], PER_PERSON) == ("infeasible", (3, 11))

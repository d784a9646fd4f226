"""Searches that aim their landmark bounds at one target at a time.

Past the landmark gate, ``shortest_paths`` aims its bounds at each target
in turn over one search state, and hands the targets left to one group
once its re-keying outgrows the PoIs it reached. These tests hold it to a
verbatim copy of the search that aimed at every target at once and to
``reference_path``, pin the order the targets are aimed at, and pin when
a tree reads a path back: just when every PoI on it has one neighbour
that ends a cheapest path to it, by a plain Dijkstra's costs. The goal
order and ``landmark_bound`` are held to verbatim copies of the forms that
read the landmark rows in two loops of their own.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from functools import lru_cache
from heapq import heappop, heappush
from operator import sub
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtpmm.network
from gtpmm.errors import ConfigurationError
from gtpmm.network import (
    PRUNE_TIGHTNESS,
    FarePolicy,
    FareTable,
    Money,
    NetworkBuilder,
    Poi,
    _goal_order,
    _landmark_bounds,
    landmark_bound,
    reference_path,
    shortest_paths,
)
from gtpmm.synth import random_disconnected_network, random_network, road_network
from test_pruning import TIED_FARES, ZERO_FARES
from test_search_trees import ParentSearchTree


def one_group_shortest_paths(net, source, targets):
    """Verbatim copy of ``shortest_paths`` that aimed its bounds at every target at once."""
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    wanted = frozenset(remaining)

    # Per-search state in flat lists indexed by PoI id: tentative cost (None
    # until reached), predecessor and settled mark; and the PoIs offered an
    # equal cost by a second predecessor.
    dist: list[Money | None] = [None] * net.poi_count
    pred = [-1] * net.poi_count
    settled = [False] * net.poi_count
    tied: set[int] = set()
    dist[source] = 0
    neighbors = net.cheapest_neighbors
    # Two copies of one loop, so that a search without bounds pays nothing for them at each push.
    bounds = _landmark_bounds(net, (source,), remaining)
    if bounds is None:
        heap: list[tuple[Money, int]] = [(0, source)]
        while heap and remaining:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            remaining.discard(u)
            if not remaining:
                break
            for v, cost in neighbors[u]:
                if settled[v]:
                    continue
                candidate = d + cost
                known = dist[v]
                if known is None or candidate < known:
                    dist[v] = candidate
                    pred[v] = u
                    heappush(heap, (candidate, v))
                elif candidate == known:
                    tied.add(v)
                    if u < pred[v]:
                        pred[v] = u
    else:
        row1, lo1, hi1, row2, lo2, hi2 = bounds
        bounded: list[tuple[Money, Money, int]] = [(0, 0, source)]
        while bounded and remaining:
            _, d, u = heappop(bounded)
            if settled[u]:
                continue
            settled[u] = True
            remaining.discard(u)
            if not remaining:
                break
            for v, cost in neighbors[u]:
                if settled[v]:
                    continue
                candidate = d + cost
                known = dist[v]
                if known is None or candidate < known:
                    dist[v] = candidate
                    pred[v] = u
                    x, y = row1[v], row2[v]  # f = g + h(v), inlined: this block runs once per push
                    h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                    h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                    heappush(bounded, (candidate + (h1 if h1 > h2 else h2), candidate, v))
                elif candidate == known:
                    tied.add(v)
                    if u < pred[v]:
                        pred[v] = u

    costs = {target: dist[target] for target in wanted if settled[target]}
    return ParentSearchTree(net, source, wanted, costs, pred, tied)


FARES = {"synthetic": None, "tied": TIED_FARES, "zero": ZERO_FARES}


@lru_cache(maxsize=None)
def base_network(seed, side, fares, jitter):
    return road_network(seed, side, jitter=jitter, fare_table=FARES[fares])


@st.composite
def road_searches(draw):
    """A road network, at times with an island PoI that no edge reaches and
    at times taken for exact (the gate open on a disconnected network or
    on free hops alone), a source and 1-6 targets, the source among them
    at times."""
    net = base_network(
        draw(st.integers(0, 3)),
        draw(st.integers(3, 8)),
        draw(st.sampled_from(sorted(FARES))),
        draw(st.sampled_from([0.0, 0.4])),
    )
    if draw(st.booleans()):
        net = replace(net, pois=net.pois + (Poi("island"),))
    else:
        net = replace(net)  # a copy, so that taking it for exact below leaves the cached network alone
    if draw(st.booleans()):
        net.__dict__["landmark_tightness"] = 1.0  # the cached view, set ahead of its first use
    poi = st.integers(0, net.poi_count - 1)
    source = draw(poi)
    targets = draw(st.lists(poi, min_size=1, max_size=6))
    if draw(st.booleans()):
        targets.append(source)
    return net, source, targets


def exact_costs(net, source):
    """Cost from ``source`` to every PoI it reaches, by a plain Dijkstra."""
    costs, heap = {}, [(0, source)]
    while heap:
        d, u = heappop(heap)
        if u not in costs:
            costs[u] = d
            for v, cost in net.cheapest_neighbors[u]:
                heappush(heap, (d + cost, v))
    return costs


def assert_read_back_just_on_one_cheapest_path(net, tree):
    """On a network with no free hop, ``path_from`` declines a reached
    target's path just when some PoI on it has two neighbours that end a
    cheapest path to it; on one with a free hop it declines every path."""
    exact = exact_costs(net, tree.source)

    def ends(v):
        return [u for u, cost in net.cheapest_neighbors[v] if u in exact and exact[u] + cost == exact[v]]

    for target in tree:
        declined = net.has_free_hop or any(len(ends(v)) >= 2 for v in tree[target].poi_sequence)
        assert (tree.path_from(target) is None) == declined


@settings(max_examples=400, deadline=None)
@given(case=road_searches())
def test_goal_groups_find_the_one_group_trees_and_the_reference_paths(case):
    net, source, targets = case
    tree, old = shortest_paths(net, source, targets), one_group_shortest_paths(net, source, targets)
    assert_read_back_just_on_one_cheapest_path(net, tree)
    assert tree.targets == old.targets == frozenset(targets)
    assert tree.costs == old.costs
    for target in set(targets):
        forward = reference_path(net, source, target)
        assert tree.get(target) == old.get(target) == forward
        if forward is None:
            continue
        back = tree.path_from(target)
        if old.path_from(target) is not None:
            assert back is not None  # the tree reads back at least wherever the one group's did
        if back is not None:
            assert back == reference_path(net, target, source)


def test_goal_order_is_ascending_landmark_bound_past_the_gate_only():
    net = road_network(0, 10)
    bound = landmark_bound(net, range(net.poi_count))
    targets = [99, 5, 50, 11, 0, 42]
    order = _goal_order(net, 0, targets)
    assert order == sorted(targets, key=lambda t: (bound(0, t), t))
    assert order != sorted(targets) and order[0] == 0  # the source bounds itself by 0
    assert _goal_order(net, 0, [42]) is None  # one target is one group
    assert _goal_order(random_network(1, 200, 3), 0, [5, 50]) is None  # under the gate
    islands = random_disconnected_network(5, 3, 5)
    islands.__dict__["landmark_tightness"] = 1.0
    assert _goal_order(islands, 0, [1, 2]) is None  # a landmark row misses them


def parent_landmarks_tight(net):
    """Verbatim copy of the gate ``landmark_bound`` and the goal order shared."""
    return net.landmark_tightness >= PRUNE_TIGHTNESS


def parent_landmark_bound(net, pois):
    """Verbatim copy of ``landmark_bound`` that read the landmark rows one PoI at a time."""
    if not parent_landmarks_tight(net):
        return None
    rows = net.landmarks
    at: dict[int, tuple[Money, ...]] = {}
    for poi in pois:
        net.check_poi(poi)
        at[poi] = tuple(row[poi] for row in rows)
    if any(min(costs) < 0 for costs in at.values()):
        return None

    def bound(a: int, b: int) -> Money:
        return max(map(abs, map(sub, at[a], at[b])))

    return bound


def parent_goal_order(net, source, targets):
    """Verbatim copy of ``_goal_order`` with a landmark bound loop of its own."""
    if len(targets) < 2 or not parent_landmarks_tight(net):
        return None
    targets = sorted(targets)  # the stable sort below leaves equal bounds in id order
    bound = dict.fromkeys(targets, 0)
    for row in net.landmarks:
        at_source = row[source]
        if at_source < 0:
            return None
        for target in targets:
            x = row[target]
            if x < 0:
                return None
            gap = abs(x - at_source)
            if gap > bound[target]:
                bound[target] = gap
    return sorted(targets, key=bound.__getitem__)


@lru_cache(maxsize=None)
def gate_shut_network():
    return random_network(1, 200, 3)


@st.composite
def bound_cases(draw):
    """A search of :func:`road_searches`, or a source and 1-6 targets on a
    random network under the gate."""
    if draw(st.booleans()):
        return draw(road_searches())
    net = gate_shut_network()
    poi = st.integers(0, net.poi_count - 1)
    return net, draw(poi), draw(st.lists(poi, min_size=1, max_size=6))


def assert_same_bound(net, pois):
    bound, old = landmark_bound(net, pois), parent_landmark_bound(net, pois)
    assert (bound is None) == (old is None)
    if bound is not None:
        assert [bound(a, b) for a in pois for b in pois] == [old(a, b) for a in pois for b in pois]


@settings(max_examples=400, deadline=None)
@given(case=bound_cases())
def test_goal_order_and_landmark_bound_match_their_own_loop_copies(case):
    net, source, targets = case
    for aimed in (targets, set(targets)):  # in drawn order with repeats, and as a search's set
        assert _goal_order(net, source, aimed) == parent_goal_order(net, source, aimed)
    for pois in ([source, *targets], [], [source], [source, source]):
        assert_same_bound(net, pois)
    if net.landmark_tightness >= PRUNE_TIGHTNESS:
        with pytest.raises(ConfigurationError):
            landmark_bound(net, [source, net.poi_count])


def test_goal_groups_settle_what_the_one_group_settles_on_a_city():
    """On a 400-PoI city, trees to targets spread over it: the same costs
    and paths, read back wherever the one group's trees read back."""
    net = road_network(2, 20)
    targets = list(range(0, net.poi_count, 37))
    for source in range(0, net.poi_count, 53):
        tree, old = shortest_paths(net, source, targets), one_group_shortest_paths(net, source, targets)
        assert dict(tree) == dict(old)
        assert_read_back_just_on_one_cheapest_path(net, tree)
        for target in targets:
            if old.path_from(target) is not None:
                assert tree.path_from(target) == old.path_from(target)


PRICED = FareTable.from_pairs([(f"M{base}", FarePolicy(base, Decimal(0), Decimal(0))) for base in (50, 100, 150, 300)])


@pytest.mark.parametrize(
    "pays_off", [gtpmm.network._bounds_pay_off, lambda reach, band: False], ids=["chosen-loop", "plain-loop"]
)
def test_a_cost_later_beaten_leaves_no_tie(pays_off):
    """PoI 4 is offered 400 by 1 and by 2, then 250 by 3: its one cheapest
    path runs through 3, so it is not tied and its path reads back."""
    builder = NetworkBuilder()
    for i in range(5):
        builder.add_poi(f"p{i}")
    for u, v, mode in ((0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 4, 3), (2, 4, 3), (3, 4, 1)):
        builder.add_edge(u, v, mode, 1.0, 1.0)
    net = builder.finalize(PRICED)
    assert net.landmark_tightness >= 0  # builds the landmark rows before heappush is recorded
    offers = []  # the (cost, PoI) pushes of the plain loop

    def recorded(heap, item):
        offers.append(item)
        heappush(heap, item)

    with patch.object(gtpmm.network, "_bounds_pay_off", pays_off), patch.object(gtpmm.network, "heappush", recorded):
        tree = shortest_paths(net, 0, [4, 1])
    if pays_off is not gtpmm.network._bounds_pay_off:
        assert offers == [(100, 1), (100, 2), (150, 3), (400, 4), (250, 4)]  # 2 offered 400 too, pushing nothing
    assert tree[4] == reference_path(net, 0, 4) and tree[4].poi_sequence == (0, 3, 4)
    assert_read_back_just_on_one_cheapest_path(net, tree)
    assert tree.path_from(4) == reference_path(net, 4, 0)

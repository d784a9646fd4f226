"""Plan hops read from the DP's layer searches, against the plain Dijkstra.

``layer_costs`` keeps its packed key row in the ``LayerCosts`` it returns,
and ``Legs.path`` reads a hop whose end a kept layer settled from the hop's
start by walking back over those keys. These tests hold every hop a layer
can read to ``reference_path``, the search the checks use, on networks
with tied paths and tied modes, in both sharing modes (layer weight 1 and
the agent count); on a network with a free hop the layer declines and the
hop is searched point to point. A plan on a network with no free hop and
no tie runs no point-to-point search at all.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import InternalConsistencyError, SharingMode, compute_dp, plan
from gtpmm import planner
from gtpmm.network import (
    FarePolicy,
    FareTable,
    LayerCosts,
    NetworkBuilder,
    _walk_back,
    layer_costs,
    reference_path,
    shortest_path,
    shortest_paths,
)
from gtpmm.planner import Legs
from gtpmm.synth import random_instance, random_network, road_network
from test_pruning import TIED_FARES, ZERO_FARES, exact_bounds
from test_search_trees import FLAT

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE
# TIED_FARES and ZERO_FARES have a free mode: their networks have free hops. FLAT prices every edge alike, so
# paths tie on every lattice without a free hop; EQUAL_MODES ties parallel modes only.
EQUAL_MODES = FareTable.from_pairs(
    [("M0", FarePolicy(100, Decimal("0.5"), Decimal(0))), ("M1", FarePolicy(100, Decimal("0.5"), Decimal(0)))]
)
FARES = {"default": None, "tied": TIED_FARES, "zero": ZERO_FARES, "flat": FLAT, "equal-modes": EQUAL_MODES}


@st.composite
def planned_cases(draw):
    """A seeded random or road network under one of ``FARES``, its landmark
    gate open or shut, and a query of 1 to 4 categories on it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    fares = FARES[draw(st.sampled_from(sorted(FARES)))]
    n_modes = 2 if fares is None else fares.mode_count
    if draw(st.booleans()):
        side, jitter = draw(st.integers(min_value=3, max_value=7)), draw(st.sampled_from([0.0, 0.4]))
        net = road_network(seed, side, jitter=jitter, fare_table=fares)
        if draw(st.booleans()):
            net = exact_bounds(net)  # plan() prunes: a chain's hops are also priced by trees
    else:
        net = random_network(seed, draw(st.integers(min_value=8, max_value=30)), n_modes, fare_table=fares)
    k = draw(st.integers(min_value=1, max_value=4))
    per_category = draw(st.integers(min_value=1, max_value=max(1, net.poi_count // (k + 2))))
    inst = random_instance(seed, net, k, per_category, draw(st.integers(min_value=1, max_value=6)))
    return net, inst, draw(st.sampled_from([PER_PERSON, SHARED]))


def counted_path_searches():
    """A patch of the planner's point-to-point search that records each pair it searches."""
    pairs = []

    def searched(net, u, v):
        pairs.append((u, v))
        return shortest_path(net, u, v)

    return pairs, mock.patch.object(planner, "shortest_path", searched)


@settings(max_examples=120, deadline=None)
@given(case=planned_cases())
def test_every_hop_a_layer_reads_is_the_reference_path(case):
    net, inst, sharing = case
    legs = Legs()
    table = compute_dp(net, inst, sharing, legs=legs)
    assert len(legs._layers) == sum(1 for c in range(1, inst.k) if table.cost[c - 1])
    for c, layer in zip(range(1, inst.k), legs._layers):
        assert isinstance(layer, LayerCosts)
        for j, (_, origin) in layer.items():
            read = layer.path(origin, j)
            if net.has_free_hop:
                assert read is None  # the keys tell no settle order across a free hop
                continue
            assert read == reference_path(net, origin, j) == shortest_path(net, origin, j)
            weight = sharing.intermediate_multiplier(inst.n_agents)
            assert table.cost[c][j] == table.cost[c - 1][origin] + weight * read.cost
            for other in table.cost[c - 1]:
                if other != origin:
                    assert layer.path(other, j) is None  # a layer reads only the hops its winners end

    pairs, patch = counted_path_searches()
    with patch:
        journey = plan(net, inst, sharing)
    common = journey.common_pois
    hops = list(zip(common, common[1:]))
    for (a, b), leg in zip(hops, journey.common_legs):
        assert leg == reference_path(net, a, b)
    if net.has_free_hop:
        assert set(hops) <= {*pairs, *legs_held_by_trees(net, inst, sharing, hops)}
    else:
        assert not set(hops) & set(pairs)  # no hop is searched point to point


def legs_held_by_trees(net, inst, sharing, hops):
    """The ``hops`` that a tree kept by ``plan()``'s searches answers forward: a
    free-hop network's layers decline, and only these need no search."""
    legs = Legs()
    query, last_bounds = planner._prune(net, inst, sharing, legs)
    compute_dp(net, query or inst, sharing, legs=legs, last_bounds=last_bounds)
    return [(a, b) for a, b in hops if any(b in tree.targets for tree in legs._trees.get(a, ()))]


@pytest.mark.parametrize("fares", [TIED_FARES, ZERO_FARES], ids=["tied", "zero"])
def test_a_free_hop_network_searches_its_hops_point_to_point(fares, searches):
    net = random_network(2, 40, 3, fare_table=fares)
    assert net.has_free_hop
    for sharing in (PER_PERSON, SHARED):
        inst = random_instance(2, net, 3, 3, 4)
        table = compute_dp(net, inst, sharing)
        for layer in table.legs._layers:
            assert all(layer.path(origin, j) is None for j, (_, origin) in layer.items())
        searches.clear()
        journey = plan(net, inst, sharing)
        hops = list(zip(journey.common_pois, journey.common_pois[1:]))
        paths = [(search.origin, search.targets[0]) for search in searches if search.kind == "path"]
        searched = set(hops) - set(legs_held_by_trees(net, inst, sharing, hops))
        assert searched and searched <= set(paths)
        assert all(leg == reference_path(net, a, b) for (a, b), leg in zip(hops, journey.common_legs))


def distinct_sum_network(seed, n_pois, n_edges):
    """A connected random network whose every edge costs a distinct power of
    two: no two paths, and no two parallel edges, cost the same."""
    rng = random.Random(seed)
    fares = FareTable.from_pairs((f"M{mode}", FarePolicy(0, Decimal(1), Decimal(0))) for mode in range(2))
    builder = NetworkBuilder()
    for i in range(n_pois):
        builder.add_poi(f"p{i}")
    pairs = [(i, rng.randrange(i)) for i in range(1, n_pois)]  # a spanning tree
    pairs += [tuple(rng.sample(range(n_pois), 2)) for _ in range(n_edges - len(pairs))]
    powers = rng.sample(range(n_edges), n_edges)
    for (u, v), power in zip(pairs, powers):
        builder.add_edge(u, v, rng.randrange(2), float(2**power), 1.0)
    return builder.finalize(fares)


@pytest.mark.parametrize("gate", ["shut", "open"])
def test_a_plan_with_no_free_hop_and_no_tie_runs_no_path_search(gate, searches):
    planned = 0
    for seed in range(6):
        net = distinct_sum_network(seed, 20, 34)
        if gate == "open":
            net = exact_bounds(net)
        assert not net.has_free_hop
        for k, agents, sharing in ((1, 3, PER_PERSON), (2, 5, SHARED), (3, 4, PER_PERSON), (4, 7, SHARED)):
            inst = random_instance(seed + k, net, k, 3, agents)
            searches.clear()
            journey = plan(net, inst, sharing)
            assert [search for search in searches if search.kind == "path"] == []
            assert journey.total_cost == sum(count * leg.cost for leg, count in journey.charged_legs())
            planned += 1
    assert planned == 24


def test_layer_costs_keep_their_keys_and_compare_as_a_dict(walkthrough_net):
    found = layer_costs(walkthrough_net, {0: 5, 2: 0}, 3, range(walkthrough_net.poi_count))
    assert type(found) is LayerCosts and found == dict(found)
    for j, (cost, origin) in found.items():
        read = found.path(origin, j)
        assert read == reference_path(walkthrough_net, origin, j)
        assert cost == {0: 5, 2: 0}[origin] + 3 * read.cost
    assert layer_costs(walkthrough_net, {0: 0}, 1, []).path(0, 0) is None  # no search ran
    assert layer_costs(walkthrough_net, {0: 0}, 0, [1]).path(0, 1) is None  # at weight 0 every key ties its start


@contextmanager
def deadline(seconds):
    """Fails the code inside with TimeoutError once ``seconds`` pass, so a walk that never stops fails the test."""

    def expire(*_):
        raise TimeoutError(f"still walking after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_walk_back_from_a_target_settled_from_another_origin_raises():
    net = road_network(1, 5, jitter=0.0)
    found = layer_costs(net, {0: 0, 24: 0}, 1, range(net.poi_count))
    target = next(j for j, (_, origin) in found.items() if origin == 24 and j != 24)
    assert found.path(0, target) is None  # the origin check declines the walk
    with deadline(5), pytest.raises(InternalConsistencyError, match="^no neighbour of PoI 24 ends a cheapest path"):
        _walk_back(net, found._keys, found._step, None, 0, target, False)
    sequence, _ = _walk_back(net, found._keys, found._step, None, 24, target, False)
    assert sequence[-1] == 24


def test_a_walk_back_across_a_free_hop_without_the_settle_order_raises():
    # S=2 -(paid)- A=0 -(free)- B=1: without the order, a walk from B would step to A and back to B, the lower id
    fares = FareTable.from_pairs([("free", FarePolicy(0, 0, 0)), ("paid", FarePolicy(100, 0, 0))])
    builder = NetworkBuilder()
    for i in range(3):
        builder.add_poi(f"n{i}")
    builder.add_edge(2, 0, 1, 1.0, 1.0)
    builder.add_edge(0, 1, 0, 1.0, 1.0)
    net = builder.finalize(fares)
    tree = shortest_paths(net, 2, [1])
    assert net.has_free_hop and tree._order is not None
    needs_order = "^the walk back from PoI 1 to PoI 2 needs the settle order$"
    with deadline(5), pytest.raises(InternalConsistencyError, match=needs_order):
        _walk_back(net, tree._dist, 1, None, 2, 1, False)
    assert tree[1].poi_sequence == (2, 0, 1)  # with the order the walk stops

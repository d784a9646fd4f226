"""Network construction, edge costs, shortest paths, and connectivity repair."""

from __future__ import annotations

import itertools
import math
import shutil
from dataclasses import replace
from decimal import Decimal
from heapq import heapify, heappop, heappush
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtpmm.network
from gtpmm import (
    ConfigurationError,
    FarePolicy,
    FareTable,
    NetworkBuilder,
    TransitEdge,
    cheapest_parallel_edge,
    connect_components,
    connected_components,
    edge_cost,
    median_fare_policy,
    shortest_path,
)
from gtpmm.fixtures import WALKTHROUGH_UNIT, default_fare_ranges, gtfs_minimal_dir, walkthrough_poi
from gtpmm.ingest import load_gtfs, load_network_json, resolve_fares, save_network_json
from gtpmm.network import (
    LANDMARKS,
    REPAIR_MODE,
    ModeId,
    Money,
    PathResult,
    _landmark_bounds,
    haversine_m,
    layer_costs,
    rebuild_with_fares,
    reference_path,
    shortest_costs,
    shortest_paths,
)
from gtpmm.synth import random_disconnected_network, random_network


def flat_table(*costs_cents: int) -> FareTable:
    """One mode per value; every edge of that mode costs exactly the value."""
    return FareTable.from_pairs(
        (f"M{i}", FarePolicy(cents, Decimal(0), Decimal(0))) for i, cents in enumerate(costs_cents)
    )


def line_network(edge_specs, n_pois, fares):
    builder = NetworkBuilder()
    for i in range(n_pois):
        builder.add_poi(f"n{i}")
    for u, v, mode, dist, time in edge_specs:
        builder.add_edge(u, v, mode, dist, time)
    return builder.finalize(fares)


# --- edge_cost ----------------------------------------------------------------


def test_zero_length_edge_pays_base_fare_only():
    fares = flat_table(250)
    edge = TransitEdge(0, 0, 1, 0, 0.0, 0.0)
    assert edge_cost(edge, fares) == 250


def test_edge_cost_bus_lower_bound():
    fares = FareTable.from_pairs([("Bus", FarePolicy(250, Decimal("1"), Decimal("5")))])
    edge = TransitEdge(0, 0, 1, 0, 1000.0, 10.0)
    assert edge_cost(edge, fares) == 250 + 1000 * 1 + 10 * 5  # 1300


def test_edge_cost_train_lower_bound():
    fares = FareTable.from_pairs([("Train", FarePolicy(500, Decimal("3"), Decimal("10")))])
    edge = TransitEdge(0, 0, 1, 0, 500.0, 4.0)
    assert edge_cost(edge, fares) == 2040


def test_edge_cost_rounds_half_up():
    fares = FareTable.from_pairs([("M", FarePolicy(0, Decimal("0.0005"), Decimal(0)))])
    assert edge_cost(TransitEdge(0, 0, 1, 0, 1000.0, 0.0), fares) == 1  # 0.5 -> 1
    assert edge_cost(TransitEdge(0, 0, 1, 0, 999.0, 0.0), fares) == 0  # 0.4995 -> 0


def test_edge_cost_missing_policy_names_mode():
    fares = flat_table(100)
    with pytest.raises(ConfigurationError, match="mode id 3"):
        edge_cost(TransitEdge(0, 0, 1, 3, 1.0, 1.0), fares)


@given(
    base=st.integers(min_value=0, max_value=10_000),
    per_meter=st.integers(min_value=0, max_value=50_000),  # in 1e-4 cents
    per_minute=st.integers(min_value=0, max_value=50_000),
    distance=st.integers(min_value=0, max_value=20_000),
    time=st.integers(min_value=0, max_value=600),
    bumps=st.tuples(*(st.integers(min_value=0, max_value=100) for _ in range(5))),
)
def test_edge_cost_is_monotone_in_every_component(base, per_meter, per_minute, distance, time, bumps):
    quantum = Decimal("0.0001")

    def cost(b, pm, pmin, d, t):
        fares = FareTable.from_pairs([("M", FarePolicy(b, pm * quantum, pmin * quantum))])
        return edge_cost(TransitEdge(0, 0, 1, 0, float(d), float(t)), fares)

    reference = cost(base, per_meter, per_minute, distance, time)
    grown = [
        cost(base + bumps[0], per_meter, per_minute, distance, time),
        cost(base, per_meter + bumps[1], per_minute, distance, time),
        cost(base, per_meter, per_minute + bumps[2], distance, time),
        cost(base, per_meter, per_minute, distance + bumps[3], time),
        cost(base, per_meter, per_minute, distance, time + bumps[4]),
    ]
    assert all(value >= reference for value in grown)


def test_fare_policy_rejects_negative_components():
    with pytest.raises(ConfigurationError):
        FarePolicy(-1, Decimal(0), Decimal(0))


# --- cheapest_parallel_edge -----------------------------------------------------


def test_cheapest_parallel_edge_on_walkthrough(walkthrough_net):
    result = cheapest_parallel_edge(walkthrough_net, walkthrough_poi("v1"), walkthrough_poi("v3"))
    assert result is not None
    eid, cost = result
    assert cost == 5 * WALKTHROUGH_UNIT
    assert walkthrough_net.fare_table.name(walkthrough_net.edges[eid].mode) == "Bus"


def test_cheapest_parallel_edge_absent_for_self_pair(walkthrough_net):
    assert cheapest_parallel_edge(walkthrough_net, 0, 0) is None


def test_cheapest_parallel_edge_tie_prefers_lower_mode():
    fares = flat_table(500, 500)
    net = line_network([(0, 1, 1, 0, 0), (0, 1, 0, 0, 0)], 2, fares)
    eid, cost = cheapest_parallel_edge(net, 0, 1)
    assert cost == 500
    assert net.edges[eid].mode == 0


def test_cheapest_parallel_edge_absent_without_edge():
    net = line_network([], 2, flat_table(100))
    assert cheapest_parallel_edge(net, 0, 1) is None


# --- shortest_path ---------------------------------------------------------------


def test_walkthrough_v3_to_v7(walkthrough_net):
    result = shortest_path(walkthrough_net, walkthrough_poi("v3"), walkthrough_poi("v7"))
    assert result is not None
    assert result.cost == 7 * WALKTHROUGH_UNIT
    assert result.poi_sequence == (walkthrough_poi("v3"), walkthrough_poi("v5"), walkthrough_poi("v7"))
    modes = [walkthrough_net.fare_table.name(mode) for _, mode in result.legs]
    assert modes == ["Train", "Train"]


def test_identity_path(walkthrough_net):
    result = shortest_path(walkthrough_net, 4, 4)
    assert result is not None
    assert (result.cost, result.legs, result.poi_sequence) == (0, (), (4,))


def test_disconnected_pair_returns_none():
    net = random_disconnected_network(seed=5, n_components=2, pois_per_component=3)
    assert shortest_path(net, 0, 3) is None


def test_path_cost_equals_sum_of_leg_costs(walkthrough_net):
    result = shortest_path(walkthrough_net, walkthrough_poi("v1"), walkthrough_poi("v10"))
    assert result is not None
    assert result.cost == sum(walkthrough_net.edge_costs[eid] for eid, _ in result.legs)
    # consecutive legs share an endpoint
    for (eid_a, _), (eid_b, _) in zip(result.legs, result.legs[1:]):
        a, b = walkthrough_net.edges[eid_a], walkthrough_net.edges[eid_b]
        assert {a.u, a.v} & {b.u, b.v}


def exhaustive_cheapest(net, source, target):
    """Independent oracle: every simple path with every mode assignment."""
    if source == target:
        return 0
    best = None

    def dfs(u, visited, hop_choices):
        nonlocal best
        if u == target:
            for combo in itertools.product(*hop_choices):
                cost = sum(net.edge_costs[eid] for eid in combo)
                if best is None or cost < best:
                    best = cost
            return
        for v in sorted({net.edges[eid].other(u) for eid in net.adjacency[u]}):
            if v in visited:
                continue
            parallel = [eid for eid in net.adjacency[u] if net.edges[eid].other(u) == v]
            dfs(v, visited | {v}, hop_choices + [parallel])

    dfs(source, {source}, [])
    return best


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_shortest_path_matches_exhaustive_enumeration(seed):
    net = random_network(seed, n_pois=8, n_modes=2, extra_edges=3)
    for source in range(net.poi_count):
        for target in range(source, net.poi_count):
            fast = shortest_path(net, source, target)
            slow = exhaustive_cheapest(net, source, target)
            assert (fast.cost if fast else None) == slow


def test_exhaustive_enumeration_at_twelve_pois():
    net = random_network(321, n_pois=12, n_modes=2, extra_edges=2)
    for source in range(net.poi_count):
        for target in range(source + 1, net.poi_count):
            fast = shortest_path(net, source, target)
            assert fast is not None
            assert fast.cost == exhaustive_cheapest(net, source, target)


def test_concurrent_readers_see_identical_results(walkthrough_net):
    from concurrent.futures import ThreadPoolExecutor

    pairs = [(u, v) for u in range(10) for v in range(10)]
    expected = [shortest_path(walkthrough_net, u, v) for u, v in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda p: shortest_path(walkthrough_net, *p), pairs))
    assert results == expected


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_symmetry_and_triangle_inequality(seed):
    net = random_network(seed, n_pois=12, n_modes=3)

    def cost(u, v):
        result = shortest_path(net, u, v)
        assert result is not None  # random_network is connected
        return result.cost

    nodes = range(net.poi_count)
    for u in nodes:
        assert cost(u, u) == 0
    for u, v in itertools.combinations(nodes, 2):
        assert cost(u, v) == cost(v, u)
    for u, v, w in itertools.islice(itertools.combinations(nodes, 3), 60):
        assert cost(u, w) <= cost(u, v) + cost(v, w)


def test_shortest_path_is_deterministic(walkthrough_net):
    runs = [shortest_path(walkthrough_net, 0, 9) for _ in range(20)]
    assert all(run == runs[0] for run in runs)


# --- search views and differential tests ---------------------------------------


def edge_walking_shortest_path(net, source, target):
    """The shortest_path that walked TransitEdge objects, kept verbatim as the
    reference for the row-based one."""
    net.check_poi(source)
    net.check_poi(target)
    if source == target:
        return PathResult(0, (), (source,))

    dist = {source: 0}
    pred = {}  # node -> (pred poi, mode, edge id)
    settled = set()
    heap = [(0, source)]
    adjacency = net.adjacency
    edges = net.edges
    costs = net.edge_costs

    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            break
        for eid in adjacency[u]:
            edge = edges[eid]
            v = edge.other(u)
            if v in settled or v == u:
                continue
            candidate = d + costs[eid]
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                pred[v] = (u, edge.mode, eid)
                heappush(heap, (candidate, v))
            elif candidate == known and (u, edge.mode, eid) < pred[v]:
                pred[v] = (u, edge.mode, eid)

    if target not in settled:
        return None

    legs = []
    sequence = [target]
    node = target
    while node != source:
        previous, mode, eid = pred[node]
        legs.append((eid, mode))
        sequence.append(previous)
        node = previous
    legs.reverse()
    sequence.reverse()
    return PathResult(dist[target], tuple(legs), tuple(sequence))


def assert_searches_agree(net):
    """Both searches against the reference, on every pair of PoIs."""
    nodes = range(net.poi_count)
    for source in nodes:
        paths = {target: shortest_path(net, source, target) for target in nodes}
        for target, path in paths.items():
            assert path == edge_walking_shortest_path(net, source, target)
        expected = {target: path.cost for target, path in paths.items() if path is not None}
        assert shortest_costs(net, source, nodes) == expected
        for target in nodes:  # a lone target stops the search early
            single = shortest_costs(net, source, [target])
            assert single.get(target) == expected.get(target)
            assert set(single) <= {target}


def built_network(n_pois, fares, edge_specs):
    builder = NetworkBuilder(allow_self_loops=True)
    for i in range(n_pois):
        builder.add_poi(f"n{i}")
    for u, v, mode, dist, time in edge_specs:
        builder.add_edge(u, v, mode, dist, time)
    return builder.finalize(fares)


# Modes: M0 and M1 are free at zero length; M2 and M3 cost the same flat fare.
EDGE_CASE_FARES = FareTable.from_pairs(
    [
        ("M0", FarePolicy(0, Decimal("1"), Decimal(0))),
        ("M1", FarePolicy(0, Decimal(0), Decimal("2"))),
        ("M2", FarePolicy(40, Decimal(0), Decimal(0))),
        ("M3", FarePolicy(40, Decimal(0), Decimal(0))),
    ]
)

EDGE_CASE_NETWORKS = {
    # a chain of free edges next to a priced shortcut
    "zero-cost": (5, [(0, 1, 0, 0.0, 9.0), (1, 2, 1, 7.0, 0.0), (2, 3, 0, 0.0, 0.0), (0, 3, 2, 0.0, 0.0)]),
    # every hop has two or three parallel modes at the same cost
    "tied-parallel": (
        4,
        [(0, 1, 3, 0.0, 0.0), (0, 1, 2, 5.0, 5.0), (1, 2, 2, 0.0, 0.0), (2, 1, 3, 0.0, 0.0), (1, 2, 0, 40.0, 0.0)]
        + [(0, 3, 0, 20.0, 0.0), (3, 2, 1, 0.0, 10.0), (0, 3, 1, 0.0, 10.0)],
    ),
    # equal-cost routes through different PoIs
    "tied-routes": (
        5,
        [(0, 1, 2, 0.0, 0.0), (0, 2, 3, 0.0, 0.0), (1, 3, 3, 0.0, 0.0), (2, 3, 2, 0.0, 0.0), (3, 4, 0, 0.0, 0.0)],
    ),
    # self-loops, free and priced, on a path
    "self-loops": (
        4,
        [(0, 0, 0, 0.0, 0.0), (0, 1, 2, 0.0, 0.0), (1, 1, 2, 0.0, 0.0), (1, 2, 1, 3.0, 1.5), (2, 2, 3, 1.0, 1.0)],
    ),
    # two islands and an isolated PoI
    "disconnected": (6, [(0, 1, 0, 5.0, 0.0), (1, 2, 2, 0.0, 0.0), (3, 4, 1, 0.0, 0.0), (3, 4, 3, 0.0, 0.0)]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASE_NETWORKS))
def test_searches_agree_on_edge_case_networks(name):
    n_pois, edge_specs = EDGE_CASE_NETWORKS[name]
    assert_searches_agree(built_network(n_pois, EDGE_CASE_FARES, edge_specs))


@st.composite
def small_networks(draw):
    """Up to 7 PoIs; fares include zero base fares and zero rates, edges include
    self-loops, zero lengths and parallel modes, and the graph may be disconnected."""
    n_pois = draw(st.integers(min_value=1, max_value=7))
    policies = draw(
        st.lists(
            st.builds(
                FarePolicy,
                st.sampled_from([0, 0, 1, 3, 40]),
                st.sampled_from([Decimal(0), Decimal("0.5"), Decimal(1)]),
                st.sampled_from([Decimal(0), Decimal("0.25"), Decimal(2)]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    fares = FareTable.from_pairs((f"M{i}", policy) for i, policy in enumerate(policies))
    node = st.integers(min_value=0, max_value=n_pois - 1)
    length = st.sampled_from([0.0, 1.0, 2.5, 4.0])
    edge = st.tuples(node, node, st.integers(min_value=0, max_value=len(policies) - 1), length, length)
    return built_network(n_pois, fares, draw(st.lists(edge, max_size=14)))


@settings(max_examples=150, deadline=None)
@given(net=small_networks())
def test_searches_agree_on_random_networks(net):
    assert_searches_agree(net)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_searches_agree_on_synthetic_networks(seed):
    assert_searches_agree(random_network(seed, n_pois=15, n_modes=3, extra_edges=10))


def assert_many_target_searches_agree(net, starts, weight):
    """``shortest_paths`` against the plain Dijkstra ``reference_path`` on
    every source and target set, and ``layer_costs`` against a brute-force
    minimum over ``starts`` of ``reference_path`` costs."""
    nodes = range(net.poi_count)
    paths = {(u, v): reference_path(net, u, v) for u in nodes for v in nodes}
    for source in nodes:
        expected = {target: paths[(source, target)] for target in nodes if paths[(source, target)] is not None}
        assert shortest_paths(net, source, nodes) == expected
        for target in nodes:  # a lone target stops the search early
            assert shortest_paths(net, source, [target]) == ({target: expected[target]} if target in expected else {})
        farthest_two = [target for target, _ in sorted(expected.items(), key=lambda item: item[1].cost)][-2:]
        assert shortest_paths(net, source, farthest_two) == {target: expected[target] for target in farthest_two}

    brute = {}
    for j in nodes:
        keys = [(start + weight * paths[(i, j)].cost, i) for i, start in starts.items() if paths[(i, j)] is not None]
        if keys:
            brute[j] = min(keys)
    assert layer_costs(net, starts, weight, nodes) == brute
    for j in nodes:
        assert layer_costs(net, starts, weight, [j]) == ({j: brute[j]} if j in brute else {})


# start costs that tie with and undercut the weighted distances between starts
LAYER_STARTS = ({0: 0}, {0: 40, 1: 0}, {2: 3, 0: 3, 3: 0}, {1: 80, 3: 80, 4: 0, 0: 120})


@pytest.mark.parametrize("weight", [1, 2])
@pytest.mark.parametrize("name", sorted(EDGE_CASE_NETWORKS))
def test_many_target_searches_agree_on_edge_case_networks(name, weight):
    n_pois, edge_specs = EDGE_CASE_NETWORKS[name]
    net = built_network(n_pois, EDGE_CASE_FARES, edge_specs)
    for starts in LAYER_STARTS:
        assert_many_target_searches_agree(net, {i: cost for i, cost in starts.items() if i < n_pois}, weight)


@settings(max_examples=150, deadline=None)
@given(net=small_networks(), data=st.data())
def test_many_target_searches_agree_on_random_networks(net, data):
    start_costs = st.dictionaries(
        st.integers(min_value=0, max_value=net.poi_count - 1), st.sampled_from([0, 1, 3, 40, 80]), max_size=4
    )
    weight = data.draw(st.sampled_from([0, 1, 3]))
    assert_many_target_searches_agree(net, data.draw(start_costs), weight)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_many_target_searches_agree_on_synthetic_networks(seed):
    net = random_network(seed, n_pois=15, n_modes=3, extra_edges=10)
    assert_many_target_searches_agree(net, {seed % 15: 500, (seed * 7) % 15: 0, 3: 250}, 2)


def test_many_target_searches_reject_unknown_pois(walkthrough_net):
    with pytest.raises(ConfigurationError):
        shortest_paths(walkthrough_net, 99, [0])
    with pytest.raises(ConfigurationError):
        shortest_paths(walkthrough_net, 0, [1, 99])
    with pytest.raises(ConfigurationError):
        layer_costs(walkthrough_net, {99: 0}, 1, [0])
    with pytest.raises(ConfigurationError):
        layer_costs(walkthrough_net, {0: 0}, 1, [99])
    assert shortest_paths(walkthrough_net, 0, []) == {}
    assert layer_costs(walkthrough_net, {0: 0}, 1, []) == {}
    assert layer_costs(walkthrough_net, {}, 1, [0]) == {}


def test_shortest_costs_without_targets_is_empty(walkthrough_net):
    assert shortest_costs(walkthrough_net, 0, []) == {}


def test_shortest_costs_rejects_unknown_pois(walkthrough_net):
    with pytest.raises(ConfigurationError):
        shortest_costs(walkthrough_net, 99, [0])
    with pytest.raises(ConfigurationError):
        shortest_costs(walkthrough_net, 0, [1, 99])


# --- goal-directed searches against the Dijkstra versions they replaced ------------


def dijkstra_shortest_paths(net, source, targets):
    """Verbatim copy of the Dijkstra ``shortest_paths`` the landmark search replaced."""
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    wanted = set(remaining)

    dist = {source: 0}
    pred = {}
    settled = set()
    heap = [(0, source)]
    neighbors = net.cheapest_neighbors

    while heap and remaining:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        remaining.discard(u)
        if not remaining:
            break
        for v, cost in neighbors[u]:
            if v in settled:
                continue
            candidate = d + cost
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                pred[v] = u
                heappush(heap, (candidate, v))
            elif candidate == known and u < pred[v]:
                pred[v] = u

    hops = {}  # paths to many targets share hops
    paths = {}
    for target in wanted & settled:
        sequence = [target]
        while sequence[-1] != source:
            sequence.append(pred[sequence[-1]])
        sequence.reverse()
        legs = []
        for hop in zip(sequence, sequence[1:]):
            if hop not in hops:
                eid, _ = cheapest_parallel_edge(net, *hop)
                hops[hop] = (eid, net.edges[eid].mode)
            legs.append(hops[hop])
        paths[target] = PathResult(dist[target], tuple(legs), tuple(sequence))
    return paths


def dijkstra_layer_costs(net, starts, weight, targets):
    """Verbatim copy of the Dijkstra ``layer_costs`` the landmark search replaced."""
    scale = net.poi_count
    remaining = set(targets)
    for poi in (*starts, *remaining):
        net.check_poi(poi)
    found = {}
    if not remaining:
        return found

    dist = {origin: start * scale + origin for origin, start in starts.items()}
    heap = [(key, origin) for origin, key in dist.items()]
    heapify(heap)
    step = weight * scale
    neighbors = net.cheapest_neighbors

    while heap:
        key, u = heappop(heap)
        if key > dist[u]:
            continue  # stale entry; u was settled at a lower key
        if u in remaining:
            found[u] = divmod(key, scale)
            remaining.discard(u)
            if not remaining:
                break
        for v, cost in neighbors[u]:
            candidate = key + cost * step
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                heappush(heap, (candidate, v))
    return found


# --- flat-list search state against the dict-state searches it replaced ------------


def dict_state_shortest_paths(net, source, targets):
    """Verbatim copy of the landmark ``shortest_paths`` that kept its state in dicts and a set."""
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    wanted = set(remaining)

    dist: dict[int, Money] = {source: 0}
    pred: dict[int, int] = {}
    settled: set[int] = set()
    neighbors = net.cheapest_neighbors
    # Two copies of one loop, so that a search without bounds pays nothing for them at each push.
    bounds = _landmark_bounds(net, (source,), remaining)
    if bounds is None:
        heap: list[tuple[Money, int]] = [(0, source)]
        while heap and remaining:
            d, u = heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            remaining.discard(u)
            if not remaining:
                break
            for v, cost in neighbors[u]:
                if v in settled:
                    continue
                candidate = d + cost
                known = dist.get(v)
                if known is None or candidate < known:
                    dist[v] = candidate
                    pred[v] = u
                    heappush(heap, (candidate, v))
                elif candidate == known and u < pred[v]:
                    pred[v] = u
    else:
        row1, lo1, hi1, row2, lo2, hi2 = bounds
        bounded: list[tuple[Money, Money, int]] = [(0, 0, source)]
        while bounded and remaining:
            _, d, u = heappop(bounded)
            if u in settled:
                continue
            settled.add(u)
            remaining.discard(u)
            if not remaining:
                break
            for v, cost in neighbors[u]:
                if v in settled:
                    continue
                candidate = d + cost
                known = dist.get(v)
                if known is None or candidate < known:
                    dist[v] = candidate
                    pred[v] = u
                    x, y = row1[v], row2[v]  # f = g + h(v), inlined: this block runs once per push
                    h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                    h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                    heappush(bounded, (candidate + (h1 if h1 > h2 else h2), candidate, v))
                elif candidate == known and u < pred[v]:
                    pred[v] = u

    hops: dict[tuple[int, int], tuple[int, ModeId]] = {}  # paths to many targets share hops
    paths: dict[int, PathResult] = {}
    for target in wanted & settled:
        sequence = [target]
        while sequence[-1] != source:
            sequence.append(pred[sequence[-1]])
        sequence.reverse()
        legs = []
        for hop in zip(sequence, sequence[1:]):
            if hop not in hops:
                eid, _ = cheapest_parallel_edge(net, *hop)
                hops[hop] = (eid, net.edges[eid].mode)
            legs.append(hops[hop])
        paths[target] = PathResult(dist[target], tuple(legs), tuple(sequence))
    return paths


def dict_state_layer_costs(net, starts, weight, targets):
    """Verbatim copy of the landmark ``layer_costs`` that kept its keys in a dict."""
    scale = net.poi_count
    remaining = set(targets)
    for poi in (*starts, *remaining):
        net.check_poi(poi)
    found: dict[int, tuple[Money, int]] = {}
    if not remaining:
        return found

    step = weight * scale
    dist = {origin: start * scale + origin for origin, start in starts.items()}
    neighbors = net.cheapest_neighbors
    # Two copies of one loop, so that a search without bounds pays nothing for them at each push.
    bounds = _landmark_bounds(net, starts, remaining)
    if bounds is None:
        heap = [(key, origin) for origin, key in dist.items()]
        heapify(heap)
        while heap:
            key, u = heappop(heap)
            if key > dist[u]:
                continue  # stale entry; u was settled at a lower key
            if u in remaining:
                found[u] = divmod(key, scale)
                remaining.discard(u)
                if not remaining:
                    break
            for v, cost in neighbors[u]:
                candidate = key + cost * step
                known = dist.get(v)
                if known is None or candidate < known:
                    dist[v] = candidate
                    heappush(heap, (candidate, v))
        return found

    row1, lo1, hi1, row2, lo2, hi2 = bounds
    bounded = []
    for origin, key in dist.items():
        x, y = row1[origin], row2[origin]
        bounded.append((key + max(0, lo1 - x, x - hi1, lo2 - y, y - hi2) * step, key, origin))
    heapify(bounded)
    while bounded:
        _, key, u = heappop(bounded)
        if key > dist[u]:
            continue  # stale entry; u was settled at a lower key
        if u in remaining:
            found[u] = divmod(key, scale)
            remaining.discard(u)
            if not remaining:
                break
        for v, cost in neighbors[u]:
            candidate = key + cost * step
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                x, y = row1[v], row2[v]  # f = key + h(v) * step, inlined: this block runs once per push
                h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                heappush(bounded, (candidate + (h1 if h1 > h2 else h2) * step, candidate, v))
    return found


def assert_goal_directed_searches_agree(net, target_sets, start_sets, weights):
    """Whole outputs of the landmark searches equal the Dijkstra copies' and
    the dict-state copies', where the searches choose whether to use the
    bounds, and with the bounds forced on and forced off for every search
    (the dict-state copies follow the same rule, so each loop is compared
    with the loop it replaced)."""
    nodes = range(net.poi_count)
    for rule in (gtpmm.network._bounds_pay_off, lambda reach, band: True, lambda reach, band: False):
        with patch.object(gtpmm.network, "_bounds_pay_off", rule):
            for source in nodes:
                for target in nodes:
                    path = shortest_path(net, source, target)
                    assert path == reference_path(net, source, target)
                    assert path == dict_state_shortest_paths(net, source, [target]).get(target)
                for targets in (nodes, *target_sets):
                    paths = shortest_paths(net, source, targets)
                    assert paths == dijkstra_shortest_paths(net, source, targets)
                    assert paths == dict_state_shortest_paths(net, source, targets)
            for starts in start_sets:
                for weight in weights:
                    for targets in (nodes, *target_sets, *([j] for j in nodes)):
                        found = layer_costs(net, starts, weight, targets)
                        assert found == dijkstra_layer_costs(net, starts, weight, targets)
                        assert list(found.items()) == list(dict_state_layer_costs(net, starts, weight, targets).items())


@st.composite
def landmark_networks(draw):
    """Up to 24 PoIs, so that some PoIs are not landmarks: zero-cost modes,
    parallel modes at tied costs, self-loops, and often more components than
    there are landmarks."""
    n_pois = draw(st.integers(min_value=1, max_value=24))
    policies = draw(
        st.lists(
            st.builds(
                FarePolicy,
                st.sampled_from([0, 0, 1, 2, 40]),
                st.sampled_from([Decimal(0), Decimal(1)]),
                st.sampled_from([Decimal(0), Decimal(1)]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    fares = FareTable.from_pairs((f"M{i}", policy) for i, policy in enumerate(policies))
    node = st.integers(min_value=0, max_value=n_pois - 1)
    length = st.sampled_from([0.0, 1.0, 2.0])
    edge = st.tuples(node, node, st.integers(min_value=0, max_value=len(policies) - 1), length, length)
    return built_network(n_pois, fares, draw(st.lists(edge, max_size=40)))


@settings(max_examples=80, deadline=None)
@given(net=landmark_networks(), data=st.data())
def test_goal_directed_searches_equal_dijkstra_on_random_networks(net, data):
    poi = st.integers(min_value=0, max_value=net.poi_count - 1)
    target_sets = data.draw(st.lists(st.sets(poi, max_size=5), max_size=3))
    start_sets = data.draw(st.lists(st.dictionaries(poi, st.sampled_from([0, 1, 3, 40, 80]), max_size=5), max_size=3))
    assert_goal_directed_searches_agree(net, target_sets, start_sets, (0, 1, 3))


@pytest.mark.parametrize("name", sorted(EDGE_CASE_NETWORKS))
def test_goal_directed_searches_equal_dijkstra_on_edge_case_networks(name):
    n_pois, edge_specs = EDGE_CASE_NETWORKS[name]
    net = built_network(n_pois, EDGE_CASE_FARES, edge_specs)
    starts = [{i: cost for i, cost in s.items() if i < n_pois} for s in LAYER_STARTS]
    assert_goal_directed_searches_agree(net, [[0, n_pois - 1], [2, n_pois - 2]], starts, (1, 2))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_goal_directed_searches_equal_dijkstra_on_synthetic_networks(seed):
    net = random_network(seed, n_pois=18, n_modes=3, extra_edges=10)
    target_sets = [[seed % 18, (seed * 7) % 18], [0, 17], [3, 8, 13]]
    starts = [{seed % 18: 0}, {(seed * 7) % 18: 500, 3: 250, 12: 0}]
    assert_goal_directed_searches_agree(net, target_sets, starts, (1, 2))


def test_layer_costs_rejects_a_negative_weight(walkthrough_net):
    # every priced undirected edge would be a negative cycle, so the search would never end
    with pytest.raises(ConfigurationError, match="negative"):
        layer_costs(walkthrough_net, {0: 0}, -1, [9])
    assert layer_costs(walkthrough_net, {0: 0}, 0, [9]) == {9: (0, 0)}


def test_goal_directed_paths_keep_the_lower_id_predecessor():
    # 1 -> 0 costs 80 + 40 through 5 or through 2, and 5 -> 2 is free: a search
    # that settled the equal-f PoIs by id alone, not by (f, g, id), would
    # settle 0 before 2 and route through 5
    edges = [(1, 5, 0, 80.0, 0.0), (0, 2, 2, 0.0, 0.0), (6, 8, 2, 0.0, 0.0), (7, 8, 2, 0.0, 0.0)]
    edges += [(0, 5, 2, 0.0, 0.0), (2, 3, 0, 0.0, 0.0), (2, 5, 0, 0.0, 0.0)]
    net = built_network(9, EDGE_CASE_FARES, edges)
    assert shortest_path(net, 1, 0).poi_sequence == (1, 5, 2, 0)
    assert_goal_directed_searches_agree(net, [[0], [0, 3]], [{1: 0, 6: 40}], (1,))


def test_goal_directed_searches_with_more_components_than_landmarks():
    net = random_disconnected_network(3, n_components=LANDMARKS + 4, pois_per_component=3)
    assert len(connected_components(net)) > LANDMARKS == len(net.landmarks)
    far_islands = [0, 1, 3 * LANDMARKS + 5, net.poi_count - 1]  # targets on landmark-free islands
    starts = [{0: 0, 2: 5}, {0: 0, net.poi_count - 1: 0}, {3 * LANDMARKS + 4: 10}]
    assert_goal_directed_searches_agree(net, [far_islands, [net.poi_count - 2]], starts, (1, 4))


def test_goal_directed_searches_on_one_poi():
    net = built_network(1, EDGE_CASE_FARES, [(0, 0, 2, 0.0, 0.0)])
    assert [list(row) for row in net.landmarks] == [[0]]
    assert shortest_path(net, 0, 0) == PathResult(0, (), (0,))
    assert layer_costs(net, {0: 7}, 3, [0]) == {0: (7, 0)}


def landmark_test_networks():
    for n_pois, edge_specs in EDGE_CASE_NETWORKS.values():
        yield built_network(n_pois, EDGE_CASE_FARES, edge_specs)
    for seed in range(3):
        yield random_network(seed, n_pois=40, n_modes=3, extra_edges=20)
        yield random_disconnected_network(seed, n_components=LANDMARKS + 2, pois_per_component=4)


@settings(max_examples=60, deadline=None)
@given(net=landmark_networks())
def test_every_landmark_is_consistent(net):
    check_landmarks(net)


def test_landmarks_of_fixed_networks():
    for net in landmark_test_networks():
        check_landmarks(net)


def check_landmarks(net):
    """Each row is exact, ``|d_L(u) - d_L(v)| <= w`` holds on every hop of
    its component, and the rows follow the farthest-point rule."""
    rows = [list(row) for row in net.landmarks]
    assert 1 <= len(rows) <= LANDMARKS
    nearest = None
    for index, row in enumerate(rows):
        landmark = row.index(0)  # a landmark's free neighbors have higher ids, or would have been picked
        if index == 0:
            assert row[0] == 0
        else:  # farthest from the landmarks before it; unreached counts as farthest, ties to the lowest id
            rank = [(1, 0) if far < 0 else (0, far) for far in nearest]
            assert landmark == rank.index(max(rank)) and rank[landmark] > (0, 0)
        for poi, cost in enumerate(row):
            path = reference_path(net, landmark, poi)
            assert cost == (path.cost if path else -1)
        for u, hops in enumerate(net.cheapest_neighbors):
            for v, w in hops:
                assert (row[u] < 0) == (row[v] < 0)
                assert row[u] < 0 or abs(row[u] - row[v]) <= w
        nearest = row if nearest is None else [
            far if mine < 0 or 0 <= far < mine else mine for mine, far in zip(nearest, row)
        ]
    if len(rows) < LANDMARKS:  # stopped early: every PoI is a landmark's free neighbor
        assert max(nearest) == 0


SEARCH_VIEWS = ("cheapest_neighbors", "landmarks")


def test_search_views_are_lazy_and_outside_equality(tmp_path):
    spec = EDGE_CASE_NETWORKS["disconnected"]
    net = built_network(spec[0], EDGE_CASE_FARES, spec[1])
    twin = built_network(spec[0], EDGE_CASE_FARES, spec[1])
    save_network_json(net, tmp_path / "net.json")
    loaded = load_network_json(tmp_path / "net.json")
    repaired, _ = connect_components(loaded)
    for fresh in (net, loaded, repaired):  # ingest builds no search view
        assert not set(SEARCH_VIEWS) & set(vars(fresh))
    shortest_path(net, 0, 2)
    shortest_costs(net, 0, [2])
    assert net.cheapest_neighbors is net.cheapest_neighbors
    assert net.landmarks is net.landmarks
    assert net == twin and repr(net) == repr(twin)
    assert "landmarks" not in repr(net) and net == loaded

    # a copy under other fares bounds its searches with landmarks of its own costs
    fares = FareTable.from_pairs(
        (name, FarePolicy(7 + 30 * mode, Decimal(1), Decimal(0))) for mode, name in enumerate(EDGE_CASE_FARES.names)
    )
    rebuilt = rebuild_with_fares(net, fares)
    assert not set(SEARCH_VIEWS) & set(vars(rebuilt))
    assert rebuilt.landmarks != net.landmarks
    assert rebuilt.landmarks == built_network(spec[0], fares, spec[1]).landmarks
    for landmark in rebuilt.landmarks:
        origin = list(landmark).index(0)
        for poi in range(rebuilt.poi_count):
            path = reference_path(rebuilt, origin, poi)
            assert landmark[poi] == (path.cost if path else -1)


def test_search_views_of_a_multigraph():
    spec = EDGE_CASE_NETWORKS["self-loops"]
    net = built_network(spec[0], EDGE_CASE_FARES, spec[1])
    # edge ids 0, 2 and 4 are self-loops and do not appear in the view
    assert net.cheapest_neighbors == (((1, 40),), ((0, 40), (2, 3)), ((1, 3),), ())
    assert [cheapest_parallel_edge(net, 1, v) for v in range(3)] == [(1, 40), None, (3, 3)]


def test_cheapest_neighbors_rows_ascend_by_neighbor_id(walkthrough_net):
    # the baselines' BFS expands neighbors in row order, so its routes depend on it
    nets = [walkthrough_net, *(random_network(seed, n_pois=25, n_modes=4, extra_edges=30) for seed in range(4))]
    nets += [built_network(n_pois, EDGE_CASE_FARES, specs) for n_pois, specs in EDGE_CASE_NETWORKS.values()]
    for net in nets:
        for row in net.cheapest_neighbors:
            neighbors = [v for v, _ in row]
            assert neighbors == sorted(set(neighbors))


# --- network copies ---------------------------------------------------------------


def builder_copy_with_fares(net, fare_table):
    """Verbatim copy of the builder loop ``rebuild_with_fares`` used to run."""
    builder = NetworkBuilder(allow_self_loops=True)
    for poi in net.pois:
        builder.add_poi(poi.external_id, name=poi.name, category=poi.category, coords=poi.coords)
    for edge in net.edges:
        builder.add_edge(edge.u, edge.v, edge.mode, edge.distance_m, edge.time_min)
    return builder.finalize(fare_table)


def copy_test_networks(walkthrough_net):
    yield walkthrough_net
    for name, (n_pois, edge_specs) in sorted(EDGE_CASE_NETWORKS.items()):
        yield built_network(n_pois, EDGE_CASE_FARES, edge_specs)
    for seed in range(4):
        yield random_network(seed, n_pois=25, n_modes=4)
    builder = NetworkBuilder()
    builder.add_poi("a", name="Harbour", category=1, coords=(47.0, 8.0))
    builder.add_poi("b", category=0)
    builder.add_edge(0, 1, 2, 812.5, 3.25)
    yield builder.finalize(EDGE_CASE_FARES)


def test_rebuild_with_fares_equals_a_builder_copy(walkthrough_net):
    for net in copy_test_networks(walkthrough_net):
        for fares in (net.fare_table, net.fare_table.scaled(3), EDGE_CASE_FARES.scaled(2)):
            if fares.mode_count < net.fare_table.mode_count:
                continue
            shortest_path(net, 0, net.poi_count - 1)  # built search views must not leak into the copy
            rebuilt = rebuild_with_fares(net, fares)
            assert rebuilt == builder_copy_with_fares(net, fares)
            assert "cheapest_neighbors" not in vars(rebuilt)


def test_rebuild_with_fares_rejects_a_table_missing_a_mode(walkthrough_net):
    fares = FareTable.from_pairs([("only", FarePolicy(100, Decimal(0), Decimal(0)))])
    with pytest.raises(ConfigurationError) as expected:
        builder_copy_with_fares(walkthrough_net, fares)
    with pytest.raises(ConfigurationError) as actual:
        rebuild_with_fares(walkthrough_net, fares)
    assert str(actual.value) == str(expected.value)


# --- components and repair -------------------------------------------------------


def test_walkthrough_is_one_component(walkthrough_net):
    components = connected_components(walkthrough_net)
    assert len(components) == 1
    assert components[0] == set(range(10))


def test_edgeless_network_has_singleton_components():
    net = line_network([], 4, flat_table(100))
    assert connected_components(net) == [{0}, {1}, {2}, {3}]


def test_connect_components_noop_when_connected(walkthrough_net):
    repaired, added = connect_components(walkthrough_net)
    assert repaired is walkthrough_net
    assert added == []


def test_connect_components_three_islands():
    net = random_disconnected_network(seed=11, n_components=3, pois_per_component=4)
    repaired, added = connect_components(net)
    assert len(added) == 2
    assert len(connected_components(repaired)) == 1
    assert repaired.fare_table.names[-1] == "UN"
    assert repaired.fare_table.mode_count == net.fare_table.mode_count + 1


def test_connect_components_defaults_without_coords():
    net = random_disconnected_network(seed=3, n_components=2, pois_per_component=2)
    repaired, added = connect_components(net)
    assert len(added) == 1
    assert added[0].distance_m == 1000.0
    assert added[0].time_min == 2.0  # 1000 m / 500 m-per-min
    assert len(connected_components(repaired)) == 1


def test_connect_components_joins_lowest_ids_in_order():
    net = random_disconnected_network(seed=9, n_components=3, pois_per_component=3)
    repaired, added = connect_components(net)
    assert [(e.u, e.v) for e in added] == [(0, 3), (3, 6)]


def test_connect_components_uses_great_circle_with_coords():
    builder = NetworkBuilder()
    builder.add_poi("a", coords=(47.0, 8.0))
    builder.add_poi("b", coords=(47.0, 8.1))
    net = builder.finalize(flat_table(100))
    repaired, added = connect_components(net)
    assert len(added) == 1
    assert added[0].distance_m == pytest.approx(7577, rel=0.01)


def test_connect_components_rejects_empty_network():
    net = NetworkBuilder().finalize(flat_table(100))
    with pytest.raises(ConfigurationError):
        connect_components(net)


def test_connect_components_rejects_existing_mode_name():
    net = random_disconnected_network(seed=1, n_components=2)
    fares = net.fare_table.with_mode(REPAIR_MODE, median_fare_policy(net.fare_table))
    with pytest.raises(ConfigurationError, match="already exists"):
        connect_components(rebuild_with_fares(net, fares))


def builder_connect_components(
    net,
    repair_mode_name="UN",
    repair_policy=None,
    *,
    default_distance_m=1000.0,
    default_speed_m_per_min=500.0,
):
    """Verbatim copy of the builder rebuild ``connect_components`` used to run."""
    if net.poi_count == 0:
        raise ConfigurationError("cannot repair an empty network")
    components = connected_components(net)
    if len(components) == 1:
        return net, []

    policy = repair_policy if repair_policy is not None else median_fare_policy(net.fare_table)
    fares = net.fare_table.with_mode(repair_mode_name, policy)
    repair_mode = fares.mode_count - 1

    builder = NetworkBuilder(allow_self_loops=True)
    for poi in net.pois:
        builder.add_poi(poi.external_id, name=poi.name, category=poi.category, coords=poi.coords)
    for edge in net.edges:
        builder.add_edge(edge.u, edge.v, edge.mode, edge.distance_m, edge.time_min)

    representatives = [min(component) for component in components]
    added_ids = []
    for left, right in zip(representatives, representatives[1:]):
        a, b = net.pois[left], net.pois[right]
        if a.coords is not None and b.coords is not None:
            distance = haversine_m(a.coords, b.coords)
        else:
            distance = default_distance_m
        added_ids.append(builder.add_edge(left, right, repair_mode, distance, distance / default_speed_m_per_min))

    repaired = builder.finalize(fares)
    return repaired, [repaired.edges[eid] for eid in added_ids]


def assert_repair_equals_a_builder_copy(net):
    shortest_path(net, 0, net.poi_count - 1)  # built search views must not leak into the repair
    repaired, added = connect_components(net)
    expected, expected_added = builder_connect_components(net)
    assert repaired == expected  # also compares adjacency and edge_costs
    assert added == expected_added
    assert len(added) == len(connected_components(net)) - 1
    if added:
        assert repaired.pois is net.pois
        assert repaired.edges[: net.edge_count] == net.edges
        assert not {"cheapest_neighbors", "landmarks"} & set(vars(repaired))


def mixed_coordinates_network():
    """Four islands, joined (0, 2), (2, 4) and (4, 6): coordinates on both,
    one and neither joined PoI; PoIs 1 and 5 have coordinates but are not joined."""
    builder = NetworkBuilder()
    for index, coords in enumerate([(47.0, 8.0), (47.1, 8.1), (47.2, 8.0), None, None, (46.9, 7.9), None]):
        builder.add_poi(f"p{index}", name=f"PoI {index}", category=index % 2, coords=coords)
    for u, v, mode, distance, time in [(0, 1, 0, 900.0, 3.0), (2, 3, 2, 0.0, 0.0), (4, 5, 1, 12.5, 0.5)]:
        builder.add_edge(u, v, mode, distance, time)
    return builder.finalize(EDGE_CASE_FARES)


def disconnected_gtfs_network(tmp_path):
    """The minimal feed plus a tram trip D-E on stops of their own and an unserved stop F."""
    feed = tmp_path / "feed"
    shutil.copytree(gtfs_minimal_dir(), feed)
    with (feed / "stops.txt").open("a") as handle:
        handle.write("D,Old Town,47.3700,8.5440\nE,University,47.3760,8.5480\nF,Zoo,47.3850,8.5740\n")
    (feed / "routes.txt").write_text("route_id,route_type\nR1,3\nR2,0\n")
    (feed / "trips.txt").write_text("route_id,trip_id\nR1,T1\nR2,T2\n")
    with (feed / "stop_times.txt").open("a") as handle:
        handle.write("T2,D,10:00:00,10:00:00,1\nT2,E,10:06:00,10:06:00,2\n")
    return load_gtfs(feed, resolve_fares(default_fare_ranges(), "low"))


def test_connect_components_equals_a_builder_copy(tmp_path):
    nets = [
        random_disconnected_network(seed=islands * 10 + size, n_components=islands, pois_per_component=size)
        for islands in range(2, 9)
        for size in (1, 2, 4)
    ]
    nets.append(mixed_coordinates_network())
    # self-loops, zero lengths and tied parallel modes, with two isolated PoIs added
    nets += [built_network(n_pois + 2, EDGE_CASE_FARES, specs) for n_pois, specs in EDGE_CASE_NETWORKS.values()]
    gtfs_net = disconnected_gtfs_network(tmp_path)
    assert len(connected_components(gtfs_net)) == 3
    nets.append(gtfs_net)
    for net in nets:
        assert_repair_equals_a_builder_copy(net)


@settings(max_examples=60, deadline=None)
@given(net=landmark_networks())
def test_connect_components_equals_a_builder_copy_on_random_networks(net):
    assert_repair_equals_a_builder_copy(net)


@pytest.mark.parametrize("coords", [(math.nan, 8.1), (47.0, math.nan)])
def test_connect_components_rejects_non_finite_coordinates(coords):
    # the builder rejects such coords, so they can only come in with a PoI put into a network directly
    builder = NetworkBuilder()
    builder.add_poi("a", coords=(47.0, 8.0))
    builder.add_poi("b", coords=(47.0, 8.1))
    net = builder.finalize(flat_table(100))
    net = replace(net, pois=(net.pois[0], replace(net.pois[1], coords=coords)))
    with pytest.raises(ConfigurationError, match=r"edge \(0, 1\) has invalid distance nan"):
        connect_components(net)


@pytest.mark.parametrize(
    "coords",
    [
        pytest.param((math.nan, 8.1), id="nan-lat"),
        pytest.param((47.0, math.nan), id="nan-lon"),
        pytest.param((math.inf, 8.1), id="inf-lat"),
        pytest.param([47.0, -math.inf], id="inf-lon"),
        pytest.param((90.5, 8.1), id="lat-out-of-range"),
        pytest.param((47.0, -180.5), id="lon-out-of-range"),
        pytest.param((47.0,), id="one-element"),
        pytest.param((True, 8.1), id="boolean"),
        pytest.param("47,8", id="string"),
    ],
)
def test_add_poi_rejects_invalid_coordinates(coords):
    # a repair would take great-circle lengths from them (haversine_m fails on an infinity)
    builder = NetworkBuilder()
    builder.add_poi("a", coords=(47.0, 8.0))
    with pytest.raises(ConfigurationError, match=r"coords must be null or \[lat, lon\] in degrees"):
        builder.add_poi("b", coords=coords)
    builder.add_poi("b", coords=[47.0, 8.1])  # the rejected PoI was not added
    net = builder.finalize(flat_table(100))
    assert net.pois[1].coords == (47.0, 8.1)
    assert len(connect_components(net)[1]) == 1


def test_median_repair_policy():
    fares = FareTable.from_pairs(
        [
            ("A", FarePolicy(100, Decimal("1"), Decimal("2"))),
            ("B", FarePolicy(300, Decimal("5"), Decimal("4"))),
            ("C", FarePolicy(200, Decimal("3"), Decimal("9"))),
        ]
    )
    policy = median_fare_policy(fares)
    assert policy == FarePolicy(200, Decimal("3"), Decimal("4"))


# --- builder validation -----------------------------------------------------------


def test_builder_rejects_self_loops_by_default():
    builder = NetworkBuilder()
    builder.add_poi("a")
    with pytest.raises(ConfigurationError):
        builder.add_edge(0, 0, 0, 1.0, 1.0)


def test_builder_rejects_duplicate_external_ids():
    builder = NetworkBuilder()
    builder.add_poi("a")
    builder.add_poi("b", name="a")  # names may repeat
    with pytest.raises(ConfigurationError, match="duplicate external_id 'a'"):
        builder.add_poi("a", name="other")
    assert [poi.external_id for poi in builder.finalize(flat_table(100)).pois] == ["a", "b"]


def test_builder_rejects_negative_weights():
    builder = NetworkBuilder()
    builder.add_poi("a")
    builder.add_poi("b")
    with pytest.raises(ConfigurationError):
        builder.add_edge(0, 1, 0, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        builder.add_edge(0, 1, 0, 1.0, -1.0)


def test_finalize_rejects_unknown_mode():
    builder = NetworkBuilder()
    builder.add_poi("a")
    builder.add_poi("b")
    builder.add_edge(0, 1, 2, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="mode id 2"):
        builder.finalize(flat_table(100))

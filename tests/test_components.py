"""The union-find behind components, repair and the unreachable pair, against
the breadth-first search it replaced.

``bfs_connected_components`` is a verbatim copy of the BFS that
``connected_components`` ran over the network's cached edge lists, reading
them here from the test-local ``reference_adjacency``. The repair and the
planner's first unreachable pair are copied verbatim on top of it, so every
partition, its order, every added edge and every named pair is compared
with what the BFS gave.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st
from test_network import EDGE_CASE_FARES, EDGE_CASE_NETWORKS, built_network, landmark_networks, reference_adjacency

from gtpmm.errors import ConfigurationError
from gtpmm.network import (
    REPAIR_DISTANCE_M,
    REPAIR_MODE,
    REPAIR_SPEED_M_PER_MIN,
    NetworkBuilder,
    TransitEdge,
    _component_roots,
    connect_components,
    connected_components,
    haversine_m,
    median_fare_policy,
)
from gtpmm.planner import QueryInstance, _first_unreachable
from gtpmm.synth import random_disconnected_network, synthetic_fare_table


def bfs_connected_components(net):
    """Partition of all PoI ids into components, ordered by smallest member."""
    adjacency = reference_adjacency(net)
    seen = [False] * net.poi_count
    components = []
    for start in range(net.poi_count):
        if seen[start]:
            continue
        seen[start] = True
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for eid in adjacency[u]:
                edge = net.edges[eid]
                v = edge.v if edge.u == u else edge.u
                if not seen[v]:
                    seen[v] = True
                    component.add(v)
                    queue.append(v)
        components.append(component)
    return components


def bfs_connect_components(net):
    """The repair as it chained the BFS's components, without the returned network."""
    if net.poi_count == 0:
        raise ConfigurationError("cannot repair an empty network")
    components = bfs_connected_components(net)
    if len(components) == 1:
        return []
    fares = net.fare_table.with_mode(REPAIR_MODE, median_fare_policy(net.fare_table))
    repair_mode = fares.mode_count - 1
    representatives = [min(component) for component in components]
    added = []
    for left, right in zip(representatives, representatives[1:]):
        a, b = net.pois[left].coords, net.pois[right].coords
        distance = haversine_m(a, b) if a is not None and b is not None else REPAIR_DISTANCE_M
        added.append(TransitEdge(left, right, repair_mode, distance, distance / REPAIR_SPEED_M_PER_MIN))
    return added


def bfs_first_unreachable(net, inst):
    """``_first_unreachable`` as it labelled PoIs by their BFS component's index."""
    component = [0] * net.poi_count
    for index, members in enumerate(bfs_connected_components(net)):
        for poi in members:
            component[poi] = index
    for j in inst.categories[0]:
        for source, _ in inst.agents:
            if component[source] != component[j]:
                return source, j
    for before, category in zip(inst.categories, inst.categories[1:]):
        for j in category:
            for i in before:
                if component[i] != component[j]:
                    return i, j
    for j in inst.categories[-1]:
        for _, dest in inst.agents:
            if component[j] != component[dest]:
                return j, dest
    return inst.agents[0][0], inst.categories[0][0]


def assert_components_equal_the_bfs(net, instances=()):
    expected = bfs_connected_components(net)
    components = connected_components(net)
    assert components == expected  # the same sets in the same order
    assert _component_roots(net) == [next(min(c) for c in expected if poi in c) for poi in range(net.poi_count)]
    repaired, added = connect_components(net)
    assert added == bfs_connect_components(net)
    assert repaired.edges == net.edges + tuple(added)
    assert bfs_connected_components(repaired) == [set(range(net.poi_count))]
    for inst in instances:
        assert _first_unreachable(net, inst) == bfs_first_unreachable(net, inst)


def instances(net, draw):
    poi = st.integers(min_value=0, max_value=net.poi_count - 1)
    agents = st.lists(st.tuples(poi, poi), min_size=1, max_size=4)
    categories = st.lists(st.lists(poi, min_size=1, max_size=4), min_size=1, max_size=4)
    return [QueryInstance(draw(agents), draw(categories)) for _ in range(5)]


@settings(max_examples=150, deadline=None)
@given(net=landmark_networks(), data=st.data())
def test_components_equal_the_bfs_on_random_networks(net, data):
    assert_components_equal_the_bfs(net, instances(net, data.draw))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    islands=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_components_equal_the_bfs_on_island_networks(seed, islands, size, data):
    net = random_disconnected_network(seed, n_components=islands, pois_per_component=size)
    assert_components_equal_the_bfs(net, instances(net, data.draw))


@st.composite
def looped_networks_with_isolated_pois(draw):
    """A builder network with self-loops whose edges touch only some PoIs."""
    n_pois = draw(st.integers(min_value=1, max_value=30))
    builder = NetworkBuilder(allow_self_loops=True)
    for index in range(n_pois):
        builder.add_poi(f"p{index}")
    touched = draw(st.lists(st.integers(min_value=0, max_value=n_pois - 1), unique=True, max_size=n_pois))
    if touched:
        node = st.sampled_from(touched)
        for u, v, mode in draw(st.lists(st.tuples(node, node, st.integers(0, 1)), max_size=40)):
            builder.add_edge(u, v, mode, 10.0, 1.0)
    return builder.finalize(synthetic_fare_table(0, 2))


@settings(max_examples=100, deadline=None)
@given(net=looped_networks_with_isolated_pois(), data=st.data())
def test_components_equal_the_bfs_with_self_loops_and_isolated_pois(net, data):
    assert_components_equal_the_bfs(net, instances(net, data.draw))


def test_components_equal_the_bfs_on_fixed_networks():
    nets = [built_network(n_pois + 2, EDGE_CASE_FARES, specs) for n_pois, specs in EDGE_CASE_NETWORKS.values()]
    # a chain listed from high ids to low, so each union hangs the root found so far under a lower one
    nets.append(built_network(8, EDGE_CASE_FARES, [(v, v - 1, 0, 1.0, 1.0) for v in range(7, 0, -1)]))
    nets.append(built_network(9, EDGE_CASE_FARES, [(0, 8, 0, 1.0, 1.0), (4, 8, 1, 1.0, 1.0), (2, 2, 0, 0.0, 0.0)]))
    nets += [random_disconnected_network(seed, n_components=4, pois_per_component=3) for seed in range(5)]
    for net in nets:
        last = net.poi_count - 1
        queries = [QueryInstance([(0, last)], [[last]]), QueryInstance([(0, 0), (last, 1)], [[0, 1], [last]])]
        assert_components_equal_the_bfs(net, queries)


def test_roots_are_the_lowest_id_of_each_component():
    net = built_network(6, EDGE_CASE_FARES, [(5, 3, 0, 1.0, 1.0), (3, 1, 0, 1.0, 1.0), (4, 2, 0, 1.0, 1.0)])
    assert _component_roots(net) == [0, 1, 2, 1, 2, 1]
    assert connected_components(net) == [{0}, {1, 3, 5}, {2, 4}]
    assert [(e.u, e.v) for e in connect_components(net)[1]] == [(0, 1), (1, 2)]

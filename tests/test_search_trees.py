"""Legs read from search trees, forward and back, against the plain Dijkstra.

Every single-source search keeps its predecessor tree, and ``Legs`` answers
a leg from a tree that settled it: from its origin forward, or from its
target back when the tree can tell that the cheapest path is the only one.
These tests hold every such leg to ``reference_path``, the search the
checks use, and the planner's and NNCM's plans to plans whose every leg is
searched point to point, as they were before the trees.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from conftest import Search
from gtpmm import InfeasibleRouteError, SharingMode, nncm, plan
from gtpmm.bench import draw_instance
from gtpmm.network import FarePolicy, FareTable, NetworkBuilder, reference_path, shortest_paths
from gtpmm.planner import PRUNE_TIGHTNESS, Legs, assemble
from gtpmm.rng import SplitMix64
from gtpmm.synth import random_disconnected_network, random_instance, random_network, road_network
from test_pruning import TIED_FARES, ZERO_FARES, road_cases

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE
FLAT = FareTable.from_pairs([("M", FarePolicy(100, Decimal(0), Decimal(0)))])  # every edge costs 100


def built(n_pois, edges, fares=FLAT):
    """A network of ``n_pois`` PoIs and the ``(u, v, mode)`` edges, mode 0 when left out."""
    builder = NetworkBuilder()
    for i in range(n_pois):
        builder.add_poi(f"p{i}")
    for u, v, *mode in edges:
        builder.add_edge(u, v, mode[0] if mode else 0, 1.0, 1.0)
    return builder.finalize(fares)


NETWORKS = {
    "road-jittered": lambda seed: road_network(seed, 6),
    "road-unjittered": lambda seed: road_network(seed, 6, jitter=0.0),  # equal costs everywhere: ties
    "road-zero-fares": lambda seed: road_network(seed, 6, fare_table=ZERO_FARES),
    "random": lambda seed: random_network(seed, n_pois=30, n_modes=3, extra_edges=20),
    "disconnected": lambda seed: random_disconnected_network(seed, n_components=3, pois_per_component=6),
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_every_tree_leg_read_forward_or_back_is_the_reference_path(name):
    read_back = fell_back = 0
    for seed in range(2):
        net = NETWORKS[name](seed)
        pois = range(net.poi_count)
        for source in pois:
            tree = shortest_paths(net, source, pois)
            for target in pois:
                forward, backward = reference_path(net, source, target), reference_path(net, target, source)
                assert tree.get(target) == forward
                if forward is None:
                    continue
                back = tree.path_from(target)
                if back is None:
                    fell_back += 1
                else:
                    read_back += 1
                    assert back == backward
    if name == "road-zero-fares":
        assert read_back == 0  # every hop is free: nothing is read back
    else:
        assert read_back > fell_back
    if name == "road-unjittered":
        assert fell_back > 0  # the ties were seen


@pytest.mark.parametrize("name", ["road-jittered", "road-unjittered", "random"])
def test_one_target_trees_read_back_as_the_reference_does(name):
    """A one-target search runs the landmark loop: its ties must be seen too."""
    net = NETWORKS[name](0)
    read_back = 0
    for source in range(net.poi_count):
        for target in range(net.poi_count):
            back = shortest_paths(net, source, [target]).path_from(target)
            if back is not None:
                read_back += 1
                assert back == reference_path(net, target, source)
    assert read_back > net.poi_count


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_legs_answer_every_pair_from_their_trees_as_the_reference_does(name):
    net = NETWORKS[name](3)
    pois = range(net.poi_count)
    legs = Legs()
    for origin in pois[::3]:  # a tree from every third PoI to every PoI not a multiple of 3
        legs.costs(net, (origin,), [poi for poi in pois if poi % 3])
    unheld = 0
    for u in pois:
        for v in pois:
            unheld += (u % 3 == 0) == (v % 3 == 0)  # neither end's tree searched for the other
            expected = reference_path(net, u, v)
            if expected is None:
                with pytest.raises(InfeasibleRouteError):
                    legs.path(net, u, v)
            else:
                assert legs.path(net, u, v) == expected
    if name in ("road-jittered", "random", "disconnected"):  # no ties: every held leg is read from a tree
        assert legs.searches == unheld
    else:
        assert legs.searches > unheld


COSTS_NETWORKS = {**NETWORKS, "road-tied-fares": lambda seed: road_network(seed, 6, jitter=0.0, fare_table=TIED_FARES)}


@pytest.mark.parametrize("name", sorted(COSTS_NETWORKS))
def test_legs_costs_are_the_reference_costs_from_the_fewest_new_trees(name, searches):
    """``Legs.costs`` against ``reference_path``: every reachable pair with
    its cost and no unreachable pair, from one new tree per origin or per
    target that no tree searched before covers, whichever set is smaller,
    origins on a tie; and a repeated call searches nothing."""
    sides = set()
    covered_seen = 0
    for seed in range(2):
        net = COSTS_NETWORKS[name](seed)
        rng = SplitMix64(seed)
        pool = list(range(0, net.poi_count, 3))  # on the disconnected network, PoIs of all three components
        legs = Legs()
        searches.clear()
        origins, targets = (), ()
        for call in range(16):
            if call % 3 == 2:
                origins, targets = targets, tuple(rng.sample(pool, 1 + rng.below(5)))  # the last targets as origins
            else:
                origins, targets = tuple(rng.sample(pool, 1 + rng.below(4))), tuple(rng.sample(pool, 1 + rng.below(5)))

            def covered(poi, other):
                return any(search.origin == poi and set(other) <= set(search.targets) for search in searches)

            rest_origins = [o for o in origins if not covered(o, targets)]
            rest_targets = [t for t in targets if not covered(t, origins)]
            covered_seen += len(rest_origins) < len(origins) or len(rest_targets) < len(targets)
            before = len(searches)
            costs = legs.costs(net, origins, targets)
            expected = {}
            for o in origins:
                for t in targets:
                    path = reference_path(net, o, t)
                    if path is not None:
                        expected[(o, t)] = path.cost
            assert costs == expected
            searched = rest_origins if len(rest_origins) <= len(rest_targets) else rest_targets
            sides.add(searched is rest_origins)
            new = searches[before:]
            assert {search.kind for search in new} <= {"tree"}
            assert [search.origin for search in new] == searched
            assert len(new) == min(len(rest_origins), len(rest_targets))
            assert legs.costs(net, origins, targets) == expected
            assert len(searches) == before + len(new)  # the repeated call searched nothing
    assert sides == {True, False}  # searched from origins and from targets
    assert covered_seen > 0  # some PoIs were answered by earlier trees


def test_a_tie_is_never_read_back():
    # 0-1-4-5 and 0-3-2-5 cost the same: the tree of 0 reaches 5 through 2
    # (the lower-id predecessor of 5), and a search from 5 reaches 0 through
    # 1 (the lower-id predecessor of 0), so the two paths differ
    net = built(6, [(0, 1), (1, 4), (4, 5), (0, 3), (3, 2), (2, 5)])
    tree = shortest_paths(net, 0, [5, 4])
    assert tree[5].poi_sequence == (0, 3, 2, 5)
    assert reference_path(net, 5, 0).poi_sequence == (5, 4, 1, 0)
    assert tree.path_from(5) is None
    assert tree.path_from(4) == reference_path(net, 4, 0)  # its one cheapest path
    assert shortest_paths(net, 0, [5]).path_from(5) is None  # a one-target search, in the landmark loop
    legs = Legs()
    legs.costs(net, (0,), [5, 4])
    assert legs.path(net, 5, 0) == reference_path(net, 5, 0) and legs.searches == 1
    assert legs.path(net, 4, 0) == reference_path(net, 4, 0) and legs.searches == 1


def test_a_network_with_a_free_hop_never_reads_back():
    fares = FLAT.with_mode("F", FarePolicy(0, Decimal(0), Decimal(0)))
    net = built(5, [(0, 1), (1, 2), (2, 3), (3, 4, 1)], fares)  # a path whose last hop is free
    assert net.has_free_hop and not road_network(0, 4).has_free_hop
    tree = shortest_paths(net, 0, range(5))
    assert all(tree.path_from(poi) is None for poi in range(5))
    legs = Legs()
    legs.costs(net, (0,), range(5))
    for poi in range(1, 5):
        assert legs.path(net, 0, poi) == reference_path(net, 0, poi)  # forward reads
        assert legs.path(net, poi, 0) == reference_path(net, poi, 0)
    assert legs.searches == 4  # each leg back searched point to point


def test_pruned_road_plans_search_no_source_leg_point_to_point(searches, monkeypatch):
    from gtpmm import planner

    prune, compute_dp = planner._prune, planner.compute_dp
    pruned = []

    def marked_prune(*args):
        query = prune(*args)
        pruned.append(query is not None)
        return query

    def marked_compute_dp(*args, **kwargs):
        table = compute_dp(*args, **kwargs)
        searches.append("dp")  # marks the end of the DP's searches
        return table

    monkeypatch.setattr(planner, "_prune", marked_prune)
    monkeypatch.setattr(planner, "compute_dp", marked_compute_dp)
    for seed in range(4):
        net = road_network(seed, 12)
        assert net.landmark_tightness >= PRUNE_TIGHTNESS
        for agents in (3, 9, 20):
            inst = draw_instance(net, seed + agents, 3, 5, agents)
            searches.clear()
            common = plan(net, inst, PER_PERSON).common_pois
            legs = searches[searches.index("dp") + 1 :]
            # no search for a source leg, and none for the destination legs: only hops that were not priced
            assert {search.kind for search in legs} <= {"path"}
            assert {(search.origin, search.targets[0]) for search in legs} <= set(zip(common, common[1:]))
    assert sum(pruned) > len(pruned) // 2


def plan_cases():
    for seed in range(3):
        net = random_network(seed, n_pois=40, n_modes=3)
        for agents in (1, 4, 9):
            yield net, random_instance(seed + agents, net, 3, 4, agents)
            yield net, draw_instance(net, seed + agents, 2, 5, agents)
    for fares, jitter in ((None, 0.4), (None, 0.0), (TIED_FARES, 0.0), (ZERO_FARES, 0.4)):
        yield from road_cases(fares, jitter)


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
def test_plans_equal_their_point_to_point_legs(sharing):
    """Every leg, mode and total of a plan is that of the plan through the
    same PoIs with every leg searched point to point, as the planner and
    NNCM searched them before they read legs from search trees."""
    for net, inst in plan_cases():
        for journey in (plan(net, inst, sharing), nncm(net, inst, sharing)):
            point_to_point = assemble(net, inst, journey.common_pois, sharing, reference_path)
            assert journey == point_to_point


def test_the_search_record_sees_each_search_once(searches):
    net = road_network(0, 5)
    legs = Legs()
    legs.costs(net, (0,), [3, 4])
    legs.path(net, 4, 0)  # read back
    legs.path(net, 2, 7)  # point to point
    assert searches == [Search("tree", 0, (3, 4)), Search("path", 2, (7,))]

"""Legs read from search trees, forward and back, against the plain Dijkstra.

Every single-source search keeps its cost list, and ``Legs`` answers a leg
from a tree that settled it: from its origin forward, or from its target
back when the tree can tell that the cheapest path is the only one. Each
tree walks its paths back from the costs. These tests hold every such leg
to ``reference_path``, the search the checks use, and to a verbatim copy
of the search and tree that kept a predecessor list and a tie set; and
the planner's and NNCM's plans to plans whose every leg is searched point
to point, as they were before the trees.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from decimal import Decimal
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Search
from gtpmm import InfeasibleRouteError, SharingMode, nncm, plan, rpcm
from gtpmm.bench import draw_instance
from gtpmm.network import (
    PRUNE_TIGHTNESS,
    FarePolicy,
    FareTable,
    Money,
    MultiModalNetwork,
    NetworkBuilder,
    PathResult,
    _cheapest_legs,
    _goal_order,
    _landmark_bounds,
    reference_path,
    shortest_paths,
)
from gtpmm.planner import Legs, assemble
from gtpmm.rng import SplitMix64
from gtpmm.synth import random_disconnected_network, random_instance, random_network, road_network
from test_network import EDGE_CASE_FARES, EDGE_CASE_NETWORKS, built_network, landmark_networks, small_networks
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


class ParentSearchTree(Mapping[int, PathResult]):
    """Verbatim copy of ``SearchTree`` that kept a predecessor list and a tie set."""

    def __init__(
        self,
        net: MultiModalNetwork,
        source: int,
        targets: frozenset[int],
        costs: dict[int, Money],
        pred: list[int],
        tied: set[int],
    ) -> None:
        self.source = source
        self.targets = targets
        self.costs = costs
        self._net = net
        self._pred = pred
        self._tied = tied

    def __getitem__(self, target: int) -> PathResult:
        cost = self.costs[target]  # a KeyError for a PoI the search did not reach
        sequence = [target]
        while sequence[-1] != self.source:
            sequence.append(self._pred[sequence[-1]])
        sequence.reverse()
        return PathResult(cost, _cheapest_legs(self._net, sequence), tuple(sequence))

    def __iter__(self) -> Iterator[int]:
        return iter(self.costs)

    def __len__(self) -> int:
        return len(self.costs)

    def path_from(self, target: int) -> PathResult | None:
        """The path from ``target``, a reached target, back to ``source``
        that ``shortest_path(net, target, source)`` returns, or None when
        the tree cannot tell it.

        The tree tells it when the path is the only cheapest one, as every
        search then finds it: when no edge of the network is free
        (:attr:`MultiModalNetwork.has_free_hop`) and no PoI on the path is
        in the tie set. Over priced edges every PoI that ends a cheapest
        path to ``v`` is settled before ``v`` in both loops of
        :func:`shortest_paths`, whatever goal the bounded loop aims at, as
        its ``(f, g)`` is lower, and offers ``v`` its final cost; so a PoI
        that no second predecessor offered its final cost has one cheapest
        predecessor, and a chain of such PoIs is the one cheapest path.
        Across a free edge both ends have equal ``f`` and ``g``, and the
        lower id can be settled without hearing from the other.
        """
        if self._net.has_free_hop:
            return None
        forward = self[target]
        if not self._tied.isdisjoint(forward.poi_sequence):
            return None
        return PathResult(forward.cost, forward.legs[::-1], forward.poi_sequence[::-1])


def parent_shortest_paths(net: MultiModalNetwork, source: int, targets: Iterable[int]) -> ParentSearchTree:
    """Verbatim copy of ``shortest_paths`` that kept a predecessor list and a tie set."""
    net.check_poi(source)
    remaining = set(targets)
    for target in remaining:
        net.check_poi(target)
    wanted = frozenset(remaining)

    # Per-search state in flat lists indexed by PoI id: tentative cost (None
    # until reached), predecessor and settled mark; and per PoI that a
    # second predecessor offered its tentative cost, that cost.
    dist: list[Money | None] = [None] * net.poi_count
    pred = [-1] * net.poi_count
    settled = [False] * net.poi_count
    ties: dict[int, Money] = {}
    dist[source] = 0
    neighbors = net.cheapest_neighbors
    # Two loops, so that a search without bounds pays nothing for them at each push; the bounded loop hands
    # its open entries to the plain loop when a group's bounds would not pay off.
    goals = _goal_order(net, source, remaining)
    bounds = _landmark_bounds(net, (source,), remaining if goals is None else goals[:1])
    heap: list[tuple[Money, int]] = [(0, source)] if bounds is None else []
    if bounds is not None:
        row1, lo1, hi1, row2, lo2, hi2 = bounds
        goal = -1 if goals is None else goals[0]  # the one group's search ends when no target remains
        later = iter(goals or ())
        bounded: list[tuple[Money, Money, int]] = [(0, 0, source)]
        rekeyed = 0  # open entries re-keyed so far
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
                    ties[v] = candidate
                    if u < pred[v]:
                        pred[v] = u
            if u == goal:  # re-aim at the next target not settled while no more entries were re-keyed than PoIs reached
                if rekeyed <= len(dist) - dist.count(None):
                    goal = next(target for target in later if not settled[target])
                    bounds = _landmark_bounds(net, (source,), (goal,))  # a single target's band always pays off
                else:
                    goal = -1
                    bounds = _landmark_bounds(net, (source,), remaining)
                if bounds is None:  # the open entries go on in the plain loop
                    heap = [(g, v) for _, g, v in bounded if g == dist[v] and not settled[v]]
                    heapify(heap)
                    break
                row1, lo1, hi1, row2, lo2, hi2 = bounds
                entries, bounded = bounded, []
                for _, g, v in entries:
                    if g == dist[v] and not settled[v]:  # live: not stale, not settled
                        x, y = row1[v], row2[v]  # the new f, inlined as at a push: a max() call costs twice as much
                        h1 = lo1 - x if x < lo1 else x - hi1 if x > hi1 else 0
                        h2 = lo2 - y if y < lo2 else y - hi2 if y > hi2 else 0
                        bounded.append((g + (h1 if h1 > h2 else h2), g, v))
                heapify(bounded)
                rekeyed += len(bounded)
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
                ties[v] = candidate
                if u < pred[v]:
                    pred[v] = u

    costs = {target: dist[target] for target in wanted if settled[target]}
    tied = {v for v, cost in ties.items() if cost == dist[v]}  # a tie at a cost later beaten is no tie
    return ParentSearchTree(net, source, wanted, costs, pred, tied)


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
            tree, parent = shortest_paths(net, source, pois), parent_shortest_paths(net, source, pois)
            for target in pois:
                forward, backward = reference_path(net, source, target), reference_path(net, target, source)
                assert tree.get(target) == parent.get(target) == forward
                if forward is None:
                    continue
                back = tree.path_from(target)
                assert back == parent.path_from(target)  # None just where the tie set declined
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
            assert back == parent_shortest_paths(net, source, [target]).path_from(target)
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
        assert legs.searches["path"] == unheld
    else:
        assert legs.searches["path"] > unheld


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


def assert_summed_is_the_reference(net, legs, endpoints, pois):
    """``Legs.summed`` against per-agent ``reference_path`` sums: each PoI
    that every endpoint reaches, in ``pois`` order, with the sum over the
    agents of their legs' costs; a PoI some endpoint cannot reach is missing."""
    expected = {}
    for j in pois:
        agent_legs = [reference_path(net, e, j) for e in endpoints.elements()]
        if None not in agent_legs:
            expected[j] = sum(leg.cost for leg in agent_legs)
    summed = legs.summed(net, endpoints, pois)
    assert summed == expected
    assert list(summed) == list(expected)  # in pois order


@settings(max_examples=150, deadline=None)
@given(net=st.one_of(small_networks(), landmark_networks()), data=st.data())
def test_legs_summed_is_the_sum_of_reference_legs_on_random_networks(net, data):
    poi = st.integers(min_value=0, max_value=net.poi_count - 1)
    legs = Legs()
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):  # trees kept before, either side
        legs.costs(net, data.draw(st.lists(poi, min_size=1, max_size=4)), data.draw(st.lists(poi, max_size=4)))
    endpoints = Counter(data.draw(st.lists(poi, min_size=1, max_size=8)))  # agents share endpoints
    pois = data.draw(st.lists(poi, max_size=6, unique=True))  # in no particular order
    assert_summed_is_the_reference(net, legs, endpoints, pois)


@pytest.mark.parametrize("name", sorted(EDGE_CASE_NETWORKS))
def test_legs_summed_is_the_sum_of_reference_legs_on_edge_case_networks(name):
    n_pois, edge_specs = EDGE_CASE_NETWORKS[name]
    net = built_network(n_pois, EDGE_CASE_FARES, edge_specs)
    every, last = range(n_pois), n_pois - 1
    for endpoints in (Counter([0]), Counter([0, 0, 2]), Counter([last, 1, 1, last, 2, last]), Counter(every)):
        assert_summed_is_the_reference(net, Legs(), endpoints, every[::-1])
        assert_summed_is_the_reference(net, Legs(), endpoints, [1])


@pytest.mark.parametrize("name", sorted(COSTS_NETWORKS))
def test_legs_summed_after_costs_the_other_way_searches_nothing(name, searches):
    """The property ``plan()``'s last-stage argmin relies on: once the DP's
    ``costs(pois, endpoints)`` has run, ``summed(endpoints, pois)`` reads
    every pair from the trees kept, whichever side they were grown from."""
    sides = set()
    for seed in range(2):
        net = COSTS_NETWORKS[name](seed)
        rng = SplitMix64(seed)
        pool = list(range(0, net.poi_count, 2))
        legs = Legs()  # shared, so some calls find trees kept by earlier ones
        for _ in range(12):
            pois = tuple(rng.sample(pool, 1 + rng.below(5)))
            endpoints = Counter(rng.sample(pool, 1 + rng.below(4)) * (1 + rng.below(3)))
            before = len(searches)
            legs.costs(net, pois, endpoints)
            sides.update(search.origin in pois for search in searches[before:])
            before = len(searches)
            assert_summed_is_the_reference(net, legs, endpoints, pois)
            assert len(searches) == before
    assert sides == {True, False}  # trees grown from the PoIs and from the endpoints


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
    assert legs.path(net, 5, 0) == reference_path(net, 5, 0) and legs.searches["path"] == 1
    assert legs.path(net, 4, 0) == reference_path(net, 4, 0) and legs.searches["path"] == 1


def test_a_tree_counts_its_reached_targets_alone():
    net = built(5, [(0, 1), (1, 2), (3, 4)])  # 3 and 4 are unreachable from 0
    tree = shortest_paths(net, 0, [4, 2, 3])
    assert len(tree) == 1 and list(tree) == [2] and tree.targets == {2, 3, 4}


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
    assert legs.searches["path"] == 4  # each leg back searched point to point


def test_a_walk_across_a_free_hop_follows_the_settle_order():
    # 5-3 is priced and 3-1 free: 3 settles before 1 at the same cost, so
    # the walk back from 3 must pass over 1, its lower-id neighbour at an
    # equal cost, or it would run 3, 1, 3, ... without end
    fares = FLAT.with_mode("F", FarePolicy(0, Decimal(0), Decimal(0)))
    net = built(6, [(5, 3), (3, 1, 1)], fares)
    for targets in ([1, 3], [3, 1], [1], [3]):
        tree = shortest_paths(net, 5, targets)
        for target in targets:
            assert tree[target] == reference_path(net, 5, target)
        assert tree.path_from(targets[0]) is None  # a free hop: nothing is read back
    assert shortest_paths(net, 5, [1])[1].poi_sequence == (5, 3, 1)


@pytest.fixture
def made_legs(monkeypatch):
    """Every :class:`Legs` that ``plan()`` and the baselines make during the test, in order."""
    from gtpmm import baselines, planner

    made = []

    class Recorded(Legs):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(planner, "Legs", Recorded)
    monkeypatch.setattr(baselines, "Legs", Recorded)
    return made


def count_cases():
    """Road networks, where plan() prunes and NNCM scores by landmark
    bound, and random ones with the pruning gate closed, where plan() runs
    the DP over every PoI and NNCM scores every candidate by search."""
    for seed in range(2):
        road = road_network(seed, 10)
        assert road.landmark_tightness >= PRUNE_TIGHTNESS
        gate_off = random_network(seed, n_pois=60, n_modes=3)
        gate_off.__dict__["landmark_tightness"] = 0.0  # the cached view, set ahead of its first use
        for net in (road, gate_off):
            for agents in (2, 9):
                yield net, draw_instance(net, seed + agents, 3, 5, agents)


@pytest.mark.parametrize(
    "method, kinds, branches",
    [
        (lambda net, inst: plan(net, inst, PER_PERSON), {"tree", "layer", "path"}, {"pruned"}),
        (lambda net, inst: nncm(net, inst, PER_PERSON), {"tree"}, {"bound", "search"}),
        (lambda net, inst: rpcm(net, inst, 11, PER_PERSON), {"tree", "path"}, set()),
    ],
    ids=["plan", "nncm", "rpcm"],
)
def test_legs_count_every_search_by_kind(method, kinds, branches, searches, made_legs, monkeypatch):
    """``Legs.searches`` equals, kind by kind, the searches the fixture
    records, on pruned and unpruned plans and with both NNCM scorers."""
    from gtpmm import baselines, planner

    taken = set()  # "pruned" when plan() pruned, and the NNCM scorers that ran

    def spy(function, branch):
        def spied(*args):
            result = function(*args)
            if branch != "pruned" or result[0] is not None:  # _prune returns (query or None, bounds)
                taken.add(branch)
            return result

        return spied

    least = baselines._least_total

    def least_total(base, lower, price):
        taken.add("search" if lower is None else "bound")
        return least(base, lower, price)

    monkeypatch.setattr(planner, "_prune", spy(planner._prune, "pruned"))
    monkeypatch.setattr(baselines, "_least_total", least_total)
    seen = set()
    for net, inst in count_cases():
        searches.clear()
        made_legs.clear()
        method(net, inst)
        (legs,) = made_legs
        assert legs.searches == Counter(search.kind for search in searches)
        seen.update(legs.searches)
    assert seen == kinds
    assert taken == branches


def test_pruned_road_plans_search_no_source_leg_point_to_point(searches, monkeypatch):
    from gtpmm import planner

    prune, compute_dp = planner._prune, planner.compute_dp
    pruned = []

    def marked_prune(*args):
        query, bounds = prune(*args)
        pruned.append(query is not None)
        return query, bounds

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

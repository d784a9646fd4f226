"""Reference heuristics the exact planner is benchmarked against.

All three return a full :class:`~gtpmm.planner.JourneyPlan` and are
deterministic: the randomized ones consume a single SplitMix64 stream in a
documented order (first one PoI draw per category, then one mode draw per
hop along source legs, intermediate legs, and destination legs, in that
order), so equal (network, instance, seed) yields identical plans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from typing import Iterable

from .errors import InfeasibleRouteError
from .network import MultiModalNetwork, PathResult, _hop_edges, landmark_bound
from .planner import JourneyPlan, Legs, QueryInstance, SharingMode, _least_total, _summed_bounds, assemble
from .rng import SplitMix64


def _bfs_tree(net: MultiModalNetwork, origin: int, targets: Iterable[int]) -> tuple[list[int], list[int]]:
    """Fewest-hops BFS tree of ``origin``, as a parent and a depth (hops
    from the origin) per PoI, grown a level at a time until every PoI of
    ``targets`` is discovered or the component is exhausted. The origin is
    its own parent at depth 0; -1 marks an undiscovered PoI in both lists.

    Neighbors expand in ascending PoI id, the order of the
    :attr:`MultiModalNetwork.cheapest_neighbors` rows, and the PoIs of a
    level in the order they were discovered, the order of a BFS queue. A
    BFS fixes a PoI's parent when it first discovers it, in an order that
    does not depend on any target, so the walk back from a target is the
    route a BFS stopping there would find, and the route in the whole
    component's tree; the level that discovers the last target is finished.
    In that order a level's PoIs are sorted by their routes read from the
    origin, compared PoI by PoI, so each PoI's route is the least
    fewest-hops PoI sequence from the origin to it.
    """
    parent = [-1] * net.poi_count
    depth = [-1] * net.poi_count
    parent[origin] = origin
    depth[origin] = 0
    undiscovered = set(targets) - {origin}
    level = [origin]
    hops = 0
    neighbors = net.cheapest_neighbors
    while level and undiscovered:
        hops += 1
        found = []
        for u in level:
            for v, _ in neighbors[u]:
                if parent[v] == -1:
                    parent[v] = u
                    depth[v] = hops
                    found.append(v)
        undiscovered.difference_update(found)
        level = found
    return parent, depth


def _walk_back(parent: list[int], origin: int, target: int) -> list[int] | None:
    """The route from ``origin`` to ``target`` in the tree ``parent`` of
    ``origin``, or None where the tree did not discover ``target``."""
    if parent[target] == -1:
        return None
    sequence = [target]
    while sequence[-1] != origin:
        sequence.append(parent[sequence[-1]])
    sequence.reverse()
    return sequence


def _walk_down(net: MultiModalNetwork, depth: list[int], source: int) -> list[int] | None:
    """The route from ``source`` to the root of the tree whose ``depth``
    list this is, or None where the tree did not discover ``source``: each
    step goes to the least-id neighbor one level nearer the root.

    Every PoI of a level has a neighbor on the level nearer the root, so
    each such step stays on a fewest-hops route, and the least step first
    makes the least fewest-hops PoI sequence from ``source``: the route
    that :func:`_bfs_tree` of ``source`` walks back from the root. A level
    nearer the root than ``source`` is finished, so every depth read here
    is known.
    """
    hops = depth[source]
    if hops == -1:
        return None
    sequence = [source]
    neighbors = net.cheapest_neighbors
    while hops:
        hops -= 1
        for v, _ in neighbors[sequence[-1]]:
            if depth[v] == hops:
                sequence.append(v)
                break
    return sequence


def _random_common(inst: QueryInstance, rng: SplitMix64) -> tuple[int, ...]:
    # Category sets are stored sorted, so indexing is stable across runs.
    return tuple(cat[rng.below(len(cat))] for cat in inst.categories)


def _cheapest_legs_plan(
    net: MultiModalNetwork, inst: QueryInstance, common: tuple[int, ...], sharing: SharingMode, legs: Legs
) -> JourneyPlan:
    """The plan through ``common`` with every leg at its cheapest, from
    ``legs`` and what it already holds; one search from the last common
    PoI serves every destination leg that nothing held answers."""
    legs.fill(net, common[-1], [dest for _, dest in inst.agents])
    return assemble(net, inst, common, sharing, legs.path)


def rprm(
    net: MultiModalNetwork,
    inst: QueryInstance,
    seed: int,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Random PoI per category; random mode per hop along fewest-hops routes.

    A leg's route is the least fewest-hops PoI sequence from its start,
    read from at most one :func:`_bfs_tree` per distinct common PoI, built
    once per call: hop and destination legs walk back from the tree at
    their start, and source legs walk down the first common PoI's tree
    (:func:`_walk_down`), which grows until it discovers every source. Each
    distinct leg's route and its hops' :attr:`~gtpmm.network.MultiModalNetwork.hop_edges`
    are found once; every leg then makes its own draws, one per hop among
    those edges in ``(mode, edge id)`` order, in one
    :meth:`~gtpmm.rng.SplitMix64.choose_each` call.
    """
    inst.check(net)
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    targets: defaultdict[int, set[int]] = defaultdict(set)  # common PoI -> what its tree must discover
    targets[common[0]].update(source for source, _ in inst.agents)
    for a, b in zip(common, common[1:]):
        targets[a].add(b)
    targets[common[-1]].update(dest for _, dest in inst.agents)
    trees: dict[int, tuple[list[int], list[int]]] = {}  # common PoI -> its BFS tree, for this call only
    routes: dict[tuple[int, int], tuple[tuple[int, ...], list[tuple[int, ...]]] | None] = {}
    edges, cost_of = net.edges, net.edge_costs.__getitem__

    def tree(root: int) -> tuple[list[int], list[int]]:
        if root not in trees:
            trees[root] = _bfs_tree(net, root, targets[root])
        return trees[root]

    def leg(_: MultiModalNetwork, u: int, v: int) -> PathResult:
        if (u, v) not in routes:
            # hop and destination legs; a source leg from a common PoI whose tree must discover
            # the first common PoI takes the route it would walk down to it
            if v in targets.get(u, ()):
                sequence = _walk_back(tree(u)[0], u, v)
            else:  # a source leg: v is the first common PoI
                sequence = _walk_down(net, tree(v)[1], u)
            routes[u, v] = None if sequence is None else (
                tuple(sequence),
                [_hop_edges(net, a, b) for a, b in zip(sequence, sequence[1:])],
            )
        route = routes[u, v]
        if route is None:
            raise InfeasibleRouteError(u, v)
        sequence, hops = route
        eids = rng.choose_each(hops)
        return PathResult(sum(map(cost_of, eids)), tuple((eid, edges[eid].mode) for eid in eids), sequence)

    return assemble(net, inst, common, sharing, leg)


def rpcm(
    net: MultiModalNetwork,
    inst: QueryInstance,
    seed: int,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Random PoI per category; every leg via the cheapest path and modes.

    Consumes the same leading PoI draws as :func:`rprm`, so under one seed
    both heuristics visit identical common PoIs.
    """
    inst.check(net)
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    return _cheapest_legs_plan(net, inst, common, sharing, Legs())


def nncm(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Greedy nearest-neighbor chain, cheapest modes, no randomness.

    The first pick minimizes the summed distance from all sources; each
    later pick is nearest (by cheapest cost) to the previous pick. Ties go
    to the lower PoI id.

    Each pick is :func:`~gtpmm.planner._least_total`'s, the pick that ends the
    planner's DP too, over the category's candidates priced by
    :meth:`~gtpmm.planner.Legs.summed` from the origins. Where
    :func:`~gtpmm.network.landmark_bound` bounds every origin and candidate of
    a category (past the gate of :func:`~gtpmm.planner.plan`'s pruning), the
    candidates are priced one at a time in order of their summed lower bound
    from the origins (:func:`~gtpmm.planner._summed_bounds`) until none left
    can win; elsewhere all at once, by one :meth:`~gtpmm.planner.Legs.summed`
    call. Both pick the same PoIs, and keep their searches in one
    :class:`~gtpmm.planner.Legs`, from whose trees the plan reads the legs they
    answer: every hop, and the first pick's source legs, where a leg read back
    from the pick's tree must be the only cheapest path.
    """
    inst.check(net)
    legs = Legs()
    common: list[int] = []
    for cat in inst.categories:
        origins = Counter([common[-1]] if common else [source for source, _ in inst.agents])
        bound = landmark_bound(net, [*origins, *cat])
        lower = None if bound is None else _summed_bounds(bound, origins, cat)
        best = _least_total(dict.fromkeys(cat, 0), lower, partial(legs.summed, net, origins))
        if best is None:  # as plan() names it: cat[0] and the first origin, in agent order, that does not reach it
            reached = legs.costs(net, origins, cat[:1])  # from the trees just kept: no search
            raise InfeasibleRouteError(next(o for o in origins if (o, cat[0]) not in reached), cat[0])
        common.append(best[1])

    return _cheapest_legs_plan(net, inst, tuple(common), sharing, legs)

"""Reference heuristics the exact planner is benchmarked against.

All three return a full :class:`~gtpmm.planner.JourneyPlan` and are
deterministic: the randomized ones consume a single SplitMix64 stream in a
documented order (first one PoI draw per category, then one mode draw per
hop along source legs, intermediate legs, and destination legs, in that
order), so equal (network, instance, seed) yields identical plans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable

from .errors import InfeasibleRouteError
from .network import Money, MultiModalNetwork, PathResult, _hop_edges, landmark_bound
from .planner import JourneyPlan, Legs, QueryInstance, SharingMode, assemble
from .rng import SplitMix64


def _bfs_tree(net: MultiModalNetwork, origin: int, targets: Iterable[int]) -> list[int]:
    """Fewest-hops BFS tree of ``origin``, as a parent per PoI (the origin
    is its own parent, -1 marks an undiscovered PoI), grown a level at a
    time until every PoI of ``targets`` is discovered or the component is
    exhausted.

    Neighbors expand in ascending PoI id, the order of the
    :attr:`MultiModalNetwork.cheapest_neighbors` rows, and the PoIs of a
    level in the order they were discovered, the order of a BFS queue. A
    BFS fixes a PoI's parent when it first discovers it, in an order that
    does not depend on any target, so the walk back from a target is the
    route a BFS stopping there would find, and the route in the whole
    component's tree; the level that discovers the last target is finished.
    """
    parent = [-1] * net.poi_count
    parent[origin] = origin
    undiscovered = set(targets) - {origin}
    level = [origin]
    neighbors = net.cheapest_neighbors
    while level and undiscovered:
        found = []
        for u in level:
            for v, _ in neighbors[u]:
                if parent[v] == -1:
                    parent[v] = u
                    found.append(v)
        undiscovered.difference_update(found)
        level = found
    return parent


def _random_mode_leg(
    net: MultiModalNetwork, parent: list[int], source: int, target: int, rng: SplitMix64
) -> PathResult:
    """Fewest-hops route from the tree ``parent`` of ``source``, with an
    independently random mode on every hop: one draw per hop among its
    :attr:`~gtpmm.network.MultiModalNetwork.hop_edges`, in ``(mode, edge
    id)`` order."""
    if parent[target] == -1:
        raise InfeasibleRouteError(source, target)
    sequence = [target]
    while sequence[-1] != source:
        sequence.append(parent[sequence[-1]])
    sequence.reverse()
    eids = rng.choose_each([_hop_edges(net, a, b) for a, b in zip(sequence, sequence[1:])])
    edges = net.edges
    legs = tuple((eid, edges[eid].mode) for eid in eids)
    return PathResult(sum(map(net.edge_costs.__getitem__, eids)), legs, tuple(sequence))


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
    """Random PoI per category; random mode per hop along fewest-hops routes."""
    inst.check(net)
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    targets: defaultdict[int, set[int]] = defaultdict(set)  # leg origin -> the ends of its legs
    for source, _ in inst.agents:
        targets[source].add(common[0])
    for a, b in zip(common, common[1:]):
        targets[a].add(b)
    targets[common[-1]].update(dest for _, dest in inst.agents)
    trees: dict[int, list[int]] = {}  # leg origin -> its BFS tree, for this call only

    def leg(n: MultiModalNetwork, u: int, v: int) -> PathResult:
        if u not in trees:
            trees[u] = _bfs_tree(n, u, targets[u])
        return _random_mode_leg(n, trees[u], u, v, rng)

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


def _nearest_by_search(
    net: MultiModalNetwork, origins: Counter[int], cat: tuple[int, ...], legs: Legs
) -> tuple[Money, int] | None:
    """``(summed cost from the origins, PoI)`` of the cheapest PoI of ``cat``
    that every origin reaches, ties to the lower id, or None."""
    return min(((cost, j) for j, cost in legs.summed(net, origins, cat).items()), default=None)


def _nearest_by_bound(
    net: MultiModalNetwork,
    origins: Counter[int],
    cat: tuple[int, ...],
    bound: Callable[[int, int], Money],
    legs: Legs,
) -> tuple[Money, int]:
    """:func:`_nearest_by_search`'s pick, priced in ``(lower bound, PoI)``
    order until no candidate left can win.

    A candidate's lower bound is its summed ``bound`` from the origins,
    at most its summed cost; so once a candidate's ``(bound, id)`` exceeds
    the best ``(cost, id)`` so far, it and every candidate after it cost
    more or tie at a higher id. Each candidate is priced by
    :meth:`~gtpmm.planner.Legs.summed` from the origins, whose trees are
    kept in ``legs``, where the plan's legs are read from them. ``bound``
    covers every origin and candidate, so all are connected.
    """
    order = sorted((sum(count * bound(origin, j) for origin, count in origins.items()), j) for j in cat)
    best: tuple[Money, int] | None = None
    for lower, j in order:
        if best is not None and (lower, j) > best:
            break
        cost = legs.summed(net, origins, (j,))[j]
        if best is None or (cost, j) < best:
            best = (cost, j)
    return best


def nncm(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Greedy nearest-neighbor chain, cheapest modes, no randomness.

    The first pick minimizes the summed distance from all sources; each
    later pick is nearest (by cheapest cost) to the previous pick. Ties go
    to the lower PoI id.

    Where :func:`~gtpmm.network.landmark_bound` bounds every origin and
    candidate of a category (past the gate of :func:`~gtpmm.planner.plan`'s
    pruning), the candidates are priced in order of that lower bound until
    none left can win (:func:`_nearest_by_bound`).
    Elsewhere each category is scored by one
    :meth:`~gtpmm.planner.Legs.summed` call over all its candidates
    (:func:`_nearest_by_search`). Both pick the same PoIs, and keep their
    searches in one
    :class:`~gtpmm.planner.Legs`, from whose trees the plan reads the legs
    they answer: every hop, and the first pick's source legs, where a leg
    read back from the pick's tree must be the only cheapest path.
    """
    inst.check(net)
    legs = Legs()
    common: list[int] = []
    for cat in inst.categories:
        origins = Counter([common[-1]] if common else [source for source, _ in inst.agents])
        bound = landmark_bound(net, [*origins, *cat])
        if bound is None:
            best = _nearest_by_search(net, origins, cat, legs)
        else:
            best = _nearest_by_bound(net, origins, cat, bound, legs)
        if best is None:  # as plan() names it: cat[0] and the first origin, in agent order, that does not reach it
            reached = legs.costs(net, origins, cat[:1])  # from the trees just kept: no search
            raise InfeasibleRouteError(next(o for o in origins if (o, cat[0]) not in reached), cat[0])
        common.append(best[1])

    return _cheapest_legs_plan(net, inst, tuple(common), sharing, legs)

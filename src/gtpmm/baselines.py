"""Reference heuristics the exact planner is benchmarked against.

All three return a full :class:`~gtpmm.planner.JourneyPlan` and are
deterministic: the randomized ones consume a single SplitMix64 stream in a
documented order (first one PoI draw per category, then one mode draw per
hop along source legs, intermediate legs, and destination legs, in that
order), so equal (network, instance, seed) yields identical plans.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import Callable, Iterable

from .errors import InfeasibleRouteError
from .network import ModeId, Money, MultiModalNetwork, PathResult, landmark_bound
from .planner import PRUNE_TIGHTNESS, JourneyPlan, Legs, QueryInstance, SharingMode, assemble
from .rng import SplitMix64


def _bfs_tree(net: MultiModalNetwork, origin: int, targets: Iterable[int]) -> list[int]:
    """Fewest-hops BFS tree of ``origin``, as a parent per PoI (the origin
    is its own parent, -1 marks an undiscovered PoI), grown until every PoI
    of ``targets`` is discovered or the component is exhausted.

    Neighbors expand in ascending PoI id, the order of the
    :attr:`MultiModalNetwork.cheapest_neighbors` rows. A BFS fixes a PoI's
    parent when it first discovers it, in an order that does not depend on
    any target, so the walk back from a target is the route a BFS stopping
    there would find, and the route in the whole component's tree.
    """
    net.check_poi(origin)
    parent = [-1] * net.poi_count
    parent[origin] = origin
    undiscovered = set(targets) - {origin}
    queue = deque([origin])
    neighbors = net.cheapest_neighbors
    while queue and undiscovered:
        u = queue.popleft()
        for v, _ in neighbors[u]:
            if parent[v] == -1:
                parent[v] = u
                undiscovered.discard(v)
                if not undiscovered:
                    break
                queue.append(v)
    return parent


def _random_mode_leg(
    net: MultiModalNetwork,
    parent: list[int],
    source: int,
    target: int,
    rng: SplitMix64,
    parallel: dict[tuple[int, int], list[tuple[ModeId, int]]],
) -> PathResult:
    """Fewest-hops route from the tree ``parent`` of ``source``, with an
    independently random mode on every hop. ``parallel`` holds each hop's
    parallel edges as ``(mode, edge id)`` in ascending order; a hop not in
    it is added."""
    net.check_poi(target)
    if parent[target] == -1:
        raise InfeasibleRouteError(source, target)
    sequence = [target]
    while sequence[-1] != source:
        sequence.append(parent[sequence[-1]])
    sequence.reverse()
    legs = []
    cost = 0
    for hop in zip(sequence, sequence[1:]):
        edges = parallel.get(hop)
        if edges is None:
            a, b = hop
            edges = sorted((net.edges[eid].mode, eid) for eid in net.adjacency[a] if net.edges[eid].other(a) == b)
            parallel[hop] = edges
        mode, eid = edges[rng.below(len(edges))]
        legs.append((eid, mode))
        cost += net.edge_costs[eid]
    return PathResult(cost, tuple(legs), tuple(sequence))


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
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    targets: defaultdict[int, set[int]] = defaultdict(set)  # leg origin -> the ends of its legs
    for source, _ in inst.agents:
        targets[source].add(common[0])
    for a, b in zip(common, common[1:]):
        targets[a].add(b)
    targets[common[-1]].update(dest for _, dest in inst.agents)
    trees: dict[int, list[int]] = {}  # leg origin -> its BFS tree, for this call only
    parallel: dict[tuple[int, int], list[tuple[ModeId, int]]] = {}  # hop -> its sorted edges, for this call only

    def leg(n: MultiModalNetwork, u: int, v: int) -> PathResult:
        if u not in trees:
            trees[u] = _bfs_tree(n, u, targets[u])
        return _random_mode_leg(n, trees[u], u, v, rng, parallel)

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
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    return _cheapest_legs_plan(net, inst, common, sharing, Legs())


def _nearest_by_search(
    net: MultiModalNetwork, origins: Counter[int], cat: tuple[int, ...], legs: Legs
) -> tuple[Money, int] | None:
    """``(summed cost from the origins, PoI)`` of the cheapest reachable PoI
    of ``cat``, ties to the lower id, from one search per origin, kept in
    ``legs``; None when none is reachable from every origin."""
    reached = [(legs.search_from(net, origin, cat), count) for origin, count in origins.items()]
    best: tuple[Money, int] | None = None
    for j in cat:
        if all(j in costs for costs, _ in reached):
            cost = sum(costs[j] * count for costs, count in reached)
            if best is None or cost < best[0]:
                best = (cost, j)
    return best


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
    more or tie at a higher id. One origin prices a candidate with one
    search from the origin to it, several with one search from it to all
    of them (costs are symmetric); the searches are kept in ``legs``, where
    the plan's legs are read from them. ``bound`` covers every origin and
    candidate, so all are connected.
    """
    order = sorted((sum(count * bound(origin, j) for origin, count in origins.items()), j) for j in cat)
    best: tuple[Money, int] | None = None
    for lower, j in order:
        if best is not None and (lower, j) > best:
            break
        if len(origins) == 1:
            [(origin, count)] = origins.items()
            cost = count * legs.search_from(net, origin, (j,))[j]
        else:
            costs = legs.search_from(net, j, origins)
            cost = sum(count * costs[origin] for origin, count in origins.items())
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

    On a network that passes :func:`~gtpmm.planner.plan`'s pruning gate
    (:data:`~gtpmm.planner.PRUNE_TIGHTNESS`), and where
    :func:`~gtpmm.network.landmark_bound` bounds every origin and
    candidate of a category, the candidates are priced in order of that
    lower bound until none left can win (:func:`_nearest_by_bound`).
    Elsewhere each category runs one search per distinct origin. Both pick
    the same PoIs, and keep their searches in one
    :class:`~gtpmm.planner.Legs`, from whose trees the plan reads the legs
    they answer: the first pick's source legs and every hop, but for ties.
    """
    legs = Legs()
    bounded = net.landmark_tightness >= PRUNE_TIGHTNESS
    common: list[int] = []
    for cat in inst.categories:
        origins = Counter([common[-1]] if common else [source for source, _ in inst.agents])
        bound = landmark_bound(net, [*origins, *cat]) if bounded else None
        if bound is None:
            best = _nearest_by_search(net, origins, cat, legs)
        else:
            best = _nearest_by_bound(net, origins, cat, bound, legs)
        if best is None:
            raise InfeasibleRouteError(next(iter(origins)), cat[0])
        common.append(best[1])

    return _cheapest_legs_plan(net, inst, tuple(common), sharing, legs)

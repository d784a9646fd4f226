"""Reference heuristics the exact planner is benchmarked against.

All three return a full :class:`~gtpmm.planner.JourneyPlan` and are
deterministic: the randomized ones consume a single SplitMix64 stream in a
documented order (first one PoI draw per category, then one mode draw per
hop along source legs, intermediate legs, and destination legs, in that
order), so equal (network, instance, seed) yields identical plans.
"""

from __future__ import annotations

from collections import Counter, deque

from .errors import InfeasibleRouteError
from .network import MultiModalNetwork, PathResult, shortest_costs
from .planner import JourneyPlan, Legs, QueryInstance, SharingMode, assemble
from .rng import SplitMix64


def _bfs_tree(net: MultiModalNetwork, origin: int) -> list[int]:
    """Fewest-hops BFS tree of ``origin``'s whole component, as a parent per
    PoI (the origin is its own parent, -1 marks an unreached PoI).

    Neighbors expand in ascending PoI id, the order of the
    :attr:`MultiModalNetwork.cheapest_neighbors` rows. A BFS fixes a PoI's
    parent when it first discovers it, in an order that does not depend on
    any target, so the walk back from a target is the route a BFS stopping
    there would find.
    """
    net.check_poi(origin)
    parent = [-1] * net.poi_count
    parent[origin] = origin
    queue = deque([origin])
    neighbors = net.cheapest_neighbors
    while queue:
        u = queue.popleft()
        for v, _ in neighbors[u]:
            if parent[v] == -1:
                parent[v] = u
                queue.append(v)
    return parent


def _random_mode_leg(
    net: MultiModalNetwork, parent: list[int], source: int, target: int, rng: SplitMix64
) -> PathResult:
    """Fewest-hops route from the tree ``parent`` of ``source``, with an
    independently random mode on every hop."""
    net.check_poi(target)
    if parent[target] == -1:
        raise InfeasibleRouteError(source, target)
    sequence = [target]
    while sequence[-1] != source:
        sequence.append(parent[sequence[-1]])
    sequence.reverse()
    legs = []
    cost = 0
    for a, b in zip(sequence, sequence[1:]):
        parallel = sorted((net.edges[eid].mode, eid) for eid in net.adjacency[a] if net.edges[eid].other(a) == b)
        mode, eid = parallel[rng.below(len(parallel))]
        legs.append((eid, mode))
        cost += net.edge_costs[eid]
    return PathResult(cost, tuple(legs), tuple(sequence))


def _random_common(inst: QueryInstance, rng: SplitMix64) -> tuple[int, ...]:
    # Category sets are stored sorted, so indexing is stable across runs.
    return tuple(cat[rng.below(len(cat))] for cat in inst.categories)


def _cheapest_legs_plan(
    net: MultiModalNetwork, inst: QueryInstance, common: tuple[int, ...], sharing: SharingMode
) -> JourneyPlan:
    """The plan through ``common`` with every leg at its cheapest; one search
    from the last common PoI serves every destination leg."""
    legs = Legs()
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
    trees: dict[int, list[int]] = {}  # leg origin -> its BFS tree, for this call only

    def leg(n: MultiModalNetwork, u: int, v: int) -> PathResult:
        if u not in trees:
            trees[u] = _bfs_tree(n, u)
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
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)
    return _cheapest_legs_plan(net, inst, common, sharing)


def nncm(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Greedy nearest-neighbor chain, cheapest modes, no randomness.

    The first pick minimizes the summed distance from all sources; each
    later pick is nearest (by cheapest cost) to the previous pick. Ties go
    to the lower PoI id.
    """
    common: list[int] = []
    for cat in inst.categories:
        origins = Counter([common[-1]] if common else [source for source, _ in inst.agents])
        reached = [(shortest_costs(net, origin, cat), count) for origin, count in origins.items()]
        best: tuple[int, int] | None = None  # (summed cost from the origins, poi)
        for j in cat:
            if all(j in costs for costs, _ in reached):
                cost = sum(costs[j] * count for costs, count in reached)
                if best is None or cost < best[0]:
                    best = (cost, j)
        if best is None:
            raise InfeasibleRouteError(next(iter(origins)), cat[0])
        common.append(best[1])

    return _cheapest_legs_plan(net, inst, tuple(common), sharing)


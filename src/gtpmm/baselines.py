"""Reference heuristics the exact planner is benchmarked against.

All three return a full :class:`~gtpmm.planner.JourneyPlan` and are
deterministic: the randomized ones consume a single SplitMix64 stream in a
documented order (first one PoI draw per category, then one mode draw per
hop along source legs, intermediate legs, and destination legs, in that
order), so equal (network, instance, seed) yields identical plans.
"""

from __future__ import annotations

import enum
from collections import deque

from .errors import InfeasibleRouteError
from .network import MultiModalNetwork, PathResult
from .planner import JourneyPlan, Legs, QueryInstance, SharingMode, assemble
from .rng import SplitMix64


class BaselineKind(enum.Enum):
    RPRM = "rprm"  # random PoI, random medium
    RPCM = "rpcm"  # random PoI, cheapest medium
    NNCM = "nncm"  # nearest-neighbor PoI, cheapest medium


def _fewest_hops_sequence(net: MultiModalNetwork, source: int, target: int) -> list[int] | None:
    """BFS hop-count path; neighbors expand in ascending PoI id for determinism."""
    if source == target:
        return [source]
    parent: dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        neighbors = sorted({net.edges[eid].other(u) for eid in net.adjacency[u]})
        for v in neighbors:
            if v in parent:
                continue
            parent[v] = u
            if v == target:
                sequence = [v]
                while sequence[-1] != source:
                    sequence.append(parent[sequence[-1]])
                sequence.reverse()
                return sequence
            queue.append(v)
    return None


def _random_mode_leg(net: MultiModalNetwork, source: int, target: int, rng: SplitMix64) -> PathResult:
    """Fewest-hops route with an independently random mode on every hop."""
    sequence = _fewest_hops_sequence(net, source, target)
    if sequence is None:
        raise InfeasibleRouteError(source, target)
    legs = []
    cost = 0
    for a, b in zip(sequence, sequence[1:]):
        parallel = sorted(
            (eid for eid in net.adjacency[a] if net.edges[eid].other(a) == b),
            key=lambda eid: (net.edges[eid].mode, eid),
        )
        eid = parallel[rng.below(len(parallel))]
        legs.append((eid, net.edges[eid].mode))
        cost += net.edge_costs[eid]
    return PathResult(cost, tuple(legs), tuple(sequence))


def _random_common(inst: QueryInstance, rng: SplitMix64) -> tuple[int, ...]:
    # Category sets are stored sorted, so indexing is stable across runs.
    return tuple(cat[rng.below(len(cat))] for cat in inst.categories)


def rprm(
    net: MultiModalNetwork,
    inst: QueryInstance,
    seed: int,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Random PoI per category; random mode per hop along fewest-hops routes."""
    rng = SplitMix64(seed)
    common = _random_common(inst, rng)

    def leg(n: MultiModalNetwork, u: int, v: int) -> PathResult:
        return _random_mode_leg(n, u, v, rng)

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
    return assemble(net, inst, common, sharing, Legs().path)


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
    legs = Legs()
    common: list[int] = []
    for cat in inst.categories:
        origins = [common[-1]] if common else [source for source, _ in inst.agents]
        best: tuple[int, int] | None = None  # (summed cost from the origins, poi)
        for j in cat:
            try:
                cost = sum(legs.path(net, origin, j).cost for origin in origins)
            except InfeasibleRouteError:
                continue
            if best is None or cost < best[0]:
                best = (cost, j)
        if best is None:
            raise InfeasibleRouteError(origins[0], cat[0])
        common.append(best[1])

    return assemble(net, inst, tuple(common), sharing, legs.path)


def run_baseline(
    kind: BaselineKind,
    net: MultiModalNetwork,
    inst: QueryInstance,
    seed: int = 0,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    if kind is BaselineKind.RPRM:
        return rprm(net, inst, seed, sharing)
    if kind is BaselineKind.RPCM:
        return rpcm(net, inst, seed, sharing)
    return nncm(net, inst, sharing)

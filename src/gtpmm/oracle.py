"""Brute-force ground truth for the planner.

Enumerates every choice of one PoI per category, evaluates the group cost
of each with cheapest-mode legs, and returns the global minimum. Exists
purely for correctness checking at small sizes; a tuple-count guard refuses
blowups instead of hanging.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .errors import EnumerationLimitError, InfeasibleRouteError
from .network import Money, MultiModalNetwork, reference_path
from .planner import Legs, QueryInstance, SharingMode, group_cost

ENUMERATION_GUARD = 10_000_000


def valid_path_count(inst: QueryInstance) -> int:
    """Number of distinct common paths: the product of the category sizes."""
    return math.prod(len(cat) for cat in inst.categories)


def enumerate_valid_paths(
    inst: QueryInstance, max_tuples: int = ENUMERATION_GUARD
) -> Iterator[tuple[int, ...]]:
    """All common-PoI tuples in lexicographic PoI-id order, duplicate-free."""
    count = valid_path_count(inst)
    if count > max_tuples:
        raise EnumerationLimitError(count, max_tuples)
    return itertools.product(*inst.categories)


def aggregated_distance(net: MultiModalNetwork, inst: QueryInstance, common_pois: Sequence[int]) -> Money:
    """Summed cheapest-cost distance of one common-PoI choice: the
    shared-intermediate group cost, where source and destination legs count
    once per agent and intermediate legs once."""
    return group_cost(net, inst, common_pois, SharingMode.SHARED_INTERMEDIATE)


def brute_force_optimal(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
    max_tuples: int = ENUMERATION_GUARD,
) -> tuple[tuple[int, ...], Money]:
    """Exact global optimum by full enumeration.

    Ties resolve to the lexicographically smallest tuple. Tuples containing
    an unreachable leg are skipped; if every tuple is unreachable the first
    offending pair is reported.
    """
    legs = Legs(reference_path)
    m = sharing.intermediate_multiplier(inst.n_agents)

    best: tuple[int, ...] | None = None
    best_cost: Money | None = None
    first_failure: InfeasibleRouteError | None = None
    for candidate in enumerate_valid_paths(inst, max_tuples):
        try:
            total = sum(legs.path(net, source, candidate[0]).cost for source, _ in inst.agents)
            total += m * sum(legs.path(net, a, b).cost for a, b in zip(candidate, candidate[1:]))
            total += sum(legs.path(net, candidate[-1], dest).cost for _, dest in inst.agents)
        except InfeasibleRouteError as failure:
            if first_failure is None:
                first_failure = failure
            continue
        if best_cost is None or total < best_cost:  # lexicographic order => first win stands
            best_cost = total
            best = candidate

    if best is None or best_cost is None:
        raise first_failure if first_failure is not None else InfeasibleRouteError(
            inst.agents[0][0], inst.categories[0][0]
        )
    return best, best_cost

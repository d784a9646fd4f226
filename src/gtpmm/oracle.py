"""Brute-force ground truth for the planner.

Enumerates every choice of one PoI per category, evaluates the group cost
of each with cheapest-mode legs, and returns the global minimum. Exists
purely for correctness checking at small sizes; a tuple-count guard refuses
blowups instead of hanging.

The one reference sum, which :func:`~gtpmm.planner.group_cost` runs too:
each leg is searched once per call with the plain
:func:`~gtpmm.network.reference_path`, so no search is shared with the planner.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

from .errors import EnumerationLimitError, InfeasibleRouteError
from .network import Money, MultiModalNetwork, reference_path
from .planner import QueryInstance, SharingMode

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


def brute_force_optimal(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> tuple[tuple[int, ...], Money]:
    """Exact global optimum by full enumeration.

    Ties resolve to the lexicographically smallest tuple. Tuples containing
    an unreachable leg are skipped; if every tuple is unreachable the first
    offending pair is reported: each tuple's legs are summed source legs
    first, then hops, then destination legs.
    """
    search = functools.cache(functools.partial(reference_path, net))

    def cost(u: int, v: int) -> Money:
        found = search(u, v)
        if found is None:
            raise InfeasibleRouteError(u, v)
        return found.cost

    m = sharing.intermediate_multiplier(inst.n_agents)
    best: tuple[int, ...] | None = None
    best_cost: Money | None = None
    first_failure: InfeasibleRouteError | None = None
    for candidate in enumerate_valid_paths(inst):
        try:
            total = sum(cost(source, candidate[0]) for source, _ in inst.agents)
            total += m * sum(cost(a, b) for a, b in zip(candidate, candidate[1:]))
            total += sum(cost(candidate[-1], dest) for _, dest in inst.agents)
        except InfeasibleRouteError as failure:
            if first_failure is None:
                first_failure = failure
            continue
        if best_cost is None or total < best_cost:  # lexicographic order => first win stands
            best_cost = total
            best = candidate

    if best is None:  # no category is empty, so some tuple was tried and failed
        raise first_failure
    return best, best_cost

"""``plan()`` against an exact reference DP of this module's own, at paper scale.

The oracle enumerates every chain, so it refuses a query of k 10 and p 20.
The reference here shares no search with the planner: one plain, full
Dijkstra per distinct category PoI over ``net.cheapest_neighbors``, with no
landmarks and no early stop, then the layered min-sum over those rows in
plain Python. The network is undirected, so a category PoI's row also gives
its legs from the sources and to the destinations.

``road_network(1, 55)`` passes the landmark gate, so ``plan()`` prunes,
orders its destination stage by landmark bounds and aims its searches;
each query also runs with the gate forced shut (tightness taken for 0),
where it does none of these, and a query of 100 PoIs per category runs with
the gate forced open (tightness taken for 1), so that ``plan()`` prices a
chain and cuts.
"""

from __future__ import annotations

from dataclasses import replace
from heapq import heappop, heappush

import pytest

from gtpmm import SharingMode, group_cost, plan
from gtpmm.bench import draw_instance
from gtpmm.network import PRUNE_TIGHTNESS
from gtpmm.synth import road_network

SHARING = list(SharingMode)
PAPER_SCALE = (10, 20, 100)  # k, PoIs per category, agents
LARGE_CATEGORIES = (3, 100, 20)


def full_costs(neighbors, origin: int) -> list[int | None]:
    """The cheapest cost from ``origin`` to every PoI (None when unreached), by a
    plain Dijkstra over ``neighbors`` that settles every PoI it reaches."""
    dist: list[int | None] = [None] * len(neighbors)
    dist[origin] = 0
    heap = [(0, origin)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, cost in neighbors[u]:
            if dist[v] is None or d + cost < dist[v]:
                dist[v] = d + cost
                heappush(heap, (d + cost, v))
    return dist


def reference_total(rows: dict[int, list[int]], inst, sharing: SharingMode) -> int:
    """The least group cost over every chain of one PoI per category, by the
    layered min-sum over ``rows``, each category PoI's full cost row."""
    m = sharing.intermediate_multiplier(inst.n_agents)
    reach = {j: sum(rows[j][source] for source, _ in inst.agents) for j in inst.categories[0]}
    for before, category in zip(inst.categories, inst.categories[1:]):
        reach = {j: min(reach[i] + m * rows[i][j] for i in before) for j in category}
    return min(reach[j] + sum(rows[j][dest] for _, dest in inst.agents) for j in inst.categories[-1])


def with_tightness(net, tightness: float):
    """A copy of ``net`` whose landmark tightness is taken for ``tightness``."""
    copy = replace(net)  # a copy derives its own views
    copy.__dict__["landmark_tightness"] = tightness  # the cached view, set ahead of its first use
    return copy


@pytest.fixture(scope="module")
def city():
    """The city as is, with its gate forced shut and forced open, by name."""
    net = road_network(1, 55)
    return {"as is": net, "shut": with_tightness(net, 0.0), "open": with_tightness(net, 1.0)}


@pytest.fixture(scope="module")
def reference(city):
    """The query of each seed and shape, with its reference total per sharing
    mode, each computed once; and the group cost of each chain checked."""
    net = city["as is"]
    found: dict = {}
    costs: dict = {}

    def query(seed: int, shape: tuple[int, int, int]):
        if (seed, shape) not in found:
            inst = draw_instance(net, seed, *shape)
            pois = {poi for category in inst.categories for poi in category}
            rows = {poi: full_costs(net.cheapest_neighbors, poi) for poi in pois}
            assert all(None not in row for row in rows.values())  # the city is connected
            found[seed, shape] = inst, {sharing: reference_total(rows, inst, sharing) for sharing in SHARING}
        return found[seed, shape]

    def chain_cost(inst, common: tuple[int, ...], sharing: SharingMode) -> int:
        if (inst, common, sharing) not in costs:
            costs[inst, common, sharing] = group_cost(net, inst, common, sharing)
        return costs[inst, common, sharing]

    return query, chain_cost


def test_the_city_passes_the_gate_and_the_forced_copies_do_not_share_its_views(city):
    assert city["as is"].landmark_tightness >= PRUNE_TIGHTNESS
    assert (city["shut"].landmark_tightness, city["open"].landmark_tightness) == (0.0, 1.0)


@pytest.mark.parametrize("sharing", SHARING, ids=lambda mode: mode.name)
@pytest.mark.parametrize("gate", ["as is", "shut"])
@pytest.mark.parametrize("seed", [0, 1])
def test_paper_scale_plans_cost_the_reference_optimum(city, reference, seed, gate, sharing):
    query, chain_cost = reference
    inst, optimum = query(seed, PAPER_SCALE)
    journey = plan(city[gate], inst, sharing)
    assert journey.total_cost == optimum[sharing]
    assert chain_cost(inst, journey.common_pois, sharing) == optimum[sharing]


@pytest.mark.parametrize("sharing", SHARING, ids=lambda mode: mode.name)
def test_large_categories_past_the_forced_gate_cost_the_reference_optimum(city, reference, sharing):
    query, chain_cost = reference
    inst, optimum = query(0, LARGE_CATEGORIES)
    journey = plan(city["open"], inst, sharing)
    assert journey.total_cost == optimum[sharing]
    assert chain_cost(inst, journey.common_pois, sharing) == optimum[sharing]

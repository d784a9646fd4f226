"""The DP's private steps, run by hand, give what ``_prune`` and ``compute_dp`` give.

``planner._bounds`` is ``_prune``'s gate and bounds DP, and
``planner._destination_stage`` is ``compute_dp``'s destination stage. Here
the bounds step is followed by the rest of ``_prune`` (the skip rule, the
pricing of the chain of least bound and the cut), the chain priced by
``group_cost`` rather than by ``_prune``'s searches; and the first and
middle layers, run through one ``Legs``, are followed by the destination
step, with and without handed bounds. Each is run on a gate-open road city,
where queries both skip the pricing and cut, and on a gate-shut random
network, in both sharing modes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from gtpmm import QueryInstance, SharingMode, group_cost, planner
from gtpmm.bench import draw_instance
from gtpmm.synth import random_instance, random_network, road_network

SHARING = list(SharingMode)
NETWORKS = {"road city": lambda: road_network(1, 30), "random network": lambda: random_network(1, 200, 3)}


@pytest.fixture(scope="module", params=list(NETWORKS))
def case(request):
    """A network by name, and its queries: shapes that skip the pricing on the
    road city, and shapes that cut there."""
    net = NETWORKS[request.param]()
    queries = [random_instance(seed, net, 3, 2, 6) for seed in range(6)]
    queries += [draw_instance(net, seed, 4, 10, 10) for seed in range(3)]
    return request.param, net, queries


def prune_by_hand(net, inst: QueryInstance, sharing: SharingMode):
    """The bounds step, then the skip rule, the chain of least bound priced at
    its group cost, and the cut; with which way it went."""
    m = sharing.intermediate_multiplier(inst.n_agents)
    sources = Counter(source for source, _ in inst.agents)
    destinations = Counter(dest for _, dest in inst.agents)
    bounds = planner._bounds(net, inst, m, sources, destinations)
    if bounds is None:
        return (None, None), "gate"
    bound, through, suffix = bounds
    chain = [min(inst.categories[0], key=lambda j: through[0][j])]
    if all(net.landmark_tightness * lower <= through[0][chain[0]] for row in through for lower in row.values()):
        return (None, suffix[-1]), "skip"
    for category, rest in zip(inst.categories[1:], suffix[1:]):
        chain.append(min(category, key=lambda i: m * bound(chain[-1], i) + rest[i]))
    ub = group_cost(net, inst, chain, sharing)
    kept = [[j for j, lower in row.items() if lower <= ub] for row in through]
    return (QueryInstance(inst.agents, kept), suffix[-1]), "cut"


def dp_by_hand(net, inst: QueryInstance, sharing: SharingMode, last_bounds):
    """The first layer and the middle layers, then the destination step."""
    m = sharing.intermediate_multiplier(inst.n_agents)
    legs = planner.Legs()
    cost = [legs.summed(net, Counter(source for source, _ in inst.agents), inst.categories[0])]
    parent = [dict.fromkeys(cost[0])]
    for category in inst.categories[1:]:
        found = legs.layer(net, cost[-1], m, category) if cost[-1] else {}
        cost.append({j: total for j, (total, _) in found.items()})
        parent.append({j: origin for j, (_, origin) in found.items()})
    return cost, parent, planner._destination_stage(net, inst, cost[-1], legs, last_bounds)


@pytest.mark.parametrize("sharing", SHARING, ids=lambda mode: mode.name)
def test_the_bounds_step_and_the_rest_of_prune_give_prune_s_query(case, sharing):
    name, net, queries = case
    ways = Counter()
    for inst in queries:
        by_hand, way = prune_by_hand(net, inst, sharing)
        assert planner._prune(net, inst, sharing, planner.Legs()) == by_hand
        ways[way] += 1
    if name == "road city":
        assert ways["skip"] and ways["cut"] and not ways["gate"]
    else:
        assert ways == {"gate": len(queries)}


@pytest.mark.parametrize("sharing", SHARING, ids=lambda mode: mode.name)
def test_the_layers_and_the_destination_step_give_compute_dp_s_table(case, sharing):
    _, net, queries = case
    for inst in queries:
        query, pruned_bounds = planner._prune(net, inst, sharing, planner.Legs())
        query = query or inst
        # the pruning's bounds where the gate is open, else zeros: a lower bound on every network
        handed = pruned_bounds if pruned_bounds is not None else dict.fromkeys(query.categories[-1], 0)
        for last_bounds in (None, handed):
            table = planner.compute_dp(net, query, sharing, last_bounds=last_bounds)
            assert dp_by_hand(net, query, sharing, last_bounds) == (table.cost, table.parent, table.best)
            assert table.best is not None

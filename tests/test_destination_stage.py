"""The DP's destination stage in lower-bound order, against the stage that priced every last PoI.

Past the ``PRUNE_TIGHTNESS`` gate, ``compute_dp`` prices the reached
last-category PoIs one at a time in ascending ``(cost so far + summed
landmark bound to the destinations, id)`` and stops once the next cannot
beat the best ``(total, id)``. These tests hold it, and ``plan()``, to
verbatim copies of the stage and the planner from before, which priced
every reached last PoI to every destination and took the argmin.
"""

from __future__ import annotations

from collections import Counter

import pytest

from gtpmm import InfeasibleRouteError, InternalConsistencyError, QueryInstance, SharingMode, compute_dp, plan
from gtpmm import planner
from gtpmm.network import landmark_bound
from gtpmm.planner import DpTable, Legs, _first_unreachable, _prune, assemble, reconstruct
from gtpmm.synth import random_instance, road_network
from test_pruning import TIED_FARES, ZERO_FARES, exact_bounds, outcome

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE
FARES = {"default": None, "tied": TIED_FARES, "zero": ZERO_FARES}


def old_compute_dp(net, inst, sharing, *, legs=None):
    """Verbatim copy of ``compute_dp`` before its destination stage priced in bound order."""
    inst.check(net)
    m = sharing.intermediate_multiplier(inst.n_agents)
    legs = legs if legs is not None else Legs()
    table = DpTable(cost=[{} for _ in inst.categories], parent=[{} for _ in inst.categories], legs=legs)

    table.cost[0] = legs.summed(net, Counter(source for source, _ in inst.agents), inst.categories[0])
    table.parent[0] = dict.fromkeys(table.cost[0])

    for c in range(1, inst.k):
        previous = table.cost[c - 1]
        if not previous:
            continue
        for j, (cost, parent) in legs.layer(net, previous, m, inst.categories[c]).items():
            table.cost[c][j] = cost
            table.parent[c][j] = parent

    last = tuple(j for j in inst.categories[-1] if j in table.cost[-1])
    legs.costs(net, last, tuple(dict.fromkeys(dest for _, dest in inst.agents)))  # its trees stay in legs
    return table


def old_totals(net, inst, table):
    """The full total of every reached last PoI that reaches every
    destination, as the old ``plan()`` summed them from the old stage's trees."""
    last = table.cost[-1]
    to_destinations = table.legs.summed(net, Counter(dest for _, dest in inst.agents), last)
    return {j: last[j] + cost for j, cost in to_destinations.items()}


def old_plan(net, inst, sharing):
    """Verbatim copy of ``plan()`` before the destination stage priced in bound order."""
    inst.check(net)
    legs = Legs()
    query = _prune(net, inst, sharing, legs)[0] or inst
    table = old_compute_dp(net, query, sharing, legs=legs)

    last = table.cost[-1]
    to_destinations = legs.summed(net, Counter(dest for _, dest in query.agents), last)  # the DP's trees: no search
    if not to_destinations:
        raise InfeasibleRouteError(*_first_unreachable(net, inst))
    best_total, best_last = min((last[j] + cost, j) for j, cost in to_destinations.items())  # a tie: lower id
    common = reconstruct(table, best_last)
    legs.fill(net, common[-1], [dest for _, dest in inst.agents])
    try:
        journey = assemble(net, inst, common, sharing, table.leg)
    except InfeasibleRouteError as failure:
        raise InternalConsistencyError("reconstructed plan references an unreachable leg") from failure
    if best_total != journey.total_cost:
        raise InternalConsistencyError(f"DP total {best_total} != leg total {journey.total_cost}")
    return journey


@pytest.fixture
def pricing(monkeypatch):
    """Each destination-stage pricing that ``compute_dp`` runs, as its
    ``(lower bound, PoI)`` pairs in ascending order and the list of the
    PoIs it priced, in pricing order."""
    runs = []
    least = planner._least_by_bound

    def spy(bounded, price):
        order = sorted(bounded)
        priced = []
        runs.append((order, priced))
        return least(order, lambda j: priced.append(j) or price(j))

    monkeypatch.setattr(planner, "_least_by_bound", spy)
    return runs


def stage_cases(fares, jitter):
    """Gate-open road queries: drawn ones, each also with one distinct
    destination and with a destination that is a last-category PoI."""
    for seed in range(3):
        net = exact_bounds(road_network(seed, 6 + seed, jitter=jitter, fare_table=fares))
        for k, per_category, agents in ((1, 6, 4), (2, 5, 3), (3, 4, 6)):
            inst = random_instance(seed + 10 * k, net, k, per_category, agents)
            yield net, inst
            yield net, QueryInstance([(source, inst.agents[0][1]) for source, _ in inst.agents], inst.categories)
            at_last = [*inst.agents[:-1], (inst.agents[-1][0], inst.categories[-1][-1])]
            yield net, QueryInstance(at_last, inst.categories)


def check_stage(net, inst, sharing, pricing):
    """``plan()`` and ``compute_dp``'s winner equal the old planner's and
    the old stage's argmin; the pricing went in bound order and stopped
    only past the winner. Returns the stage's ``(lower bound, PoI)`` order,
    the PoIs it priced and every reached last PoI's total."""
    pricing.clear()
    assert outcome(plan, net, inst, sharing) == outcome(old_plan, net, inst, sharing)  # PoIs, legs, modes, total
    pricing.clear()
    table = compute_dp(net, inst, sharing)
    old = old_compute_dp(net, inst, sharing)
    assert (table.cost, table.parent) == (old.cost, old.parent)
    totals = old_totals(net, inst, old)
    best = min((total, j) for j, total in totals.items())
    assert table.best == best

    assert landmark_bound(net, (*table.cost[-1], *(dest for _, dest in inst.agents))) is not None  # the gate is open
    ((order, priced),) = pricing
    assert sorted(j for _, j in order) == sorted(totals)
    assert priced == [j for _, j in order[: len(priced)]]  # in bound order
    assert all(lower <= totals[j] for lower, j in order)  # lower bounds
    assert all(pair <= best for pair in order[: len(priced)])  # no priced PoI's (bound, id) passes the winner's
    assert len(priced) == len(order) or order[len(priced)] > best  # stopped only where none left can win
    return order, priced, totals


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
@pytest.mark.parametrize("jitter", [0.0, 0.4])
@pytest.mark.parametrize("fares", FARES.values(), ids=FARES.keys())
def test_destination_stage_matches_the_stage_that_priced_every_last_poi(fares, jitter, sharing, pricing):
    kinds = Counter()
    cases = list(stage_cases(fares, jitter))
    for net, inst in cases:
        order, priced, totals = check_stage(net, inst, sharing, pricing)
        destinations = {dest for _, dest in inst.agents}
        kinds["one destination"] += len(destinations) == 1
        kinds["destination in last category"] += bool(destinations & set(totals))
        kinds["k = 1"] += inst.k == 1
        kinds["tie"] += sorted(totals.values())[:2].count(min(totals.values())) == 2
        kinds["pricing stopped early"] += len(priced) < len(order)
    assert kinds["one destination"] and kinds["destination in last category"] and kinds["k = 1"]
    assert kinds["pricing stopped early"] > 0
    if fares is ZERO_FARES:  # every total is 0: the lowest id wins, priced alone
        assert kinds["tie"] == kinds["pricing stopped early"] == len(cases)


def test_equal_totals_go_to_the_lower_id_when_the_higher_is_priced_first(pricing):
    net = exact_bounds(road_network(0, 8, jitter=0.0))
    inst = random_instance(155, net, 1, 5, 3)
    for sharing in (PER_PERSON, SHARED):
        order, priced, totals = check_stage(net, inst, sharing, pricing)
        best_total, winner = min((total, j) for j, total in totals.items())
        first = priced[0]
        assert first > winner and totals[first] == best_total  # a tie, the higher id priced first
        assert priced == [first, winner]


@pytest.mark.parametrize(
    "seed, query, k, per_category, agents, sharing",
    [(4, 4148, 1, 3, 1, PER_PERSON), (4, 4148, 1, 3, 1, SHARED), (5, 5073, 3, 3, 5, PER_PERSON)],
    ids=["k1-per-person", "k1-shared", "k3-per-person"],
)
def test_a_winner_last_in_bound_order_is_priced(seed, query, k, per_category, agents, sharing, pricing):
    net = exact_bounds(road_network(seed, 8, jitter=0.0))
    order, priced, totals = check_stage(net, random_instance(query, net, k, per_category, agents), sharing, pricing)
    winner = min((total, j) for j, total in totals.items())[1]
    assert len(order) > 1 and order[-1][1] == winner
    assert priced == [j for _, j in order]


def test_least_by_bound_prices_until_none_left_can_win():
    priced = []

    def price(j):
        priced.append(j)
        return {3: 9, 7: 9, 8: 12}[j]

    assert planner._least_by_bound([(5, 3), (4, 7), (9, 8)], price) == (9, 3)  # a tie, the higher id priced first
    assert priced == [7, 3]  # (9, 8) passes (9, 3): not priced
    priced.clear()
    assert planner._least_by_bound([(4, 3), (5, 7), (10, 8)], price) == (9, 3)  # a tie, the lower id priced first
    assert priced == [3, 7]
    priced.clear()
    assert planner._least_by_bound([(9, 7), (9, 3)], price) == (9, 3)  # equal bounds: the lower id first, alone
    assert priced == [3]
    assert planner._least_by_bound([], price) is None

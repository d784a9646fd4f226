"""One least-total pick for NNCM and the DP's destination stage, against the pickers it replaced.

``planner._least_total`` ends each of NNCM's categories and ``compute_dp``'s
destination stage, and the stage prices its legs with ``Legs.summed_to``,
from the legs' starts. These tests hold ``compute_dp(...).best``,
``plan()`` and ``nncm()`` to verbatim copies of NNCM's two pickers and of
the destination stage from before, on gate-open road networks and
gate-shut random ones: equal results and equal searches by kind. Only one
search moved its origin: past the gate, a last PoI priced where exactly
one destination has no kept tree is now searched from the PoI, where it
was searched from the destination. On a network with a free hop that
saves ``plan()`` the search of the winner's destination leg, which a tree
from the destination could not read back.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from gtpmm import baselines, compute_dp, nncm, planner, plan
from gtpmm.baselines import _cheapest_legs_plan
from gtpmm.errors import InfeasibleRouteError
from gtpmm.network import landmark_bound
from gtpmm.planner import DpTable, Legs, QueryInstance, SharingMode, _least_by_bound
from gtpmm.synth import random_disconnected_network, random_instance, random_network
from test_destination_stage import FARES, stage_cases
from test_pruning import outcome

PER_PERSON = SharingMode.PER_PERSON_INTERMEDIATE
SHARED = SharingMode.SHARED_INTERMEDIATE


def parent_nearest_by_search(net, origins, cat, legs):
    """Verbatim copy of NNCM's picker by one search per category."""
    return min(((cost, j) for j, cost in legs.summed(net, origins, cat).items()), default=None)


def parent_nearest_by_bound(net, origins, cat, bound, legs):
    """Verbatim copy of NNCM's picker in lower-bound order."""
    return _least_by_bound(
        ((sum(count * bound(origin, j) for origin, count in origins.items()), j) for j in cat),
        lambda j: legs.summed(net, origins, (j,))[j],
    )


def parent_nncm(net, inst, sharing):
    """Verbatim copy of ``nncm`` with its two pickers."""
    inst.check(net)
    legs = Legs()
    common = []
    for cat in inst.categories:
        origins = Counter([common[-1]] if common else [source for source, _ in inst.agents])
        bound = landmark_bound(net, [*origins, *cat])
        if bound is None:
            best = parent_nearest_by_search(net, origins, cat, legs)
        else:
            best = parent_nearest_by_bound(net, origins, cat, bound, legs)
        if best is None:  # as plan() names it: cat[0] and the first origin, in agent order, that does not reach it
            reached = legs.costs(net, origins, cat[:1])  # from the trees just kept: no search
            raise InfeasibleRouteError(next(o for o in origins if (o, cat[0]) not in reached), cat[0])
        common.append(best[1])

    return _cheapest_legs_plan(net, inst, tuple(common), sharing, legs)


def parent_compute_dp(net, inst, sharing, *, legs=None, last_bounds=None):
    """Verbatim copy of ``compute_dp`` with its two destination-stage branches."""
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

    reached = table.cost[-1]
    last = tuple(j for j in inst.categories[-1] if j in reached)
    destinations = Counter(dest for _, dest in inst.agents)
    if last_bounds is None:
        bound = landmark_bound(net, (*last, *destinations))
        if bound is not None:
            last_bounds = {j: sum(n * bound(j, d) for d, n in destinations.items()) for j in last}
    if last_bounds is None:
        to_last = legs.costs(net, last, tuple(destinations))  # its trees stay in legs
        table.best = min(
            (
                (reached[j] + sum(n * to_last[(j, d)] for d, n in destinations.items()), j)
                for j in last
                if all((j, d) in to_last for d in destinations)
            ),
            default=None,
        )
    else:
        table.best = _least_by_bound(
            ((reached[j] + last_bounds[j], j) for j in last),
            lambda j: reached[j] + legs.summed(net, destinations, (j,))[j],
        )
    return table


@pytest.fixture
def made_legs(monkeypatch):
    """Every :class:`Legs` that ``plan()``, ``nncm()`` and the copies above make during the test, in order."""
    made = []

    class Recorded(Legs):
        def __init__(self):
            super().__init__()
            made.append(self)

    for module in (planner, baselines):
        monkeypatch.setattr(module, "Legs", Recorded)
    monkeypatch.setitem(globals(), "Legs", Recorded)
    return made


def gate_shut(net):
    """``net``, with its landmark bounds taken for useless (tightness 0): the gate is shut."""
    net.__dict__["landmark_tightness"] = 0.0  # the cached view, set ahead of its first use
    return net


def random_cases():
    """Gate-shut random queries: drawn ones, each also with one distinct
    destination, and queries on a network of several components."""
    for seed in range(3):
        net = gate_shut(random_network(seed, 40 + 10 * seed, 3))
        for k, per_category, agents in ((1, 5, 4), (2, 4, 3), (3, 6, 6)):
            inst = random_instance(seed + 10 * k, net, k, per_category, agents)
            yield net, inst
            yield net, QueryInstance([(source, inst.agents[0][1]) for source, _ in inst.agents], inst.categories)
        split = gate_shut(random_disconnected_network(seed, 3, 6))
        for k in (1, 2):
            yield split, random_instance(seed + k, split, k, 4, 3)


def searches_of(method, made_legs, *args):
    """The result of ``method(*args)``, or the pair its InfeasibleRouteError
    names, and the searches by kind of the one :class:`Legs` it made."""
    made_legs.clear()
    result = outcome(method, *args)
    (legs,) = made_legs
    return result, legs.searches


def parent_plan(monkeypatch, *args):
    """``plan()`` over the copy of ``compute_dp`` from before."""
    with monkeypatch.context() as patch:
        patch.setattr(planner, "compute_dp", parent_compute_dp)
        return plan(*args)


@pytest.mark.parametrize("sharing", [PER_PERSON, SHARED])
@pytest.mark.parametrize("gate", ["open", "shut"])
def test_least_total_picks_as_the_pickers_it_replaced(gate, sharing, made_legs, monkeypatch):
    """Equal tables, plans and NNCM plans, with equal searches by kind,
    but for one saved search: on a network with a free hop, a tree from the
    one destination could not read the winner's leg back
    (``SearchTree.path_from`` declines there), so ``plan()`` searched it
    again; a tree from the winner reads it forward."""
    kinds = Counter()
    cases = [case for fares in FARES.values() for case in stage_cases(fares, 0.4)] if gate == "open" else random_cases()
    for net, inst in cases:
        if gate == "open":
            assert landmark_bound(net, inst.referenced_pois()) is not None
        one_destination = len({dest for _, dest in inst.agents}) == 1
        kinds["one destination"] += one_destination

        table, old = compute_dp(net, inst, sharing), parent_compute_dp(net, inst, sharing)
        assert (table.best, table.cost, table.parent) == (old.best, old.cost, old.parent)
        assert table.legs.searches == old.legs.searches
        kinds["no plan"] += table.best is None

        (journey, searched), (old_journey, old_searched) = (
            searches_of(plan, made_legs, net, inst, sharing),
            searches_of(partial(parent_plan, monkeypatch), made_legs, net, inst, sharing),
        )
        assert journey == old_journey
        if searched != old_searched:
            assert gate == "open" and one_destination and net.has_free_hop
            assert old_searched - searched == Counter(tree=1) and not searched - old_searched
            kinds["saved"] += 1
        assert searches_of(nncm, made_legs, net, inst, sharing) == searches_of(
            parent_nncm, made_legs, net, inst, sharing
        )
    assert kinds["one destination"]
    assert (kinds["no plan"] > 0) == (gate == "shut")  # the split networks
    assert (kinds["saved"] > 0) == (gate == "open")  # the tied and zero fares


def stage_tree_origins(dp, net, inst, sharing, searches, monkeypatch):
    """The origins of the tree searches ``dp``'s destination stage ran, in order."""

    def marked(*args):
        searches.append("stage")  # the stage begins by asking for its bounds
        return bound(*args)

    bound = landmark_bound
    searches.clear()
    with monkeypatch.context() as patch:
        patch.setattr(planner, "landmark_bound", marked)
        patch.setitem(globals(), "landmark_bound", marked)
        dp(net, inst, sharing)
    return [search.origin for search in searches[searches.index("stage") + 1 :] if search.kind == "tree"]


def test_a_gate_shut_stage_searches_from_the_last_pois_on_a_tie(searches, monkeypatch):
    """As many reached last PoIs as distinct destinations: the stage's
    searches run from the last PoIs, as before; they would run from the
    destinations if the stage summed its legs from their ends."""
    net = gate_shut(random_network(4, 60, 3))
    drawn = random_instance(7, net, 2, 4, 4)
    destinations = [poi for poi in range(net.poi_count) if poi not in drawn.referenced_pois()][:4]
    inst = QueryInstance([(source, dest) for (source, _), dest in zip(drawn.agents, destinations)], drawn.categories)
    for sharing in (PER_PERSON, SHARED):
        table = compute_dp(net, inst, sharing)
        last = [j for j in inst.categories[-1] if j in table.cost[-1]]
        assert len(last) == len(set(destinations)) == 4
        assert table.best == parent_compute_dp(net, inst, sharing).best
        assert stage_tree_origins(compute_dp, net, inst, sharing, searches, monkeypatch) == last
        assert stage_tree_origins(parent_compute_dp, net, inst, sharing, searches, monkeypatch) == last


def test_a_stage_past_the_gate_searches_from_the_last_poi_for_one_destination(searches, monkeypatch):
    """The one search that moved its origin: with one distinct destination
    and no tree kept for it, each last PoI the stage prices is searched
    from the PoI, where it was searched from the destination."""
    moved = 0
    for net, inst in stage_cases(None, 0.4):
        destinations = {dest for _, dest in inst.agents}
        if len(destinations) != 1:
            continue
        for sharing in (PER_PERSON, SHARED):
            new = stage_tree_origins(compute_dp, net, inst, sharing, searches, monkeypatch)
            old = stage_tree_origins(parent_compute_dp, net, inst, sharing, searches, monkeypatch)
            assert len(new) == len(old)
            assert set(new) <= set(inst.categories[-1]) - destinations
            assert set(old) == destinations
            moved += len(new)
    assert moved > 0

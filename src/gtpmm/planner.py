"""Exact journey planner: a layered dynamic program over PoI categories.

Stage ``c`` of the DP holds, for every PoI ``j`` in category ``c``, the
cheapest cost of bringing the whole group from their sources through one PoI
of each earlier category to ``j``. Transitions are weighted by cheapest-cost
shortest paths between PoIs; intermediate legs are charged once per agent or
once per group depending on the sharing mode. The final stage weights each
distinct destination's leg by its agent count, as the first stage does each
source's, and the global argmin is reconstructed through parent links.

Each stage from one category to the next is one cost-only multi-source
search (:meth:`Legs.layer`). The two stages that sum over
agents, sources to the first category and the last category to the
destinations, sum the agents' legs with :meth:`Legs.summed` and
:meth:`Legs.summed_to`, from one single-source search per distinct
endpoint or per category PoI, whichever set is smaller, each tree kept in
a :class:`Legs`. The destination stage's pick, like each of NNCM's, is
:func:`_least_total`'s. Where :func:`~gtpmm.network.landmark_bound`
bounds the last category's reached PoIs and the destinations, it prices
those PoIs one at a time, in ascending order of their exact cost so far
plus their summed landmark bound to the destinations, and stops once the
next cannot beat the best total found: the threshold rule of top-k
aggregation (Fagin, Lotem and Naor, PODS 2001) and of aggregate
nearest-neighbour search (Yiu, Mamoulis and Papadias, TKDE 2005). The chosen
plan's source and destination legs are read from those trees: forward
from a leg's origin, or back from its target when the tree shows that the
cheapest path is the only one
(:meth:`~gtpmm.network.SearchTree.path_from`). Each common hop is read
from the layer search that priced it, walked back over its keys from the
hop's end (:meth:`~gtpmm.network.LayerCosts.path`). Only the legs nothing
answers are searched: the destination legs left, which all start at the
last common PoI, with one search, and, on a network with a free hop,
where a layer's keys tell no path, each common hop point to point.

:func:`plan` first prunes the categories on road-like networks, in the
manner of the threshold pruning of LORD (Sharifzadeh, Kolahdouzan and
Shahabi, VLDB J. 2008) and of GTP query processing (Hashem et al., SSTD
2013). The network's landmark rows bound every pair's cost from below; a
small DP over those bounds gives each category PoI the least bound of any
chain through it, and the exact cost of the chain of least bound is the
threshold. A PoI whose bound exceeds the threshold cannot be on an optimal
chain, and the DP runs without it. The exact plan is unchanged, ties
included (see :func:`_prune`). The gate of
:func:`~gtpmm.network.landmark_bound` keeps the pruning to networks whose
landmark bounds come close to exact costs; on others, such as random
expanders, it would prune nothing and only add its searches. Per query,
the pricing searches are skipped when no PoI's bound stands out from the
least enough to be cut.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import ConfigurationError, InfeasibleRouteError, InternalConsistencyError
from .network import (
    LayerCosts,
    ModeId,
    Money,
    MultiModalNetwork,
    PathResult,
    SearchTree,
    _component_roots,
    landmark_bound,
    layer_costs,
    shortest_path,
    shortest_paths,
)


class SharingMode(enum.Enum):
    """How intermediate (common-path) legs are charged.

    PER_PERSON_INTERMEDIATE multiplies every common leg by the number of
    agents; SHARED_INTERMEDIATE charges each common leg once, as if the
    group shares a single vehicle.
    """

    PER_PERSON_INTERMEDIATE = "per-person"
    SHARED_INTERMEDIATE = "shared"

    def intermediate_multiplier(self, n_agents: int) -> int:
        return n_agents if self is SharingMode.PER_PERSON_INTERMEDIATE else 1


def _items(value: object, name: str) -> tuple:
    """The items of ``value``, or a :class:`ConfigurationError` naming it ``name``."""
    try:
        items = iter(value)
    except TypeError:
        raise ConfigurationError(f"{name} is not a list") from None
    return tuple(items)


def _poi_ids(value: object, name: str) -> tuple[int, ...]:
    ids = _items(value, name)
    for index, poi in enumerate(ids):
        if type(poi) is not int:  # not a bool, float or str
            raise ConfigurationError(f"{name}[{index}] is not a PoI id")
    return ids


def _agent(pair: object, name: str) -> tuple[int, ...]:
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        raise ConfigurationError(f"{name} is not a [source, destination] pair")
    return _poi_ids(pair, name)


@dataclass(frozen=True)
class QueryInstance:
    """One query: agent endpoints plus the ordered intermediate categories.

    ``agents`` holds (source, destination) PoI ids; ``categories`` holds, in
    visiting order, the candidate PoI ids of each category. Category sets
    are normalized to sorted, duplicate-free tuples.

    The one check of a query's shape: an agent that is not a two-item tuple
    or list, a category that is not iterable, or a PoI id that is not an
    ``int`` raises :class:`ConfigurationError` naming the element by index
    (``agents[3]``, ``categories[1][0]``) and not its value.
    """

    agents: tuple[tuple[int, int], ...]
    categories: tuple[tuple[int, ...], ...]

    def __init__(self, agents: Iterable[tuple[int, int]], categories: Iterable[Iterable[int]]):
        agent_tuple = tuple(_agent(pair, f"agents[{i}]") for i, pair in enumerate(_items(agents, "agents")))
        category_tuple = tuple(
            tuple(sorted(set(_poi_ids(cat, f"categories[{i}]"))))
            for i, cat in enumerate(_items(categories, "categories"))
        )
        if not agent_tuple:
            raise ConfigurationError("a query needs at least one agent")
        if not category_tuple:
            raise ConfigurationError("a query needs at least one category")
        for index, cat in enumerate(category_tuple):
            if not cat:
                raise ConfigurationError(f"category {index} is empty")
        object.__setattr__(self, "agents", agent_tuple)
        object.__setattr__(self, "categories", category_tuple)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def k(self) -> int:
        return len(self.categories)

    def referenced_pois(self) -> set[int]:
        pois = {p for pair in self.agents for p in pair}
        for cat in self.categories:
            pois.update(cat)
        return pois

    def check(self, net: MultiModalNetwork) -> None:
        """Each PoI id is one of ``net``'s, as every planning method and
        check asks first. The first that is not, agents first and then
        categories, in order, raises :class:`ConfigurationError` naming its
        element by index: ``agents[0][1]``, or ``categories[2]``."""
        for index, pair in enumerate(self.agents):
            for side, poi in enumerate(pair):
                try:
                    net.check_poi(poi)
                except ConfigurationError as error:
                    raise ConfigurationError(f"agents[{index}][{side}]: {error}") from None
        for index, category in enumerate(self.categories):
            for poi in category:
                try:
                    net.check_poi(poi)
                except ConfigurationError as error:
                    raise ConfigurationError(f"categories[{index}]: {error}") from None


_UNKNOWN = object()  # Legs._known's answer for a pair no kept path or tree answers


class Legs:
    """Cheapest legs of one network: the costs and paths of ordered PoI
    pairs, read from the single-source and layer searches run through it,
    or else searched once. The planner and the baselines run every
    cheapest-cost search through it, and ``searches`` counts them by kind:
    ``"tree"``, ``"layer"`` and ``"path"``.

    ``costs`` prices pairs from the kept trees and new
    :func:`~gtpmm.network.shortest_paths` searches, whose trees it keeps;
    ``layer`` keeps its :class:`~gtpmm.network.LayerCosts` too.
    ``path(net, u, v)`` looks in turn for the pair's path already found, a
    tree from ``u`` searched for ``v``, a tree from ``v`` searched for
    ``u`` that can read its path back
    (:meth:`~gtpmm.network.SearchTree.path_from`), and a layer that
    settled ``v`` from origin ``u`` (:meth:`~gtpmm.network.LayerCosts.path`,
    which declines on a network with a free hop); each gives the path
    ``shortest_path(net, u, v)`` returns. Only when none answers does it
    search the pair point to point with this module's ``shortest_path``
    name, looked up at each call, which tests and the benchmark's tracer
    patch to count them.
    """

    def __init__(self) -> None:
        self._paths: dict[tuple[int, int], PathResult | None] = {}
        self._trees: dict[int, list[SearchTree]] = {}
        self._layers: list[LayerCosts] = []
        self.searches: Counter[str] = Counter()

    def _search_from(self, net: MultiModalNetwork, origin: int, targets: Iterable[int]) -> dict[int, Money]:
        """The costs of one new search from ``origin`` to ``targets``, whose tree is kept."""
        self.searches["tree"] += 1
        tree = shortest_paths(net, origin, targets)
        self._trees.setdefault(origin, []).append(tree)
        return tree.costs

    def _kept(self, origin: int, targets: Iterable[int]) -> dict[int, Money] | None:
        """The costs of a kept tree of ``origin`` searched for all ``targets``, or None."""
        for tree in self._trees.get(origin, ()):
            if tree.targets.issuperset(targets):
                return tree.costs
        return None

    def costs(
        self, net: MultiModalNetwork, origins: Collection[int], targets: Collection[int]
    ) -> dict[tuple[int, int], Money]:
        """The cheapest cost of every reachable ``(origin, target)`` pair; a
        missing pair is unreachable. A PoI of either side with a tree kept
        for every PoI of the other gives its pairs from that tree. The rest
        come from one new search per origin or per target left, whichever
        set is smaller, origins on a tie, to every PoI of the other side;
        so a repeated call searches nothing. The network is undirected, so
        a tree from either end gives a pair's cost."""
        costs: dict[tuple[int, int], Money] = {}
        rest_origins = []
        for o in origins:
            kept = self._kept(o, targets)
            if kept is None:
                rest_origins.append(o)
            else:
                costs.update(((o, t), kept[t]) for t in targets if t in kept)
        rest_targets = []
        for t in targets:
            kept = self._kept(t, origins)
            if kept is None:
                rest_targets.append(t)
            else:
                costs.update(((o, t), kept[o]) for o in origins if o in kept)
        if len(rest_origins) <= len(rest_targets):
            for o in rest_origins:
                costs.update(((o, t), cost) for t, cost in self._search_from(net, o, targets).items())
        else:
            for t in rest_targets:
                costs.update(((o, t), cost) for o, cost in self._search_from(net, t, origins).items())
        return costs

    def layer(
        self, net: MultiModalNetwork, starts: dict[int, Money], weight: int, targets: Collection[int]
    ) -> LayerCosts:
        """:func:`~gtpmm.network.layer_costs`, run and counted here; its
        result is kept for :meth:`path`."""
        self.searches["layer"] += 1
        found = layer_costs(net, starts, weight, targets)
        self._layers.append(found)
        return found

    def summed(self, net: MultiModalNetwork, endpoints: Counter[int], pois: Collection[int]) -> dict[int, Money]:
        """The group's legs at the trip's start: for each PoI of ``pois``
        that every endpoint reaches, in ``pois`` order, the sum over
        ``endpoints`` of count times the endpoint's leg cost. Priced by one
        :meth:`costs` call from the endpoints to ``pois``, so the searches
        run from each distinct endpoint, or from each PoI when there are
        fewer PoIs; :meth:`summed_to` sums legs that end at the endpoints."""
        costs = self.costs(net, endpoints, pois)
        return {
            j: sum(count * costs[(e, j)] for e, count in endpoints.items())
            for j in pois
            if all((e, j) in costs for e in endpoints)
        }

    def summed_to(self, net: MultiModalNetwork, pois: Collection[int], endpoints: Counter[int]) -> dict[int, Money]:
        """:meth:`summed` for legs from ``pois`` to the endpoints, as at the
        trip's end: one :meth:`costs` call from ``pois``, so that its
        searches run from the legs' starts when both sides are the same size."""
        costs = self.costs(net, pois, endpoints)
        return {
            j: sum(count * costs[(j, e)] for e, count in endpoints.items())
            for j in pois
            if all((j, e) in costs for e in endpoints)
        }

    def _known(self, u: int, v: int) -> PathResult | None | object:
        """The path of ``(u, v)`` from what the legs hold (None when a tree
        shows it unreachable), or ``_UNKNOWN``."""
        if (u, v) in self._paths:
            return self._paths[(u, v)]
        for tree in self._trees.get(u, ()):
            if v in tree.targets:
                self._paths[(u, v)] = tree.get(v)
                return self._paths[(u, v)]
        for tree in self._trees.get(v, ()):
            if u not in tree.targets:
                continue
            found = tree.path_from(u) if u in tree.costs else None  # None: unreachable
            if found is None and u in tree.costs:
                continue  # a second cheapest path or a free hop: the tree cannot tell the path back
            self._paths[(u, v)] = found
            return found
        return _UNKNOWN

    def path(self, net: MultiModalNetwork, u: int, v: int) -> PathResult:
        """Raises :class:`InfeasibleRouteError` when ``u`` and ``v`` are disconnected."""
        result = self._known(u, v)
        if result is _UNKNOWN:
            result = next(filter(None, (layer.path(u, v) for layer in self._layers)), None)
            if result is None:
                self.searches["path"] += 1
                result = shortest_path(net, u, v)
            self._paths[(u, v)] = result
        if result is None:
            raise InfeasibleRouteError(u, v)
        return result

    def fill(self, net: MultiModalNetwork, u: int, targets: Sequence[int]) -> None:
        """One search from ``u`` to every distinct PoI of ``targets`` whose
        leg from ``u`` nothing held answers, and none when there is no such PoI."""
        missing = [v for v in dict.fromkeys(targets) if self._known(u, v) is _UNKNOWN]
        if missing:
            self._search_from(net, u, missing)


def _least_by_bound(
    bounded: Iterable[tuple[Money, int]], price: Callable[[int], Money]
) -> tuple[Money, int] | None:
    """The least ``(price(j), j)`` over the ``(lower bound, j)`` pairs of
    ``bounded``, or None when there are none, pricing in ascending ``(lower
    bound, j)`` order until no candidate left can win.

    Each lower bound must be at most its candidate's price. Once a
    candidate's ``(lower bound, j)`` exceeds the best ``(price, id)`` so far,
    it and every candidate after it cost more or tie at a higher id, so the
    pick and its tie-break are those of pricing every candidate (the
    threshold rule of Fagin, Lotem and Naor, PODS 2001).
    """
    best: tuple[Money, int] | None = None
    for lower, j in sorted(bounded):
        if best is not None and (lower, j) > best:
            break
        priced = (price(j), j)
        if best is None or priced < best:
            best = priced
    return best


def _least_total(
    base: dict[int, Money], lower: dict[int, Money] | None, price: Callable[[tuple[int, ...]], dict[int, Money]]
) -> tuple[Money, int] | None:
    """The least ``(base[j] + price((j,))[j], j)`` over the PoIs of ``base``
    that ``price`` reaches, ties to the lower id, or None. Without
    ``lower``, one ``price(tuple(base))`` call prices them all; with it,
    each is priced alone in ascending ``(base[j] + lower[j], j)`` until
    none left can win (:func:`_least_by_bound`), each ``lower[j]`` being
    at most ``j``'s price and every PoI reached."""
    if lower is None:
        return min(((base[j] + cost, j) for j, cost in price(tuple(base)).items()), default=None)
    return _least_by_bound(((base[j] + lower[j], j) for j in base), lambda j: base[j] + price((j,))[j])


def _summed_bounds(bound: Callable[[int, int], Money], endpoints: Counter[int], pois: Iterable[int]) -> dict[int, Money]:
    """Each PoI of ``pois``, in order, with the sum over ``endpoints`` of
    count times the endpoint's pair ``bound`` to it. The pair bound is
    symmetric, so this bounds the group's legs at either end of the trip."""
    return {j: sum(n * bound(e, j) for e, n in endpoints.items()) for j in pois}


def _chain_bounds(
    first: dict[int, Money], categories: Sequence[Sequence[int]], m: int, bound: Callable[[int, int], Money]
) -> list[dict[int, Money]]:
    """The bounds DP over ``categories`` from ``first``, the row of
    ``categories[0]``: row ``c`` gives each PoI ``j`` of category ``c`` the
    least ``rows[c-1][i] + m * bound(i, j)`` over category ``c-1``'s ``i``.
    Run on reversed categories it bounds chains from a PoI on."""
    rows = [first]
    for before, category in zip(categories, categories[1:]):
        reach = rows[-1]
        rows.append({j: min(reach[i] + m * bound(i, j) for i in before) for j in category})
    return rows


@dataclass
class DpTable:
    """Per-category minimum costs with predecessor links, and the legs
    that ran the DP's searches and keep their trees.

    ``cost[c][j]`` is finite (present) iff some prefix of the common path
    reaches ``j``; ``parent[c][j]`` names the chosen PoI of category ``c-1``.
    ``best`` is the destination stage's winner, ``(full total, last PoI)``
    with ties to the lower id, or None when no reached last PoI reaches
    every destination (or before the stage has run).
    ``sp_invocations`` counts the point-to-point searches of ``legs``.
    """

    cost: list[dict[int, Money]]
    parent: list[dict[int, int | None]]
    legs: Legs = field(default_factory=Legs)
    best: tuple[Money, int] | None = None

    @property
    def k(self) -> int:
        return len(self.cost)

    @property
    def sp_invocations(self) -> int:
        return self.legs.searches["path"]

    def leg(self, net: MultiModalNetwork, u: int, v: int) -> PathResult:
        return self.legs.path(net, u, v)


@dataclass(frozen=True)
class JourneyPlan:
    """A complete solution: common PoIs, all legs, and the group total."""

    common_pois: tuple[int, ...]
    common_legs: tuple[PathResult, ...]
    source_legs: tuple[PathResult, ...]  # one per agent, source -> first common PoI
    dest_legs: tuple[PathResult, ...]  # one per agent, last common PoI -> destination
    sharing: SharingMode
    total_cost: Money

    @property
    def n_agents(self) -> int:
        return len(self.source_legs)

    def charged_legs(self) -> Iterator[tuple[PathResult, int]]:
        """Each leg with the number of agents it is charged for: source
        legs, then destination legs, once; then common legs, per the sharing mode."""
        for leg in self.source_legs:
            yield leg, 1
        for leg in self.dest_legs:
            yield leg, 1
        m = self.sharing.intermediate_multiplier(self.n_agents)
        for leg in self.common_legs:
            yield leg, m

    def agent_hops(self, agent: int) -> Iterator[tuple[int, int, int, ModeId]]:
        """One agent's route in travel order, as ``(from PoI, to PoI, edge
        id, mode)`` per hop: its source leg, the common legs, then its
        destination leg."""
        for leg in (self.source_legs[agent], *self.common_legs, self.dest_legs[agent]):
            for (eid, mode), a, b in zip(leg.legs, leg.poi_sequence, leg.poi_sequence[1:]):
                yield a, b, eid, mode


def recompute_total(plan: JourneyPlan) -> Money:
    """Group cost re-derived from the plan's own legs (consistency check)."""
    return sum(count * leg.cost for leg, count in plan.charged_legs())


def assemble(
    net: MultiModalNetwork,
    inst: QueryInstance,
    common: tuple[int, ...],
    sharing: SharingMode,
    leg: Callable[[MultiModalNetwork, int, int], PathResult],
) -> JourneyPlan:
    """The plan through ``common`` with every leg from ``leg(net, u, v)``.

    Source legs are requested first, then intermediate, then destination
    legs; RPRM's random stream relies on that order.
    """
    source_legs = tuple(leg(net, source, common[0]) for source, _ in inst.agents)
    common_legs = tuple(leg(net, a, b) for a, b in zip(common, common[1:]))
    dest_legs = tuple(leg(net, common[-1], dest) for _, dest in inst.agents)
    draft = JourneyPlan(common, common_legs, source_legs, dest_legs, sharing, 0)
    return replace(draft, total_cost=recompute_total(draft))


def compute_dp(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode,
    *,
    legs: Legs | None = None,
    last_bounds: dict[int, Money] | None = None,
) -> DpTable:
    """Run the layered DP and its destination stage, and return the table
    with its winner in ``table.best`` (no reconstruction).

    The first layer is :meth:`Legs.summed` from the agents' sources. Each
    later layer is one :meth:`Legs.layer` search seeded at the reached PoIs
    of the layer before, with costs times the intermediate multiplier;
    ties keep the lower PoI id as parent. The destination stage
    (:func:`_destination_stage`) then finds the least ``(full total,
    PoI)`` over the reached last-category PoIs with :func:`_least_total`,
    a PoI's full total being its last-layer cost plus its destination legs
    (:meth:`Legs.summed_to`), each times the agents bound there.

    Where :func:`~gtpmm.network.landmark_bound` gives no bounds for those
    PoIs and the distinct destinations (the gate is shut, or they span
    components), the stage prices every reached last PoI to every
    destination with one :meth:`Legs.summed_to` call. Otherwise it prices
    them one at a time, in ascending ``(last-layer cost + summed bound,
    PoI)`` (:func:`_summed_bounds` to the destinations), and stops once
    the next pair exceeds the best ``(total, PoI)`` found. The result is the same, ties included: each
    bound is at most its PoI's destination sum, so a PoI left unpriced
    costs more or ties at a higher id. ``last_bounds``, when given, holds
    those summed bounds for every PoI of the last category, as
    :func:`_prune` computed them for :func:`plan`; the stage then orders by
    them and sums none of its own.

    The first stage, and the destination stage where the gate is shut, run
    :meth:`Legs.costs`'s searches, one single-source search per distinct
    endpoint or per category PoI, whichever set is smaller; past the gate
    the destination stage runs at most one search per PoI it prices. So a
    query runs at most min(sources, |first category|) + (k - 1) +
    min(destinations, |last category|) searches where the gate is shut,
    and at most min(sources, |first category|) + (k - 1) + |last category|
    past it, usually fewer, as pricing stops early. The trees are kept in
    ``table.legs``: ``legs`` when given, a new :class:`Legs` otherwise. A
    category PoI or endpoint with a tree already kept there for every PoI
    of the other side is not searched again (:func:`plan` passes those of
    its pruning stage); the table is the same.
    """
    inst.check(net)
    m = sharing.intermediate_multiplier(inst.n_agents)
    legs = legs if legs is not None else Legs()
    cost = [legs.summed(net, Counter(source for source, _ in inst.agents), inst.categories[0])]
    parent = [dict.fromkeys(cost[0])]
    for category in inst.categories[1:]:
        found = legs.layer(net, cost[-1], m, category) if cost[-1] else {}
        cost.append({j: total for j, (total, _) in found.items()})
        parent.append({j: i for j, (_, i) in found.items()})
    return DpTable(cost, parent, legs, _destination_stage(net, inst, cost[-1], legs, last_bounds))


def _destination_stage(
    net: MultiModalNetwork, inst: QueryInstance, reached: dict[int, Money], legs: Legs, bounds: dict[int, Money] | None
) -> tuple[Money, int] | None:
    """:func:`compute_dp`'s destination stage: the table's ``best`` from the
    last layer's ``reached`` costs, ordered by its ``last_bounds`` when given."""
    last = {j: reached[j] for j in inst.categories[-1] if j in reached}
    destinations = Counter(dest for _, dest in inst.agents)
    if bounds is None:
        bound = landmark_bound(net, (*last, *destinations))
        if bound is not None:
            bounds = _summed_bounds(bound, destinations, last)
    return _least_total(last, bounds, lambda pois: legs.summed_to(net, pois, destinations))


def reconstruct(table: DpTable, best_last: int) -> tuple[int, ...]:
    """Walk parent links back from the chosen last-category PoI."""
    if best_last not in table.cost[table.k - 1]:
        raise InternalConsistencyError(f"PoI {best_last} has no entry in the last DP layer")
    chain = [best_last]
    for c in range(table.k - 1, 0, -1):
        parent = table.parent[c].get(chain[-1])
        if parent is None:
            raise InternalConsistencyError(f"broken parent chain at category {c}, PoI {chain[-1]}")
        chain.append(parent)
    chain.reverse()
    return tuple(chain)


def _first_unreachable(net: MultiModalNetwork, inst: QueryInstance) -> tuple[int, int]:
    """The first disconnected pair in the DP's visiting order: each
    first-category PoI from every source, each later PoI from every PoI of
    the category before, then each last-category PoI to every destination.
    Every pair before it is connected, so every PoI it passes is reached.
    Called only when no plan exists."""
    component = _component_roots(net)
    for j in inst.categories[0]:
        for source, _ in inst.agents:
            if component[source] != component[j]:
                return source, j
    for before, category in zip(inst.categories, inst.categories[1:]):
        for j in category:
            for i in before:
                if component[i] != component[j]:
                    return i, j
    for j in inst.categories[-1]:
        for _, dest in inst.agents:
            if component[j] != component[dest]:
                return j, dest
    return inst.agents[0][0], inst.categories[0][0]


def _bounds(
    net: MultiModalNetwork, inst: QueryInstance, m: int, sources: Counter[int], destinations: Counter[int]
) -> tuple[Callable[[int, int], Money], list[dict[int, Money]], list[dict[int, Money]]] | None:
    """:func:`_prune`'s gate and bounds DP: the pair ``bound`` over the
    query's PoIs, ``through`` and ``suffix``, or None where the gate shuts."""
    bound = landmark_bound(net, inst.referenced_pois())
    if bound is None:
        return None
    categories = inst.categories
    prefix = _chain_bounds(_summed_bounds(bound, sources, categories[0]), categories, m, bound)
    suffix = _chain_bounds(_summed_bounds(bound, destinations, categories[-1]), categories[::-1], m, bound)[::-1]
    return bound, [{j: reach[j] + rest[j] for j in reach} for reach, rest in zip(prefix, suffix)], suffix


def _prune(
    net: MultiModalNetwork, inst: QueryInstance, sharing: SharingMode, legs: Legs
) -> tuple[QueryInstance | None, dict[int, Money] | None]:
    """The query cut to the category PoIs that landmark lower bounds cannot
    rule out, and ``suffix[-1]`` (below): each last-category PoI's summed
    bound to the destinations, which :func:`compute_dp`'s destination stage
    orders by. The searches that priced the threshold are kept in ``legs``.
    The query is None when :func:`~gtpmm.network.landmark_bound` gives no
    bounds for the query's PoIs, and when no PoI is likely to go (below);
    the bounds are None only in the first case.

    A pair's bound is :func:`~gtpmm.network.landmark_bound`'s, ``max
    |d_L(a) - d_L(b)|`` over the landmark rows ``d_L``, at most its cost by
    the triangle inequality; :func:`~gtpmm.baselines.nncm` orders its
    candidates by the same bound. ``prefix[c][j]`` bounds the cost of any
    chain's part up to ``j``, category ``c``'s PoI: source legs weighted
    by agent counts (:func:`_summed_bounds`), hops by the intermediate
    multiplier. ``suffix[c][j]`` bounds the part from ``j`` on alike. Both
    are :func:`_chain_bounds`, the suffix run on the reversed categories
    from the destinations, and ``through[c][j]`` is their sum: the step
    :func:`_bounds` gives them past the gate. Here the chain of least
    ``through`` is priced exactly: its source legs by :meth:`Legs.summed`,
    one search per hop to its one target and one from its last PoI to the
    distinct destinations, but none that a tree grown before answers; that
    price ``ub`` is at least the optimum.

    The pricing searches pay only if some PoI goes, and a PoI goes when its
    bound exceeds ``ub``. The least chain bound is about ``tightness``
    (:attr:`~gtpmm.network.MultiModalNetwork.landmark_tightness`) of the
    optimum, so when no PoI's bound exceeds the least over ``tightness``,
    the query is left unpruned before any search. On the perfbench city's
    district-to-district queries that leaves most queries whole, where
    pricing cost up to 5% more search work; on its city-wide bench-sweep
    instances it leaves none.

    Exactness: every chain through ``j`` costs at least ``through[c][j]``,
    so each PoI of each optimal chain has that sum at most the optimum and
    is kept; only a sum strictly over ``ub`` is dropped. The full DP's plan
    is an optimal chain, so all its PoIs stay, each with its full-DP cost. A
    PoI that ties one of them as a parent, or ties the last as the argmin,
    lies on an optimal chain too and stays, so the lower-id winner of every
    tie is unchanged. The priced chain's PoIs always stay, as its bound is
    at most its price.
    """
    m = sharing.intermediate_multiplier(inst.n_agents)
    sources = Counter(source for source, _ in inst.agents)
    destinations = Counter(dest for _, dest in inst.agents)
    if (bounds := _bounds(net, inst, m, sources, destinations)) is None:
        return None, None
    bound, through, suffix = bounds

    chain = [min(inst.categories[0], key=lambda j: through[0][j])]
    least = through[0][chain[0]]
    tightness = net.landmark_tightness
    if all(tightness * lower <= least for row in through for lower in row.values()):
        return None, suffix[-1]  # no PoI's bound exceeds the likely threshold: pricing the chain would cut nothing
    for category, rest in zip(inst.categories[1:], suffix[1:]):
        chain.append(min(category, key=lambda i: m * bound(chain[-1], i) + rest[i]))
    ub = legs.summed(net, sources, chain[:1])[chain[0]]
    ub += legs.summed_to(net, chain[-1:], destinations)[chain[-1]]
    ub += m * sum(legs.costs(net, (a,), (b,))[(a, b)] for a, b in zip(chain, chain[1:]))

    kept = [[j for j, lower in row.items() if lower <= ub] for row in through]
    return QueryInstance(inst.agents, kept), suffix[-1]


def plan(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Cost-minimal journey plan for the whole group.

    Exact over all choices of one PoI per category and cheapest modes per
    leg. Ties break toward the lower PoI id. Raises
    :class:`InfeasibleRouteError` when some required pair is disconnected.

    On a network whose :attr:`~gtpmm.network.MultiModalNetwork.landmark_tightness`
    is at least :data:`~gtpmm.network.PRUNE_TIGHTNESS`, the DP runs over
    the category PoIs that :func:`_prune`'s landmark lower bounds keep,
    reusing the endpoint searches of the chain it priced; the plan, its
    total, legs and tie-breaks are those of the DP over every PoI.
    Elsewhere, and when the bounds do not apply or are unlikely to cut, the
    DP runs over every PoI.

    The plan ends at the winner that :func:`compute_dp`'s destination
    stage records in ``table.best``, which past the gate prices the last
    PoIs in lower-bound order only until none left can win.

    The pruning's and the DP's searches go to one :class:`Legs`, and the
    plan's legs are read from them where one answers: every source leg and
    every destination leg that is the only cheapest path of its pair from
    the trees, a hop the pruning priced from its tree, and every other hop
    from the DP layer that priced it. Only the other legs are searched:
    the destination legs from one search, and, on a network with a free
    hop, each hop point to point. The last category's summed landmark
    bounds to the destinations, where :func:`_prune` computed them, are
    handed to the destination stage, which then sums none of its own.
    """
    inst.check(net)  # before the pruning's landmark bounds check its PoIs unnamed
    legs = Legs()
    query, last_bounds = _prune(net, inst, sharing, legs)
    table = compute_dp(net, query or inst, sharing, legs=legs, last_bounds=last_bounds)

    if table.best is None:
        raise InfeasibleRouteError(*_first_unreachable(net, inst))
    best_total, best_last = table.best
    common = reconstruct(table, best_last)
    legs.fill(net, common[-1], [dest for _, dest in inst.agents])
    try:
        journey = assemble(net, inst, common, sharing, table.leg)
    except InfeasibleRouteError as failure:
        raise InternalConsistencyError("reconstructed plan references an unreachable leg") from failure
    if best_total != journey.total_cost:
        raise InternalConsistencyError(f"DP total {best_total} != leg total {journey.total_cost}")
    return journey


def group_cost(
    net: MultiModalNetwork,
    inst: QueryInstance,
    common_pois: Sequence[int],
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> Money:
    """Group cost of a fixed common-PoI choice, each leg at its cheapest.

    Source and destination legs are summed per agent; intermediate legs are
    charged once per agent or once per group per the sharing mode. This is
    :func:`~gtpmm.oracle.brute_force_optimal` over the query cut down to the
    one chain, so the checks share one cost sum and no search with the planner.
    """
    from .oracle import brute_force_optimal  # oracle imports this module

    inst.check(net)
    if len(common_pois) != inst.k:
        raise ConfigurationError(f"expected {inst.k} common PoIs, got {len(common_pois)}")
    for c, poi in enumerate(common_pois):
        if poi not in inst.categories[c]:
            raise ConfigurationError(f"PoI {poi} is not in category {c}")
    return brute_force_optimal(net, QueryInstance(inst.agents, [(poi,) for poi in common_pois]), sharing)[1]

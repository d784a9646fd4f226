"""Exact journey planner: a layered dynamic program over PoI categories.

Stage ``c`` of the DP holds, for every PoI ``j`` in category ``c``, the
cheapest cost of bringing the whole group from their sources through one PoI
of each earlier category to ``j``. Transitions are weighted by cheapest-cost
shortest paths between PoIs; intermediate legs are charged once per agent or
once per group depending on the sharing mode. The final stage weights each
distinct destination's leg by its agent count, as the first stage does each
source's, and the global argmin is reconstructed through parent links.

Each stage from one category to the next is one cost-only multi-source
search (:func:`~gtpmm.network.layer_costs`). The two stages that sum over
agents, sources to the first category and the last category to the
destinations, price their pairs with :meth:`Legs.costs`: one
single-source search per distinct endpoint or per category PoI,
whichever set is smaller, each tree kept in a :class:`Legs`. The chosen
plan's source and destination legs are read from those trees: forward from a leg's origin, or back from its target
when the tree shows that the cheapest path is the only one
(:meth:`~gtpmm.network.SearchTree.path_from`). Only the legs no tree
answers are searched: each common hop point to point, and the
destination legs left, which all start at the last common PoI, with one
search.

:func:`plan` first prunes the categories on road-like networks, in the
manner of the threshold pruning of LORD (Sharifzadeh, Kolahdouzan and
Shahabi, VLDB J. 2008) and of GTP query processing (Hashem et al., SSTD
2013). The network's landmark rows bound every pair's cost from below; a
small DP over those bounds gives each category PoI the least bound of any
chain through it, and the exact cost of the chain of least bound is the
threshold. A PoI whose bound exceeds the threshold cannot be on an optimal
chain, and the DP runs without it. The exact plan is unchanged, ties
included (see :func:`_prune`). A gate, :data:`PRUNE_TIGHTNESS`, keeps the
pruning to networks whose landmark bounds come close to exact costs; on
others, such as random expanders, it would prune nothing and only add its
searches. Per query, the pricing searches are skipped when no PoI's bound
stands out from the least enough to be cut.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Iterable, Sequence

from .errors import ConfigurationError, InfeasibleRouteError, InternalConsistencyError
from .network import (
    Money,
    MultiModalNetwork,
    PathResult,
    SearchTree,
    connected_components,
    landmark_bound,
    layer_costs,
    shortest_path,
    shortest_paths,
)

# plan() prunes by landmark bounds only on a network whose landmark_tightness is at least this. Measured:
# 0.91-0.93 on the perfbench cities (seeds 0 and 3) and 0.86-0.94 on road_network lattices of 5-55 PoIs a
# side, where per-person queries keep 1-6 of 10 PoIs per category; 0.57-0.64 on random_network(1, {200, 2000,
# 5000}, 3), where forced pruning kept every PoI of bench_planner.py's queries and only added its searches
# (200 PoIs: 2.7 -> 3.9 ms; 2000 PoIs: 132 -> 146 ms).
PRUNE_TIGHTNESS = 0.8


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


_UNKNOWN = object()  # Legs._known's answer for a pair no kept path or tree answers


class Legs:
    """Cheapest legs of one network: the costs and paths of ordered PoI
    pairs, read from the trees of the single-source searches run through
    it, or else searched once.

    ``costs`` prices pairs from the kept trees and new
    :func:`~gtpmm.network.shortest_paths` searches, whose trees it keeps;
    ``tree_searches`` counts them. ``path(net, u, v)`` looks in turn for
    the pair's path already found, a tree from ``u`` searched for ``v``,
    and a tree from ``v`` searched for ``u`` that can read its path back
    (:meth:`~gtpmm.network.SearchTree.path_from`); each gives the path
    ``shortest_path(net, u, v)`` returns. Only when none answers does it
    search the pair point to point with this module's ``shortest_path``
    name, looked up at each call, which tests and the benchmark's tracer
    patch to count them; ``searches`` counts those calls.
    """

    def __init__(self) -> None:
        self._paths: dict[tuple[int, int], PathResult | None] = {}
        self._trees: dict[int, list[SearchTree]] = {}
        self.searches = 0
        self.tree_searches = 0

    def _search_from(self, net: MultiModalNetwork, origin: int, targets: Iterable[int]) -> dict[int, Money]:
        """The costs of one new search from ``origin`` to ``targets``, whose tree is kept."""
        tree = shortest_paths(net, origin, targets)
        self._trees.setdefault(origin, []).append(tree)
        self.tree_searches += 1
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
                continue  # a tie or a free hop: the tree cannot tell the path back
            self._paths[(u, v)] = found
            return found
        return _UNKNOWN

    def path(self, net: MultiModalNetwork, u: int, v: int) -> PathResult:
        """Raises :class:`InfeasibleRouteError` when ``u`` and ``v`` are disconnected."""
        result = self._known(u, v)
        if result is _UNKNOWN:
            self.searches += 1
            result = self._paths[(u, v)] = shortest_path(net, u, v)
        if result is None:
            raise InfeasibleRouteError(u, v)
        return result

    def fill(self, net: MultiModalNetwork, u: int, targets: Sequence[int]) -> None:
        """One search from ``u`` to every PoI of ``targets`` whose leg from
        ``u`` nothing held answers, and none when there is no such PoI."""
        missing = [v for v in targets if self._known(u, v) is _UNKNOWN]
        if missing:
            self._search_from(net, u, missing)


@dataclass
class DpTable:
    """Per-category minimum costs with predecessor links, the destination
    stage's pair costs, and the legs the chosen plan is read from.

    ``cost[c][j]`` is finite (present) iff some prefix of the common path
    reaches ``j``; ``parent[c][j]`` names the chosen PoI of category ``c-1``.
    ``distances`` maps a (reached last-category PoI, destination) pair to
    its cheapest cost; an unreachable pair is missing. ``searches`` counts
    :func:`compute_dp`'s layer searches and the trees it grew in ``legs``,
    plus those the pruning stage grew when :func:`plan` pruned. From the
    trees in ``legs`` :func:`plan` reads the chosen plan's legs;
    ``sp_invocations`` counts its point-to-point searches.
    """

    cost: list[dict[int, Money]]
    parent: list[dict[int, int | None]]
    legs: Legs = field(default_factory=Legs)
    distances: dict[tuple[int, int], Money] = field(default_factory=dict)
    searches: int = 0

    @property
    def k(self) -> int:
        return len(self.cost)

    @property
    def sp_invocations(self) -> int:
        return self.legs.searches

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


def recompute_total(plan: JourneyPlan) -> Money:
    """Group cost re-derived from the plan's own legs (consistency check)."""
    m = plan.sharing.intermediate_multiplier(plan.n_agents)
    return (
        sum(leg.cost for leg in plan.source_legs)
        + m * sum(leg.cost for leg in plan.common_legs)
        + sum(leg.cost for leg in plan.dest_legs)
    )


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


def _check_instance(net: MultiModalNetwork, inst: QueryInstance) -> None:
    """Each PoI id of ``inst`` is one of ``net``'s. The first that is not,
    agents first and then categories, in order, raises
    :class:`ConfigurationError` naming its element by index: ``agents[0][1]``,
    or ``categories[2]``, whose ids :class:`QueryInstance` keeps sorted."""
    for index, pair in enumerate(inst.agents):
        for side, poi in enumerate(pair):
            try:
                net.check_poi(poi)
            except ConfigurationError as error:
                raise ConfigurationError(f"agents[{index}][{side}]: {error}") from None
    for index, category in enumerate(inst.categories):
        for poi in category:
            try:
                net.check_poi(poi)
            except ConfigurationError as error:
                raise ConfigurationError(f"categories[{index}]: {error}") from None


def compute_dp(
    net: MultiModalNetwork, inst: QueryInstance, sharing: SharingMode, *, legs: Legs | None = None
) -> DpTable:
    """Run the layered DP and return the full table (no reconstruction).

    The first layer sums each first-category PoI's cost from every agent's
    source. Each later layer is one :func:`~gtpmm.network.layer_costs`
    search seeded at the reached PoIs of the layer before, with costs times
    the intermediate multiplier; ties keep the lower PoI id as parent. The
    destination stage then stores the cost from every reached last-category
    PoI to every destination in ``distances``.

    The two endpoint stages price their pairs with :meth:`Legs.costs`,
    one single-source search per distinct endpoint or per category PoI,
    whichever set is smaller, so a query runs at most min(sources, |first
    category|) + (k - 1) + min(destinations, |last category|) searches.
    Their trees are kept in ``table.legs``: ``legs`` when given, a new
    :class:`Legs` otherwise. A category PoI or endpoint with a tree already
    kept there for every PoI of the other side is not searched again
    (:func:`plan` passes those of its pruning stage); the table is the
    same.
    """
    _check_instance(net, inst)
    m = sharing.intermediate_multiplier(inst.n_agents)
    legs = legs if legs is not None else Legs()
    table = DpTable(cost=[{} for _ in inst.categories], parent=[{} for _ in inst.categories], legs=legs)
    trees = legs.tree_searches

    sources = Counter(source for source, _ in inst.agents)
    from_sources = legs.costs(net, sources, inst.categories[0])
    for j in inst.categories[0]:
        if all((source, j) in from_sources for source in sources):
            table.cost[0][j] = sum(count * from_sources[(source, j)] for source, count in sources.items())
            table.parent[0][j] = None

    for c in range(1, inst.k):
        previous = table.cost[c - 1]
        if not previous:
            continue
        table.searches += 1
        for j, (cost, parent) in layer_costs(net, previous, m, inst.categories[c]).items():
            table.cost[c][j] = cost
            table.parent[c][j] = parent

    last = tuple(j for j in inst.categories[-1] if j in table.cost[-1])
    destinations = tuple(dict.fromkeys(dest for _, dest in inst.agents))
    table.distances = legs.costs(net, last, destinations)
    table.searches += legs.tree_searches - trees
    return table


def destination_totals(net: MultiModalNetwork, inst: QueryInstance, table: DpTable) -> dict[int, Money]:
    """Cheapest full total per destination PoI: best last-category entry
    extended by the single leg to that destination."""
    totals: dict[int, Money] = {}
    distances = table.distances
    for dest in dict.fromkeys(dest for _, dest in inst.agents):
        reached = [cost + distances[(j, dest)] for j, cost in table.cost[-1].items() if (j, dest) in distances]
        if reached:
            totals[dest] = min(reached)
    return totals


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
    component = [0] * net.poi_count
    for index, members in enumerate(connected_components(net)):
        for poi in members:
            component[poi] = index
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


def _prune(net: MultiModalNetwork, inst: QueryInstance, sharing: SharingMode, legs: Legs) -> QueryInstance | None:
    """The query cut to the category PoIs that landmark lower bounds cannot
    rule out. The searches that priced the threshold are kept in ``legs``.
    None when some landmark row splits the query's PoIs across components,
    where the rows bound nothing, and when no PoI is likely to go (below).

    A pair's bound is :func:`~gtpmm.network.landmark_bound`'s, ``max
    |d_L(a) - d_L(b)|`` over the landmark rows ``d_L``, at most its cost by
    the triangle inequality; :func:`~gtpmm.baselines.nncm` orders its
    candidates by the same bound. ``prefix[c][j]``
    bounds the cost of any chain's part up to ``j``, category ``c``'s PoI:
    source legs weighted by agent counts, hops by the intermediate
    multiplier. ``suffix[c][j]`` bounds the part from ``j`` on alike. The
    chain of least total bound is priced exactly by :meth:`Legs.costs`:
    one search from its first PoI to the distinct sources, one per hop to
    its one target and one from its last PoI to the distinct destinations,
    but none that a tree grown before answers; that price ``ub`` is at
    least the optimum.

    The pricing searches pay only if some PoI goes, and a PoI goes when its
    bound exceeds ``ub``. The least chain bound is about ``tightness``
    (:attr:`~gtpmm.network.MultiModalNetwork.landmark_tightness`) of the
    optimum, so when no PoI's bound exceeds the least over ``tightness``,
    the query is left unpruned before any search. On the perfbench city's
    district-to-district queries that leaves most queries whole, where
    pricing cost up to 5% more search work; on its city-wide bench-sweep
    instances it leaves none.

    Exactness: every chain through ``j`` costs at least ``prefix[c][j] +
    suffix[c][j]``, so each PoI of each optimal chain has that sum at most
    the optimum and is kept; only a sum strictly over ``ub`` is dropped.
    The full DP's plan is an optimal chain, so all its PoIs stay, each with
    its full-DP cost. A PoI that ties one of them as a parent, or ties the
    last as the argmin, lies on an optimal chain too and stays, so the
    lower-id winner of every tie is unchanged. The priced chain's PoIs
    always stay, as its bound is at most its price.
    """
    bound = landmark_bound(net, inst.referenced_pois())
    if bound is None:
        return None  # a landmark row splits the query's PoIs across components: no bounds
    m = sharing.intermediate_multiplier(inst.n_agents)
    sources = Counter(source for source, _ in inst.agents)
    destinations = Counter(dest for _, dest in inst.agents)
    categories = inst.categories
    prefix = [{j: sum(n * bound(s, j) for s, n in sources.items()) for j in categories[0]}]
    for before, category in zip(categories, categories[1:]):
        reach = prefix[-1]
        prefix.append({j: min(reach[i] + m * bound(i, j) for i in before) for j in category})
    suffix = [{j: sum(n * bound(j, d) for d, n in destinations.items()) for j in categories[-1]}]
    for category, after in zip(categories[-2::-1], categories[:0:-1]):
        rest = suffix[-1]
        suffix.append({j: min(m * bound(j, i) + rest[i] for i in after) for j in category})
    suffix.reverse()

    chain = [min(categories[0], key=lambda j: prefix[0][j] + suffix[0][j])]
    least = prefix[0][chain[0]] + suffix[0][chain[0]]
    tightness = net.landmark_tightness
    if all(tightness * (prefix[c][j] + suffix[c][j]) <= least for c, cat in enumerate(categories) for j in cat):
        return None  # no PoI's bound exceeds the likely threshold: pricing the chain would cut nothing
    for category, rest in zip(categories[1:], suffix[1:]):
        chain.append(min(category, key=lambda i: m * bound(chain[-1], i) + rest[i]))
    from_first = legs.costs(net, chain[:1], sources)
    to_last = legs.costs(net, chain[-1:], destinations)
    ub = sum(n * from_first[(chain[0], s)] for s, n in sources.items())
    ub += sum(n * to_last[(chain[-1], d)] for d, n in destinations.items())
    ub += m * sum(legs.costs(net, (a,), (b,))[(a, b)] for a, b in zip(chain, chain[1:]))

    kept = [[j for j in cat if reach[j] + rest[j] <= ub] for cat, reach, rest in zip(categories, prefix, suffix)]
    return QueryInstance(inst.agents, kept)


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
    is at least :data:`PRUNE_TIGHTNESS`, the DP runs over the category
    PoIs that :func:`_prune`'s landmark lower bounds keep, reusing the
    endpoint searches of the chain it priced; the plan, its total, legs
    and tie-breaks are those of the DP over every PoI. Elsewhere, and when
    the bounds do not apply or are unlikely to cut, the DP runs over every
    PoI.

    The pruning's and the DP's single-source searches go to one
    :class:`Legs`, and the plan's legs are read from their trees where one
    answers: every source leg and every destination leg, but for ties, and
    a hop the pruning priced. Only the other legs are searched, each hop
    point to point and the destination legs from one search.
    """
    _check_instance(net, inst)  # before the pruning's landmark bounds check its PoIs unnamed
    legs = Legs()
    query = inst
    if net.landmark_tightness >= PRUNE_TIGHTNESS:
        query = _prune(net, inst, sharing, legs) or inst
    pricing = legs.tree_searches
    table = compute_dp(net, query, sharing, legs=legs)
    table.searches += pricing

    destinations = Counter(dest for _, dest in query.agents)
    totals = [
        (cost + sum(n * table.distances[(j, dest)] for dest, n in destinations.items()), j)
        for j, cost in table.cost[-1].items()
        if all((j, dest) in table.distances for dest in destinations)
    ]
    if not totals:
        raise InfeasibleRouteError(*_first_unreachable(net, inst))
    best_total, best_last = min(totals)  # an equal total goes to the lower PoI id
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

    _check_instance(net, inst)
    if len(common_pois) != inst.k:
        raise ConfigurationError(f"expected {inst.k} common PoIs, got {len(common_pois)}")
    for c, poi in enumerate(common_pois):
        if poi not in inst.categories[c]:
            raise ConfigurationError(f"PoI {poi} is not in category {c}")
    return brute_force_optimal(net, QueryInstance(inst.agents, [(poi,) for poi in common_pois]), sharing)[1]

"""Exact journey planner: a layered dynamic program over PoI categories.

Stage ``c`` of the DP holds, for every PoI ``j`` in category ``c``, the
cheapest cost of bringing the whole group from their sources through one PoI
of each earlier category to ``j``. Transitions are weighted by cheapest-cost
shortest paths between PoIs; intermediate legs are charged once per agent or
once per group depending on the sharing mode. The final stage attaches every
agent's destination leg and the global argmin is reconstructed through
parent links.

Every DP search is cost-only. Each stage from one category to the next is
one multi-source search (:func:`~gtpmm.network.layer_costs`). The two
stages that sum over agents, sources to the first category and the last
category to the destinations, run one search per distinct endpoint or per
category PoI, whichever set is smaller. Only the chosen plan's legs are
searched with paths (:class:`Legs`): each source leg and common hop point
to point, and every destination leg, which all start at the last common
PoI, from one search.

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
from operator import sub
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConfigurationError, InfeasibleRouteError, InternalConsistencyError
from .network import (
    ModeId,
    Money,
    MultiModalNetwork,
    PathResult,
    connected_components,
    layer_costs,
    reference_path,
    shortest_costs,
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


@dataclass(frozen=True)
class QueryInstance:
    """One query: agent endpoints plus the ordered intermediate categories.

    ``agents`` holds (source, destination) PoI ids; ``categories`` holds, in
    visiting order, the candidate PoI ids of each category. Category sets
    are normalized to sorted, duplicate-free tuples.
    """

    agents: tuple[tuple[int, int], ...]
    categories: tuple[tuple[int, ...], ...]

    def __init__(self, agents: Iterable[tuple[int, int]], categories: Iterable[Iterable[int]]):
        agent_tuple = tuple((int(s), int(d)) for s, d in agents)
        category_tuple = tuple(tuple(sorted(set(int(p) for p in cat))) for cat in categories)
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


class Legs:
    """Cheapest legs of one network, each ordered PoI pair searched once.

    ``path`` searches a pair it does not hold point to point with
    ``search(net, u, v)``; ``searches`` counts those calls. By default the
    search is this module's ``shortest_path`` name, looked up at each call,
    which tests and the benchmark's tracer patch to count them; the checks
    pass :func:`~gtpmm.network.reference_path`. ``fill`` stores the paths
    of one :func:`~gtpmm.network.shortest_paths` search from one origin,
    each equal to the point-to-point one.
    """

    def __init__(self, search: Callable[[MultiModalNetwork, int, int], PathResult | None] | None = None) -> None:
        self._paths: dict[tuple[int, int], PathResult | None] = {}
        self._search = search
        self.searches = 0

    def path(self, net: MultiModalNetwork, u: int, v: int) -> PathResult:
        """Raises :class:`InfeasibleRouteError` when ``u`` and ``v`` are disconnected."""
        if (u, v) not in self._paths:
            self.searches += 1
            self._paths[(u, v)] = (self._search or shortest_path)(net, u, v)
        result = self._paths[(u, v)]
        if result is None:
            raise InfeasibleRouteError(u, v)
        return result

    def fill(self, net: MultiModalNetwork, u: int, targets: Sequence[int]) -> None:
        """Search from ``u`` to every PoI of ``targets`` at once; ``path``
        then returns each reachable one, and raises for the rest."""
        found = shortest_paths(net, u, targets)
        for v in targets:
            self._paths[(u, v)] = found.get(v)


@dataclass
class DpTable:
    """Per-category minimum costs with predecessor links, the destination
    stage's pair costs, and the chosen plan's legs.

    ``cost[c][j]`` is finite (present) iff some prefix of the common path
    reaches ``j``; ``parent[c][j]`` names the chosen PoI of category ``c-1``.
    ``distances`` maps a (reached last-category PoI, destination) pair to
    its cheapest cost; an unreachable pair is missing. ``searches`` counts
    the cost-only searches :func:`compute_dp` ran, plus those of the
    pruning stage when :func:`plan` pruned. ``legs`` starts empty
    and holds the paths :func:`plan` builds the chosen plan from;
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
    for poi in inst.referenced_pois():
        net.check_poi(poi)


def _endpoint_costs(
    net: MultiModalNetwork, origins: Sequence[int], targets: Sequence[int]
) -> dict[tuple[int, int], Money]:
    """Cheapest cost of every reachable (origin, target) pair, from one
    cost-only search per origin or per target, whichever set is smaller.
    The network is undirected, so both give the costs."""
    if len(origins) <= len(targets):
        return {(o, t): cost for o in origins for t, cost in shortest_costs(net, o, targets).items()}
    return {(o, t): cost for t in targets for o, cost in shortest_costs(net, t, origins).items()}


def compute_dp(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode,
    *,
    _searched: tuple[Mapping[int, Mapping[int, Money]], Mapping[int, Mapping[int, Money]]] = ({}, {}),
) -> DpTable:
    """Run the layered DP and return the full table (no reconstruction).

    The first layer sums each first-category PoI's cost from every agent's
    source. Each later layer is one :func:`~gtpmm.network.layer_costs`
    search seeded at the reached PoIs of the layer before, with costs times
    the intermediate multiplier; ties keep the lower PoI id as parent. The
    destination stage then stores the cost from every reached last-category
    PoI to every destination in ``distances``. The two endpoint stages run
    one search per distinct endpoint or per category PoI, whichever set is
    smaller, so a query runs at most min(sources, |first category|) +
    (k - 1) + min(destinations, |last category|) searches, all cost-only;
    ``table.legs`` stays empty.

    ``_searched`` is for :func:`plan` alone: the costs of searches it has
    already run, from some first-category PoIs to every distinct source and
    from some last-category PoIs to every distinct destination. Those PoIs
    are left out of the endpoint stages' searches; the table is the same.
    """
    _check_instance(net, inst)
    m = sharing.intermediate_multiplier(inst.n_agents)
    table = DpTable(cost=[{} for _ in inst.categories], parent=[{} for _ in inst.categories])
    from_first, to_last = _searched

    sources = Counter(source for source, _ in inst.agents)
    rest = tuple(j for j in inst.categories[0] if j not in from_first)
    from_sources = _endpoint_costs(net, tuple(sources), rest)
    table.searches += min(len(sources), len(rest))
    for j in inst.categories[0]:
        if j in from_first:
            from_sources.update(((source, j), cost) for source, cost in from_first[j].items())
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
    rest = tuple(j for j in last if j not in to_last)
    destinations = tuple(dict.fromkeys(dest for _, dest in inst.agents))
    table.distances = _endpoint_costs(net, rest, destinations)
    table.searches += min(len(rest), len(destinations))
    for j in last:
        if j in to_last:
            table.distances.update(((j, dest), cost) for dest, cost in to_last[j].items())
    return table


def destination_totals(net: MultiModalNetwork, inst: QueryInstance, table: DpTable) -> dict[int, Money]:
    """Cheapest full total per destination PoI: best last-category entry
    extended by the single leg to that destination."""
    totals: dict[int, Money] = {}
    last = table.cost[inst.k - 1]
    for _, dest in inst.agents:
        if dest in totals:
            continue
        best: Money | None = None
        for j in inst.categories[-1]:
            if j not in last:
                continue
            cost = table.distances.get((j, dest))
            if cost is None:
                continue
            candidate = last[j] + cost
            if best is None or candidate < best:
                best = candidate
        if best is not None:
            totals[dest] = best
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


def _prune(
    net: MultiModalNetwork, inst: QueryInstance, sharing: SharingMode
) -> tuple[QueryInstance, dict[int, dict[int, Money]], dict[int, dict[int, Money]]] | None:
    """The query cut to the category PoIs that landmark lower bounds cannot
    rule out, with the costs of the two endpoint searches that priced the
    threshold: ``(query, {first PoI: cost to each source}, {last PoI: cost
    to each destination})``. None when some landmark row splits the query's
    PoIs across components, where the rows bound nothing, and when no PoI
    is likely to go (below).

    A pair's bound is ``max |d_L(a) - d_L(b)|`` over the landmark rows
    ``d_L``, at most its cost by the triangle inequality. ``prefix[c][j]``
    bounds the cost of any chain's part up to ``j``, category ``c``'s PoI:
    source legs weighted by agent counts, hops by the intermediate
    multiplier. ``suffix[c][j]`` bounds the part from ``j`` on alike. The
    chain of least total bound is priced exactly by one search from its
    first PoI to the distinct sources, one point-to-point search per hop
    and one search from its last PoI to the distinct destinations; that
    price ``ub`` is at least the optimum.

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
    _check_instance(net, inst)
    rows = net.landmarks
    at = {poi: tuple(row[poi] for row in rows) for poi in inst.referenced_pois()}
    if any(min(costs) < 0 for costs in at.values()):
        return None  # a landmark row splits the query's PoIs across components: no bounds

    def bound(a: int, b: int) -> Money:
        return max(map(abs, map(sub, at[a], at[b])))

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
    from_first = shortest_costs(net, chain[0], sources)
    to_last = shortest_costs(net, chain[-1], destinations)
    ub = sum(n * from_first[s] for s, n in sources.items())
    ub += sum(n * to_last[d] for d, n in destinations.items())
    ub += m * sum(shortest_costs(net, a, (b,))[b] for a, b in zip(chain, chain[1:]))

    kept = [[j for j in cat if reach[j] + rest[j] <= ub] for cat, reach, rest in zip(categories, prefix, suffix)]
    return QueryInstance(inst.agents, kept), {chain[0]: from_first}, {chain[-1]: to_last}


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
    """
    query, searched, extra = inst, ({}, {}), 0
    if net.landmark_tightness >= PRUNE_TIGHTNESS:
        pruned = _prune(net, inst, sharing)
        if pruned is not None:
            query, searched, extra = pruned[0], pruned[1:], inst.k + 1
    table = compute_dp(net, query, sharing, _searched=searched)
    table.searches += extra

    best_total: Money | None = None
    best_last: int | None = None
    for j in query.categories[-1]:
        if j not in table.cost[query.k - 1]:
            continue
        total = table.cost[query.k - 1][j]
        feasible = True
        for _, dest in query.agents:
            cost = table.distances.get((j, dest))
            if cost is None:
                feasible = False
                break
            total += cost
        if feasible and (best_total is None or total < best_total):
            best_total = total
            best_last = j

    if best_last is None:
        raise InfeasibleRouteError(*_first_unreachable(net, inst))

    common = reconstruct(table, best_last)
    table.legs.fill(net, common[-1], [dest for _, dest in inst.agents])
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
    charged once per agent or once per group per the sharing mode.
    """
    _check_instance(net, inst)
    if len(common_pois) != inst.k:
        raise ConfigurationError(f"expected {inst.k} common PoIs, got {len(common_pois)}")
    for c, poi in enumerate(common_pois):
        if poi not in inst.categories[c]:
            raise ConfigurationError(f"PoI {poi} is not in category {c}")

    legs = Legs(reference_path)
    m = sharing.intermediate_multiplier(inst.n_agents)
    total = sum(legs.path(net, source, common_pois[0]).cost for source, _ in inst.agents)
    total += m * sum(legs.path(net, a, b).cost for a, b in zip(common_pois, common_pois[1:]))
    total += sum(legs.path(net, common_pois[-1], dest).cost for _, dest in inst.agents)
    return total


# --- timetable feasibility ---------------------------------------------------


@dataclass(frozen=True)
class Trip:
    """One scheduled vehicle run over an ordered stop sequence."""

    route: tuple[int, ...]  # ordered PoI ids, at least 2
    mode: ModeId
    start_time: float  # minutes since midnight
    end_time: float

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise ConfigurationError("a trip route needs at least two PoIs")
        if self.start_time > self.end_time:
            raise ConfigurationError("trip ends before it starts")


@dataclass(frozen=True)
class Timetable:
    trips: tuple[Trip, ...]


@dataclass(frozen=True)
class TimingReport:
    """Outcome of matching a plan against a timetable."""

    feasible: bool
    assignments: tuple[tuple[int, int, int], ...]  # (agent, segment index, trip index)
    violation: str | None = None


def _covers(route: tuple[int, ...], span: tuple[int, ...]) -> bool:
    # Contiguous subsequence, forward or reversed (edges are undirected).
    for candidate in (span, span[::-1]):
        n = len(candidate)
        for start in range(len(route) - n + 1):
            if route[start : start + n] == candidate:
                return True
    return False


def _agent_segments(plan: JourneyPlan, agent: int) -> list[tuple[tuple[int, ...], ModeId]]:
    """Maximal same-mode runs of one agent's full journey, as (PoI span, mode)."""
    hops: list[tuple[int, int, ModeId]] = []
    legs = [plan.source_legs[agent], *plan.common_legs, plan.dest_legs[agent]]
    for leg in legs:
        for (_, mode), (a, b) in zip(leg.legs, zip(leg.poi_sequence, leg.poi_sequence[1:])):
            hops.append((a, b, mode))
    segments: list[tuple[tuple[int, ...], ModeId]] = []
    for a, b, mode in hops:
        if segments and segments[-1][1] == mode and segments[-1][0][-1] == a:
            segments[-1] = (segments[-1][0] + (b,), mode)
        else:
            segments.append(((a, b), mode))
    return segments


def validate_timing(plan: JourneyPlan, timetable: Timetable, start_time: float) -> TimingReport:
    """Check whether scheduled trips can realize the plan from ``start_time``.

    Each agent's journey is split into maximal same-mode segments; every
    segment needs a trip whose route covers the segment's PoI span. The
    first trip must start at or after ``start_time``; each later trip must
    start strictly after the previous trip ends. Trips are assigned
    greedily by earliest end time, which is optimal for this chain of
    constraints. Infeasibility is a result, not an error.
    """
    assignments: list[tuple[int, int, int]] = []
    for agent in range(plan.n_agents):
        clock = start_time
        first = True
        for seg_index, (span, mode) in enumerate(_agent_segments(plan, agent)):
            best: tuple[float, int] | None = None
            for trip_index, trip in enumerate(timetable.trips):
                if trip.mode != mode or not _covers(trip.route, span):
                    continue
                if (first and trip.start_time >= clock) or (not first and trip.start_time > clock):
                    if best is None or trip.end_time < best[0]:
                        best = (trip.end_time, trip_index)
            if best is None:
                return TimingReport(
                    feasible=False,
                    assignments=tuple(assignments),
                    violation=(
                        f"agent {agent}, segment {seg_index} "
                        f"({span[0]}->{span[-1]} via mode {mode}): no usable trip"
                    ),
                )
            clock = best[0]
            first = False
            assignments.append((agent, seg_index, best[1]))
    return TimingReport(feasible=True, assignments=tuple(assignments))

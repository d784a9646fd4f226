"""Exact journey planner: a layered dynamic program over PoI categories.

Stage ``c`` of the DP holds, for every PoI ``j`` in category ``c``, the
cheapest cost of bringing the whole group from their sources through one PoI
of each earlier category to ``j``. Transitions are weighted by cheapest-cost
shortest paths between PoIs; intermediate legs are charged once per agent or
once per group depending on the sharing mode. The final stage attaches every
agent's destination leg and the global argmin is reconstructed through
parent links.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigurationError, InfeasibleRouteError, InternalConsistencyError
from .network import ModeId, Money, MultiModalNetwork, PathResult, shortest_costs, shortest_path


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


@dataclass
class DpTable:
    """Per-category minimum costs with predecessor links, the pair costs the
    DP reads, and the leg cache.

    ``cost[c][j]`` is finite (present) iff some prefix of the common path
    reaches ``j``; ``parent[c][j]`` names the chosen PoI of category ``c-1``.
    ``distances`` maps a PoI pair, lower id first (the network is
    undirected), to its cheapest cost; ``searches`` counts the one-to-many
    searches that filled it. ``distance`` reads it and records the first
    pair it finds missing, i.e. unreachable, in ``first_unreachable``.
    ``leg_cache`` memoizes the point-to-point shortest paths the chosen
    plan's legs are built from; ``sp_invocations`` counts the distinct pairs
    actually solved there (cache misses).
    """

    cost: list[dict[int, Money]]
    parent: list[dict[int, int | None]]
    leg_cache: dict[tuple[int, int], PathResult | None] = field(default_factory=dict)
    sp_invocations: int = 0
    first_unreachable: tuple[int, int] | None = None
    distances: dict[tuple[int, int], Money] = field(default_factory=dict)
    searches: int = 0

    @property
    def k(self) -> int:
        return len(self.cost)

    def search(self, net: MultiModalNetwork, source: int, targets: Iterable[int]) -> None:
        """Add the cheapest costs from ``source`` to ``targets`` to ``distances``."""
        self.searches += 1
        for target, cost in shortest_costs(net, source, targets).items():
            self.distances[(source, target) if source <= target else (target, source)] = cost

    def distance(self, u: int, v: int) -> Money | None:
        cost = self.distances.get((u, v) if u <= v else (v, u))
        if cost is None and self.first_unreachable is None:
            self.first_unreachable = (u, v)
        return cost

    def leg(self, net: MultiModalNetwork, u: int, v: int) -> PathResult | None:
        key = (u, v)
        if key not in self.leg_cache:
            self.sp_invocations += 1
            self.leg_cache[key] = shortest_path(net, u, v)
        return self.leg_cache[key]


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


def _check_instance(net: MultiModalNetwork, inst: QueryInstance) -> None:
    for poi in inst.referenced_pois():
        net.check_poi(poi)


def compute_dp(net: MultiModalNetwork, inst: QueryInstance, sharing: SharingMode) -> DpTable:
    """Run the layered DP and return the full table (no reconstruction).

    One search per category PoI ``j`` fills the pair costs first: it reaches
    the previous category (the sources for the first one) and, from the
    last category, the destinations. The DP and the destination stage then
    read every transition from that table.
    """
    _check_instance(net, inst)
    m = sharing.intermediate_multiplier(inst.n_agents)
    table = DpTable(cost=[{} for _ in inst.categories], parent=[{} for _ in inst.categories])

    destinations = {dest for _, dest in inst.agents}
    for c, category in enumerate(inst.categories):
        targets = set(inst.categories[c - 1]) if c else {source for source, _ in inst.agents}
        if c == inst.k - 1:
            targets |= destinations
        for j in category:
            table.search(net, j, targets)

    for j in inst.categories[0]:
        total = 0
        reachable = True
        for source, _ in inst.agents:
            cost = table.distance(source, j)
            if cost is None:
                reachable = False
                break
            total += cost
        if reachable:
            table.cost[0][j] = total
            table.parent[0][j] = None

    for c in range(1, inst.k):
        previous = table.cost[c - 1]
        for j in inst.categories[c]:
            best: Money | None = None
            best_parent: int | None = None
            for i in inst.categories[c - 1]:
                if i not in previous:
                    continue
                cost = table.distance(i, j)
                if cost is None:
                    continue
                candidate = previous[i] + m * cost
                if best is None or candidate < best:  # ties keep the lower PoI id i
                    best = candidate
                    best_parent = i
            if best is not None:
                table.cost[c][j] = best
                table.parent[c][j] = best_parent

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
            cost = table.distance(j, dest)
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


def plan(
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE,
) -> JourneyPlan:
    """Cost-minimal journey plan for the whole group.

    Exact over all choices of one PoI per category and cheapest modes per
    leg. Ties break toward the lower PoI id. Raises
    :class:`InfeasibleRouteError` when some required pair is disconnected.
    """
    table = compute_dp(net, inst, sharing)
    m = sharing.intermediate_multiplier(inst.n_agents)

    best_total: Money | None = None
    best_last: int | None = None
    for j in inst.categories[-1]:
        if j not in table.cost[inst.k - 1]:
            continue
        total = table.cost[inst.k - 1][j]
        feasible = True
        for _, dest in inst.agents:
            cost = table.distance(j, dest)
            if cost is None:
                feasible = False
                break
            total += cost
        if feasible and (best_total is None or total < best_total):
            best_total = total
            best_last = j

    if best_last is None:
        pair = table.first_unreachable or (inst.agents[0][0], inst.categories[0][0])
        raise InfeasibleRouteError(*pair)

    common = reconstruct(table, best_last)
    source_legs = tuple(table.leg(net, source, common[0]) for source, _ in inst.agents)
    dest_legs = tuple(table.leg(net, common[-1], dest) for _, dest in inst.agents)
    common_legs = tuple(table.leg(net, a, b) for a, b in zip(common, common[1:]))
    if any(leg is None for leg in (*source_legs, *dest_legs, *common_legs)):
        raise InternalConsistencyError("reconstructed plan references an unreachable leg")

    total = (
        sum(leg.cost for leg in source_legs)
        + m * sum(leg.cost for leg in common_legs)
        + sum(leg.cost for leg in dest_legs)
    )
    if best_total != total:
        raise InternalConsistencyError(f"DP total {best_total} != leg total {total}")
    return JourneyPlan(common, common_legs, source_legs, dest_legs, sharing, total)


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

    cache: dict[tuple[int, int], PathResult | None] = {}

    def leg(u: int, v: int) -> Money:
        key = (u, v)
        if key not in cache:
            cache[key] = shortest_path(net, u, v)
        result = cache[key]
        if result is None:
            raise InfeasibleRouteError(u, v)
        return result.cost

    m = sharing.intermediate_multiplier(inst.n_agents)
    total = sum(leg(source, common_pois[0]) for source, _ in inst.agents)
    total += m * sum(leg(a, b) for a, b in zip(common_pois, common_pois[1:]))
    total += sum(leg(common_pois[-1], dest) for _, dest in inst.agents)
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

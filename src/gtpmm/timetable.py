"""Timetable feasibility: can scheduled trips realize a journey plan?

A plan fixes each agent's PoI sequence and the mode of every hop;
:func:`validate_timing` matches those same-mode runs against a timetable of
vehicle trips. It checks a plan after the fact and plays no part in
choosing one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .network import ModeId
from .planner import JourneyPlan



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
    segments: list[tuple[tuple[int, ...], ModeId]] = []
    for a, b, _, mode in plan.agent_hops(agent):
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

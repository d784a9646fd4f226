"""The readers of a plan's legs against the versions that walked the legs
themselves.

``recompute_total`` and ``medium_usage`` read
:meth:`~gtpmm.planner.JourneyPlan.charged_legs`; the ``gtpmm plan``
document and the timetable's segments read
:meth:`~gtpmm.planner.JourneyPlan.agent_hops`. The functions below are the
versions that spelled the charging rule and each agent's route out again
each, kept verbatim as the reference: every plan of every method must give
the same total, the same usage in the same order, the same document bytes
and the same segments.
"""

from __future__ import annotations

import json

from conftest import BOTH_SHARINGS
from gtpmm.bench import METHODS, medium_usage, run_method
from gtpmm.cli import _plan_document
from gtpmm.network import ModeId, Money
from gtpmm.planner import JourneyPlan, recompute_total
from gtpmm.timetable import _agent_segments


def reference_recompute_total(plan: JourneyPlan) -> Money:
    """Group cost re-derived from the plan's own legs (consistency check)."""
    m = plan.sharing.intermediate_multiplier(plan.n_agents)
    return (
        sum(leg.cost for leg in plan.source_legs)
        + m * sum(leg.cost for leg in plan.common_legs)
        + sum(leg.cost for leg in plan.dest_legs)
    )


def reference_medium_usage(net, journey):
    counts: dict[ModeId, int] = {}  # by mode id, in first-encounter order; named once at the end

    def accumulate(leg, weight: int) -> None:
        for _, mode in leg.legs:
            counts[mode] = counts.get(mode, 0) + weight

    for leg in journey.source_legs:
        accumulate(leg, 1)
    for leg in journey.dest_legs:
        accumulate(leg, 1)
    multiplier = journey.sharing.intermediate_multiplier(journey.n_agents)
    for leg in journey.common_legs:
        accumulate(leg, multiplier)
    name = net.fare_table.name
    return {name(mode): count for mode, count in counts.items()}


def reference_plan_document(net, inst, journey):
    def leg_doc(leg) -> list[dict]:
        # orient each hop along the travel direction, not edge storage order
        return [
            {
                "from": net.pois[a].external_id,
                "to": net.pois[b].external_id,
                "mode": net.fare_table.name(mode),
                "cost_cents": net.edge_costs[eid],
            }
            for (eid, mode), (a, b) in zip(leg.legs, zip(leg.poi_sequence, leg.poi_sequence[1:]))
        ]

    agents = []
    for index, (source, dest) in enumerate(inst.agents):
        full_sequence = list(journey.source_legs[index].poi_sequence)
        for leg in (*journey.common_legs, journey.dest_legs[index]):
            full_sequence.extend(leg.poi_sequence[1:])
        agents.append(
            {
                "source": net.pois[source].external_id,
                "destination": net.pois[dest].external_id,
                "poi_sequence": [net.pois[p].external_id for p in full_sequence],
                "legs": (
                    leg_doc(journey.source_legs[index])
                    + [hop for leg in journey.common_legs for hop in leg_doc(leg)]
                    + leg_doc(journey.dest_legs[index])
                ),
            }
        )
    return {
        "sharing": journey.sharing.value,
        "common_pois": [net.pois[p].external_id for p in journey.common_pois],
        "total_cost_cents": journey.total_cost,
        "agents": agents,
    }


def reference_agent_segments(plan, agent):
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


def test_plan_readers_match_the_leg_walking_versions(oracle_suite):
    plans = 0
    for index, (net, inst) in enumerate(oracle_suite):
        for sharing in BOTH_SHARINGS:
            for method in METHODS:
                journey = run_method(method, net, inst, sharing, index)
                assert recompute_total(journey) == reference_recompute_total(journey) == journey.total_cost
                usage, expected = medium_usage(net, journey), reference_medium_usage(net, journey)
                assert list(usage.items()) == list(expected.items())
                document = json.dumps(_plan_document(net, inst, journey), indent=2)
                assert document == json.dumps(reference_plan_document(net, inst, journey), indent=2)
                for agent in range(journey.n_agents):
                    assert _agent_segments(journey, agent) == reference_agent_segments(journey, agent)
                plans += 1
    assert plans == 200 * 2 * len(METHODS)

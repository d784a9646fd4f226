"""The names ``gtpmm`` exports, and the internals it keeps out of them."""

from __future__ import annotations

import importlib

import gtpmm

PUBLIC = [
    "CategoryConfig",
    "ConfigurationError",
    "DpTable",
    "EnumerationLimitError",
    "ExperimentConfig",
    "FarePolicy",
    "FareTable",
    "GtpError",
    "InfeasibleRouteError",
    "InternalConsistencyError",
    "JourneyPlan",
    "MultiModalNetwork",
    "NetworkBuilder",
    "ParseError",
    "PathResult",
    "QueryInstance",
    "SharingMode",
    "SplitMix64",
    "Timetable",
    "TransitEdge",
    "Trip",
    "brute_force_optimal",
    "categorize",
    "cheapest_parallel_edge",
    "compute_dp",
    "connect_components",
    "connected_components",
    "draw_instance",
    "emit_csv",
    "emit_summary",
    "fold",
    "group_cost",
    "load_edge_list",
    "load_fare_config",
    "load_gtfs",
    "load_network_json",
    "medium_usage",
    "nncm",
    "plan",
    "recompute_total",
    "resolve_fares",
    "rpcm",
    "rprm",
    "run_experiment",
    "save_network_json",
    "shortest_path",
    "valid_path_count",
    "validate_timing",
]

# Internal names, each still importable from the module that defines it.
INTERNAL = {
    "ENUMERATION_GUARD": "gtpmm.oracle",
    "FareRange": "gtpmm.ingest",
    "Poi": "gtpmm.network",
    "ResultRow": "gtpmm.bench",
    "TimingReport": "gtpmm.timetable",
    "edge_cost": "gtpmm.network",
    "enumerate_valid_paths": "gtpmm.oracle",
    "haversine_m": "gtpmm.network",
    "median_fare_policy": "gtpmm.network",
    "parse_gtfs": "gtpmm.ingest",
    "reconstruct": "gtpmm.planner",
    "save_edge_list": "gtpmm.ingest",
}


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 48
    assert gtpmm.__all__ == PUBLIC


def test_every_public_name_resolves_on_the_package():
    missing = [name for name in PUBLIC if not hasattr(gtpmm, name)]
    assert missing == []


def test_internal_names_stay_off_the_package_but_in_their_modules():
    assert [name for name in INTERNAL if hasattr(gtpmm, name)] == []
    for name, module in INTERNAL.items():
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_timetable_checks_live_outside_the_planner():
    timetable = importlib.import_module("gtpmm.timetable")
    planner = importlib.import_module("gtpmm.planner")
    for name in ("Trip", "Timetable", "TimingReport", "validate_timing", "_covers", "_agent_segments"):
        assert hasattr(timetable, name)
        assert not hasattr(planner, name)
    assert (gtpmm.Trip, gtpmm.Timetable, gtpmm.validate_timing) == (
        timetable.Trip,
        timetable.Timetable,
        timetable.validate_timing,
    )

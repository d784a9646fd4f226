"""Group trip planning over multimodal city networks.

A group of agents travels from individual sources to individual
destinations while jointly visiting one PoI from each of an ordered list of
categories. This package computes the cost-minimal choice of common PoIs
and transport modes exactly (layered dynamic programming over cheapest-cost
shortest paths), ships three reference heuristics and a brute-force checker,
ingests GTFS feeds and edge-list CSVs, and includes a seeded benchmark
harness plus the ``gtpmm`` command-line tool.
"""

from .baselines import nncm, rpcm, rprm
from .bench import (
    ExperimentConfig,
    ResultRow,
    UsageStats,
    draw_instance,
    emit_csv,
    emit_summary,
    medium_usage,
    run_experiment,
)
from .errors import (
    ConfigurationError,
    EnumerationLimitError,
    GtpError,
    InfeasibleRouteError,
    InternalConsistencyError,
    ParseError,
)
from .ingest import (
    CategoryConfig,
    FareRange,
    categorize,
    load_edge_list,
    load_fare_config,
    load_gtfs,
    load_network_json,
    parse_gtfs,
    resolve_fares,
    save_edge_list,
    save_network_json,
)
from .network import (
    FarePolicy,
    FareTable,
    MultiModalNetwork,
    NetworkBuilder,
    PathResult,
    Poi,
    TransitEdge,
    cheapest_parallel_edge,
    connect_components,
    connected_components,
    edge_cost,
    haversine_m,
    median_fare_policy,
    shortest_path,
)
from .oracle import (
    ENUMERATION_GUARD,
    brute_force_optimal,
    enumerate_valid_paths,
    valid_path_count,
)
from .planner import (
    DpTable,
    JourneyPlan,
    QueryInstance,
    SharingMode,
    Timetable,
    TimingReport,
    Trip,
    compute_dp,
    destination_totals,
    group_cost,
    plan,
    recompute_total,
    reconstruct,
    validate_timing,
)
from .rng import SplitMix64, fold

__version__ = "0.1.0"

__all__ = [
    "CategoryConfig",
    "ConfigurationError",
    "DpTable",
    "ENUMERATION_GUARD",
    "EnumerationLimitError",
    "ExperimentConfig",
    "FarePolicy",
    "FareRange",
    "FareTable",
    "GtpError",
    "InfeasibleRouteError",
    "InternalConsistencyError",
    "JourneyPlan",
    "MultiModalNetwork",
    "NetworkBuilder",
    "ParseError",
    "PathResult",
    "Poi",
    "QueryInstance",
    "ResultRow",
    "SharingMode",
    "SplitMix64",
    "Timetable",
    "TimingReport",
    "TransitEdge",
    "Trip",
    "UsageStats",
    "brute_force_optimal",
    "categorize",
    "cheapest_parallel_edge",
    "compute_dp",
    "connect_components",
    "connected_components",
    "destination_totals",
    "draw_instance",
    "edge_cost",
    "emit_csv",
    "emit_summary",
    "enumerate_valid_paths",
    "fold",
    "group_cost",
    "haversine_m",
    "load_edge_list",
    "load_fare_config",
    "load_gtfs",
    "load_network_json",
    "median_fare_policy",
    "medium_usage",
    "nncm",
    "parse_gtfs",
    "plan",
    "recompute_total",
    "reconstruct",
    "resolve_fares",
    "rpcm",
    "rprm",
    "run_experiment",
    "save_edge_list",
    "save_network_json",
    "shortest_path",
    "valid_path_count",
    "validate_timing",
]

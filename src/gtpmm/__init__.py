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
    categorize,
    load_edge_list,
    load_fare_config,
    load_gtfs,
    load_network_json,
    resolve_fares,
    save_network_json,
)
from .network import (
    FarePolicy,
    FareTable,
    MultiModalNetwork,
    NetworkBuilder,
    PathResult,
    TransitEdge,
    cheapest_parallel_edge,
    connect_components,
    connected_components,
    shortest_path,
)
from .oracle import brute_force_optimal, valid_path_count
from .planner import (
    DpTable,
    JourneyPlan,
    QueryInstance,
    SharingMode,
    compute_dp,
    group_cost,
    plan,
    recompute_total,
)
from .rng import SplitMix64, fold
from .timetable import Timetable, Trip, validate_timing

__version__ = "0.1.0"

__all__ = [
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

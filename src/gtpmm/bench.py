"""Experiment harness: seeded sweeps over agents, categories, and PoI counts.

The harness reproduces orderings and trends (exact planner vs. heuristics),
not absolute published costs: instances are drawn from seeded synthetic
pools, so only comparisons within one sweep are meaningful. Cells execute
in a fixed configuration order and all draws are seeded, which makes every
column except wall time byte-reproducible.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .baselines import nncm, rpcm, rprm
from .errors import ConfigurationError
from .network import ModeId, Money, MultiModalNetwork
from .planner import JourneyPlan, QueryInstance, SharingMode, plan
from .rng import SplitMix64, fold

METHODS = ("ojpa", "rprm", "rpcm", "nncm")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition; defaults mirror the desk-scale experiment grid."""

    agent_counts: tuple[int, ...] = (5, 10, 20, 50, 100)
    category_counts: tuple[int, ...] = (5, 10, 20)
    pois_per_category: tuple[int, ...] = (5, 10, 15, 20)
    runs: int = 3
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    sharing: SharingMode = SharingMode.PER_PERSON_INTERMEDIATE

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigurationError(f"unknown methods: {unknown}")
        for name, values in (
            ("agent_counts", self.agent_counts),
            ("category_counts", self.category_counts),
            ("pois_per_category", self.pois_per_category),
        ):
            if not values or any(v < 1 for v in values):
                raise ConfigurationError(f"{name} must be nonempty positive integers")
        if self.runs < 1:
            raise ConfigurationError("runs must be at least 1")


@dataclass(frozen=True)
class UsageStats:
    """Per-mode traversal counts, keyed by mode name."""

    leg_counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ResultRow:
    method: str
    agents: int
    k: int
    pois_per_category: int
    run: int
    total_cost: Money
    wall_time_ms: float
    usage: UsageStats


def medium_usage(net: MultiModalNetwork, journey: JourneyPlan) -> UsageStats:
    """Count each hop's mode once per traversing agent.

    Source and destination legs belong to a single agent each; common legs
    count once per agent under per-person sharing and once per group under
    shared sharing.
    """
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
    return UsageStats({name(mode): count for mode, count in counts.items()})


def draw_instance(
    net: MultiModalNetwork, seed: int, k: int, pois_per_category: int, n_agents: int
) -> QueryInstance:
    """Seeded instance with disjoint source pool, categories, and dest pool.

    ``k + 2`` equal groups of ``pois_per_category`` PoIs are drawn without
    replacement; sources come from the first group and destinations from the
    last, with replacement. Agent draws are a prefix-stable stream: the same
    seed with more agents extends, rather than reshuffles, the roster.
    """
    groups = k + 2
    needed = groups * pois_per_category
    if needed > net.poi_count:
        raise ConfigurationError(
            f"network has {net.poi_count} PoIs but the draw needs {needed} "
            f"({groups} groups of {pois_per_category})"
        )
    pool_rng = SplitMix64(fold(seed, "pools"))
    pool = list(range(net.poi_count))
    pool_rng.shuffle(pool)
    chunks = [pool[g * pois_per_category : (g + 1) * pois_per_category] for g in range(groups)]
    source_pool, categories, dest_pool = chunks[0], chunks[1:-1], chunks[-1]

    agent_rng = SplitMix64(fold(seed, "agents"))
    agents = [
        (source_pool[agent_rng.below(pois_per_category)], dest_pool[agent_rng.below(pois_per_category)])
        for _ in range(n_agents)
    ]
    return QueryInstance(agents, categories)


def run_method(
    method: str,
    net: MultiModalNetwork,
    inst: QueryInstance,
    sharing: SharingMode,
    seed: int = 0,
) -> JourneyPlan:
    """Solve ``inst`` with one of :data:`METHODS`; ``seed`` drives the random
    baselines only."""
    if method == "ojpa":
        return plan(net, inst, sharing)
    if method == "rprm":
        return rprm(net, inst, seed, sharing)
    if method == "rpcm":
        return rpcm(net, inst, seed, sharing)
    if method == "nncm":
        return nncm(net, inst, sharing)
    raise ConfigurationError(f"unknown method {method!r}")


def run_experiment(net: MultiModalNetwork, cfg: ExperimentConfig) -> list[ResultRow]:
    """Execute the full sweep; rows are ordered by configuration, not timing.

    Instance draws depend only on (seed, k, p, run), so every method within
    a cell sees the identical instance and agent rosters grow as prefixes
    across agent counts.
    """
    max_draw = (max(cfg.category_counts) + 2) * max(cfg.pois_per_category)
    if max_draw > net.poi_count:
        raise ConfigurationError(
            f"network has {net.poi_count} PoIs but the largest cell needs {max_draw}"
        )

    rows: list[ResultRow] = []
    for n_agents in cfg.agent_counts:
        for k in cfg.category_counts:
            for p in cfg.pois_per_category:
                for run in range(cfg.runs):
                    cell_seed = fold(cfg.seed, k, p, run)
                    inst = draw_instance(net, cell_seed, k, p, n_agents)
                    for method in cfg.methods:
                        method_seed = fold(cell_seed, method)
                        started = time.perf_counter()
                        journey = run_method(method, net, inst, cfg.sharing, method_seed)
                        elapsed_ms = (time.perf_counter() - started) * 1000.0
                        rows.append(
                            ResultRow(
                                method=method,
                                agents=n_agents,
                                k=k,
                                pois_per_category=p,
                                run=run,
                                total_cost=journey.total_cost,
                                wall_time_ms=elapsed_ms,
                                usage=medium_usage(net, journey),
                            )
                        )
    return rows


def csv_header(mode_names: Sequence[str]) -> list[str]:
    return [
        "method",
        "agents",
        "k",
        "pois_per_category",
        "run",
        "total_cost_cents",
        "wall_time_ms",
        *(f"usage_{name}" for name in mode_names),
    ]


def emit_csv(rows: Iterable[ResultRow], path: str | Path, mode_names: Sequence[str]) -> Path:
    """Write one row per (cell, run, method); usage columns follow mode ids."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(csv_header(mode_names))
        for row in rows:
            writer.writerow(
                [
                    row.method,
                    row.agents,
                    row.k,
                    row.pois_per_category,
                    row.run,
                    row.total_cost,
                    f"{row.wall_time_ms:.3f}",
                    *(row.usage.leg_counts.get(name, 0) for name in mode_names),
                ]
            )
    return path


def emit_summary(rows: Sequence[ResultRow], path: str | Path) -> Path:
    """Aggregate means over runs per (method, agents, k, pois_per_category).

    The leading comment line flags that costs are comparable only within
    this sweep; absolute values depend on the synthetic draw.
    """
    path = Path(path)
    grouped: dict[tuple[str, int, int, int], list[ResultRow]] = {}
    for row in rows:
        grouped.setdefault((row.method, row.agents, row.k, row.pois_per_category), []).append(row)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write("# trend-level results: costs are comparable within this sweep only\n")
        writer = csv.writer(handle)
        writer.writerow(
            ["method", "agents", "k", "pois_per_category", "runs", "mean_total_cost_cents", "mean_wall_time_ms"]
        )
        for key in sorted(grouped, key=lambda item: (item[1], item[2], item[3], item[0])):
            cell = grouped[key]
            mean_cost = sum(r.total_cost for r in cell) / len(cell)
            mean_time = sum(r.wall_time_ms for r in cell) / len(cell)
            writer.writerow([*key, len(cell), f"{mean_cost:.2f}", f"{mean_time:.3f}"])
    return path

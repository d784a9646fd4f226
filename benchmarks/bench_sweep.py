"""Run the default experiment grid on two 5000-PoI networks and add a row to BENCH_sweep.json.

    PYTHONPATH=src python benchmarks/bench_sweep.py --label "what this row measures"

This is the paper's experiment end to end: ``run_experiment`` with the
default ``ExperimentConfig()`` (5 agent counts x 3 category counts x 4
PoI counts x 3 runs x 4 methods, 720 result rows) on each of two
networks, a random expander ``random_network(1, 5000, 3)`` and a road-like
city ``road_network(1, 71)``, a 71 x 71 lattice of 5041 PoIs. Each
network's search views are built before the timings start.

A row holds, per network, the summed ``wall_time_ms`` of all result rows
and of each method's, in seconds; the wall time of the whole sweep,
result bookkeeping included; a digest of every result row but its wall
time, so that two rows with equal digests planned the same costs and
modes; and the median time of the fixed pure-Python reference loop of
``bench_planner.py`` (``host_ref_ms``), run before the sweep and after
each agent count's cells; plus the Python version and ``os.cpu_count()``.
The grid runs one agent count at a time, which gives the same rows in the
same order as one call over the whole grid.

As with ``BENCH_planner.json``, two rows are comparable only where their
``host_ref_ms`` agree. A row with the same label is replaced. The package
is imported from ``PYTHONPATH``, so pointing it at another checkout's
``src`` measures that checkout with this script.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

from bench_planner import new_row, reference_ms, save_row

from gtpmm.bench import ExperimentConfig, run_experiment
from gtpmm.synth import random_network, road_network

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
NETWORKS = {
    "random": lambda: random_network(1, 5000, 3),
    "road": lambda: road_network(1, 71),
}


def measure(network: str, net, cfg: ExperimentConfig = ExperimentConfig()) -> dict:
    net.landmark_tightness  # builds the search views outside the timings
    rows = []
    probes = [reference_ms()]
    sweep_s = 0.0
    for agents in cfg.agent_counts:
        start = time.perf_counter()
        rows += run_experiment(net, replace(cfg, agent_counts=(agents,)))
        sweep_s += time.perf_counter() - start
        probes.append(reference_ms())
    outputs = [
        (row.method, row.agents, row.k, row.pois_per_category, row.run, row.total_cost, row.usage.leg_counts)
        for row in rows
    ]
    return {
        "network": network,
        "pois": net.poi_count,
        "rows": len(rows),
        "sweep_s": round(sweep_s, 2),
        "wall_time_s": round(sum(row.wall_time_ms for row in rows) / 1000.0, 2),
        "method_wall_time_s": {
            method: round(sum(row.wall_time_ms for row in rows if row.method == method) / 1000.0, 2)
            for method in cfg.methods
        },
        "digest": hashlib.sha256(repr(outputs).encode()).hexdigest()[:16],
        "host_ref_ms": round(statistics.median(probes), 2),
    }


def main(argv: list[str] | None = None) -> int:
    row, output = new_row(__doc__, OUTPUT, argv)
    row["networks"] = []
    for name, build in NETWORKS.items():
        row["networks"].append(measure(name, build()))
        print(json.dumps(row["networks"][-1]), flush=True)
    save_row(row, output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Time the exact planner on three seeded scenarios and add a row to BENCH_planner.json.

    PYTHONPATH=src python benchmarks/bench_planner.py --label "what this row measures"

Each scenario is ``random_network(1, pois, 3)`` with ``draw_instance(net, 7,
k, p, agents)``, planned per person. A row holds, per scenario, medians
over ``REPEATS`` ``plan()`` calls of the whole call, of its
``compute_dp`` call and of the rest (argmin, reconstruction and leg
assembly), and the searches ``compute_dp`` ran (``DpTable.searches``); plus
the Python version and ``os.cpu_count()``. The split is timed inside each
``plan()`` call by wrapping ``gtpmm.planner.compute_dp`` for the run. A row with the same label is
replaced, so rerunning a measurement does not grow the file. The package is
imported from ``PYTHONPATH``, so pointing it at another checkout's ``src``
measures that checkout with this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from gtpmm import planner
from gtpmm.bench import draw_instance
from gtpmm.synth import random_network

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_planner.json"
SCENARIOS = (  # (PoIs, k, PoIs per category, agents)
    (200, 3, 5, 5),
    (2000, 5, 20, 50),
    (5000, 10, 20, 100),
)
SHARING = planner.SharingMode.PER_PERSON_INTERMEDIATE
REPEATS = 7


def measure(pois: int, k: int, p: int, agents: int) -> dict:
    net = random_network(1, pois, 3)
    inst = draw_instance(net, 7, k, p, agents)
    planner.plan(net, inst, SHARING)  # builds the network's search view outside the timings

    compute_dp = planner.compute_dp
    tables = []
    dp_times: list[float] = []

    def timed_compute_dp(*args):
        start = time.perf_counter()
        tables.append(compute_dp(*args))
        dp_times.append(time.perf_counter() - start)
        return tables[-1]

    plan_times = []
    planner.compute_dp = timed_compute_dp  # plan() looks the name up in its module
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            planner.plan(net, inst, SHARING)
            plan_times.append(time.perf_counter() - start)
    finally:
        planner.compute_dp = compute_dp
    return {
        "pois": pois,
        "k": k,
        "pois_per_category": p,
        "agents": agents,
        "repeats": REPEATS,
        "plan_s": round(statistics.median(plan_times), 4),
        "compute_dp_s": round(statistics.median(dp_times), 4),
        "assembly_s": round(statistics.median(t - dp for t, dp in zip(plan_times, dp_times)), 4),
        "searches": tables[-1].searches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the measured code, e.g. its commit")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)

    row = {
        "label": args.label,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "scenarios": [measure(*scenario) for scenario in SCENARIOS],
    }
    rows = json.loads(args.output.read_text(encoding="utf-8")) if args.output.exists() else []
    rows = [existing for existing in rows if existing["label"] != args.label] + [row]
    args.output.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    for scenario in row["scenarios"]:
        print(json.dumps(scenario))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

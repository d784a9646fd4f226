"""Time the exact planner on four seeded scenarios and add a row to BENCH_planner.json.

    PYTHONPATH=src python benchmarks/bench_planner.py --label "what this row measures"

The first three scenarios are random expanders, ``random_network(1, pois,
3)``; the fourth is a road-like city, ``road_network(1, 55)``, a 55 x 55
lattice of 3025 PoIs (rows before it was added hold the first three only).
Each query is ``draw_instance(net, 7, k, p, agents)``, planned per person.
A row holds, per scenario, medians over ``REPEATS`` ``plan()`` calls of the
whole call, of its ``compute_dp`` call and of the rest (argmin,
reconstruction and leg assembly, and on the city the pruning stage before
the DP), the quartiles of the whole call, the cost-only searches the call
ran (``DpTable.searches``, which counts the pruning stage's searches too),
and the median time of a fixed pure-Python reference loop (``host_ref_ms``)
run before and after every call; plus the Python version and
``os.cpu_count()``. The split is timed inside each ``plan()`` call by
wrapping ``gtpmm.planner.compute_dp`` for the run. Landmark bounds pass
``plan()``'s pruning gate on the city only, so there the DP runs over the
category PoIs the bounds keep, and on the random networks over all of them.

The host's speed drifts between runs, and with it every timing: two rows
are comparable only where their ``host_ref_ms`` agree, and a difference
between them means something only where it exceeds the quartile spread
(``plan_p25_s`` to ``plan_p75_s``). The reference loop is this script's own
code, so no change to the package changes it.

A row with the same label is replaced, so rerunning a measurement does not
grow the file. The package is imported from ``PYTHONPATH``, so pointing it
at another checkout's ``src`` measures that checkout with this script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import time
from heapq import heappop, heappush
from pathlib import Path

from gtpmm import planner
from gtpmm.bench import draw_instance
from gtpmm.synth import random_network, road_network

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_planner.json"
NETWORKS = {
    "random": lambda pois: random_network(1, pois, 3),
    "road": lambda pois: road_network(1, math.isqrt(pois)),
}
SCENARIOS = (  # (PoIs, k, PoIs per category, agents, network)
    (200, 3, 5, 5, "random"),
    (2000, 5, 20, 50, "random"),
    (5000, 10, 20, 100, "random"),
    (3025, 4, 10, 20, "road"),
)
SHARING = planner.SharingMode.PER_PERSON_INTERMEDIATE
REPEATS = 7
REFERENCE_NODES = 2000


def _reference_graph() -> list[list[tuple[int, int]]]:
    """A fixed ring with chords, with deterministic integer edge costs."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(REFERENCE_NODES)]
    for u in range(REFERENCE_NODES):
        for step, factor in ((1, 7), (37, 31), (501, 97)):
            v = (u + step) % REFERENCE_NODES
            cost = (u * factor) % 53 + 1
            rows[u].append((v, cost))
            rows[v].append((u, cost))
    return rows


REFERENCE_GRAPH = _reference_graph()


def reference_ms() -> float:
    """Time of one Dijkstra over the whole reference graph, in ms: the same
    kind of work as the planner's searches, as a measure of host speed."""
    start = time.perf_counter()
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, cost in REFERENCE_GRAPH[u]:
            known = dist.get(v)
            if known is None or d + cost < known:
                dist[v] = d + cost
                heappush(heap, (d + cost, v))
    return (time.perf_counter() - start) * 1000.0


def measure(pois: int, k: int, p: int, agents: int, network: str = "random") -> dict:
    net = NETWORKS[network](pois)
    inst = draw_instance(net, 7, k, p, agents)
    planner.plan(net, inst, SHARING)  # builds the network's search view outside the timings

    compute_dp = planner.compute_dp
    tables = []
    dp_times: list[float] = []

    def timed_compute_dp(*args, **kwargs):
        start = time.perf_counter()
        tables.append(compute_dp(*args, **kwargs))
        dp_times.append(time.perf_counter() - start)
        return tables[-1]

    plan_times = []
    probes = [reference_ms()]
    planner.compute_dp = timed_compute_dp  # plan() looks the name up in its module
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            planner.plan(net, inst, SHARING)
            plan_times.append(time.perf_counter() - start)
            probes.append(reference_ms())
    finally:
        planner.compute_dp = compute_dp
    p25, _, p75 = statistics.quantiles(plan_times, n=4)
    return {
        "pois": pois,
        "k": k,
        "pois_per_category": p,
        "agents": agents,
        "repeats": REPEATS,
        "plan_s": round(statistics.median(plan_times), 4),
        "plan_p25_s": round(p25, 4),
        "plan_p75_s": round(p75, 4),
        "compute_dp_s": round(statistics.median(dp_times), 4),
        "assembly_s": round(statistics.median(t - dp for t, dp in zip(plan_times, dp_times)), 4),
        "searches": tables[-1].searches,
        "host_ref_ms": round(statistics.median(probes), 2),
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

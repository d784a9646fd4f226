"""Time the exact planner on five seeded scenarios and add a row to BENCH_planner.json.

    PYTHONPATH=src python benchmarks/bench_planner.py --label "what this row measures"

The first three scenarios are random expanders, ``random_network(1, pois,
3)``; the fourth is a road-like city, ``road_network(1, 55)``, a 55 x 55
lattice of 3025 PoIs, and the fifth a paper-scale one, ``road_network(1,
141)``, of 19,881 PoIs (older rows hold fewer scenarios). Each query is
``draw_instance(net, 7, k, p, agents)``, planned per person. A row holds,
per scenario, the time of the network's first ``cheapest_neighbors`` and
``cheapest_edges`` reads (``views_s``, the cheapest-hop views' build), then
of its first ``landmarks`` and ``landmark_tightness`` reads (``landmarks_s``,
the landmark index's build), both taken before any ``plan()`` call; rows
from the one with ``views_s`` on hold no view build in ``landmarks_s``,
while older rows fold it in, as the landmark searches read
``cheapest_neighbors`` first. Then medians over ``REPEATS`` ``plan()`` calls of the
whole call, of its ``compute_dp`` call and of the rest (argmin,
reconstruction and leg assembly, and on the cities the pruning stage before
the DP), the quartiles of the whole call, the cost-only searches the call
ran up to the end of its ``compute_dp`` (``searches``, the sum of the
table's ``legs.searches``, which counts the pruning stage's searches too,
and ``searches_by_kind``, the same count split into tree and layer
searches), every search of the whole call by kind, read from the same
``legs`` once ``plan()`` returns (``plan_searches_by_kind``, which adds the
searches of the plan's legs), a sha256 of the plan (``plan_sha256``: its
total, its common PoIs and each leg's ``(edge, mode)`` sequence, in travel
order), and the median time of a fixed pure-Python reference loop
(``host_ref_ms``) run before and after every call; plus the Python version and
``os.cpu_count()``. The split is timed inside each ``plan()`` call by
wrapping ``gtpmm.planner.compute_dp`` for the run. Landmark bounds pass
``plan()``'s pruning gate on the road cities only, so there the DP runs over
the category PoIs the bounds keep, and on the random networks over all of them.

The host's speed drifts between runs, and with it every timing: two rows
are comparable only where their ``host_ref_ms`` agree, and a difference
between them means something only where it exceeds the quartile spread
(``plan_p25_s`` to ``plan_p75_s``). The reference loop is this script's own
code, so no change to the package changes it.

A row with the same label is replaced, so rerunning a measurement does not
grow the file. The package is imported from ``PYTHONPATH``, so pointing it
at another checkout's ``src`` measures that checkout with this script.

With ``--against DIR`` each scenario runs ``PAIRS`` times in pairs of
subprocesses, one with this checkout's ``src`` and one with ``DIR/src``,
``DIR`` first in the first pair and the order flipped in each pair after
it, so that both sides meet the host's drift alike:

    PYTHONPATH=src python benchmarks/bench_planner.py --label "change against parent" --against ../parent-checkout

Such a row holds, per scenario, each side's median ``plan_s``,
``compute_dp_s``, ``views_s``, ``landmarks_s`` and ``host_ref_ms`` over the pairs, the
ratio of the change's ``plan_s`` to the parent's in each pair and their
median, the pairs the change won, and each side's ``searches_by_kind``,
``plan_searches_by_kind`` (equal when the change keeps every search) and
``plan_sha256``; the script exits 1, naming the scenario, when the two
sides' ``plan_sha256`` differ, that is when the change planned another
plan. A pair whose two ``host_ref_ms`` differ, as a share of the lower, by
more than the steadier run's quartile spread of ``plan_s`` (the lesser
``plan_p75_s - plan_p25_s`` over ``plan_s``) is marked in
``host_drifted``: the host's speed moved more between its two runs than
within the steadier one, so its ratio may be the host's. The lesser spread
is the yardstick because a host that slows part-way through a run widens
that run's own spread, which would hide the drift. ``plan_ratio_median_steady``
is the median ratio over the unmarked pairs (None when every pair is
marked); ``plan_ratio_median`` stays the median over all of them, and no
ratio is scaled by the host references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from heapq import heappop, heappush
from pathlib import Path

from gtpmm import planner
from gtpmm.bench import draw_instance
from gtpmm.synth import random_network, road_network

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_planner.json"
NETWORKS = {
    "random": lambda pois: random_network(1, pois, 3),
    "road": lambda pois: road_network(1, math.isqrt(pois)),
}
SCENARIOS = (  # (PoIs, k, PoIs per category, agents, network)
    (200, 3, 5, 5, "random"),
    (2000, 5, 20, 50, "random"),
    (5000, 10, 20, 100, "random"),
    (3025, 4, 10, 20, "road"),
    (19881, 10, 20, 100, "road"),
)
SHARING = planner.SharingMode.PER_PERSON_INTERMEDIATE
REPEATS = 7
PAIRS = 5  # per scenario with --against
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
    start = time.perf_counter()
    net.cheapest_neighbors, net.cheapest_edges  # the cheapest-hop views, built once per network
    views_s = time.perf_counter() - start
    start = time.perf_counter()
    net.landmarks, net.landmark_tightness  # the landmark index, built once per network
    landmarks_s = time.perf_counter() - start
    journey = planner.plan(net, inst, SHARING)  # the first call, outside the timings

    compute_dp = planner.compute_dp
    searches: list[Counter[str]] = []  # the table's search count as each compute_dp returns
    legs: list[planner.Legs] = []  # the table's legs, whose count grows until plan() returns
    dp_times: list[float] = []

    def timed_compute_dp(*args, **kwargs):
        start = time.perf_counter()
        table = compute_dp(*args, **kwargs)
        dp_times.append(time.perf_counter() - start)
        searches.append(Counter(table.legs.searches))
        legs.append(table.legs)
        return table

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
        "views_s": round(views_s, 4),
        "landmarks_s": round(landmarks_s, 4),
        "plan_s": round(statistics.median(plan_times), 4),
        "plan_p25_s": round(p25, 4),
        "plan_p75_s": round(p75, 4),
        "compute_dp_s": round(statistics.median(dp_times), 4),
        "assembly_s": round(statistics.median(t - dp for t, dp in zip(plan_times, dp_times)), 4),
        "searches": sum(searches[-1].values()),
        "searches_by_kind": dict(sorted(searches[-1].items())),
        "plan_searches_by_kind": dict(sorted(legs[-1].searches.items())),
        "plan_sha256": plan_sha256(journey),
        "host_ref_ms": round(statistics.median(probes), 2),
    }


def plan_sha256(journey: planner.JourneyPlan) -> str:
    """A sha256 of ``journey``'s total, common PoIs and each leg's ``(edge,
    mode)`` sequence, source legs first, then common legs, then destination legs."""
    legs = [leg.legs for leg in (*journey.source_legs, *journey.common_legs, *journey.dest_legs)]
    return hashlib.sha256(repr((journey.total_cost, journey.common_pois, legs)).encode()).hexdigest()


def new_row(
    description: str, output: Path, argv: list[str] | None, parents: tuple[argparse.ArgumentParser, ...] = ()
) -> tuple[dict, Path]:
    """A row headed by the ``--label`` argument, the Python version and
    ``os.cpu_count()``, and the file it goes to (``--output``, by default
    ``output``); the benchmark scripts' shared command line, with the
    options of ``parents`` besides."""
    parser = argparse.ArgumentParser(description=description.splitlines()[0], parents=list(parents))
    parser.add_argument("--label", required=True, help="names the measured code, e.g. its commit")
    parser.add_argument("--output", type=Path, default=output)
    args = parser.parse_args(argv)
    return {"label": args.label, "python": platform.python_version(), "cpu_count": os.cpu_count()}, args.output


def save_row(row: dict, output: Path) -> None:
    """Add ``row`` to the JSON list in ``output``, in place of any row with its label."""
    rows = json.loads(output.read_text(encoding="utf-8")) if output.exists() else []
    rows = [existing for existing in rows if existing["label"] != row["label"]] + [row]
    output.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def script_measurement(script: str, flag: str, src: Path, value: object) -> dict:
    """The JSON line that benchmark ``script`` prints last when run with
    ``flag value`` in a subprocess that imports the package from ``src``."""
    command = [sys.executable, script, flag, str(value)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


measured_in = partial(script_measurement, __file__, "--scenario")  # (src, index): :func:`measure` of that scenario


def paired(against: Path, index: int) -> dict:
    """Scenario ``index`` measured ``PAIRS`` times with ``against``'s ``src``
    (the parent) and this checkout's (the change), alternating which runs first."""
    sides = {"parent": against / "src", "change": ROOT / "src"}
    runs = []
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        runs.append({side: measured_in(sides[side], index) for side in order})
    ratios = [run["change"]["plan_s"] / run["parent"]["plan_s"] for run in runs]
    drifted = [host_drifted("plan", run["parent"], run["change"]) for run in runs]
    steady = [ratio for ratio, marked in zip(ratios, drifted) if not marked]
    first = runs[0]["change"]
    row = {key: first[key] for key in ("pois", "k", "pois_per_category", "agents", "repeats")}
    row["pairs"] = PAIRS
    for side in sides:
        for key in ("plan_s", "compute_dp_s", "views_s", "landmarks_s", "host_ref_ms"):
            row[f"{side}_{key}"] = round(statistics.median(run[side][key] for run in runs), 4)
        for key in ("searches_by_kind", "plan_searches_by_kind", "plan_sha256"):
            row[f"{side}_{key}"] = runs[0][side][key]
    row["plan_ratios"] = [round(ratio, 3) for ratio in ratios]
    row["plan_ratio_median"] = round(statistics.median(ratios), 3)
    row["host_drifted"] = drifted
    row["plan_ratio_median_steady"] = round(statistics.median(steady), 3) if steady else None
    row["change_won"] = sum(ratio < 1 for ratio in ratios)
    return row


def host_drifted(timed: str, *pair: dict) -> bool:
    """Whether the two runs' ``host_ref_ms`` differ, as a share of the lower,
    by more than the steadier run's quartile spread of the ``timed`` stage
    (the lesser ``{timed}_p75_s - {timed}_p25_s``) as a share of its median
    (``{timed}_s``)."""
    low, high = sorted(run["host_ref_ms"] for run in pair)
    spread = min((run[f"{timed}_p75_s"] - run[f"{timed}_p25_s"]) / run[f"{timed}_s"] for run in pair)
    return high - low > spread * low


def main(argv: list[str] | None = None) -> int:
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--against", type=Path, help="another checkout, run in pairs with this one")
    options.add_argument("--scenario", type=int, help="print this scenario's measurement alone, as --against runs it")
    args, _ = options.parse_known_args(argv)
    if args.scenario is not None:
        print(json.dumps(measure(*SCENARIOS[args.scenario])))
        return 0

    row, output = new_row(__doc__, OUTPUT, argv, (options,))
    if args.against is None:
        row["scenarios"] = [measure(*scenario) for scenario in SCENARIOS]
    else:
        row["scenarios"] = [paired(args.against.resolve(), index) for index in range(len(SCENARIOS))]
    save_row(row, output)
    for scenario in row["scenarios"]:
        print(json.dumps(scenario))
    differ = [
        f"scenario {index} {SCENARIOS[index]}"
        for index, scenario in enumerate(row["scenarios"])
        if scenario.get("parent_plan_sha256") != scenario.get("change_plan_sha256")
    ]
    if differ:
        print(f"bench_planner: the plan sha256 differs on {', '.join(differ)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

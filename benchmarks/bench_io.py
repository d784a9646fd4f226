"""Time network JSON, edge-list and GTFS loading on seeded inputs and add a row to BENCH_io.json.

    PYTHONPATH=src python benchmarks/bench_io.py --label "what this row measures"

The JSON round trip is the first stage of every ``gtpmm plan --network``
call and the last of every ``gtpmm ingest --out``: ``save_network_json``
and ``load_network_json`` (which rebuilds the network and prices every
edge) on a road-like city, ``road_network(1, 55)``, a 55 x 55 lattice of
3025 PoIs, and on a random expander, ``random_network(1, 5000, 3)``. Each
network is saved and loaded back ``REPEATS`` times in a temporary
directory, and the loaded network must equal the saved one. The network
is also written once with ``save_edge_list`` and that CSV file read back
``REPEATS`` times with ``load_edge_list``, the first stage of every
``gtpmm ingest`` of an edge list; the loaded network must have the same
edges and edge costs. Last, ``categorize`` (round-robin, k 8), the step of every ``gtpmm
ingest`` that labels the PoIs, runs ``REPEATS`` times on the network.

A row holds, per network, the median and quartiles of the save, of the
load and of the edge-list load, of pricing the loaded network's edges
once more with ``_edge_costs`` (``edge_costs_s``, the step of every load
that prices edges) and of ``categorize`` (``categorize_s``), each file's
size in bytes and its sha256, so that two rows with equal digests read and
wrote the same bytes, a sha256 of the loaded network's edge costs
(``edge_costs_sha256``) and one of the category sets ``categorize``
returned (``categorize_sha256``), a sha256 of the PoIs, edges and edge
costs of the network the edge list loads to (``edge_list_network_sha256``),
the size of one loaded network in
memory (``network_mb``: what ``tracemalloc`` still counts allocated once
one more ``load_network_json`` returns, CPython's free lists emptied by a
full collection before and after it, so that the figure counts the
loaded network's own objects alone and not the freed ones a free list
keeps; rows before the first whose label holds "network_mb counts the
loaded network alone" counted those too, and are not comparable), the
``tracemalloc`` peaks of one save, of one load and of one edge-list load
(``save_peak_mb``, ``load_peak_mb`` and ``edge_list_load_peak_mb``, each
over what was allocated when it began; all four memory figures are taken
in extra saves and loads after the timed ones, so that no timing pays for
tracing), and the median time of the fixed pure-Python
reference loop of ``bench_planner.py`` (``host_ref_ms``), run before the
first save and after each load; plus the Python version and
``os.cpu_count()``.

The GTFS scenario times ``load_gtfs``, the first stage of every ``gtpmm
ingest --gtfs``, on a feed this script writes from a fixed seed: 1,000
stops and 50 routes of 40 stops, each run by 10 trips, so 20,000 stop
times at a few hundred distinct times of day. The feed is loaded
``REPEATS`` times; the row holds the median and quartiles of the load,
the feed's size in bytes and a sha256 over its four files, a sha256 of the
loaded network's edge costs, one of its PoIs, edges and edge costs
(``network_sha256``), the ``tracemalloc`` peak of one more load
(``load_peak_mb``, as above), and ``host_ref_ms`` as above.

As with ``BENCH_planner.json``, two rows are comparable only where their
``host_ref_ms`` agree. A row with the same label is replaced. The package
is imported from ``PYTHONPATH``, so pointing it at another checkout's
``src`` measures that checkout with this script.

With ``--against DIR`` each scenario (each network, then the feed) is
measured twice, in subprocesses: first with ``DIR/src`` (the parent),
then right after with this checkout's ``src`` (the change):

    PYTHONPATH=src python benchmarks/bench_io.py --label "what the change does" --against ../parent-checkout

It writes two rows, labelled ``parent: LABEL`` and ``change: LABEL``, and
exits 1 when a scenario's two rows differ in a sha256, that is when the
change wrote or read other bytes, priced other costs or loaded another
network. It prints, per scenario, the change-over-parent ratio of each
of its ``MEMORY`` figures (``network_mb``, ``save_peak_mb``,
``load_peak_mb`` and ``edge_list_load_peak_mb`` of a network, the feed's
``load_peak_mb``), and also exits 1 when any of them rose by more than 1%
(``MEMORY_RISE``): these
``tracemalloc`` figures count the objects the code allocates, so they do
not drift with the host as resident memory does. Each scenario's
two measurements carry ``host_drifted``, by ``bench_planner.py``'s rule
applied to ``load_s`` and its quartiles: true when the two
``host_ref_ms`` differ, as a share of the lower, by more than the
steadier side's ``load_p75_s - load_p25_s`` over ``load_s``, so that the
host's speed moved more between the two runs than within the steadier one
and the pair is not comparable.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

from bench_planner import host_drifted, new_row, reference_ms, save_row, script_measurement

from gtpmm.fixtures import default_fare_ranges
from gtpmm.ingest import (
    CategoryConfig,
    categorize,
    load_edge_list,
    load_gtfs,
    load_network_json,
    resolve_fares,
    save_edge_list,
    save_network_json,
)
from gtpmm.network import _edge_costs
from gtpmm.synth import random_network, road_network

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_io.json"
NETWORKS = {
    "road": lambda: road_network(1, 55),
    "random": lambda: random_network(1, 5000, 3),
}
REPEATS = 11
GTFS_STOPS = 1000
GTFS_ROUTES = 50
GTFS_TRIPS_PER_ROUTE = 10
GTFS_STOPS_PER_TRIP = 40
GTFS_TABLES = ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt")
SCENARIOS = (*NETWORKS, "gtfs")
MEMORY = ("network_mb", "save_peak_mb", "load_peak_mb", "edge_list_load_peak_mb")  # compared by --against
MEMORY_RISE = 1.01  # the change-over-parent ratio of a MEMORY figure past which --against exits 1
CATEGORIES = CategoryConfig(k=8)  # round-robin


def _summary(name: str, times: list[float]) -> dict:
    p25, median, p75 = statistics.quantiles(times, n=4)
    return {f"{name}_s": round(median, 5), f"{name}_p25_s": round(p25, 5), f"{name}_p75_s": round(p75, 5)}


def measure(network: str, net, directory: Path) -> dict:
    path = directory / f"{network}.json"
    saves: list[float] = []
    loads: list[float] = []
    probes = [reference_ms()]
    for _ in range(REPEATS):
        start = time.perf_counter()
        save_network_json(net, path)
        saves.append(time.perf_counter() - start)
        start = time.perf_counter()
        loaded = load_network_json(path)
        loads.append(time.perf_counter() - start)
        probes.append(reference_ms())
    if loaded != net:
        raise RuntimeError(f"the {network} network changed in a JSON round trip")
    pricings: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _edge_costs(loaded.edges, loaded.fare_table)
        pricings.append(time.perf_counter() - start)
    data = path.read_bytes()
    save_peak = traced_peak(save_network_json, net, path)
    load_peak = traced_peak(load_network_json, path)
    size = network_bytes(path)

    csv_path = directory / f"{network}.csv"
    save_edge_list(net, csv_path)
    csv_loads: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        from_csv = load_edge_list(csv_path, net.fare_table)
        csv_loads.append(time.perf_counter() - start)
    if (from_csv.edges, from_csv.edge_costs) != (net.edges, net.edge_costs):
        raise RuntimeError(f"the {network} network changed its edges in an edge-list round trip")
    csv_data = csv_path.read_bytes()
    csv_load_peak = traced_peak(load_edge_list, csv_path, net.fare_table)

    categorizings: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, sets = categorize(net, CATEGORIES)
        categorizings.append(time.perf_counter() - start)
    return {
        "network": network,
        "pois": net.poi_count,
        "edges": net.edge_count,
        "repeats": REPEATS,
        **_summary("save", saves),
        **_summary("load", loads),
        **_summary("edge_costs", pricings),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "edge_costs_sha256": _costs_sha256(loaded),
        "network_mb": round(size / 2**20, 3),
        "save_peak_mb": round(save_peak / 2**20, 3),
        "load_peak_mb": round(load_peak / 2**20, 3),
        **_summary("edge_list_load", csv_loads),
        "edge_list_bytes": len(csv_data),
        "edge_list_sha256": hashlib.sha256(csv_data).hexdigest(),
        "edge_list_network_sha256": _network_sha256(from_csv),
        "edge_list_load_peak_mb": round(csv_load_peak / 2**20, 3),
        **_summary("categorize", categorizings),
        "categorize_sha256": hashlib.sha256(repr(sets).encode()).hexdigest(),
        "host_ref_ms": round(statistics.median(probes), 2),
    }


def traced_peak(step, *args) -> int:
    """The peak bytes of one ``step(*args)`` under ``tracemalloc``, over
    what was allocated when it began."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        step(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def network_bytes(path: Path) -> int:
    """The bytes that one ``load_network_json`` of ``path`` leaves
    allocated under ``tracemalloc``: the loaded network's own objects. A
    full collection empties CPython's free lists before the load, so that
    it reuses no object allocated untraced, and after it, so that the
    objects it freed onto them, such as decoded edge rows, are not
    counted."""
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        loaded = load_network_json(path)
        gc.collect()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del loaded
    return end - start


def write_feed(directory: Path, routes: int = GTFS_ROUTES) -> Path:
    """A GTFS feed of :data:`GTFS_STOPS` stops and ``routes`` routes, each
    a random sequence of :data:`GTFS_STOPS_PER_TRIP` stops run by
    :data:`GTFS_TRIPS_PER_ROUTE` trips half an hour apart, with 1-6 minutes
    between stops and 0-1 minutes of dwell, drawn from a fixed seed."""
    rng = random.Random(0)
    feed = directory / "gtfs"
    feed.mkdir(parents=True, exist_ok=True)
    stops = [
        f"S{s:04d},Stop {s},{40.7 + rng.random() / 5:.5f},{-74.05 + rng.random() / 5:.5f}" for s in range(GTFS_STOPS)
    ]
    route_rows, trip_rows, time_rows = [], [], []
    for r in range(routes):
        route_rows.append(f"R{r:03d},{(3, 0, 1, 2)[r % 4]}")
        pattern = rng.sample(range(GTFS_STOPS), GTFS_STOPS_PER_TRIP)
        for t in range(GTFS_TRIPS_PER_ROUTE):
            trip_id = f"R{r:03d}T{t:02d}"
            trip_rows.append(f"R{r:03d},{trip_id}")
            clock = 300 + 30 * t + rng.randrange(10)
            for sequence, stop in enumerate(pattern, start=1):
                arrival, clock = clock, clock + rng.randrange(2)
                time_rows.append(f"{trip_id},S{stop:04d},{_gtfs_time(arrival)},{_gtfs_time(clock)},{sequence}")
                clock += 1 + rng.randrange(6)
    tables = {
        "stops.txt": ["stop_id,stop_name,stop_lat,stop_lon", *stops],
        "routes.txt": ["route_id,route_type", *route_rows],
        "trips.txt": ["route_id,trip_id", *trip_rows],
        "stop_times.txt": ["trip_id,stop_id,arrival_time,departure_time,stop_sequence", *time_rows],
    }
    for name, lines in tables.items():
        (feed / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return feed


def _gtfs_time(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}:00"


def measure_gtfs(feed: Path) -> dict:
    fares = resolve_fares(default_fare_ranges(), "low")
    loads: list[float] = []
    probes = [reference_ms()]
    for _ in range(REPEATS):
        start = time.perf_counter()
        net = load_gtfs(feed, fares)
        loads.append(time.perf_counter() - start)
        probes.append(reference_ms())
    load_peak = traced_peak(load_gtfs, feed, fares)
    data = b"".join((feed / name).read_bytes() for name in GTFS_TABLES)
    stop_times = [line.split(",") for line in (feed / "stop_times.txt").read_text(encoding="utf-8").splitlines()[1:]]
    return {
        "feed": "gtfs",
        "stops": net.poi_count,
        "stop_times": len(stop_times),
        "distinct_times": len({cell for row in stop_times for cell in row[2:4]}),
        "edges": net.edge_count,
        "repeats": REPEATS,
        **_summary("load", loads),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "edge_costs_sha256": _costs_sha256(net),
        "network_sha256": _network_sha256(net),
        "load_peak_mb": round(load_peak / 2**20, 3),
        "host_ref_ms": round(statistics.median(probes), 2),
    }


def _costs_sha256(net) -> str:
    return hashlib.sha256(repr(net.edge_costs).encode()).hexdigest()


def _network_sha256(net) -> str:
    """A sha256 of ``net``'s PoIs, edges and edge costs, so that two loaders
    with equal digests read the same network."""
    return hashlib.sha256(repr((net.pois, net.edges, net.edge_costs)).encode()).hexdigest()


def measure_scenario(scenario: str, directory: Path) -> dict:
    """:func:`measure` of a network of :data:`NETWORKS`, or
    :func:`measure_gtfs` of the seeded feed, written under ``directory``."""
    if scenario == "gtfs":
        return measure_gtfs(write_feed(directory))
    return measure(scenario, NETWORKS[scenario](), directory)


measured_in = partial(script_measurement, __file__, "--scenario")  # (src, scenario): :func:`measure_scenario`


def _digests(measurement: dict) -> dict:
    return {key: value for key, value in measurement.items() if key.endswith("sha256")}


def main(argv: list[str] | None = None) -> int:
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--against", type=Path, help="the parent's checkout, run right before this one")
    options.add_argument("--scenario", choices=SCENARIOS, help="print this scenario's measurement alone, as --against runs it")
    args, _ = options.parse_known_args(argv)
    if args.scenario is not None:
        with tempfile.TemporaryDirectory() as directory:
            print(json.dumps(measure_scenario(args.scenario, Path(directory))))
        return 0

    row, output = new_row(__doc__, OUTPUT, argv, (options,))
    if args.against is None:
        measured = []
        with tempfile.TemporaryDirectory() as directory:
            for scenario in SCENARIOS:
                measured.append(measure_scenario(scenario, Path(directory)))
                print(json.dumps(measured[-1]), flush=True)
        save_row(_with_measurements(row, measured), output)
        return 0

    sides = {"parent": args.against.resolve() / "src", "change": ROOT / "src"}
    measured_by_side: dict[str, list[dict]] = {side: [] for side in sides}
    for scenario in SCENARIOS:
        pair = {side: measured_in(src, scenario) for side, src in sides.items()}
        drifted = host_drifted("load", *pair.values())
        for side, measurement in pair.items():
            measurement["host_drifted"] = drifted
            measured_by_side[side].append(measurement)
            print(side, json.dumps(measurement), flush=True)
    for side, measured in measured_by_side.items():
        save_row(_with_measurements({**row, "label": f"{side}: {row['label']}"}, measured), output)
    pairs = list(zip(SCENARIOS, measured_by_side["parent"], measured_by_side["change"]))
    risen = []
    for scenario, parent, change in pairs:
        ratios = {key: change[key] / parent[key] for key in MEMORY if key in parent}
        if ratios:
            print(scenario, "change/parent:", ", ".join(f"{key} {ratio:.3f}" for key, ratio in ratios.items()))
            risen += [f"{scenario} {key}" for key, ratio in ratios.items() if ratio > MEMORY_RISE]
    differ = [scenario for scenario, parent, change in pairs if _digests(parent) != _digests(change)]
    if differ:
        print(f"bench_io: a sha256 differs on {', '.join(differ)}", file=sys.stderr)
    if risen:
        print(f"bench_io: memory rose by more than 1% on {', '.join(risen)}", file=sys.stderr)
    return 1 if differ or risen else 0


def _with_measurements(row: dict, measured: list[dict]) -> dict:
    """``row`` with the measurements of :data:`SCENARIOS`, in order: the networks', then the feed's."""
    return {**row, "networks": measured[:-1], "gtfs": measured[-1]}


if __name__ == "__main__":
    raise SystemExit(main())

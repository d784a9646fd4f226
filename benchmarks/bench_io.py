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
edges.

A row holds, per network, the median and quartiles of the save, of the
load and of the edge-list load, each file's size in bytes and its sha256,
so that two rows with equal digests read and wrote the same bytes, and the
median time of the fixed pure-Python reference loop of
``bench_planner.py`` (``host_ref_ms``), run before the first save and
after each load; plus the Python version and ``os.cpu_count()``.

The GTFS scenario times ``load_gtfs``, the first stage of every ``gtpmm
ingest --gtfs``, on a feed this script writes from a fixed seed: 1,000
stops and 50 routes of 40 stops, each run by 10 trips, so 20,000 stop
times at a few hundred distinct times of day. The feed is loaded
``REPEATS`` times; the row holds the median and quartiles of the load,
the feed's size in bytes and a sha256 over its four files, and
``host_ref_ms`` as above.

As with ``BENCH_planner.json``, two rows are comparable only where their
``host_ref_ms`` agree. A row with the same label is replaced. The package
is imported from ``PYTHONPATH``, so pointing it at another checkout's
``src`` measures that checkout with this script.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import tempfile
import time
from pathlib import Path

from bench_planner import new_row, reference_ms, save_row

from gtpmm.fixtures import default_fare_ranges
from gtpmm.ingest import (
    load_edge_list,
    load_gtfs,
    load_network_json,
    resolve_fares,
    save_edge_list,
    save_network_json,
)
from gtpmm.synth import random_network, road_network

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_io.json"
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
    data = path.read_bytes()

    csv_path = directory / f"{network}.csv"
    save_edge_list(net, csv_path)
    csv_loads: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        from_csv = load_edge_list(csv_path, net.fare_table)
        csv_loads.append(time.perf_counter() - start)
    if from_csv.edge_count != net.edge_count:
        raise RuntimeError(f"the {network} network lost edges in an edge-list round trip")
    csv_data = csv_path.read_bytes()
    return {
        "network": network,
        "pois": net.poi_count,
        "edges": net.edge_count,
        "repeats": REPEATS,
        **_summary("save", saves),
        **_summary("load", loads),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        **_summary("edge_list_load", csv_loads),
        "edge_list_bytes": len(csv_data),
        "edge_list_sha256": hashlib.sha256(csv_data).hexdigest(),
        "host_ref_ms": round(statistics.median(probes), 2),
    }


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
        "host_ref_ms": round(statistics.median(probes), 2),
    }


def main(argv: list[str] | None = None) -> int:
    row, output = new_row(__doc__, OUTPUT, argv)
    row["networks"] = []
    with tempfile.TemporaryDirectory() as directory:
        for name, build in NETWORKS.items():
            row["networks"].append(measure(name, build(), Path(directory)))
            print(json.dumps(row["networks"][-1]), flush=True)
        row["gtfs"] = measure_gtfs(write_feed(Path(directory)))
        print(json.dumps(row["gtfs"]), flush=True)
    save_row(row, output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

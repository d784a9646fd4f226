"""Time the network JSON round trip and the edge-list load on two seeded networks and add a row to BENCH_io.json.

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

As with ``BENCH_planner.json``, two rows are comparable only where their
``host_ref_ms`` agree. A row with the same label is replaced. The package
is imported from ``PYTHONPATH``, so pointing it at another checkout's
``src`` measures that checkout with this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

from bench_planner import reference_ms

from gtpmm.ingest import load_edge_list, load_network_json, save_edge_list, save_network_json
from gtpmm.synth import random_network, road_network

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_io.json"
NETWORKS = {
    "road": lambda: road_network(1, 55),
    "random": lambda: random_network(1, 5000, 3),
}
REPEATS = 11


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the measured code, e.g. its commit")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)

    row = {
        "label": args.label,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "networks": [],
    }
    with tempfile.TemporaryDirectory() as directory:
        for name, build in NETWORKS.items():
            row["networks"].append(measure(name, build(), Path(directory)))
            print(json.dumps(row["networks"][-1]), flush=True)
    rows = json.loads(args.output.read_text(encoding="utf-8")) if args.output.exists() else []
    rows = [existing for existing in rows if existing["label"] != args.label] + [row]
    args.output.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

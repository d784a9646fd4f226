"""The three workloads: what each sets up, runs and checks.

A workload is a fixed list of operations -- one call into the package each
-- that the runner repeats as passes. ``setup_steps`` is the work done
before the first operation, ``ops`` one pass, and ``check`` the
correctness checks on a finished pass (outside every timed region).

Operations share a per-pass ``state`` dict, so later operations can use
earlier results. Every call into the package goes through a module
attribute (``planner.plan``), never a name bound at import time, so the
tracer's patches apply.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from gtpmm import bench, ingest, network, oracle, planner, rng

import inputs

SETUP = "setup_s"
JSON = frozenset({"json_roundtrip_s"})


@dataclass(frozen=True)
class Op:
    name: str
    fn: object  # callable(state)
    tags: frozenset = field(default_factory=frozenset)  # end-to-end metrics it also counts toward


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _components(net) -> int:
    """Connected components by union-find, independent of the package's BFS."""
    parent = list(range(net.poi_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = net.poi_count
    for edge in net.edges:
        a, b = find(edge.u), find(edge.v)
        if a != b:
            parent[a] = b
            count -= 1
    return count


class CityWorkload:
    """Shared set-up of plan-city and bench-sweep: the seeded city network,
    saved and loaded the way every ``gtpmm plan --network`` call loads it."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.city_path = workdir / "city.json"
        self.generated = inputs.build_city(seed)
        self.net = None

    def setup_steps(self) -> list[Op]:
        def save(state):
            ingest.save_network_json(self.generated, self.city_path)

        def load(state):
            self.net = ingest.load_network_json(self.city_path)

        return [Op("save_network_json", save, JSON), Op("load_network_json", load, JSON | {SETUP})]

    def check_setup(self) -> list[str]:
        g, n = self.generated, self.net
        if (g.pois, g.edges, g.edge_costs, g.fare_table) != (n.pois, n.edges, n.edge_costs, n.fare_table):
            return ["loaded city network differs from the generated one"]
        return []


class PlanCity(CityWorkload):
    """Exact ``plan()`` queries of varied shape, one after another."""

    name = "plan-city"
    nominal_pass_s = 2.8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.queries = [
            (
                planner.QueryInstance(spec.agents, spec.categories),
                planner.SharingMode.SHARED_INTERMEDIATE if spec.shared else planner.SharingMode.PER_PERSON_INTERMEDIATE,
            )
            for spec in inputs.plan_queries(seed)
        ]

    def ops(self) -> list[Op]:
        def query(index, inst, sharing):
            def run(state):
                state[index] = planner.plan(self.net, inst, sharing)

            return Op(f"plan[{index}]", run)

        return [query(index, inst, sharing) for index, (inst, sharing) in enumerate(self.queries)]

    def digest(self, state) -> str:
        """Common PoIs, total and per-leg modes of every plan."""
        parts = []
        for index in range(len(self.queries)):
            journey = state.get(index)
            if journey is None:
                parts.append("missing")
                continue
            modes = [
                tuple(mode for _, mode in leg.legs)
                for leg in (*journey.source_legs, *journey.common_legs, *journey.dest_legs)
            ]
            parts.append(repr((journey.common_pois, journey.total_cost, modes)))
        return _sha("\n".join(parts))

    def check(self, state) -> list[str]:
        failures = []
        for index, (inst, sharing) in enumerate(self.queries):
            journey = state.get(index)
            if journey is None:
                failures.append(f"query {index}: no plan")
                continue
            recomputed = planner.recompute_total(journey)
            fixed = planner.group_cost(self.net, inst, journey.common_pois, sharing)
            if not journey.total_cost == recomputed == fixed:
                failures.append(f"query {index}: total {journey.total_cost}, legs {recomputed}, group_cost {fixed}")
        return failures


class BenchSweep(CityWorkload):
    """``run_experiment`` over a fixed list of cells with all four methods,
    then the CSV and summary. Each cell is one ``run_experiment`` call: a
    cell's instance depends only on (sweep seed, k, PoIs per category, run),
    so the rows equal those of one call per cell over a grid, and every
    method of a cell still solves the same instance inside one call.

    The sweep seed is fixed. ``run_experiment`` draws PoIs uniformly from
    the whole city, and with three PoIs per category a cell's cost depends
    on where those few fall: with the sweep seed set to the benchmark seed,
    sweep times of five seeds spread by 13%. The benchmark seed still makes
    a different city for every seed; PoI ids sit at the same lattice places
    in every seed's city, so the drawn instances keep their geometry."""

    name = "bench-sweep"
    nominal_pass_s = 5.0
    SWEEP_SEED = 0
    # (agents, k, PoIs per category): small cells on three PoIs per category,
    # plus one cell of the size of the package's default grid (50 agents,
    # k 3, p 5), where the baselines search the same legs again and again.
    CELLS = ((2, 2, 3), (5, 3, 3), (12, 2, 3), (12, 3, 3), (50, 3, 5))

    def config(self, agents: int, k: int, p: int):
        return bench.ExperimentConfig(
            agent_counts=(agents,),
            category_counts=(k,),
            pois_per_category=(p,),
            runs=1,
            seed=self.SWEEP_SEED,
        )

    def ops(self) -> list[Op]:
        def cell(agents, k, p):
            cfg = self.config(agents, k, p)

            def run(state):
                state[agents, k, p] = bench.run_experiment(self.net, cfg)

            return Op(f"run_experiment[{agents},{k},{p}]", run)

        def emit_csv(state):
            bench.emit_csv(self.rows(state), self.workdir / "results.csv", self.net.fare_table.names)

        def emit_summary(state):
            bench.emit_summary(self.rows(state), self.workdir / "results_summary.csv")

        # Five cells and two files: an odd count of operation kinds, so the
        # median latency falls inside one kind's samples.
        cells = [cell(*shape) for shape in self.CELLS]
        return cells + [Op("emit_csv", emit_csv), Op("emit_summary", emit_summary)]

    def rows(self, state) -> list:
        """Rows of every cell, in the order of ``CELLS``."""
        return [row for shape in self.CELLS for row in state.get(shape, ())]

    def digest(self, state) -> str:
        """The results CSV with its wall_time_ms column removed."""
        path = self.workdir / "results.csv"
        if not path.exists():
            return "missing"
        with path.open(newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
        drop = table[0].index("wall_time_ms")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in table:
            writer.writerow(row[:drop] + row[drop + 1 :])
        return _sha(out.getvalue())

    def check(self, state) -> list[str]:
        rows = self.rows(state)
        expected = len(self.CELLS) * len(bench.METHODS)
        if len(rows) != expected:
            return [f"sweep produced {len(rows)} rows, expected {expected}"]
        failures = []
        cells: dict[tuple, dict[str, int]] = {}
        for row in rows:
            cells.setdefault((row.agents, row.k, row.pois_per_category, row.run), {})[row.method] = row.total_cost
        for (agents, k, p, run), totals in cells.items():
            exact = totals["ojpa"]
            worse = [m for m, total in totals.items() if total < exact]
            if worse:
                failures.append(f"cell {(agents, k, p, run)}: {worse} beat ojpa")
            cfg = self.config(agents, k, p)
            inst = bench.draw_instance(self.net, rng.fold(cfg.seed, k, p, run), k, p, agents)
            _, optimum = oracle.brute_force_optimal(self.net, inst, cfg.sharing)
            if optimum != exact:
                failures.append(f"cell {(agents, k, p, run)}: ojpa {exact} != brute force {optimum}")
        return failures


class Ingest:
    """Raw files to repaired, categorized networks, and their JSON round trip."""

    name = "ingest"
    nominal_pass_s = 1.3
    CATEGORIES = {"edges": 8, "gtfs": 5}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.files = None

    def setup_steps(self) -> list[Op]:
        def write(state):
            self.files = inputs.write_ingest_files(self.seed, self.workdir / "raw")

        return [Op("write_ingest_files", write, frozenset({SETUP}))]

    def check_setup(self) -> list[str]:
        return []

    def ops(self) -> list[Op]:
        files = self.files

        def fares(state):
            state["fares"] = ingest.resolve_fares(ingest.load_fare_config(files.fares), "low", self.seed)

        ops = [Op("load_fare_config+resolve_fares", fares)]
        loaders = {
            "edges": lambda fare_table: ingest.load_edge_list(files.edge_list, fare_table),
            "gtfs": lambda fare_table: ingest.load_gtfs(files.gtfs, fare_table),
        }
        for tag, load in loaders.items():
            ops += self._build_ops(tag, load)
        for tag in loaders:
            ops += self._json_ops(tag)
        return ops

    def _build_ops(self, tag: str, load) -> list[Op]:
        config = ingest.CategoryConfig(k=self.CATEGORIES[tag])

        def raw(state):
            state[tag, "raw"] = load(state["fares"])

        def repair(state):
            state[tag, "repair"] = network.connect_components(state[tag, "raw"])

        def categorize(state):
            state[tag, "cat"] = ingest.categorize(state[tag, "repair"][0], config)

        return [Op(f"load[{tag}]", raw), Op(f"connect_components[{tag}]", repair), Op(f"categorize[{tag}]", categorize)]

    def _json_ops(self, tag: str) -> list[Op]:
        path = self.workdir / f"{tag}.json"

        def save(state):
            ingest.save_network_json(state[tag, "cat"][0], path)

        def load(state):
            state[tag, "loaded"] = ingest.load_network_json(path)

        return [Op(f"save_network_json[{tag}]", save, JSON), Op(f"load_network_json[{tag}]", load, JSON)]

    def digest(self, state) -> str:
        """Both JSON files, and the edge costs of both reloaded networks
        (the file holds distances and fares, not the rounded costs)."""
        parts = []
        for tag in self.CATEGORIES:
            path = self.workdir / f"{tag}.json"
            parts.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing")
            loaded = state.get((tag, "loaded"))
            parts.append(repr(loaded.edge_costs) if loaded is not None else "missing")
        return _sha("\n".join(parts))

    def check(self, state) -> list[str]:
        failures = []
        for tag, k in self.CATEGORIES.items():
            try:
                raw = state[tag, "raw"]
                repaired, added = state[tag, "repair"]
                categorized, sets = state[tag, "cat"]
                loaded = state[tag, "loaded"]
            except KeyError as missing:
                failures.append(f"{tag}: no result for {missing}")
                continue
            if (loaded.pois, loaded.edges, loaded.edge_costs, loaded.fare_table) != (
                categorized.pois,
                categorized.edges,
                categorized.edge_costs,
                categorized.fare_table,
            ):
                failures.append(f"{tag}: reloaded network differs from the saved one")
            components = _components(raw)
            if tag == "edges" and components != self.files.edge_list_islands:
                failures.append(f"{tag}: {components} components, generated {self.files.edge_list_islands}")
            un = repaired.fare_table.names.index("UN") if "UN" in repaired.fare_table.names else None
            if (
                len(added) != components - 1
                or repaired.edge_count != raw.edge_count + components - 1
                or any(edge.mode != un for edge in added)
                or _components(repaired) != 1
            ):
                failures.append(f"{tag}: repair added {len(added)} edges for {components} components")
            n = categorized.poi_count
            expected_sizes = [n // k + (1 if c < n % k else 0) for c in range(k)]
            if [len(s) for s in sets] != expected_sizes or any(
                categorized.pois[poi].category != c for c, members in enumerate(sets) for poi in members
            ):
                failures.append(f"{tag}: category sizes {[len(s) for s in sets]}, expected {expected_sizes}")
        return failures


WORKLOADS = {cls.name: cls for cls in (PlanCity, BenchSweep, Ingest)}

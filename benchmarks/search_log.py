"""Log every search one pass of perfbench's city workloads runs, and compare two checkouts.

    python benchmarks/search_log.py --seeds 0 1 2 --output searches.json
    python benchmarks/search_log.py --seeds 0 1 2 3 4 5 6 7 8 9 --against ../parent-checkout

For each seed and each of perfbench's ``plan-city`` and ``bench-sweep``
workloads (``perfbench/workloads.py``, imported and never changed), it sets
the workload up once in a temporary directory and runs one pass of its
operations. Every ``shortest_path``, ``shortest_paths`` and ``layer_costs``
call the package makes during an operation is recorded in call order as
``(kind, origin, targets)``: kind ``"path"``, ``"tree"`` or ``"layer"``,
and for a layer search the origin is its starts as ``(PoI, cost)`` pairs
with its weight. A search run inside another is not recorded again. The
log holds, per workload and seed, each operation's name and searches, and
the pass digest of ``workloads.py``.

The package is imported from ``--src``, by default this checkout's
``src``. With ``--against DIR`` the script runs itself again in a
subprocess with ``--src DIR/src`` and this checkout's perfbench, and prints,
per workload and seed, ``same`` or the first operation whose searches
differ, and whether the digests differ; it exits 1 when anything differs.
A change meant to keep the planner's searches and plans checks itself this
way against its parent. Under each verdict it prints both sides' search
totals by kind, the other checkout's first, and each workload ends with
its totals over the seeds, so a change that drops searches by design
quotes its deltas from here:

    plan-city seed 0: op plan[1]: search 5 of 5 against 6
      tree 40 -> 40, layer 15 -> 15, path 13 -> 0
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("plan-city", "bench-sweep")
SEARCHES = ("shortest_path", "shortest_paths", "layer_costs")
KINDS = ("tree", "layer", "path")


def _record_searches(log: list) -> None:
    """Replace the package's three searches, in every loaded ``gtpmm``
    module that binds them, with wrappers that append each search to
    ``log[-1]``, the list of the running operation."""
    import gtpmm.network

    originals = {name: getattr(gtpmm.network, name) for name in SEARCHES}
    inside = [False]

    def record(search: tuple, run):
        if inside[0]:
            return run()
        log[-1].append(search)
        inside[0] = True
        try:
            return run()
        finally:
            inside[0] = False

    def ordered(targets) -> list:
        return sorted(targets) if isinstance(targets, (set, frozenset)) else list(targets)

    def shortest_path(net, source, target):
        return record(("path", source, [target]), lambda: originals["shortest_path"](net, source, target))

    def shortest_paths(net, source, targets):
        targets = ordered(targets)
        return record(("tree", source, targets), lambda: originals["shortest_paths"](net, source, targets))

    def layer_costs(net, starts, weight, targets):
        targets = ordered(targets)
        search = ("layer", [list(starts.items()), weight], targets)
        return record(search, lambda: originals["layer_costs"](net, starts, weight, targets))

    wrappers = {"shortest_path": shortest_path, "shortest_paths": shortest_paths, "layer_costs": layer_costs}
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "gtpmm":
            continue
        for name, wrapper in wrappers.items():
            if getattr(module, name, None) is originals[name]:
                setattr(module, name, wrapper)


def search_log(src: Path, seeds: list[int]) -> dict:
    """``{workload: {seed: {"ops": [[op name, searches], ...], "digest": ...}}}``
    of the package at ``src``, in the JSON form the log is saved in."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import gtpmm

    if Path(gtpmm.__file__).resolve().parent != (src / "gtpmm").resolve():
        raise SystemExit(f"search_log: imported gtpmm from {gtpmm.__file__}, not from {src}")
    import workloads as perfbench_workloads

    searches: list[list] = [[]]  # per operation; the set-up's go to the first, and are dropped
    _record_searches(searches)
    log: dict = {}
    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="search-log-") as workdir:
                wl = perfbench_workloads.WORKLOADS[name](seed, Path(workdir))
                for op in wl.setup_steps():
                    op.fn({})
                state: dict = {}
                ops = []
                for op in wl.ops():
                    searches.append([])
                    op.fn(state)
                    ops.append([op.name, searches.pop()])
                log.setdefault(name, {})[str(seed)] = {"ops": ops, "digest": wl.digest(state)}
    return json.loads(json.dumps(log))  # tuples as lists, as in the saved log


def first_difference(mine: dict, theirs: dict) -> str:
    """``same``, or where one workload-seed entry of two logs first differs."""
    notes = []
    for (name, searches), (other_name, other) in zip(mine["ops"], theirs["ops"]):
        if name != other_name:
            notes.append(f"op {name} against op {other_name}")
            break
        if searches != other:
            index = next((i for i, (a, b) in enumerate(zip(searches, other)) if a != b), min(len(searches), len(other)))
            notes.append(f"op {name}: search {index} of {len(searches)} against {len(other)}")
            break
    else:
        if len(mine["ops"]) != len(theirs["ops"]):
            notes.append(f"{len(mine['ops'])} ops against {len(theirs['ops'])}")
    if mine["digest"] != theirs["digest"]:
        notes.append(f"digest {mine['digest'][:12]} against {theirs['digest'][:12]}")
    return "; ".join(notes) or "same"


def kind_totals(entries) -> dict[str, int]:
    """The searches of workload-seed log ``entries``, counted by kind."""
    totals = dict.fromkeys(KINDS, 0)
    for entry in entries:
        for _, searches in entry["ops"]:
            for search in searches:
                totals[search[0]] += 1
    return totals


def totals_line(theirs: dict[str, int], mine: dict[str, int]) -> str:
    return ", ".join(f"{kind} {theirs[kind]} -> {mine[kind]}" for kind in KINDS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package's directory to import")
    parser.add_argument("--output", type=Path, help="write the log to this JSON file")
    parser.add_argument("--against", type=Path, help="another checkout to compare with, run with its src")
    args = parser.parse_args(argv)

    log = search_log(args.src, args.seeds)
    if args.output is not None:
        args.output.write_text(json.dumps(log) + "\n", encoding="utf-8")
    if args.against is None:
        for name, by_seed in log.items():
            for seed, entry in by_seed.items():
                totals = kind_totals([entry])
                count = ", ".join(f"{kind} {totals[kind]}" for kind in KINDS)
                print(f"{name} seed {seed}: {len(entry['ops'])} ops, searches {count}, digest {entry['digest'][:12]}")
        return 0

    with tempfile.TemporaryDirectory(prefix="search-log-") as scratch:
        other_path = Path(scratch) / "against.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--src", str(args.against.resolve() / "src")]
        command += ["--seeds", *map(str, args.seeds), "--output", str(other_path)]
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        other = json.loads(other_path.read_text(encoding="utf-8"))
    differ = 0
    for name, by_seed in log.items():
        for seed, entry in by_seed.items():
            verdict = first_difference(entry, other[name][seed])
            differ += verdict != "same"
            print(f"{name} seed {seed}: {verdict}")
            print(f"  {totals_line(kind_totals([other[name][seed]]), kind_totals([entry]))}")
        theirs = kind_totals(other[name][seed] for seed in by_seed)
        print(f"{name} all seeds: {totals_line(theirs, kind_totals(by_seed.values()))}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

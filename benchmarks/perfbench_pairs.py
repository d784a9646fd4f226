"""Run perfbench on this checkout and another in alternating pairs, from paths of one length.

    python benchmarks/perfbench_pairs.py --against ../parent-checkout --workload plan-city --seeds 0 1 2 3 4 5 6 7 8 9

Both sides run this checkout's ``perfbench/``; only ``src/`` differs. Each
side is copied into one of two sibling temporary directories, ``parent``
and ``change``, whose paths have the same length: ``peak_rss_mb`` has been
seen to read about 1 MB apart for the same code run from paths of
different lengths, more than its bound. For each seed the two sides run
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` one after
the other, the parent first on the first seed and the order flipped on
each seed after it.

It prints every run's end-to-end metrics, then, per metric, each side's
median, the parent's quartiles (q1-q3, the spread a gain is judged
against), the ratio of the change's median to the parent's, the metric's
``BENCHMARK.json`` bound, how many pairs the change won, and ``WORSE`` when
the change's median is worse than the parent's by more than the bound, a
fraction of the parent's median (the rule the benchmark's gate applies), or
``ok``; a tie counts for neither side, and which way is better also comes
from ``BENCHMARK.json``. A last line names the metrics marked ``WORSE``. It
exits 1 when a run fails or is not ``correct``; a ``WORSE`` metric is shown,
not an exit status, as a few pairs may cross a bound on noise alone.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}  # by name, in the file's order
SIDES = ("parent", "change")  # names of equal length, so both sides run from paths of one length


def _copy_side(side: Path, src: Path) -> None:
    """This checkout's perfbench and ``src`` under ``side``."""
    skipped = shutil.ignore_patterns("_work", "_traces", "__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "perfbench", side / "perfbench", ignore=skipped)
    shutil.copytree(src, side / "src", ignore=skipped)


def _run(side: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result object of one perfbench run from ``side``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=side, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise SystemExit(f"perfbench_pairs: {side.name} seed {seed} exited {result.returncode}:\n{result.stderr}")
    return json.loads(result.stdout.splitlines()[-1])


def pairs(against: Path, workload: str, seeds: list[int], seconds: int) -> list[dict[str, dict]]:
    """Per seed, ``{side: result object}`` of the two runs."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="perfbench-pairs-") as scratch:
        sides = {name: Path(scratch) / name for name in SIDES}
        _copy_side(sides["parent"], against / "src")
        _copy_side(sides["change"], ROOT / "src")
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            runs.append({name: _run(sides[name], workload, seed, seconds) for name in order})
    return runs


def summary(runs: list[dict[str, dict]]) -> list[tuple[str, float, float, float, float, int]]:
    """``(metric, parent median, parent q1, parent q3, change median, pairs
    the change won)`` per end-to-end metric; one run is its own quartiles."""
    rows = []
    for metric in END_TO_END.values():
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        won = sum(sign * (change - parent) > 0 for parent, change in zip(values["parent"], values["change"]))
        parent = values["parent"]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
        rows.append((name, statistics.median(parent), q1, q3, statistics.median(values["change"]), won))
    return rows


def worse_than_bound(name: str, parent: float, change: float) -> bool:
    """Whether the change's median of metric ``name`` is worse than the
    parent's by more than the metric's bound, a fraction of the parent's."""
    metric = END_TO_END[name]
    if metric["better"] == "higher":
        return change < parent * (1 - metric["bound"])
    return change > parent * (1 + metric["bound"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, help="the parent checkout, run with its src")
    parser.add_argument("--workload", required=True, choices=("plan-city", "bench-sweep", "ingest"))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=20, help="perfbench's --seconds, the same on both sides")
    args = parser.parse_args(argv)

    runs = pairs(args.against.resolve(), args.workload, args.seeds, args.seconds)
    faults = 0
    for seed, run in zip(args.seeds, runs):
        for side, result in run.items():
            faults += not result["correct"]
            values = " ".join(f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items())
            print(f"seed {seed} {side}: {'correct' if result['correct'] else 'NOT CORRECT'} {values}")
    print(f"{'metric':<18}{'parent':>12}{'parent q1-q3':>24}{'change':>12}{'ratio':>8}{'bound':>8}  change won  gate")
    worse = []
    for name, parent, q1, q3, change, won in summary(runs):
        ratio = change / parent if parent else float("nan")
        spread = f"{q1:.4g}-{q3:.4g}"
        gate = "ok"
        if worse_than_bound(name, parent, change):
            gate = "WORSE"
            worse.append(name)
        print(
            f"{name:<18}{parent:>12.4g}{spread:>24}{change:>12.4g}{ratio:>8.3f}{END_TO_END[name]['bound']:>8.3g}"
            f"  {won} of {len(runs)}  {gate}"
        )
    print(f"worse than the parent by more than the bound: {', '.join(worse) or 'none'}")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``benchmarks/perfbench_pairs.py`` still runs perfbench on two checkouts.

The script is not imported by the package, so a change to perfbench's
command line or result line would only show when someone next ran it; this
runs one short pair of this checkout against itself.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "perfbench_pairs.py"
METRICS = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]


def test_perfbench_pairs_runs_one_pair_of_this_checkout_against_itself():
    command = [sys.executable, str(SCRIPT), "--against", str(ROOT), "--workload", "ingest", "--seeds", "3", "--seconds", "1"]
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 3 parent", "seed 3 change"]  # the parent first on the first seed
    for line in lines[:2]:
        assert line.split(": ")[1].split()[0] == "correct"
        assert [field.split("=")[0] for field in line.split()[4:]] == METRICS
    assert lines[2].split() == ["metric", "parent", "parent", "q1-q3", "change", "ratio", "change", "won"]
    assert [line.split()[0] for line in lines[3:]] == METRICS
    assert all(line.endswith(" of 1") for line in lines[3:])


def test_summary_counts_the_pairs_the_change_won_by_each_metric_direction():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
    perfbench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_pairs)

    def run(pass_s, ok_frac):
        metrics = dict.fromkeys(METRICS, 1.0) | {"pass_s": pass_s, "ok_frac": ok_frac}
        return {"correct": True, "metrics": {name: {"value": value} for name, value in metrics.items()}}

    runs = [
        {"parent": run(2.0, 1.0), "change": run(1.0, 0.5)},  # faster, more failures
        {"change": run(3.0, 1.0), "parent": run(2.0, 0.5)},  # slower, fewer failures
        {"parent": run(2.0, 1.0), "change": run(1.5, 1.0)},  # faster; a tie
    ]
    rows = {name: values for name, *values in perfbench_pairs.summary(runs)}  # parent median, q1, q3, change, won
    assert rows["pass_s"] == [2.0, 2.0, 2.0, 1.5, 2]
    assert rows["ok_frac"] == [1.0, 0.75, 1.0, 1.0, 1]  # the parent's 0.5, 1.0, 1.0
    assert rows["setup_s"] == [1.0, 1.0, 1.0, 1.0, 0]

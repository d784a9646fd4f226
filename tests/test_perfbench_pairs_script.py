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


def load_script():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
    perfbench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_pairs)
    return perfbench_pairs


def test_perfbench_pairs_runs_one_pair_of_this_checkout_against_itself():
    command = [sys.executable, str(SCRIPT), "--against", str(ROOT), "--workload", "ingest", "--seeds", "3", "--seconds", "1"]
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 3 parent", "seed 3 change"]  # the parent first on the first seed
    for line in lines[:2]:
        assert line.split(": ")[1].split()[0] == "correct"
        assert [field.split("=")[0] for field in line.split()[4:]] == METRICS
    header = ["metric", "parent", "parent", "q1-q3", "change", "ratio", "bound", "change", "won", "gate"]
    assert lines[2].split() == header
    rows = [line.split() for line in lines[3:-1]]
    assert [row[0] for row in rows] == METRICS
    assert all(row[-3:-1] == ["of", "1"] and row[-1] in ("ok", "WORSE") for row in rows)
    worse = [row[0] for row in rows if row[-1] == "WORSE"]  # one short pair may cross a bound on noise
    assert lines[-1] == f"worse than the parent by more than the bound: {', '.join(worse) or 'none'}"


def test_summary_counts_the_pairs_the_change_won_by_each_metric_direction():
    perfbench_pairs = load_script()

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


def test_worse_than_bound_applies_each_metric_bound_as_a_fraction_of_the_parent():
    worse = load_script().worse_than_bound

    assert not worse("pass_s", 1.0, 1.2)  # at pass_s's bound of 0.2, not past it
    assert worse("pass_s", 1.0, 1.21)
    assert not worse("pass_s", 1.0, 0.5)  # lower is better
    assert not worse("peak_rss_mb", 50.0, 51.0) and worse("peak_rss_mb", 50.0, 51.1)  # 2% of 50 MB is 1 MB
    assert not worse("ok_frac", 1.0, 0.9995) and worse("ok_frac", 1.0, 0.998)  # higher is better
    assert not worse("ok_frac", 0.5, 1.0)

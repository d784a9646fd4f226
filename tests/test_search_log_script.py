"""``benchmarks/search_log.py`` still runs against the package and perfbench.

The script is not imported by the package, so a rename in ``gtpmm`` or in
perfbench's workloads would only show when someone next ran it; this
compares this checkout with itself on one seed.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "search_log.py"


def test_search_log_finds_this_checkout_equal_to_itself(tmp_path):
    output = tmp_path / "log.json"
    command = [sys.executable, str(SCRIPT), "--seeds", "0", "--against", str(ROOT), "--output", str(output)]
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0::3] == ["plan-city seed 0: same", "bench-sweep seed 0: same"]
    assert [line.split(":")[0] for line in lines[2::3]] == ["plan-city all seeds", "bench-sweep all seeds"]
    log = json.loads(output.read_text(encoding="utf-8"))
    for workload, seed_line, all_line in zip(("plan-city", "bench-sweep"), lines[1::3], lines[2::3]):
        totals = {kind: 0 for kind in ("tree", "layer", "path")}
        for _, searches in log[workload]["0"]["ops"]:
            for search in searches:
                totals[search[0]] += 1
        expected = ", ".join(f"{kind} {count} -> {count}" for kind, count in totals.items())
        assert seed_line == f"  {expected}"
        assert all_line == f"{workload} all seeds: {expected}"
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    for workload in ("plan-city", "bench-sweep"):
        entry = log[workload]["0"]
        assert entry["digest"] == digests[workload]["0"]
        kinds = {search[0] for _, searches in entry["ops"] for search in searches}
        assert kinds <= {"tree", "layer", "path"} and "tree" in kinds
    assert len(log["plan-city"]["0"]["ops"]) == 7


def test_first_difference_names_the_op_and_the_search():
    spec = importlib.util.spec_from_file_location("search_log", SCRIPT)
    search_log = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search_log)

    tree, path = ["tree", 3, [4, 5]], ["path", 4, [7]]
    entry = {"ops": [["plan[0]", [tree]], ["plan[1]", [tree, path]]], "digest": "a" * 64}
    assert search_log.first_difference(entry, entry) == "same"
    fewer = {"ops": [["plan[0]", [tree]], ["plan[1]", [tree]]], "digest": "b" * 64}
    expected = f"op plan[1]: search 1 of 2 against 1; digest {'a' * 12} against {'b' * 12}"
    assert search_log.first_difference(entry, fewer) == expected
    assert search_log.kind_totals([entry, fewer]) == {"tree": 4, "layer": 0, "path": 1}
    totals = search_log.totals_line(search_log.kind_totals([entry]), search_log.kind_totals([fewer]))
    assert totals == "tree 2 -> 2, layer 0 -> 0, path 1 -> 0"

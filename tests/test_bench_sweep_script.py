"""``benchmarks/bench_sweep.py`` still runs against the package.

The script is not imported by the package, so a rename in ``gtpmm.bench``
would only show when someone next ran it; this runs a one-cell grid.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from gtpmm.bench import ExperimentConfig
from gtpmm.synth import road_network

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_bench_sweep_measures_a_one_cell_grid(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # the script imports bench_planner's host probe
    spec = importlib.util.spec_from_file_location("bench_sweep", BENCHMARKS / "bench_sweep.py")
    bench_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_sweep)

    assert set(bench_sweep.NETWORKS) == {"random", "road"}
    cfg = ExperimentConfig(agent_counts=(3, 4), category_counts=(2,), pois_per_category=(3,), runs=1)
    net = road_network(1, 8)
    row = bench_sweep.measure("road", net, cfg)
    assert set(row) == {
        "network",
        "pois",
        "rows",
        "sweep_s",
        "wall_time_s",
        "method_wall_time_s",
        "digest",
        "host_ref_ms",
    }
    assert (row["network"], row["pois"], row["rows"]) == ("road", 64, 8)
    assert set(row["method_wall_time_s"]) == {"ojpa", "rprm", "rpcm", "nncm"}
    assert sum(row["method_wall_time_s"].values()) <= row["wall_time_s"] + 0.05  # each rounded to 0.01 s
    assert row["wall_time_s"] <= row["sweep_s"] + 0.01
    assert row["host_ref_ms"] > 0
    assert bench_sweep.measure("road", net, cfg)["digest"] == row["digest"]  # wall time left out


def _load_script(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location("bench_sweep", BENCHMARKS / "bench_sweep.py")
    bench_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_sweep)
    return bench_sweep


def _fake_measurement(src, network, digest="d"):
    return {"network": network, "src": str(src), "digest": digest}


def test_against_runs_the_parent_right_before_the_change_and_writes_both_rows(monkeypatch, tmp_path, capsys):
    bench_sweep = _load_script(monkeypatch)
    calls = []

    def measured_in(src, network):
        calls.append((src, network))
        return _fake_measurement(src, network)

    monkeypatch.setattr(bench_sweep, "measured_in", measured_in)
    output = tmp_path / "sweep.json"
    parent = tmp_path / "parent"
    status = bench_sweep.main(["--label", "one view", "--against", str(parent), "--output", str(output)])

    assert status == 0
    change_src = BENCHMARKS.parent / "src"
    assert calls == [(parent / "src", "random"), (change_src, "random"), (parent / "src", "road"), (change_src, "road")]
    rows = json.loads(output.read_text())
    assert [row["label"] for row in rows] == ["parent: one view", "change: one view"]
    assert [[net["src"] for net in row["networks"]] for row in rows] == [[str(parent / "src")] * 2, [str(change_src)] * 2]
    assert {"python", "cpu_count"} <= set(rows[0])


def test_against_exits_1_when_a_digest_differs(monkeypatch, tmp_path, capsys):
    bench_sweep = _load_script(monkeypatch)
    parent = tmp_path / "parent"

    def measured_in(src, network):
        return _fake_measurement(src, network, "other" if src == parent / "src" and network == "road" else "d")

    monkeypatch.setattr(bench_sweep, "measured_in", measured_in)
    output = tmp_path / "sweep.json"
    assert bench_sweep.main(["--label", "x", "--against", str(parent), "--output", str(output)]) == 1
    assert "digests differ on road" in capsys.readouterr().err
    assert len(json.loads(output.read_text())) == 2  # the rows are kept


def test_network_option_prints_one_measurement(monkeypatch, capsys):
    bench_sweep = _load_script(monkeypatch)
    monkeypatch.setattr(bench_sweep, "NETWORKS", {"road": lambda: road_network(1, 3)})
    monkeypatch.setattr(bench_sweep, "measure", lambda name, net: {"network": name, "pois": net.poi_count})
    assert bench_sweep.main(["--network", "road"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"network": "road", "pois": 9}

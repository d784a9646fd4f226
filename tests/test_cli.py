"""End-to-end runs of the command-line interface."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtpmm.cli import main
from gtpmm.fixtures import data_path, gtfs_minimal_dir


@pytest.fixture()
def walkthrough_args():
    return ["--edge-list", str(data_path("walkthrough_edges.csv")), "--fares", str(data_path("walkthrough_fares.csv"))]


@pytest.fixture()
def query_file(tmp_path):
    query = {
        "agents": [["v01", "v10"], ["v02", "v09"]],
        "categories": [["v03", "v04"], ["v05", "v06"], ["v07", "v08"]],
    }
    path = tmp_path / "query.json"
    path.write_text(json.dumps(query))
    return str(path)


def test_plan_subcommand_writes_document(tmp_path, walkthrough_args, query_file, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan", *walkthrough_args, "--query", query_file, "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["total_cost_cents"] == 3600
    assert document["common_pois"] == ["v03", "v05", "v07"]
    assert document["agents"][0]["poi_sequence"][0] == "v01"
    assert document["agents"][0]["poi_sequence"][-1] == "v10"
    assert all("mode" in hop and "cost_cents" in hop for hop in document["agents"][0]["legs"])


def test_plan_shared_sharing(walkthrough_args, query_file, capsys):
    code = main(["plan", *walkthrough_args, "--query", query_file, "--sharing", "shared"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["total_cost_cents"] == 2800


def test_plan_with_baseline_method(walkthrough_args, query_file, capsys):
    code = main(["plan", *walkthrough_args, "--query", query_file, "--method", "nncm"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["total_cost_cents"] >= 3600


def test_verify_agrees_on_walkthrough(walkthrough_args, query_file, capsys):
    code = main(["verify", *walkthrough_args, "--query", query_file])
    assert code == 0
    assert "agree=True" in capsys.readouterr().out


def test_verify_random_instance(walkthrough_args, capsys):
    code = main(["verify", *walkthrough_args, "--seed", "4", "--agents", "2", "--k", "2", "--pois-per-category", "2"])
    assert code == 0
    assert "agree=True" in capsys.readouterr().out


def test_bench_writes_csv_and_summary(tmp_path, walkthrough_args, capsys):
    out = tmp_path / "results.csv"
    code = main(
        ["bench", *walkthrough_args, "--agents", "2,3", "--k", "3", "--pois-per-category", "2",
         "--runs", "2", "--out", str(out)]
    )
    assert code == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 4 * 2
    assert (tmp_path / "results_summary.csv").exists()


def test_bench_runs_are_byte_identical_except_wall_time(tmp_path, walkthrough_args, capsys):
    args = ["bench", *walkthrough_args, "--agents", "2", "--k", "3", "--pois-per-category", "2",
            "--runs", "2", "--seed", "9"]
    assert main([*args, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*args, "--out", str(tmp_path / "b.csv")]) == 0

    def strip_wall_time(path):
        lines = path.read_text().splitlines()
        drop = lines[0].split(",").index("wall_time_ms")
        return [",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines]

    assert strip_wall_time(tmp_path / "a.csv") == strip_wall_time(tmp_path / "b.csv")


def test_ingest_edge_list_to_network_json(tmp_path, walkthrough_args, capsys):
    out = tmp_path / "net.json"
    code = main(["ingest", *walkthrough_args, "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert len(document["pois"]) == 10
    assert len(document["edges"]) == 32


def test_ingest_gtfs_with_categories(tmp_path, capsys):
    out = tmp_path / "net.json"
    code = main(
        ["ingest", "--gtfs", str(gtfs_minimal_dir()), "--fares", str(data_path("default_fares.csv")),
         "--categorize", "3", "--out", str(out)]
    )
    assert code == 0
    document = json.loads(out.read_text())
    assert len(document["pois"]) == 3
    assert sorted(p["category"] for p in document["pois"]) == [0, 1, 2]


def test_plan_hops_follow_travel_direction(tmp_path, walkthrough_args, capsys):
    # travel against edge storage order: v10 -> v07 -> v05 -> v03 -> v01
    query = {"agents": [["v10", "v01"]], "categories": [["v07"], ["v05"], ["v03"]]}
    path = tmp_path / "reverse.json"
    path.write_text(json.dumps(query))
    assert main(["plan", *walkthrough_args, "--query", str(path)]) == 0
    document = json.loads(capsys.readouterr().out)
    agent = document["agents"][0]
    assert agent["poi_sequence"] == ["v10", "v07", "v05", "v03", "v01"]
    hops = [(hop["from"], hop["to"]) for hop in agent["legs"]]
    assert hops == [("v10", "v07"), ("v07", "v05"), ("v05", "v03"), ("v03", "v01")]


def test_plan_accepts_serialized_network(tmp_path, walkthrough_args, query_file, capsys):
    net_path = tmp_path / "net.json"
    assert main(["ingest", *walkthrough_args, "--out", str(net_path)]) == 0
    capsys.readouterr()
    code = main(["plan", "--network", str(net_path), "--query", query_file])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["total_cost_cents"] == 3600


def test_conflicting_network_sources_fail(walkthrough_args, query_file, capsys):
    code = main(["plan", *walkthrough_args, "--network", "also.json", "--query", query_file])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_fares_fail(query_file, capsys):
    code = main(["plan", "--edge-list", str(data_path("walkthrough_edges.csv")), "--query", query_file])
    assert code == 2


def test_log_env_variable_is_honored(monkeypatch, walkthrough_args, query_file, capsys):
    monkeypatch.setenv("GTPMM_LOG", "DEBUG")
    assert main(["verify", *walkthrough_args, "--query", query_file]) == 0


SRC = Path(__file__).resolve().parents[1] / "src"

BAD_QUERIES = {
    "json-list": ('[["v01", "v10"]]', "must be a JSON object"),
    "no-categories": ('{"agents": [["v01", "v10"]]}', "'categories'"),
    "invalid-json": ('{\n  "agents": [["v01", "v10"]],\n  "categories": [["v03"],]\n}', ":3: invalid JSON"),
    "bad-agent": ('{"agents": [["v01"]], "categories": [["v03"]]}', "not a [source, destination] pair"),
    "bad-token": ('{"agents": [[["v01"], "v10"]], "categories": [["v03"]]}', "neither an id nor an external id"),
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "gtpmm.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("case", sorted(BAD_QUERIES))
def test_bad_query_file_fails_without_traceback(tmp_path, walkthrough_args, case):
    text, message = BAD_QUERIES[case]
    path = tmp_path / "query.json"
    path.write_text(text)
    result = run_cli("plan", *walkthrough_args, "--query", str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert str(path) in result.stderr and message in result.stderr


def test_missing_query_file_fails_without_traceback(tmp_path, walkthrough_args):
    path = tmp_path / "absent.json"
    result = run_cli("plan", *walkthrough_args, "--query", str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"error: {path}: cannot read query file" in result.stderr


def test_bad_network_file_fails_without_traceback(tmp_path, query_file):
    path = tmp_path / "bad.json"
    path.write_text('{"modes": [], "pois": []}')
    result = run_cli("plan", "--network", str(path), "--query", str(query_file))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"{path}: a network needs a list under 'edges'" in result.stderr


def test_malformed_coords_fail_without_traceback_before_repair(tmp_path, walkthrough_args, query_file):
    # without edges the network is disconnected, so --connect would measure
    # repair edges from the coordinates
    path = tmp_path / "net.json"
    assert main(["ingest", *walkthrough_args, "--out", str(path)]) == 0
    for coords in (["x", 1], [1]):
        document = json.loads(path.read_text())
        document["edges"] = []
        document["pois"][0]["coords"] = [47.4, 8.5]
        document["pois"][1]["coords"] = coords
        path.write_text(json.dumps(document))
        result = run_cli("plan", "--network", str(path), "--query", query_file, "--connect")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"{path}: pois[1]: coords must be null or [lat, lon]" in result.stderr


def test_non_utf8_edge_list_fails_without_traceback(tmp_path, query_file):
    path = tmp_path / "edges.csv"
    path.write_bytes(b"u,v,mode,distance_m,time_min\nv01,v\xff03,Bus,500,5\n")
    fares = str(data_path("walkthrough_fares.csv"))
    result = run_cli("plan", "--edge-list", str(path), "--fares", fares, "--query", query_file)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"{path}: file is not UTF-8 text" in result.stderr

"""The benchmark's tracer still finds every hook it patches in the package.

``perfbench/tracer.py`` wraps package functions by (module, attribute) and
counts ``DpTable.leg`` calls through ``DpTable.sp_invocations``; a rename or
a search that bypasses those names would not fail the benchmark, it would
just make its per-layer figures read zero. These tests run the tracer as
the benchmark does, without changing it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from gtpmm.synth import random_instance, random_network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_fire_on_a_plan(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced
    import tracer

    import gtpmm.planner

    for module, attribute, _ in tracer.TRACED_FUNCTIONS:
        assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute}"

    net = random_network(1, n_pois=30, n_modes=2)  # a plan that searches legs point to point
    inst = random_instance(1, net, k=3, pois_per_category=4, n_agents=4)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        gtpmm.planner.plan(net, inst)
    finally:
        recorder.uninstall()

    assert traced.self_check(recorder) == []
    spans = {span.name: span for span in recorder.spans}
    assert spans["planner.compute_dp"].counts["sp_invocations"] is not None
    assert recorder.leg_hits + recorder.leg_misses > 0
    plan_index = next(i for i, span in enumerate(recorder.spans) if span.name == "planner.plan")
    assert any(span.name == traced.SP and span.parent == plan_index for span in recorder.spans)


def test_tracer_spans_every_baseline_in_a_bench_cell(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced
    import tracer

    import gtpmm.bench

    net = random_network(5, n_pois=40, n_modes=3)
    cfg = gtpmm.bench.ExperimentConfig(agent_counts=(6,), category_counts=(3,), pois_per_category=(4,), runs=1)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        gtpmm.bench.run_experiment(net, cfg)
    finally:
        recorder.uninstall()

    def ancestors(index):
        return {span.name for span in recorder.ancestors(index)}

    for baseline in traced.BASELINES:
        spans = [i for i, span in enumerate(recorder.spans) if span.name == baseline]
        assert spans, baseline
        assert all("bench.run_experiment" in ancestors(i) for i in spans), baseline
    assert any(span.name == traced.SP and "baselines.rpcm" in ancestors(i) for i, span in enumerate(recorder.spans))


def test_tracer_spans_the_gtfs_parse_and_build_inside_the_load(monkeypatch):
    """``load_gtfs`` calls ``parse_gtfs`` through the module's name, so the
    benchmark's ``ingest.parse_gtfs`` figures see the parse."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    import gtpmm.ingest
    from gtpmm.fixtures import default_fare_ranges, gtfs_minimal_dir

    fares = gtpmm.ingest.resolve_fares(default_fare_ranges(), "low")
    recorder = tracer.Tracer()
    recorder.install()
    try:
        gtpmm.ingest.load_gtfs(gtfs_minimal_dir(), fares)
    finally:
        recorder.uninstall()

    def parents(name):
        return [recorder.spans[span.parent].name for span in recorder.spans if span.name == name]

    assert parents("ingest.parse_gtfs") == ["ingest.load_gtfs"]
    assert parents("network.finalize") == ["ingest.load_gtfs"]

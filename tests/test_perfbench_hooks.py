"""The benchmark's tracer still finds every hook it patches in the package.

``perfbench/tracer.py`` wraps package functions by (module, attribute) and
counts ``DpTable.leg`` calls through ``DpTable.sp_invocations``; a rename or
a search that bypasses those names would not fail the benchmark, it would
just make its per-layer figures read zero. This test runs the tracer as the
benchmark does, without changing it.
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

    net = random_network(4, n_pois=30, n_modes=2)
    inst = random_instance(4, net, k=3, pois_per_category=4, n_agents=4)
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

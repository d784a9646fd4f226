"""The traced run: per-layer metrics from spans recorded around the package.

A traced run sets up ``SETUP_REPS`` times under the tracer, runs one pass
untraced (the reference for the output digest and the tracing overhead),
then the same number of passes as an untraced run, under the tracer, and
checks them. Per-layer figures cover one set-up plus one pass: spans of
timed operations are divided by the pass count, spans of set-up by the
repetitions. The ``oracle.*`` figures come from the correctness checks and
are totals per run. Span durations leave out the host-speed probes that
ran inside them and are scaled to the nominal host like the end-to-end
timings, each by the factor of the operation it belongs to.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from harness import SETUP_REPS, Runner, _group_sums, measure, pass_count
from tracer import Tracer

SP = "network.shortest_path"
BASELINES = ("baselines.rprm", "baselines.rpcm", "baselines.nncm")


def _phase(op) -> str:
    if isinstance(op, int):
        return "work"
    return "setup" if str(op).startswith("setup") else "check"


class _Spans:
    """Sums over the recorded spans, per set-up plus per pass."""

    def __init__(self, tracer: Tracer, runner: Runner, passes: int):
        self.tracer = tracer
        self.spans = tracer.spans
        self.kids = tracer.children()
        self.passes = passes
        self.clock = runner.clock
        known = list(runner.factors.values())
        self.default_factor = statistics.median(known) if known else 1.0
        self.factors = runner.factors
        self.by_name: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            self.by_name.setdefault(span.name, []).append(index)

    def duration(self, index: int) -> float:
        span = self.spans[index]
        raw = span.end - span.start - self.clock.probe_seconds(span.start, span.end)
        return raw * self.factors.get(span.op, self.default_factor)

    def self_time(self, index: int) -> float:
        return self.duration(index) - sum(self.duration(kid) for kid in self.kids[index])

    def per_unit(self, name: str, value=lambda index: 1) -> float:
        """Sum of ``value`` over spans of ``name``: work per pass plus set-up per repetition."""
        work = setup = 0.0
        for index in self.by_name.get(name, ()):
            phase = _phase(self.spans[index].op)
            if phase == "work":
                work += value(index)
            elif phase == "setup":
                setup += value(index)
        return work / self.passes + setup / SETUP_REPS

    def in_checks(self, name: str, value=lambda index: 1) -> float:
        return sum(value(i) for i in self.by_name.get(name, ()) if _phase(self.spans[i].op) == "check")

    def count(self, key: str):
        return lambda index: self.spans[index].counts.get(key, 0)

    def under(self, index: int, names) -> bool:
        return any(span.name in names for span in self.tracer.ancestors(index))

    def distinct_ratio(self, names=None) -> float:
        """Distinct (source, target) pairs per operation over searches, in timed
        operations, counting only searches under ``names`` when given."""
        pairs: dict[object, set] = {}
        calls = 0
        for index in self.by_name.get(SP, ()):
            span = self.spans[index]
            if _phase(span.op) != "work" or (names is not None and not self.under(index, names)):
                continue
            calls += 1
            pairs.setdefault(span.op, set()).add(span.counts.get("pair"))
        return sum(len(p) for p in pairs.values()) / calls if calls else 0.0


def self_check(tracer: Tracer) -> list[str]:
    """The traced search count inside each compute_dp must equal the
    ``sp_invocations`` of the table it returned."""
    kids = tracer.children()
    failures = []
    for index, span in enumerate(tracer.spans):
        if span.name != "planner.compute_dp" or span.counts.get("sp_invocations") is None:
            continue
        traced = sum(1 for kid in kids[index] if tracer.spans[kid].name == SP)
        if traced != span.counts["sp_invocations"]:
            failures.append(f"compute_dp: {traced} traced searches, table counted {span.counts['sp_invocations']}")
    return failures


def per_layer(tracer: Tracer, runner: Runner, passes: int, untraced_pass_s: float, probes_ms: list[float]) -> dict:
    s = _Spans(tracer, runner, passes)
    plans = s.per_unit("planner.plan")
    legs = tracer.leg_hits + tracer.leg_misses

    def searches_under(name: str, phase: str = "work") -> int:
        return sum(1 for i in s.by_name.get(SP, ()) if _phase(s.spans[i].op) == phase and s.under(i, (name,)))

    values = {
        f"{SP}.calls": (s.per_unit(SP), "count"),
        f"{SP}.s": (s.per_unit(SP, s.duration), "s"),
        f"{SP}.unreachable": (s.per_unit(SP, lambda i: int(bool(s.spans[i].counts.get("unreachable")))), "count"),
        f"{SP}.distinct_ratio": (s.distinct_ratio(), "ratio"),
        "network.finalize.calls": (s.per_unit("network.finalize"), "count"),
        "network.finalize.s": (s.per_unit("network.finalize", s.duration), "s"),
        "network.finalize.edges": (s.per_unit("network.finalize", s.count("edges")), "count"),
        "network.connect_components.s": (s.per_unit("network.connect_components", s.duration), "s"),
        "network.connect_components.added": (s.per_unit("network.connect_components", s.count("added")), "count"),
        "planner.plan.calls": (plans, "count"),
        "planner.plan.s": (s.per_unit("planner.plan", s.duration), "s"),
        "planner.plan.self_s": (s.per_unit("planner.plan", s.self_time), "s"),
        "planner.compute_dp.s": (s.per_unit("planner.compute_dp", s.duration), "s"),
        "planner.compute_dp.self_s": (s.per_unit("planner.compute_dp", s.self_time), "s"),
        "planner.sp_per_plan": (searches_under("planner.plan") / passes / plans if plans else 0.0, "count"),
        "planner.leg_cache.hit_ratio": (tracer.leg_hits / legs if legs else 0.0, "ratio"),
    }
    for name in BASELINES:
        values[f"{name}.s"] = (s.per_unit(name, s.duration), "s")
    values["baselines.rpcm.sp_calls"] = (searches_under("baselines.rpcm") / passes, "count")
    values["baselines.nncm.sp_calls"] = (searches_under("baselines.nncm") / passes, "count")
    values["baselines.sp_distinct_ratio"] = (s.distinct_ratio(BASELINES), "ratio")
    oracle = "oracle.brute_force_optimal"
    values[f"{oracle}.s"] = (s.in_checks(oracle, s.duration), "s")
    values[f"{oracle}.tuples"] = (s.in_checks(oracle, s.count("tuples")), "count")
    values[f"{oracle}.sp_calls"] = (searches_under(oracle, "check"), "count")
    for name in ("load_edge_list", "parse_gtfs", "load_gtfs", "categorize", "save_network_json", "load_network_json"):
        values[f"ingest.{name}.s"] = (s.per_unit(f"ingest.{name}", s.duration), "s")
    values["ingest.bytes_read"] = (
        sum(
            s.per_unit(f"ingest.{name}", s.count("bytes_read"))
            for name in ("load_fare_config", "load_edge_list", "parse_gtfs", "load_network_json")
        ),
        "bytes",
    )
    values["ingest.json_bytes"] = (s.per_unit("ingest.save_network_json", s.count("json_bytes")), "bytes")
    for name in ("run_experiment", "draw_instance", "medium_usage", "emit_csv", "emit_summary"):
        values[f"bench.{name}.s"] = (s.per_unit(f"bench.{name}", s.duration), "s")
    values["bench.rows"] = (s.per_unit("bench.run_experiment", s.count("rows")), "count")
    values["host.ref_ms"] = (statistics.median(probes_ms), "ms")
    traced_pass_s = statistics.median(_group_sums(runner.work))
    values["trace.overhead_frac"] = (traced_pass_s / untraced_pass_s - 1.0, "fraction")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(wl, seconds: int, clock, trace_path: Path):
    """Returns (runner, digests, metrics, note); the untraced pass's digest
    is the first of the digests, so it is checked like an untraced run's."""
    tracer = Tracer()
    runner = Runner(clock, tracer)
    tracer.install()
    try:
        runner.run_setup(wl)
    finally:
        tracer.uninstall()

    plain = Runner(clock)
    plain_digest = wl.digest(plain.run_pass(wl, 0, 0))
    untraced_pass_s = sum(t.scaled_s for t in plain.work)

    tracer.install()
    try:
        digests = measure(wl, seconds, runner)
    finally:
        tracer.uninstall()
    runner.attempted += plain.attempted
    runner.fail(plain.messages)
    if digests[0] != plain_digest:
        runner.fail(["traced output digest differs from the untraced one"])
    runner.fail(self_check(tracer))
    tracer.dump(trace_path)

    metrics = per_layer(tracer, runner, pass_count(wl, seconds), untraced_pass_s, clock.probes_ms)
    note = f"{len(tracer.spans)} spans written to {trace_path.name}; searches patched in {', '.join(tracer.patched_in[SP])}"
    return runner, [plain_digest, *digests], metrics, note

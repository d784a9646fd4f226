"""Timing, failure counting and the end-to-end metrics of one run."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass

SETUP_REPS = 9


@dataclass
class Timing:
    group: int  # pass index, or set-up repetition
    scaled_s: float
    tags: frozenset


class Runner:
    """Times every operation between host-speed probes and counts failures."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.setup: list[Timing] = []
        self.work: list[Timing] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.factors: dict[object, float] = {}  # tracer op id -> scaled / raw time

    def fail(self, messages: list[str]) -> None:
        self.failed += len(messages)
        self.messages.extend(messages)

    def call(self, op, state, group: int, sink: list, op_id: object) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id
        self.attempted += 1
        error = None

        def guarded():
            nonlocal error
            try:
                op.fn(state)
            except Exception as exc:  # a failed operation is a result, not a crash
                error = exc

        _, raw, scaled = self.clock.timed(guarded)
        if self.tracer is not None:
            self.factors[op_id] = scaled / raw if raw > 0 else 1.0
        if error is not None:
            self.fail([f"{op.name}: {type(error).__name__}: {error}"])
        sink.append(Timing(group, scaled, op.tags))

    def run_setup(self, wl) -> None:
        for rep in range(SETUP_REPS):
            for step, op in enumerate(wl.setup_steps()):
                self.call(op, {}, rep, self.setup, f"setup{rep}.{step}")
        self.fail(wl.check_setup())

    def run_pass(self, wl, index: int, first_op_id: int) -> dict:
        state: dict = {}
        for offset, op in enumerate(wl.ops()):
            self.call(op, state, index, self.work, first_op_id + offset)
        return state


def _group_sums(timings: list[Timing], tag: str | None = None, exclude: str | None = None) -> list[float]:
    """Per pass (or set-up repetition) sums of the timings tagged ``tag``
    (all when None), leaving out those tagged ``exclude``."""
    sums: dict[int, float] = {}
    for t in timings:
        if (tag is None or tag in t.tags) and exclude not in t.tags:
            sums[t.group] = sums.get(t.group, 0.0) + t.scaled_s
    return [sums[g] for g in sorted(sums)]


def tail_rank(n: int) -> int:
    """Index into the sorted samples of the highest percentile with at least
    ten samples beyond it (the largest sample when there are ten or fewer)."""
    return n - 11 if n > 10 else n - 1


def end_to_end(runner: Runner) -> tuple[dict, str]:
    samples = sorted(t.scaled_s for t in runner.work)
    rank = tail_rank(len(samples))
    json_groups = _group_sums(runner.setup, "json_roundtrip_s") or _group_sums(runner.work, "json_roundtrip_s")
    values = {
        "setup_s": (statistics.median(_group_sums(runner.setup, "setup_s")), "s"),
        "op_p50_ms": (statistics.median(samples) * 1000.0, "ms"),
        "op_tail_ms": (samples[rank] * 1000.0, "ms"),
        "pass_s": (statistics.median(_group_sums(runner.work, exclude="json_roundtrip_s")), "s"),
        "json_roundtrip_s": (statistics.median(json_groups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (max(0.0, 1.0 - runner.failed / runner.attempted), "fraction"),
    }
    note = f"op_tail_ms is the sample of rank {rank + 1} of {len(samples)} (p{100.0 * (rank + 1) / len(samples):.1f})"
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, note


def pass_count(wl, seconds: int) -> int:
    """Whole passes that take ``seconds`` at the nominal host speed. The count
    does not depend on how fast the code runs, so every run of a workload
    takes the same number of samples and the tail is the same percentile."""
    return max(1, round(seconds / wl.nominal_pass_s))


def measure(wl, seconds: int, runner: Runner) -> list[str]:
    """Run the passes and check them. Returns the digests of the passes."""
    digests = []
    op_id = 0
    for index in range(pass_count(wl, seconds)):
        state = runner.run_pass(wl, index, op_id)
        op_id += len(wl.ops())
        digests.append(wl.digest(state))
        if index == 0:
            if runner.tracer is not None:
                runner.tracer.op = "check"
            runner.fail(wl.check(state))
    if len(set(digests)) != 1:
        runner.fail([f"pass outputs differ between passes: {len(set(digests))} distinct digests"])
    return digests

"""Host-speed reference and the scaling of timings to a nominal host.

The machines this runs on change speed in phases that last from a fraction
of a second to a few seconds: a fixed pure-Python loop can take anywhere
from 0.6x to 1.7x its usual time, and process CPU time slows with it, so
it is the processor that is slow, not the scheduling. Raw wall times
therefore drift with the host, not with the code.

The benchmark measures the host's speed while each operation runs. An
interval timer interrupts the operation every ``PROBE_INTERVAL_S`` and runs
a fixed reference search (the probe) in its signal handler; one more probe
runs before the first operation and one after every operation. Each
operation is scaled to the speed the host would have if every probe took
``NOMINAL_REF_MS``:

    raw    = wall time of the operation - time spent in probes inside it
    scaled = raw * NOMINAL_REF_MS / mean(probe before, probes inside, probe after)

Probes only before and after an operation miss the phases inside a long
one. Four seeds of plan-city, run back to back with each way of probing,
gave pass times that spread by 13% (interquartile range over median) with
probes only between operations, 18% with a 300-node probe every 25 ms,
and 7% with this probe every 150 ms.

The probe is one Dijkstra search over a fixed 4000-node graph in plain
Python -- heap pushes and pops, dict lookups, tuple building -- the same
kind of work the planner does, on a graph about as large as the city, so a
slow phase slows both alike. It is the benchmark's own code: no change to
the package can change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from heapq import heappop, heappush

# Probe time (ms) that defines the nominal host. Scaled timings read as if
# every probe had taken this long. Run medians of the probe ranged from 11
# to 25 ms on a 2-vCPU x86-64 VM under CPython 3.11.7.
NOMINAL_REF_MS = 15.0
# One probe per interval inside an operation: about 15 ms in 150 ms, so
# probes take some 10% of a run's time.
PROBE_INTERVAL_S = 0.15

_N = 4000


def _reference_graph() -> list[list[tuple[int, int]]]:
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(_N)]
    for u in range(_N):
        for step, weight in ((1, 7), (63, 31), (1009, 97)):
            v = (u * 7 + step) % _N
            cost = (u * weight) % 53 + 1
            adjacency[u].append((v, cost))
            adjacency[v].append((u, cost))
    return adjacency


_GRAPH = _reference_graph()


def _reference_work() -> int:
    dist = {0: 0}
    settled = set()
    heap = [(0, 0)]
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, cost in _GRAPH[u]:
            candidate = d + cost
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                heappush(heap, (candidate, v))
    return sum(dist.values())


_CHECKSUM = _reference_work()


def _start(probe: tuple[float, float]) -> float:
    return probe[0]


class HostClock:
    """Times operations with probes inside them and scales them.

    Every probe taken is kept, as (start, seconds), in ``probes``.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._probing = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._probe()

    @property
    def probes_ms(self) -> list[float]:
        return [seconds * 1000.0 for _, seconds in self.probes]

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:  # an alarm during a probe's own run is dropped
            self._probe()

    def _probe(self) -> None:
        self._probing = True
        started = time.perf_counter()
        total = _reference_work()
        elapsed = time.perf_counter() - started
        self._probing = False
        if total != _CHECKSUM:
            raise RuntimeError("reference workload returned a different result")
        self.probes.append((started, elapsed))

    def probe_seconds(self, start: float, end: float) -> float:
        """Time spent in probes that ran wholly between ``start`` and ``end``."""
        first = bisect.bisect_left(self.probes, start, key=_start)
        last = bisect.bisect_right(self.probes, end, key=_start)
        return sum(seconds for begun, seconds in self.probes[first:last] if begun + seconds <= end)

    def timed(self, fn):
        """Run ``fn()``; return (result, raw seconds, scaled seconds)."""
        before = len(self.probes) - 1
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            ended = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = ended - started - self.probe_seconds(started, ended)
        self._probe()
        speed_ms = statistics.fmean(seconds for _, seconds in self.probes[before:]) * 1000.0
        return result, raw, raw * NOMINAL_REF_MS / speed_ms

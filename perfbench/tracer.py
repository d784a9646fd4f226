"""Spans and counts recorded around the package's public functions.

The tracer replaces functions with wrappers that record a span -- name,
start, end, parent span, the operation it belongs to, and a few counts --
and keeps every span in memory until the benchmark writes them out.

One trap decides how the patching works: modules import each other's
functions by name (``from .network import shortest_path``), so patching
``gtpmm.network.shortest_path`` alone would leave ``gtpmm.planner``,
``gtpmm.baselines``, ``gtpmm.oracle`` and ``gtpmm.bench`` calling the
original, uncounted and without any error. ``install`` therefore replaces
the function object in every loaded ``gtpmm`` module that holds it, and
``Tracer.patched_in`` reports where it did so.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: object  # operation id: an int for timed operations, "setup<rep>.<step>" or "check"
    counts: dict = field(default_factory=dict)


# (module, attribute) -> span name. Functions only; methods are below.
TRACED_FUNCTIONS = (
    ("gtpmm.network", "shortest_path", "network.shortest_path"),
    ("gtpmm.network", "connect_components", "network.connect_components"),
    ("gtpmm.planner", "plan", "planner.plan"),
    ("gtpmm.planner", "compute_dp", "planner.compute_dp"),
    ("gtpmm.baselines", "rprm", "baselines.rprm"),
    ("gtpmm.baselines", "rpcm", "baselines.rpcm"),
    ("gtpmm.baselines", "nncm", "baselines.nncm"),
    ("gtpmm.oracle", "brute_force_optimal", "oracle.brute_force_optimal"),
    ("gtpmm.ingest", "load_fare_config", "ingest.load_fare_config"),
    ("gtpmm.ingest", "resolve_fares", "ingest.resolve_fares"),
    ("gtpmm.ingest", "load_edge_list", "ingest.load_edge_list"),
    ("gtpmm.ingest", "parse_gtfs", "ingest.parse_gtfs"),
    ("gtpmm.ingest", "load_gtfs", "ingest.load_gtfs"),
    ("gtpmm.ingest", "categorize", "ingest.categorize"),
    ("gtpmm.ingest", "save_network_json", "ingest.save_network_json"),
    ("gtpmm.ingest", "load_network_json", "ingest.load_network_json"),
    ("gtpmm.bench", "run_experiment", "bench.run_experiment"),
    ("gtpmm.bench", "draw_instance", "bench.draw_instance"),
    ("gtpmm.bench", "medium_usage", "bench.medium_usage"),
    ("gtpmm.bench", "emit_csv", "bench.emit_csv"),
    ("gtpmm.bench", "emit_summary", "bench.emit_summary"),
)


def _file_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(child.stat().st_size for child in path.iterdir() if child.is_file())
    return path.stat().st_size


def _counts_for(name: str, args: tuple, result) -> dict:
    """Counts recorded at the boundary of one call, from its arguments and result."""
    if name == "network.shortest_path":
        return {"pair": (args[1], args[2]), "unreachable": result is None}
    if name == "network.connect_components":
        return {"added": len(result[1])}
    if name == "network.finalize":
        return {"edges": len(result.edges)}
    if name == "planner.compute_dp":
        return {"sp_invocations": getattr(result, "sp_invocations", None)}
    if name == "oracle.brute_force_optimal":
        tuples = 1
        for category in args[1].categories:
            tuples *= len(category)
        return {"tuples": tuples}
    if name in ("ingest.load_fare_config", "ingest.load_edge_list", "ingest.parse_gtfs", "ingest.load_network_json"):
        return {"bytes_read": _file_bytes(args[0])}
    if name == "ingest.save_network_json":
        return {"json_bytes": _file_bytes(args[1])}
    if name == "bench.run_experiment":
        return {"rows": len(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self.leg_hits = 0
        self.leg_misses = 0
        self.patched_in: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.counts = _counts_for(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Patch every traced function in every ``gtpmm`` module that holds it."""
        import gtpmm.network
        import gtpmm.planner

        modules = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "gtpmm"}
        for module_name, attribute, span_name in TRACED_FUNCTIONS:
            original = getattr(modules[module_name], attribute)
            wrapper = self._wrap(span_name, original)
            holders = []
            for holder_name, holder in sorted(modules.items()):
                if holder is not None and getattr(holder, attribute, None) is original:
                    self._replace(holder, attribute, wrapper)
                    holders.append(holder_name)
            self.patched_in[span_name] = holders

        builder = gtpmm.network.NetworkBuilder
        self._replace(builder, "finalize", self._wrap("network.finalize", builder.finalize))

        # DpTable.leg is counted, not spanned: a span per DP transition would
        # cost more than the lookup it measures.
        table = gtpmm.planner.DpTable
        if hasattr(table, "leg"):
            original_leg = table.leg
            tracer = self

            def leg(self_table, net, u, v):
                before = self_table.sp_invocations
                result = original_leg(self_table, net, u, v)
                if self_table.sp_invocations == before:
                    tracer.leg_hits += 1
                else:
                    tracer.leg_misses += 1
                return result

            self._replace(table, "leg", leg)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(index)
        return kids

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op, counts."""
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                counts = {k: list(v) if isinstance(v, tuple) else v for k, v in span.counts.items()}
                record = [span.name, span.start, span.end, span.parent, span.op, counts]
                handle.write(json.dumps(record) + "\n")

"""Benchmark of the gtpmm package: three closed-loop workloads, one client.

    python3 perfbench/run.py --workload plan-city --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. The inputs are generated from ``--seed``.
A run sets up ``SETUP_REPS`` times, then repeats the workload's fixed list
of operations for as many whole passes as take ``--seconds`` at the
nominal host speed (see ``hostspeed``), then checks the outputs. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separately traced run with ``--trace 1``.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_DIR = BENCH_DIR / "_traces"
DIGESTS = BENCH_DIR / "digests.json"


def _recorded_digest(workload: str, seed: int) -> str | None:
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("plan-city", "bench-sweep", "ingest"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "gtpmm"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no gtpmm package at {package.relative_to(ROOT)} in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(BENCH_DIR))

    import gtpmm

    if Path(gtpmm.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported gtpmm from {gtpmm.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import harness
    import hostspeed
    import workloads

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        clock = hostspeed.HostClock()
        if args.trace:
            import traced

            trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
            runner, digests, metrics, note = traced.run(wl, args.seconds, clock, trace_path)
        else:
            runner = harness.Runner(clock)
            runner.run_setup(wl)
            digests = harness.measure(wl, args.seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = _recorded_digest(args.workload, args.seed)
    if recorded is not None and digests[0] != recorded:
        runner.fail([f"output digest {digests[0][:12]} differs from the one recorded for seed {args.seed}"])
    if not args.trace:
        metrics, note = harness.end_to_end(runner)
    for message in runner.messages[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {note}; host probe median {statistics.median(clock.probes_ms):.2f} ms")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

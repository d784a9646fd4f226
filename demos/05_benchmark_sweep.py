"""A desk-scale experiment sweep with CSV output.

Costs rise with the agent count for every method and the exact planner stays
cheapest throughout; transport-medium usage comes out per mode. Wall time is
the only non-reproducible column.
"""

import tempfile
from pathlib import Path

from gtpmm import ExperimentConfig, emit_csv, emit_summary, run_experiment
from gtpmm.synth import random_network

net = random_network(seed=2024, n_pois=120, n_modes=4, extra_edges=100)
cfg = ExperimentConfig(
    agent_counts=(5, 10, 20),
    category_counts=(3,),
    pois_per_category=(5, 10),
    runs=3,
    seed=7,
)
rows = run_experiment(net, cfg)

out_dir = Path(tempfile.mkdtemp(prefix="gtpmm_demo_"))
csv_path = emit_csv(rows, out_dir / "results.csv", net.fare_table.names)
summary_path = emit_summary(rows, out_dir / "summary.csv")
print(f"wrote {len(rows)} rows to {csv_path}")
print(f"summary at {summary_path}\n")

print("mean cost (cents) by method and agent count, 5 PoIs per category:")
means: dict[str, dict[int, list[int]]] = {}
for row in rows:
    if row.pois_per_category == 5:
        means.setdefault(row.method, {}).setdefault(row.agents, []).append(row.total_cost)
header = "method  " + "".join(f"{agents:>10}" for agents in cfg.agent_counts)
print(header)
for method in cfg.methods:
    cells = [sum(means[method][a]) / len(means[method][a]) for a in cfg.agent_counts]
    print(f"{method:6}  " + "".join(f"{cell:10.0f}" for cell in cells))

usage = {}
for row in rows:
    if row.method == "ojpa":
        for mode, count in row.usage.items():
            usage[mode] = usage.get(mode, 0) + count
print("\nplanner medium usage across the sweep:", dict(sorted(usage.items())))

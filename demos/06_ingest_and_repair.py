"""Ingestion: GTFS feeds, fare ranges, categorization, connectivity repair.

The packaged three-stop feed becomes a two-edge bus network; fare ranges
resolve under four strategies; a deliberately fragmented network is made
connected with exactly components-1 repair edges under a fresh "UN" mode.
"""

from gtpmm import (
    CategoryConfig,
    categorize,
    connect_components,
    connected_components,
    load_gtfs,
    resolve_fares,
)
from gtpmm.fixtures import default_fare_ranges, gtfs_minimal_dir
from gtpmm.synth import random_disconnected_network

# Fare ranges -> concrete tables under each resolution strategy.
ranges = default_fare_ranges()
for strategy in ("low", "mid", "high", "seeded-uniform"):
    fares = resolve_fares(ranges, strategy, seed=11)
    bus = fares.policy(fares.id_of("Bus"))
    print(f"{strategy:>14}: Bus base {bus.base_fare}c, {bus.cost_per_meter}c/m, {bus.cost_per_minute}c/min")

# GTFS: consecutive stops within a trip become edges (dwell time excluded).
net = load_gtfs(gtfs_minimal_dir(), resolve_fares(ranges, "low"))
print(f"\nGTFS feed: {net.poi_count} stops, {net.edge_count} edges")
for edge, cost in zip(net.edges, net.edge_costs):
    print(
        f"  {net.pois[edge.u].name} -> {net.pois[edge.v].name}: "
        f"{edge.time_min:g} min, {edge.distance_m:.0f} m, cost {cost}c"
    )

# Categorize stops by round-robin for a quick query setup.
labeled, sets = categorize(net, CategoryConfig(k=3, strategy="round-robin"))
print("categories:", [[labeled.pois[p].name for p in s] for s in sets])

# Repair a fragmented network: exactly components-1 edges, one component after.
broken = random_disconnected_network(seed=5, n_components=4, pois_per_component=3)
print(f"\nbefore repair: {len(connected_components(broken))} components")
repaired, added = connect_components(broken)
print(f"added {len(added)} edges under mode {repaired.fare_table.names[-1]!r}; "
      f"after: {len(connected_components(repaired))} component")

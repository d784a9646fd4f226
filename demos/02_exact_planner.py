"""The layered dynamic program, stage by stage, on the walkthrough query.

Two agents travel v01 -> v10 and v02 -> v09 while jointly visiting one PoI
from each of three categories. The DP table below shows, per category, the
cheapest cost of reaching each candidate PoI from both sources; the plan is
reconstructed by walking parent links back from the destination stage's
winner, ``table.best``.
"""

from gtpmm import SharingMode, compute_dp, plan
from gtpmm.fixtures import WALKTHROUGH_UNIT, walkthrough_instance, walkthrough_network

net = walkthrough_network()
inst = walkthrough_instance()

# Shared sharing: the group rides the common legs together (counted once).
table = compute_dp(net, inst, SharingMode.SHARED_INTERMEDIATE)
for stage, layer in enumerate(table.cost):
    pretty = {net.pois[p].external_id: cents // WALKTHROUGH_UNIT for p, cents in sorted(layer.items())}
    print(f"category {stage + 1}: {pretty}")

# The destination stage adds every agent's leg home to each reached last PoI
# and keeps the least (total, PoI); plan() reconstructs the chain from it.
best_total, best_last = table.best
print(f"destination stage: best last PoI {net.pois[best_last].external_id}, total {best_total // WALKTHROUGH_UNIT} units")

for sharing in SharingMode:
    journey = plan(net, inst, sharing)
    pois = [net.pois[p].external_id for p in journey.common_pois]
    print(f"{sharing.value:>10}: common {pois}, total {journey.total_cost / WALKTHROUGH_UNIT:g} units")

# Per-person charges every common leg once per agent, so it never beats shared.
per_person = plan(net, inst, SharingMode.PER_PERSON_INTERMEDIATE)
shared = plan(net, inst, SharingMode.SHARED_INTERMEDIATE)
assert shared.total_cost <= per_person.total_cost

"""Metamorphic relations on a gate-open city: the same query posed three
other ways, each solved by other paths through the planner.

``road_network(1, 55)`` passes the landmark gate, so ``plan()`` prunes by
landmark bounds, orders the destination stage by them and aims its
searches at its targets; the small relation tests of ``test_planner.py``
run on random networks, where the gate is shut. Each relation keeps the
optimal total and changes what those paths see:

- relabelling the PoIs by a seeded permutation, rebuilt through
  ``NetworkBuilder``: landmark 0 is PoI 0, so the landmarks, the tightness,
  the bounds and the PoIs the pruning keeps all change;
- reversing the trip, every agent's source and destination swapped and the
  categories reversed: the network is undirected, so every chain costs the
  same backwards, while prefix and suffix bounds, and the source and
  destination stages, trade places;
- scaling every fare by an integer: every cost scales exactly, so the total
  scales and the chosen PoIs, ties included, stay.

A few queries take 100 PoIs per category with the gate forced open
(tightness taken for 1), so that ``plan()`` prices a chain and prunes on
every one of them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from gtpmm import QueryInstance, SharingMode, plan
from gtpmm.network import PRUNE_TIGHTNESS, MultiModalNetwork, NetworkBuilder, _edge_costs
from gtpmm.rng import SplitMix64
from gtpmm.synth import random_instance, road_network

SHARING = list(SharingMode)
FACTOR = 3
# (k, PoIs per category, agents, the gate forced open) per query shape; three queries each, seeded by shape
SHAPES = [(6, 15, 30, False), (4, 15, 10, False), (3, 100, 20, True)]
QUERIES = [(shape, seed) for shape in SHAPES for seed in range(3)]


def relabelled(net: MultiModalNetwork, order: list[int]) -> MultiModalNetwork:
    """``net`` rebuilt with its PoI ``order[i]`` as PoI ``i``."""
    position = {old: new for new, old in enumerate(order)}
    builder = NetworkBuilder()
    for old in order:
        external_id, name, category, coords = net.pois[old]
        builder.add_poi(external_id, name=name, category=category, coords=coords)
    us, vs, modes, distances, times = map(list, zip(*net.edges))
    builder.add_edges([position[u] for u in us], [position[v] for v in vs], modes, distances, times)
    return builder.finalize(net.fare_table)


def gate_open(net: MultiModalNetwork) -> MultiModalNetwork:
    """``net``, its landmark bounds taken for exact (tightness 1), so that
    ``plan()`` prices a chain whenever some PoI's bound exceeds the least."""
    net.__dict__["landmark_tightness"] = 1.0  # the cached view, set ahead of its first use
    return net


@pytest.fixture(scope="module")
def city():
    """The city, it relabelled by a seeded permutation and it with scaled
    fares, each as is and with the gate forced open, by name and whether
    forced; and the permutation's new id of each PoI."""
    net = road_network(1, 55)
    order = list(range(net.poi_count))
    SplitMix64(55).shuffle(order)
    fares = net.fare_table.scaled(FACTOR)
    named = {
        "base": net,
        "relabelled": relabelled(net, order),
        "scaled": replace(net, fare_table=fares, edge_costs=tuple(_edge_costs(net.edges, fares))),
    }
    # replace() makes a copy that derives its own views, and so its own landmark tightness
    networks = {(name, False): one for name, one in named.items()}
    networks.update({(name, True): gate_open(replace(one)) for name, one in named.items()})
    return networks, {old: new for new, old in enumerate(order)}


def test_the_city_and_its_relabelling_pass_the_gate_on_other_landmarks(city):
    networks, _ = city
    net, other = networks["base", False], networks["relabelled", False]
    assert net.landmark_tightness >= PRUNE_TIGHTNESS and other.landmark_tightness >= PRUNE_TIGHTNESS
    assert net.landmark_tightness != other.landmark_tightness


@pytest.mark.parametrize("sharing", SHARING, ids=lambda mode: mode.name)
@pytest.mark.parametrize("shape, seed", QUERIES)
def test_relabelled_pois_reversed_trips_and_scaled_fares_keep_the_optimum(city, sharing, shape, seed):
    networks, position = city
    k, per_category, agents, forced = shape
    net = networks["base", forced]
    inst = random_instance(seed + 100 * k, net, k, per_category, agents)
    optimum = plan(net, inst, sharing)

    moved = QueryInstance(
        [(position[source], position[dest]) for source, dest in inst.agents],
        [[position[poi] for poi in category] for category in inst.categories],
    )
    assert plan(networks["relabelled", forced], moved, sharing).total_cost == optimum.total_cost

    backwards = QueryInstance([(dest, source) for source, dest in inst.agents], inst.categories[::-1])
    assert plan(net, backwards, sharing).total_cost == optimum.total_cost

    scaled = plan(networks["scaled", forced], inst, sharing)
    assert (scaled.common_pois, scaled.total_cost) == (optimum.common_pois, FACTOR * optimum.total_cost)

"""Every rejection of a bad argument that no other test reaches, each with
its exact message."""

from __future__ import annotations

import re
from array import array
from decimal import Decimal

import pytest

from gtpmm import (
    CategoryConfig,
    ConfigurationError,
    ExperimentConfig,
    SharingMode,
    draw_instance,
    group_cost,
    resolve_fares,
)
from gtpmm.bench import run_method
from gtpmm.fixtures import walkthrough_poi
from gtpmm.ingest import FareRange
from gtpmm.network import FarePolicy, FareTable, _compact, median_fare_policy
from gtpmm.rng import SplitMix64
from gtpmm.synth import (
    random_disconnected_network,
    random_instance,
    random_network,
    road_network,
    synthetic_fare_table,
)


def raises(error, message):
    """``pytest.raises`` for exactly ``message``."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


# --- bench ------------------------------------------------------------------------


def test_experiment_config_needs_a_method():
    with raises(ConfigurationError, "at least one method is required"):
        ExperimentConfig(methods=())


def test_experiment_config_names_unknown_methods():
    with raises(ConfigurationError, "unknown methods: ['dijkstra', 'astar']"):
        ExperimentConfig(methods=("ojpa", "dijkstra", "astar"))


@pytest.mark.parametrize("name", ["agent_counts", "category_counts", "pois_per_category"])
@pytest.mark.parametrize("values", [(), (3, 0), (-1,)])
def test_experiment_config_rejects_empty_or_nonpositive_counts(name, values):
    with raises(ConfigurationError, f"{name} must be nonempty positive integers"):
        ExperimentConfig(**{name: values})


@pytest.mark.parametrize("name", ["agent_counts", "category_counts", "pois_per_category"])
@pytest.mark.parametrize("values", [5, "5", range(1, 3), (2.5,), (2, "3"), (True,), [1.0]])
def test_experiment_config_rejects_counts_that_are_not_a_tuple_or_list_of_ints(name, values):
    with raises(ConfigurationError, f"{name} must be nonempty positive integers"):
        ExperimentConfig(**{name: values})


def test_experiment_config_takes_its_counts_as_a_list():
    assert ExperimentConfig(agent_counts=[2, 3]).agent_counts == [2, 3]


@pytest.mark.parametrize("runs", [0, -2])
def test_experiment_config_needs_a_run(runs):
    with raises(ConfigurationError, "runs must be at least 1"):
        ExperimentConfig(runs=runs)


@pytest.mark.parametrize("name, value", [("runs", 2.0), ("runs", True), ("runs", "2"), ("seed", 1.5), ("seed", "1")])
def test_experiment_config_takes_runs_and_seed_only_as_ints(name, value):
    with raises(ConfigurationError, f"{name} must be an integer, got {value!r}"):
        ExperimentConfig(**{name: value})


def test_experiment_config_takes_sharing_only_as_a_sharing_mode():
    with raises(ConfigurationError, "sharing must be a SharingMode, got 'shared'"):
        ExperimentConfig(sharing="shared")


def test_run_method_rejects_an_unknown_method(walkthrough_net, walkthrough_inst):
    with raises(ConfigurationError, "unknown method 'dijkstra'"):
        run_method("dijkstra", walkthrough_net, walkthrough_inst, SharingMode.SHARED_INTERMEDIATE)


def test_draw_instance_names_the_pois_it_lacks(walkthrough_net):
    with raises(ConfigurationError, "network has 10 PoIs but the draw needs 12 (4 groups of 3)"):
        draw_instance(walkthrough_net, 0, 2, 3, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        (("7", 2, 2, 1), "seed must be an integer, got '7'"),
        ((0, 2.0, 2, 1), "k must be an integer, got 2.0"),
        ((0, 2, 2.0, 1), "pois_per_category must be an integer, got 2.0"),
        ((0, 2, 2, 1.0), "n_agents must be an integer, got 1.0"),
        ((0, 2, 2, True), "n_agents must be an integer, got True"),
    ],
)
def test_draw_instance_takes_its_numbers_only_as_ints(walkthrough_net, args, message):
    with raises(ConfigurationError, message):
        draw_instance(walkthrough_net, *args)


# --- ingest and fares -------------------------------------------------------------


def test_a_fare_range_with_an_unknown_strategy_is_rejected_when_resolved():
    span = (Decimal(1), Decimal(2))
    with raises(ConfigurationError, "unknown fare strategy 'cheapest'"):
        resolve_fares([FareRange("bus", span, span, span, strategy="cheapest")])


def test_category_config_rejects_an_unknown_strategy():
    with raises(ConfigurationError, "unknown category strategy 'alphabetical'"):
        CategoryConfig(k=2, strategy="alphabetical")


@pytest.mark.parametrize("k", [2.0, "2", True])
def test_category_config_takes_k_only_as_an_int(k):
    with raises(ConfigurationError, f"category count must be an integer, got {k!r}"):
        CategoryConfig(k=k)


@pytest.mark.parametrize("seed", [1.5, "1"])
def test_category_config_takes_its_seed_only_as_an_int(seed):
    with raises(ConfigurationError, f"seed must be an integer, got {seed!r}"):
        CategoryConfig(k=2, strategy="seeded-random", seed=seed)


@pytest.mark.parametrize("factor", [0, -3])
def test_fare_policy_scales_only_by_a_positive_factor(factor):
    with raises(ConfigurationError, "scale factor must be positive"):
        FarePolicy(50, 1, 1).scaled(factor)


def test_fare_table_names_and_policies_must_align():
    with raises(ConfigurationError, "fare table names and policies must align"):
        FareTable(("bus", "tram"), (FarePolicy(50, 1, 1),))


@pytest.mark.parametrize("mode", [-1, 1])
def test_fare_table_names_no_out_of_range_mode(mode):
    fares = FareTable(("bus",), (FarePolicy(50, 1, 1),))
    with raises(ConfigurationError, f"no fare policy for mode id {mode}"):
        fares.policy(mode)
    with raises(ConfigurationError, f"no fare policy for mode id {mode}"):
        fares.name(mode)


def test_median_fare_policy_of_an_empty_table():
    with raises(ConfigurationError, "cannot take the median of an empty fare table"):
        median_fare_policy(FareTable((), ()))


def test_compact_keeps_a_row_that_does_not_fit_64_bits_as_a_list():
    row = [0, 2**63]
    assert _compact(row) is row
    assert _compact([0, 2**63 - 1]) == array("q", [0, 2**63 - 1])


# --- planner and rng --------------------------------------------------------------


@pytest.mark.parametrize("count", [2, 4])
def test_group_cost_needs_one_poi_per_category(walkthrough_net, walkthrough_inst, count):
    common = (walkthrough_poi("v3"), walkthrough_poi("v5"), walkthrough_poi("v7"), walkthrough_poi("v8"))[:count]
    with raises(ConfigurationError, f"expected 3 common PoIs, got {count}"):
        group_cost(walkthrough_net, walkthrough_inst, common)


def test_sample_larger_than_its_population():
    rng = SplitMix64(7)
    with raises(ValueError, "sample larger than population"):
        rng.sample([1, 2, 3], 4)


# --- synth ------------------------------------------------------------------------


@pytest.mark.parametrize("build", [lambda: random_network(0, 0), lambda: road_network(0, 0)], ids=["random", "road"])
def test_synthetic_networks_need_a_poi(build):
    with raises(ConfigurationError, "need at least one PoI"):
        build()


def test_random_network_needs_the_modes_it_is_asked_for():
    with raises(ConfigurationError, "fare table has fewer modes than requested"):
        random_network(0, 5, n_modes=3, fare_table=synthetic_fare_table(0, 2))


@pytest.mark.parametrize("components, size", [(0, 4), (2, 0)])
def test_random_disconnected_network_needs_positive_sizes(components, size):
    with raises(ConfigurationError, "components and sizes must be positive"):
        random_disconnected_network(0, components, size)


def test_random_instance_names_the_pois_it_lacks(walkthrough_net):
    with raises(ConfigurationError, "need 12 PoIs for 4 categories of 3, have 10"):
        random_instance(0, walkthrough_net, 4, 3, 1)

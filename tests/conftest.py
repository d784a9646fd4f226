"""Shared fixtures: the walkthrough network, seeded random suites, and a
record of the searches the package runs."""

from __future__ import annotations

import sys
from typing import NamedTuple

import pytest

from gtpmm import SharingMode, fixtures
from gtpmm.rng import SplitMix64, fold
from gtpmm.synth import random_instance, random_network

BOTH_SHARINGS = (SharingMode.PER_PERSON_INTERMEDIATE, SharingMode.SHARED_INTERMEDIATE)


@pytest.fixture(scope="session")
def walkthrough_net():
    return fixtures.walkthrough_network()


@pytest.fixture(scope="session")
def walkthrough_inst():
    return fixtures.walkthrough_instance()


def build_random_case(seed: int):
    """One bounded random (network, instance) pair for oracle comparisons.

    Bounds: <= 40 PoIs, <= 3 modes, k <= 4, <= 5 PoIs per category,
    <= 4 agents.
    """
    rng = SplitMix64(fold(seed, "case"))
    n = 20 + rng.below(21)
    g = 1 + rng.below(3)
    k = 1 + rng.below(4)
    per_cat = 1 + rng.below(5)
    agents = 1 + rng.below(4)
    net = random_network(seed, n, g)
    inst = random_instance(seed, net, k, per_cat, agents)
    return net, inst


@pytest.fixture(scope="session")
def oracle_suite():
    """The 200 seeded random cases shared by equivalence and dominance tests."""
    return [build_random_case(seed) for seed in range(200)]


@pytest.fixture(scope="session")
def trend_net():
    """A 200-PoI connected synthetic network for sweep-level checks."""
    return random_network(seed=2024, n_pois=200, n_modes=4, extra_edges=160)


class Search(NamedTuple):
    """One search the package ran. ``kind`` is ``"path"`` for a
    point-to-point ``shortest_path``, ``"tree"`` for a single-source
    ``shortest_paths`` and ``"layer"`` for a multi-source ``layer_costs``,
    whose ``origin`` is its starts."""

    kind: str
    origin: object
    targets: tuple[int, ...]
    weight: int | None = None


@pytest.fixture
def searches(monkeypatch):
    """The searches the package runs during the test, in call order, as
    :class:`Search` records; a test may append markers of its own.

    ``shortest_path``, ``shortest_paths`` and ``layer_costs`` are patched in
    every loaded ``gtpmm`` module that binds them, as modules import them
    by name. A search run inside another, such as the tree search of a
    point-to-point one, is not recorded again."""
    # every module that binds a search is loaded before the patching
    import gtpmm.baselines
    import gtpmm.bench
    import gtpmm.network

    records: list = []
    inside = [False]
    originals = {name: getattr(gtpmm.network, name) for name in ("shortest_path", "shortest_paths", "layer_costs")}

    def record(search: Search, run):
        if inside[0]:
            return run()
        records.append(search)
        inside[0] = True
        try:
            return run()
        finally:
            inside[0] = False

    def shortest_path(net, source, target):
        return record(Search("path", source, (target,)), lambda: originals["shortest_path"](net, source, target))

    def shortest_paths(net, source, targets):
        targets = tuple(targets)
        return record(Search("tree", source, targets), lambda: originals["shortest_paths"](net, source, targets))

    def layer_costs(net, starts, weight, targets):
        targets = tuple(targets)
        search = Search("layer", dict(starts), targets, weight)
        return record(search, lambda: originals["layer_costs"](net, starts, weight, targets))

    wrappers = {"shortest_path": shortest_path, "shortest_paths": shortest_paths, "layer_costs": layer_costs}
    for module_name, module in sorted(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "gtpmm":
            continue
        for name, wrapper in wrappers.items():
            if getattr(module, name, None) is originals[name]:
                monkeypatch.setattr(module, name, wrapper)
    return records

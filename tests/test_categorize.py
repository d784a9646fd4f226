"""``categorize`` against the per-PoI loop it replaced.

The reference below assigns categories through a dict, fills the sets from
its sorted items and copies each PoI by ``_replace``; ``categorize`` must
return equal networks and sets, with every PoI a :class:`Poi`, and raise
the same ``ConfigurationError`` text, under every strategy.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpmm import CategoryConfig, ConfigurationError, categorize, load_edge_list, load_fare_config, load_gtfs
from gtpmm.fixtures import default_fare_ranges, gtfs_minimal_dir, walkthrough_fare_table
from gtpmm.ingest import resolve_fares
from gtpmm.network import NetworkBuilder, Poi, connect_components
from gtpmm.rng import SplitMix64

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def reference_categorize(net, cfg):
    """Verbatim copy of the loop ``categorize`` ran before it computed one
    category per PoI, with ``poi._replace`` in place of ``dataclasses.replace``."""
    if cfg.k > net.poi_count:
        raise ConfigurationError(f"cannot split {net.poi_count} PoIs into {cfg.k} categories")

    assignment: dict[int, int] = {}
    if cfg.strategy == "round-robin":
        for poi_id in range(net.poi_count):
            assignment[poi_id] = poi_id % cfg.k
    elif cfg.strategy == "seeded-random":
        rng = SplitMix64(cfg.seed)
        for poi_id in range(net.poi_count):
            assignment[poi_id] = rng.below(cfg.k)
    else:
        lowered = [(keyword.lower(), category) for keyword, category in cfg.keywords.items()]
        for poi_id, poi in enumerate(net.pois):
            name = poi.name.lower()
            for keyword, category in lowered:
                if keyword in name:
                    assignment[poi_id] = category
                    break

    sets: list[list[int]] = [[] for _ in range(cfg.k)]
    for poi_id, category in sorted(assignment.items()):
        sets[category].append(poi_id)
    for index, ids_in_set in enumerate(sets):
        if not ids_in_set:
            raise ConfigurationError(f"category {index} is empty after assignment")

    relabeled = replace(net, pois=tuple(poi._replace(category=assignment.get(i)) for i, poi in enumerate(net.pois)))
    return relabeled, [tuple(ids_in_set) for ids_in_set in sets]


def outcome(function, net, cfg):
    """``function(net, cfg)``, or the text of the ConfigurationError it raised."""
    try:
        return function(net, cfg)
    except ConfigurationError as error:
        return f"ConfigurationError: {error}"


def assert_categorize_matches_the_reference(net, cfg):
    result = outcome(categorize, net, cfg)
    assert result == outcome(reference_categorize, net, cfg)
    if not isinstance(result, str):
        relabeled, sets = result
        assert {type(poi) for poi in relabeled.pois} <= {Poi}
        assert type(sets) is list and {type(members) for members in sets} == {tuple}
        assert relabeled.edges is net.edges and relabeled.edge_costs is net.edge_costs
    return result


def configs(keywords: dict[str, int], k: int):
    """Round robin at k 1, ``k`` and 8, seeded random over five seeds,
    keywords at ``k``."""
    yield from (CategoryConfig(k=count) for count in (1, k, 8))
    yield from (CategoryConfig(k=k, strategy="seeded-random", seed=seed) for seed in range(5))
    yield CategoryConfig(k=k, strategy="by-name-keyword", keywords=keywords)


@pytest.fixture(scope="module")
def perfbench_edge_list_network(tmp_path_factory):
    """The repaired network of perfbench's ingest edge list (seed 0): 5,000 PoIs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    files = inputs.write_ingest_files(0, tmp_path_factory.mktemp("ingest"))
    return connect_components(load_edge_list(files.edge_list, resolve_fares(load_fare_config(files.fares))))[0]


def test_categorize_matches_the_reference_on_the_perfbench_edge_list(perfbench_edge_list_network):
    net = perfbench_edge_list_network
    assert net.poi_count == 5000
    # names are external ids "s0" and five digits: overlapping keywords, and PoIs that match none
    keywords = {"77": 3, "s00": 0, "S01": 1, "7": 2, "s03": 4}
    for cfg in configs(keywords, 5):
        assert_categorize_matches_the_reference(net, cfg)
    relabeled, sets = assert_categorize_matches_the_reference(net, CategoryConfig(5, "by-name-keyword", 0, keywords))
    assert any(poi.category is None for poi in relabeled.pois)
    assert sum(map(len, sets)) < net.poi_count
    shadowed = {"7": 2, "77": 3, "s00": 0, "S01": 1, "s03": 4}  # "77" never comes first
    message = outcome(categorize, net, CategoryConfig(5, "by-name-keyword", 0, shadowed))
    assert message == assert_categorize_matches_the_reference(net, CategoryConfig(5, "by-name-keyword", 0, shadowed))
    assert message == "ConfigurationError: category 3 is empty after assignment"
    for k in (net.poi_count, net.poi_count + 1, 2 * net.poi_count):
        assert_categorize_matches_the_reference(net, CategoryConfig(k=k))
    message = outcome(categorize, net, CategoryConfig(k=5001))
    assert message == "ConfigurationError: cannot split 5000 PoIs into 5001 categories"
    relabeled, _ = categorize(net, CategoryConfig(k=8))
    for cfg in configs(keywords, 5):  # PoIs that already have categories
        assert_categorize_matches_the_reference(relabeled, cfg)


def test_categorize_matches_the_reference_on_the_gtfs_fixture():
    net = load_gtfs(gtfs_minimal_dir(), resolve_fares(default_fare_ranges(), "low"))
    # Central Station, Market Square, Lakeside Park: "park" takes Lakeside before "a" does
    keywords = {"PARK": 1, "a": 0, "station": 1}
    for cfg in configs(keywords, 2):
        assert_categorize_matches_the_reference(net, cfg)
    relabeled, sets = categorize(net, CategoryConfig(k=2, strategy="by-name-keyword", keywords=keywords))
    assert sets == [(0, 1), (2,)]
    assert [poi.category for poi in relabeled.pois] == [0, 0, 1]
    assert [poi.coords for poi in relabeled.pois] == [poi.coords for poi in net.pois]
    for cfg in (CategoryConfig(k=4), CategoryConfig(k=2, strategy="by-name-keyword", keywords={"station": 0})):
        assert_categorize_matches_the_reference(net, cfg)
    assert outcome(categorize, net, CategoryConfig(k=4)) == "ConfigurationError: cannot split 3 PoIs into 4 categories"
    message = outcome(categorize, net, CategoryConfig(k=2, strategy="by-name-keyword", keywords={"station": 0}))
    assert message == "ConfigurationError: category 1 is empty after assignment"


WORDS = ("Park", "park", "Hotel", "hotel", "Museum", "Ä", "ä", "")


@st.composite
def networks(draw):
    """1-12 PoIs of names made of :data:`WORDS`, some with categories and
    coordinates, and a few edges."""
    builder = NetworkBuilder()
    count = draw(st.integers(1, 12))
    for poi_id in range(count):
        name = " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=3)))
        category = draw(st.none() | st.integers(0, 5))
        coords = draw(st.none() | st.tuples(st.floats(-90, 90), st.floats(-180, 180)))
        builder.add_poi(f"p{poi_id}", name=name, category=category, coords=coords)
    for u, v in draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)), max_size=8)):
        if u != v:
            builder.add_edge(u, v, 0, 10.0, 1.0)
    return builder.finalize(walkthrough_fare_table())


@st.composite
def category_configs(draw):
    k = draw(st.integers(1, 14))
    strategy = draw(st.sampled_from(("round-robin", "seeded-random", "by-name-keyword")))
    words = st.sampled_from(("park", "HOTEL", "Hot", "museum", "ä", "e", "zoo"))
    keywords = draw(st.dictionaries(words, st.integers(0, k - 1), max_size=5))
    return CategoryConfig(k=k, strategy=strategy, seed=draw(st.integers(0, 2**64 - 1)), keywords=keywords)


@settings(max_examples=300, deadline=None)
@given(net=networks(), cfg=category_configs())
def test_categorize_matches_the_reference_on_drawn_networks(net, cfg):
    assert_categorize_matches_the_reference(net, cfg)

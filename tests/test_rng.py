"""Portability and reproducibility of the seeded generator."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtpmm.rng import SplitMix64, fold


def _reference_next(state: int) -> tuple[int, int]:
    # Inline restatement of the documented update, kept separate from the
    # class implementation on purpose.
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


def test_matches_documented_update_rule():
    rng = SplitMix64(42)
    state = 42
    for _ in range(100):
        state, expected = _reference_next(state)
        assert rng.next_u64() == expected


def test_first_outputs_are_frozen():
    # Guards against accidental constant or masking changes.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_streams_are_reproducible():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=10**6))
def test_below_stays_in_range(seed, bound):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.below(bound) < bound


def test_uniform_stays_in_unit_interval():
    rng = SplitMix64(7)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= value < 1.0 for value in values)
    assert len(set(values)) > 990


def test_shuffle_is_a_permutation():
    rng = SplitMix64(3)
    items = list(range(30))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_fold_separates_namespaces():
    assert fold(1, "agents") != fold(1, "pools")
    assert fold(1, 2, 3) != fold(1, 3, 2)
    assert fold(5, "agents") == fold(5, "agents")


def reference_shuffle(rng, seq):
    """Verbatim copy of the shuffle that drew each index with ``below``."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.below(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 11, 12, 3025, 5041])  # 11 steps, 12 lanes: either side of the cutoff
@pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1, 987654321])
def test_shuffle_equals_the_below_loop_it_inlines(n, seed):
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    for _ in range(2):  # a second shuffle starts from the state the first left
        rng.shuffle(items)
        reference_shuffle(reference, expected)
        assert items == expected
        assert rng._state == reference._state
        assert rng.next_u64() == reference.next_u64()


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    sizes=st.lists(st.integers(min_value=1, max_value=7), max_size=30),
)
def test_choose_each_equals_the_below_calls_it_inlines(seed, sizes):
    choices = [tuple(range(10 * size, 11 * size)) for size in sizes]
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    for _ in range(2):  # a second batch starts from the state the first left
        assert rng.choose_each(choices) == [c[reference.below(len(c))] for c in choices]
        assert rng._state == reference._state
    assert rng.next_u64() == reference.next_u64()


def test_choose_each_rejects_an_empty_choice_as_below_does():
    rng, reference = SplitMix64(5), SplitMix64(5)
    with pytest.raises(ValueError, match="bound must be positive"):
        rng.choose_each([(1, 2), (3,), (), (4, 5)])
    reference.below(2), reference.below(1)
    with pytest.raises(ValueError, match="bound must be positive"):
        reference.below(0)
    assert rng._state == reference._state


def test_sample_rejects_a_negative_size_as_random_sample_does():
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="must not be negative"):
        rng.sample(range(5), -1)
    assert rng._state == 5  # nothing drawn
    assert sorted(rng.sample(range(5), 5)) == [0, 1, 2, 3, 4]
    assert rng.sample(range(5), 0) == []

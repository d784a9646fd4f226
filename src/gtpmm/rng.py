"""Deterministic, portable 64-bit random number generation.

Every seeded draw in this package goes through :class:`SplitMix64` so that
results are bit-reproducible across platforms and Python versions. The
generator advances its state by the 64-bit constant ``0x9E3779B97F4A7C15``
per step and finalizes each output with the xor-shift/multiply mix
``(>>30, *0xBF58476D1CE4E5B9)``, ``(>>27, *0x94D049BB133111EB)``, ``(>>31)``,
all modulo 2**64. Bounded draws reduce the raw output modulo ``n`` (the
modulo bias is irrelevant at the ranges used here and keeps the stream
trivially portable).
"""

from __future__ import annotations

from collections.abc import MutableSequence, Sequence
from typing import TypeVar

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

T = TypeVar("T")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def shuffle(self, seq: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle, drawing ``below(i + 1)`` for each
        ``i`` from the last position down; the draws are inlined, as a
        shuffle of a few thousand items makes one per item."""
        state, mask, gamma, mix1, mix2 = self._state, _MASK64, _GAMMA, _MIX1, _MIX2
        for i in range(len(seq) - 1, 0, -1):
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            j = (z ^ (z >> 31)) % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        self._state = state

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Draw k distinct elements, order randomized."""
        if k > len(seq):
            raise ValueError("sample larger than population")
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]


def fold(seed: int, *parts: int | str) -> int:
    """Derive a sub-seed by folding parts into the SplitMix64 scrambler.

    Strings are folded via their UTF-8 bytes, so short tags such as
    ``"agents"`` can namespace otherwise-identical integer tuples.
    """
    state = seed & _MASK64
    for part in parts:
        value = int.from_bytes(part.encode(), "little") if isinstance(part, str) else part
        state = _mix((state + _GAMMA + (value & _MASK64)) & _MASK64)
    return state

"""Deterministic, portable 64-bit random number generation.

Every seeded draw in this package goes through :class:`SplitMix64` so that
results are bit-reproducible across platforms and Python versions. The
generator advances its state by the 64-bit constant ``0x9E3779B97F4A7C15``
per step and finalizes each output with the xor-shift/multiply mix
``(>>30, *0xBF58476D1CE4E5B9)``, ``(>>27, *0x94D049BB133111EB)``, ``(>>31)``,
all modulo 2**64. Bounded draws reduce the raw output modulo ``n`` (the
modulo bias is irrelevant at the ranges used here and keeps the stream
trivially portable).

Output ``t`` of a stream depends only on its state and ``t`` (the state
after ``t`` steps is ``state + t * gamma``), so :meth:`SplitMix64.shuffle`
of 12 items or more mixes all its outputs at once, one per 128-bit lane of
a single int (SWAR).
The lanes are masked to their low 64 bits after every xor-shift, whose
right shift pulls the next lane's low bits into a lane's top half, and
after every multiply, whose high bits the next shift would pull down; so
each multiply is of values below 2**64, and no product passes 128 bits.
The lanes go to and from the int as explicit little-endian bytes, and the
``array("Q")`` words in between are byteswapped on a big-endian host, so
the int, the outputs and the stream are the same on every platform.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, MutableSequence, Sequence
from operator import mod
from typing import TypeVar

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANE_ONE = b"\x01" + bytes(15)  # a 128-bit lane holding 1, little-endian
_BIG_ENDIAN = sys.byteorder == "big"

T = TypeVar("T")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _from_words(words: array) -> int:
    """The int whose 64-bit words, least significant first, are ``words``."""
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _to_words(z: int, count: int) -> array:
    """The ``2 * count`` 64-bit words of ``z``, least significant first."""
    words = array("Q", z.to_bytes(16 * count, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


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
        ``i`` from the last position down, to the same state.

        From 12 items on, the ``n - 1`` raw outputs are mixed at once,
        output ``t`` in lane ``t - 1`` of one int (see the module
        docstring), as a shuffle of a few thousand items makes one draw per
        item. Shorter sequences draw step by step: below about 12 items the
        lanes' fixed cost (packing, unpacking, a dozen big-int operations)
        outweighs the per-step draws it saves (about 6 µs either way at
        10-11 items on a 2-vCPU host, 5.1 against 4.6 µs at 8).
        """
        n = len(seq)
        if n < 12:
            for i in range(n - 1, 0, -1):
                j = self.below(i + 1)
                seq[i], seq[j] = seq[j], seq[i]
            return
        count = n - 1
        ones = int.from_bytes(_LANE_ONE * count, "little")
        mask = ones * _MASK64  # the low 64 bits of every lane
        steps = array("Q", bytes(16 * count))
        steps[::2] = array("Q", range(1, count + 1))
        z = (ones * self._state + _from_words(steps) * _GAMMA) & mask  # lane t - 1: the state after step t
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        outputs = _to_words(z ^ (z >> 31), count)[::2]
        for i, j in zip(range(n - 1, 0, -1), map(mod, outputs, range(n, 1, -1))):
            seq[i], seq[j] = seq[j], seq[i]
        self._state = (self._state + count * _GAMMA) & _MASK64

    def choose_each(self, choices: Iterable[Sequence[T]]) -> list[T]:
        """One uniform element of each sequence of ``choices``, in order:
        ``[c[self.below(len(c))] for c in choices]``, to the same state and
        the same :class:`ValueError` at an empty sequence; the draws are
        inlined."""
        state, mask, gamma, mix1, mix2 = self._state, _MASK64, _GAMMA, _MIX1, _MIX2
        chosen = []
        for c in choices:
            if not c:
                self._state = state
                raise ValueError("bound must be positive")
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            chosen.append(c[(z ^ (z >> 31)) % len(c)])
        self._state = state
        return chosen

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Draw k distinct elements, order randomized."""
        if k < 0:
            raise ValueError("sample size must not be negative")
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

"""Seeded deterministic pseudo-random generator used by all generators.

The generator is a 64-bit linear congruential generator so that instances
reproduce bit-for-bit across implementations and platforms:

    state_{i+1} = (6364136223846793005 * state_i + 1442695040888963407) mod 2^64

A draw advances the state once and returns the top 31 bits
(``state >> 33``).  ``below(n)`` reduces a draw modulo ``n``.  Shuffling is
a backward Fisher-Yates using ``below``.  The initial state is the seed
reduced mod 2^64.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407


class Lcg64:
    """Deterministic RNG; the exact update rule is part of the file formats."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next31(self) -> int:
        self.state = (self.state * _MUL + _INC) & _MASK64
        return self.state >> 33

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next31() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

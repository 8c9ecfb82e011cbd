"""Deterministic 64-bit linear congruential generator.

Used for every piece of randomness in the package so that corpora are
reproducible from a seed alone, independent of interpreter or platform.
State update: s <- (6364136223846793005 * s + 1442695040888963407) mod 2^64
(Knuth's MMIX constants); outputs take the high 48 bits, which are the
strong bits of an LCG.  The residual modulo bias of `below` is irrelevant
at the tiny ranges used here.
"""

from __future__ import annotations

from .matrices import _exact_int

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed: int):
        self._state = (_exact_int(seed) ^ 0x9E3779B97F4A7C15) & _MASK
        # decouple the first output from low-entropy seeds
        self._step()
        self._step()

    def _step(self) -> int:
        self._state = (_MULT * self._state + _INC) & _MASK
        return self._state

    def next_bits(self) -> int:
        """48 pseudo-random bits."""
        return self._step() >> 16

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_bits() % n

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

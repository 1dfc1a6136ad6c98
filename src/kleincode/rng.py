"""Deterministic 64-bit random generator (SplitMix64).

Every sampled check in the package draws from this generator so that runs
are reproducible from a single seed, bit-identically across platforms and
numpy versions.  State is a single uint64; each draw advances the state by
the golden-ratio increment and applies the SplitMix64 output mix.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top multiple."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def fill_u64(self, count: int) -> np.ndarray:
        """Vectorized block of the next `count` draws (same stream)."""
        start = self.state
        idx = np.arange(1, count + 1, dtype=np.uint64)
        z = start + idx * np.uint64(_GAMMA)
        self.state = int(z[-1]) if count else self.state
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return z

    def fill_below(self, n: int, shape) -> np.ndarray:
        """Array of uniform draws in [0, n); n must be a power of two here."""
        assert n & (n - 1) == 0, "fill_below wants a power of two"
        total = int(np.prod(shape)) if shape else 1
        vals = self.fill_u64(total) & np.uint64(n - 1)
        return vals.reshape(shape).astype(np.uint8 if n <= 256 else np.uint64)

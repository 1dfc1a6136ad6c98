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

# fill_below makes the stream in runs of _RUN draws: state + i * gamma for
# i = 1.._RUN, all mod 2^64 (uint64 arithmetic wraps).
_RUN = 1 << 13
_STEPS = np.arange(1, _RUN + 1, dtype=np.uint64) * np.uint64(_GAMMA)


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

    def fill_below(self, n: int, shape) -> np.ndarray:
        """Array of uniform draws in [0, n) of the given shape, in C order;
        n must be a power of two, so a draw is the next output masked.

        The values and the final state equal those of as many below(n)
        calls.  The stream is made _RUN draws at a time in two reused
        uint64 buffers and each run is masked straight into the result
        (uint8 for n <= 256, else uint64), so no temporary grows with the
        shape.
        """
        if n < 1 or n & (n - 1):
            raise ValueError(f"fill_below wants a power of two, not {n}")
        out = np.empty(shape, dtype=np.uint8 if n <= 256 else np.uint64)
        flat = out.reshape(-1)
        run = min(_RUN, flat.size)
        z, t = np.empty(run, dtype=np.uint64), np.empty(run, dtype=np.uint64)
        mask = np.uint64(n - 1)
        for s in range(0, flat.size, _RUN):
            e = min(s + _RUN, flat.size)
            zr, tr = z[:e - s], t[:e - s]
            np.add(_STEPS[:e - s], np.uint64(self.state), out=zr)
            self.state = (self.state + (e - s) * _GAMMA) & _MASK
            # _mix, in place
            zr ^= np.right_shift(zr, 30, out=tr)
            zr *= np.uint64(_MIX1)
            zr ^= np.right_shift(zr, 27, out=tr)
            zr *= np.uint64(_MIX2)
            zr ^= np.right_shift(zr, 31, out=tr)
            np.bitwise_and(zr, mask, out=flat[s:e], casting="unsafe")
        return out

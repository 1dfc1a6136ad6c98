"""Deterministic 64-bit random generator (SplitMix64).

Every sampled check in the package draws from this generator so that runs
are reproducible from a single seed, bit-identically across platforms and
numpy versions.  State is a single uint64; each output advances the state
by the golden-ratio increment and applies the SplitMix64 output mix.

next_u64 and below take whole outputs.  fill_below draws bytes only: its
bound n is a power of two up to 256, and it takes eight draws from each
output, its bytes read as a little-endian uint64 (least significant byte
first), each masked to n - 1.  The generator remembers how many bytes of
its last output fill_below used, so the next call carries on with the
unused bytes, and blocks of any size join up into the stream of one call.
next_u64 and below always start at the next whole output.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF

# fill_below makes the stream in runs of _RUN outputs: state + i * gamma
# for i = 1.._RUN, all mod 2^64 (uint64 arithmetic wraps).
_RUN = 1 << 13
_STEPS = np.arange(1, _RUN + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    # used: bytes of the output _mix(state) that fill_below has taken (0..7)
    __slots__ = ("state", "used")

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self.used = 0

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        self.used = 0
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top multiple;
        n must be in 1..2^64."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"below wants a bound in 1..2^64, not {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def fill_below(self, n: int, shape) -> np.ndarray:
        """uint8 array of uniform draws in [0, n) of the given shape, in C
        order; n must be a power of two up to 256, so a draw is masked to
        n - 1.

        A draw is one byte of an output, eight per output, least
        significant byte first ("<u8"), and a partly used output is carried
        over to the next call: its unused bytes are recomputed from
        _mix(state).  The stream is made _RUN outputs at a time in two
        reused uint64 buffers and each run is masked straight into the
        result, so no temporary grows with the shape.
        """
        if n < 1 or n & (n - 1):
            raise ValueError(f"fill_below wants a power of two, not {n}")
        if n > 256:
            raise ValueError(f"fill_below draws bytes: a bound up to 256, not {n}")
        out = np.empty(shape, dtype=np.uint8)
        flat = out.reshape(-1)
        if not flat.size:
            return out
        # stream position p is byte p % 8 of output p // 8, counted from the
        # partly used output (at state) if there is one
        skip = self.used
        base = (self.state - _GAMMA) & _MASK if skip else self.state
        total = skip + flat.size
        outputs = -(-total // 8)
        run = min(_RUN, outputs)
        z, t = np.empty(run, dtype=np.uint64), np.empty(run, dtype=np.uint64)
        mask = np.uint8(n - 1)
        for s in range(0, outputs, _RUN):
            e = min(s + _RUN, outputs)
            zr, tr = z[:e - s], t[:e - s]
            np.add(_STEPS[:e - s], np.uint64((base + s * _GAMMA) & _MASK), out=zr)
            # _mix, in place
            zr ^= np.right_shift(zr, 30, out=tr)
            zr *= np.uint64(_MIX1)
            zr ^= np.right_shift(zr, 27, out=tr)
            zr *= np.uint64(_MIX2)
            zr ^= np.right_shift(zr, 31, out=tr)
            draws = zr.astype("<u8", copy=False).view(np.uint8)
            lo, hi = max(s * 8, skip), min(e * 8, total)
            np.bitwise_and(draws[lo - s * 8:hi - s * 8], mask, out=flat[lo - skip:hi - skip])
        self.state = (base + outputs * _GAMMA) & _MASK
        self.used = total % 8
        return out

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kleincode import rng
from kleincode.rng import SplitMix64

# the first outputs of SplitMix64 from seed 0, as published with the
# reference implementation
SEED_ZERO_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
RUN = rng._RUN


def test_seed_zero_matches_published_outputs():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == SEED_ZERO_OUTPUTS
    # n = 2^64 masks nothing, so the vectorised mix is checked on its own
    assert SplitMix64(0).fill_below(1 << 64, (3,)).tolist() == SEED_ZERO_OUTPUTS


@pytest.mark.parametrize("n", [2, 8, 256])
@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (1,), (RUN - 1,), (RUN,), (RUN + 1,),
                                   (3 * RUN + 5,), (5, 21), (RUN // 7 + 3, 7)])
def test_fill_below_equals_scalar_loop(n, shape):
    g, ref = SplitMix64(0xC0FFEE ^ n), SplitMix64(0xC0FFEE ^ n)
    got = g.fill_below(n, shape)
    want = [ref.below(n) for _ in range(int(np.prod(shape)))]
    assert got.shape == shape and got.dtype == np.uint8
    assert got.ravel().tolist() == want
    assert g.state == ref.state


def test_fill_below_peak_memory_is_its_output_and_a_run():
    g = SplitMix64(1)
    tracemalloc.start()
    try:
        out = g.fill_below(8, (100_000, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 1_000_000


@pytest.mark.parametrize("n", [0, 3, 6, 1000])
def test_fill_below_refuses_a_bound_not_a_power_of_two(n):
    g = SplitMix64(1)
    with pytest.raises(ValueError, match="power of two"):
        g.fill_below(n, (4,))
    assert g.state == 1  # refused before any draw


def test_fill_below_refuses_under_optimisation():
    # python -O strips assert statements; the refusal must not be one
    src = Path(rng.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-O", "-c",
         "from kleincode.rng import SplitMix64; SplitMix64(0).fill_below(6, 1000)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == "ValueError: fill_below wants a power of two, not 6"

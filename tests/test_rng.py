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


def _scalar_bytes(ref, n, count):
    """count draws below n <= 256: the bytes of successive next_u64()
    outputs, least significant first, each masked to n - 1."""
    draws = []
    while len(draws) < count:
        draws += [b & (n - 1) for b in ref.next_u64().to_bytes(8, "little")]
    return draws[:count]


def test_fill_below_reads_the_bytes_of_the_published_outputs():
    want = [b for v in SEED_ZERO_OUTPUTS for b in v.to_bytes(8, "little")]
    assert SplitMix64(0).fill_below(256, (24,)).tolist() == want


@pytest.mark.parametrize("n", [2, 8, 256])
@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (1,), (RUN - 1,), (RUN,), (RUN + 1,),
                                   (3 * RUN + 5,), (5, 21), (RUN // 7 + 3, 7),
                                   (8 * RUN - 1,), (8 * RUN + 1,), (3 * 8 * RUN + 5,)])
def test_fill_below_equals_scalar_loop(n, shape):
    g, ref = SplitMix64(0xC0FFEE ^ n), SplitMix64(0xC0FFEE ^ n)
    got = g.fill_below(n, shape)
    want = _scalar_bytes(ref, n, int(np.prod(shape)))
    assert got.shape == shape and got.dtype == np.uint8
    assert got.ravel().tolist() == want
    assert g.state == ref.state


@pytest.mark.parametrize("block", [1, 7, 8, 9, 13, 8 * RUN - 1, 8 * RUN + 1])
def test_fill_below_blocks_join_up_to_one_call(block):
    whole, parts = SplitMix64(0xB10C), SplitMix64(0xB10C)
    count = 3 * block + 5
    want = whole.fill_below(8, (count,))
    got = [parts.fill_below(8, (min(block, count - s),)) for s in range(0, count, block)]
    assert np.concatenate(got).tolist() == want.tolist()
    assert (parts.state, parts.used) == (whole.state, whole.used)


@pytest.mark.parametrize("count", [1, 7, 8, 9, 8 * RUN + 3])
def test_fill_below_mixes_once_per_eight_draws(count):
    seed = 0xFEED
    g = SplitMix64(seed)
    g.fill_below(8, (count,))
    assert g.state == (seed + -(-count // 8) * rng._GAMMA) % 2 ** 64


def test_whole_outputs_start_after_a_partly_used_one():
    g, ref = SplitMix64(0x51), SplitMix64(0x51)
    g.fill_below(8, (11,))  # all of one output and 3 bytes of the next
    ref.next_u64(), ref.next_u64()
    assert g.next_u64() == ref.next_u64()
    g.fill_below(8, (3,))
    ref.next_u64()
    assert g.below(1000) == ref.below(1000)
    g.fill_below(2, (1,))
    ref.next_u64()
    assert [g.next_u64(), g.next_u64()] == [ref.next_u64(), ref.next_u64()]
    assert g.state == ref.state


@pytest.mark.parametrize("n", [0, -5, 2 ** 64 + 1])
def test_below_refuses_a_bound_outside_1_to_2_64(n):
    g = SplitMix64(1)
    with pytest.raises(ValueError, match="1..2\\^64"):
        g.below(n)
    assert g.state == 1  # refused before any draw


def test_below_takes_the_full_range():
    assert SplitMix64(0).below(2 ** 64) == SEED_ZERO_OUTPUTS[0]
    assert SplitMix64(0).below(1) == 0


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


@pytest.mark.parametrize("n", [512, 1 << 64])
def test_fill_below_refuses_a_bound_above_a_byte(n):
    g = SplitMix64(1)
    with pytest.raises(ValueError, match="up to 256"):
        g.fill_below(n, (4,))
    assert (g.state, g.used) == (1, 0)  # refused before any draw


def test_fill_below_refuses_under_optimisation():
    # python -O strips assert statements; the refusal must not be one
    src = Path(rng.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-O", "-c",
         "from kleincode.rng import SplitMix64; SplitMix64(0).fill_below(6, 1000)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == "ValueError: fill_below wants a power of two, not 6"

"""HashStream: the SHAKE-256 byte stream both parties expand from shared seeds."""

import hashlib

import numpy as np
import pytest

from qkdsim.seeds import HashStream, derive_seed

from conftest import reference_below

KA_SEED = derive_seed(bytes(32), "hashstream-known-answer")

# Known answers recorded from the SHAKE-256 definition; they pin
# the cross-party byte contract in README.md. NEXT_8_HEX is the draw after
# the 9 that BELOW_BOUNDS use: none of them is skipped, so SKIP_BOUNDS,
# near 2^63 + 1 where about half of all u64 draws are skipped, pins the
# skip rule: its 8 values take 21 draws.
FIRST_64_HEX = (
    "87242773791c331fa336215cf1e2c4a13b81c384cd30b9b5b85ea6ee212ac5b4"
    "3014e52a6997c62f25a3528f3bde24855049940c6a8e8b80c2a783949adcd7cf"
)
BELOW_BOUNDS = [1, 2, 3, 10, 1000, 2**32 + 1, 2**63 + 1, 2**64 - 1, 7]
BELOW_VALUES = [
    0, 1, 0, 4, 535, 372953590, 5785317977382357888, 14026324238745262031, 4,
]
NEXT_8_HEX = "c5ccbe1e20cd8acd"
SKIP_BOUNDS = [2**63 + 1 + k for k in range(8)]
SKIP_VALUES = [
    4287923295379044789, 3464645983677695535, 2712102175745385605, 5785317977382357888,
    5648202250119877086, 8967541776159192070, 6141900435412125010, 4722515341571062434,
]
SKIP_USED = 21


def test_blocks_known_answer():
    assert HashStream(KA_SEED).read(0, 64).hex() == FIRST_64_HEX


def test_stream_is_shake_256_of_the_seed():
    seed = derive_seed(KA_SEED, "counter")
    assert HashStream(seed).read(0, 301 * 32) == hashlib.shake_256(seed).digest(301 * 32)


def test_read_from_inside_the_stream_is_that_slice():
    seed = derive_seed(KA_SEED, "mid-block")
    stop = 3 + 300 * 32
    assert HashStream(seed).read(3, stop) == hashlib.shake_256(seed).digest(stop)[3:]


def test_adjacent_reads_concatenate_to_one_read():
    stream = HashStream(KA_SEED)
    cuts = [0, 3, 32, 33, 64, 64, 164]
    pieces = b"".join(stream.read(a, b) for a, b in zip(cuts, cuts[1:]))
    assert pieces == stream.read(0, 164)


@pytest.mark.parametrize("n", [0, 13, 512])
def test_bits_are_the_first_bits_msb_first(n):
    want = np.unpackbits(np.frombuffer(bytes.fromhex(FIRST_64_HEX), np.uint8))[:n]
    got = HashStream(KA_SEED).bits(n)
    assert got.dtype == np.uint8
    assert got.tolist() == want.tolist()


def test_below_known_answer():
    # the draw-by-draw reference itself, against the recorded answers
    values, used = reference_below(KA_SEED, BELOW_BOUNDS)
    assert values == BELOW_VALUES
    assert used == 9
    assert HashStream(KA_SEED).read(8 * used, 8 * used + 8).hex() == NEXT_8_HEX


def test_below_many_known_answer():
    got = HashStream(KA_SEED).below_many(BELOW_BOUNDS)
    assert got.dtype == np.uint64
    assert got.tolist() == BELOW_VALUES


def test_below_known_answer_with_skipped_draws():
    values, used = reference_below(KA_SEED, SKIP_BOUNDS)
    assert (values, used) == (SKIP_VALUES, SKIP_USED)
    assert used > len(SKIP_BOUNDS)  # draws really are skipped
    assert HashStream(KA_SEED).below_many(SKIP_BOUNDS).tolist() == SKIP_VALUES


@pytest.mark.parametrize("label", [0, 5, 32])
def test_below_many_matches_per_draw_below(label):
    seed = derive_seed(KA_SEED, f"many{label}")
    bounds = np.arange(3000, 1, -1)
    assert HashStream(seed).below_many(bounds).tolist() == reference_below(seed, bounds)[0]


def test_below_many_falls_back_after_a_rejected_draw():
    # near 2^63 + 1 about half of all u64 draws lie at or above the
    # largest multiple of the bound and are skipped
    seed = derive_seed(KA_SEED, "rejections")
    bounds = np.array([2**63 + 1 + k for k in range(40)] + [5, 2**40 + 3] * 20, dtype=np.uint64)
    values, used = reference_below(seed, bounds)
    assert used > bounds.size  # draws really are skipped
    assert HashStream(seed).below_many(bounds).tolist() == values


@pytest.mark.parametrize("bound", [0, -3, 2**64, 2**64 + 1, 2**70])
def test_below_rejects_bounds_outside_the_u64_range(bound):
    with pytest.raises(ValueError):
        HashStream(KA_SEED).below_many([5, bound])
    if bound < 2**63:  # also as an int64 array, which a uint64 cast would wrap
        with pytest.raises(ValueError):
            HashStream(KA_SEED).below_many(np.array([5, bound], dtype=np.int64))


def test_below_many_empty_and_invalid_bounds():
    stream = HashStream(KA_SEED)
    empty = stream.below_many([])
    assert empty.dtype == np.uint64 and empty.size == 0
    with pytest.raises(ValueError):
        stream.below_many([3, 0, 2])

"""HashStream: the counter-mode byte stream both parties expand from shared seeds."""

import hashlib

import numpy as np
import pytest

from qkdsim.seeds import HashStream, derive_seed

from conftest import reference_below

KA_SEED = derive_seed(bytes(32), "hashstream-known-answer")

# Known answers recorded before the stream gained its bulk path; they pin
# the cross-party byte contract in README.md. NEXT_8_HEX is the draw after
# the 11 that BELOW_BOUNDS use: two of them are skipped.
BLOCKS_0_1_HEX = (
    "40a2e98a77a5e16de4d4f350914213bffba669445aaff4cd56261c0c02a931d6"
    "6eefae7fe2fe5482f6e1b2a29a40312f94e0352bcfd2c9ade333539948c91a25"
)
BELOW_BOUNDS = [1, 2, 3, 10, 1000, 2**32 + 1, 2**63 + 1, 2**64 - 1, 7]
BELOW_VALUES = [
    0, 1, 2, 8, 954, 2740878990, 8528375346787317395, 16485883189208175082, 0,
]
NEXT_8_HEX = "54821496af525d59"


def test_blocks_known_answer():
    assert HashStream(KA_SEED).read(0, 64).hex() == BLOCKS_0_1_HEX


def _blocks(seed, first, last):
    """Blocks first..last of the contract, each hashed from scratch."""
    return b"".join(
        hashlib.sha256(seed + k.to_bytes(8, "big")).digest() for k in range(first, last + 1)
    )


def test_stream_is_sha256_of_seed_and_counter():
    seed = derive_seed(KA_SEED, "counter")
    assert HashStream(seed).read(0, 301 * 32) == _blocks(seed, 0, 300)


def test_read_from_mid_block_continues_the_counter():
    seed = derive_seed(KA_SEED, "mid-block")
    assert HashStream(seed).read(3, 3 + 300 * 32) == _blocks(seed, 0, 300)[3 : 3 + 300 * 32]


def test_adjacent_reads_concatenate_to_one_read():
    stream = HashStream(KA_SEED)
    cuts = [0, 3, 32, 33, 64, 64, 164]
    pieces = b"".join(stream.read(a, b) for a, b in zip(cuts, cuts[1:]))
    assert pieces == stream.read(0, 164)


@pytest.mark.parametrize("n", [0, 13, 512])
def test_bits_are_the_first_bits_msb_first(n):
    want = np.unpackbits(np.frombuffer(bytes.fromhex(BLOCKS_0_1_HEX), np.uint8))[:n]
    got = HashStream(KA_SEED).bits(n)
    assert got.dtype == np.uint8
    assert got.tolist() == want.tolist()


def test_below_known_answer():
    # the draw-by-draw reference itself, against the recorded answers
    values, used = reference_below(KA_SEED, BELOW_BOUNDS)
    assert values == BELOW_VALUES
    assert used == 11
    assert HashStream(KA_SEED).read(8 * used, 8 * used + 8).hex() == NEXT_8_HEX


def test_below_many_known_answer():
    got = HashStream(KA_SEED).below_many(BELOW_BOUNDS)
    assert got.dtype == np.uint64
    assert got.tolist() == BELOW_VALUES


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

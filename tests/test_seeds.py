"""HashStream: the counter-mode byte stream both parties expand from shared seeds."""

import hashlib

import numpy as np
import pytest

from qkdsim.seeds import HashStream, derive_seed

KA_SEED = derive_seed(bytes(32), "hashstream-known-answer")

# Known answers recorded before the stream gained its bulk path; they pin
# the cross-party byte contract in README.md.
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
    assert HashStream(KA_SEED).take(64).hex() == BLOCKS_0_1_HEX


def _blocks(seed, first, last):
    """Blocks first..last of the contract, each hashed from scratch."""
    return b"".join(
        hashlib.sha256(seed + k.to_bytes(8, "big")).digest() for k in range(first, last + 1)
    )


def test_stream_is_sha256_of_seed_and_counter():
    seed = derive_seed(KA_SEED, "counter")
    assert HashStream(seed).take(301 * 32) == _blocks(seed, 0, 300)


def test_fill_from_mid_block_continues_the_counter():
    # after take(3) the buffer holds 29 bytes of block 0, so the next fill
    # starts in the middle of a block
    seed = derive_seed(KA_SEED, "mid-block")
    stream = HashStream(seed)
    assert stream.take(3) == _blocks(seed, 0, 0)[:3]
    assert stream.take(300 * 32) == _blocks(seed, 0, 300)[3 : 3 + 300 * 32]


@pytest.mark.parametrize("lead", [1, 3, 33])
def test_below_many_after_an_odd_length_take(lead):
    seed = derive_seed(KA_SEED, f"odd{lead}")
    bounds = np.arange(500, 1, -1)
    values, after = _per_draw(seed, bounds, lead)
    stream = HashStream(seed)
    stream.take(lead)
    assert stream.below_many(bounds).tolist() == values
    assert stream.take(40) == after


def test_take_is_position_independent_of_call_sizes():
    stream = HashStream(KA_SEED)
    pieces = b"".join(stream.take(k) for k in (3, 29, 1, 31, 0, 100))
    assert pieces == HashStream(KA_SEED).take(164)


def test_below_known_answer():
    stream = HashStream(KA_SEED)
    assert [stream.below(b) for b in BELOW_BOUNDS] == BELOW_VALUES
    assert stream.take(8).hex() == NEXT_8_HEX


def test_below_many_known_answer():
    stream = HashStream(KA_SEED)
    assert stream.below_many(BELOW_BOUNDS).tolist() == BELOW_VALUES
    assert stream.take(8).hex() == NEXT_8_HEX


def _per_draw(seed, bounds, lead=0):
    stream = HashStream(seed)
    stream.take(lead)
    values = [stream.below(int(b)) for b in bounds]
    return values, stream.take(40)


@pytest.mark.parametrize("lead", [0, 5, 32])
def test_below_many_matches_per_draw_below(lead):
    seed = derive_seed(KA_SEED, f"many{lead}")
    bounds = np.arange(3000, 1, -1)
    values, after = _per_draw(seed, bounds, lead)
    stream = HashStream(seed)
    stream.take(lead)
    got = stream.below_many(bounds)
    assert got.dtype == np.uint64
    assert got.tolist() == values
    assert stream.take(40) == after


def test_below_many_falls_back_after_a_rejected_draw():
    # near 2^63 + 1 about half of all u64 draws lie at or above the
    # largest multiple of the bound, so below() rejects and redraws
    seed = derive_seed(KA_SEED, "rejections")
    bounds = np.array([2**63 + 1 + k for k in range(40)] + [5, 2**40 + 3] * 20, dtype=np.uint64)
    limits = [(2**64 // int(b)) * int(b) for b in bounds]
    raw = HashStream(seed).take(8 * bounds.size)
    u = [int.from_bytes(raw[8 * i : 8 * i + 8], "big") for i in range(bounds.size)]
    assert any(x >= lim for x, lim in zip(u, limits))  # the fallback really runs
    values, after = _per_draw(seed, bounds)
    stream = HashStream(seed)
    assert stream.below_many(bounds).tolist() == values
    assert stream.take(40) == after


@pytest.mark.parametrize("bound", [0, -3, 2**64 + 1, 2**70])
def test_below_rejects_bounds_outside_the_u64_range(bound):
    stream = HashStream(KA_SEED)
    with pytest.raises(ValueError):
        stream.below(bound)
    assert stream.take(64).hex() == BLOCKS_0_1_HEX


def test_below_accepts_the_full_u64_range():
    stream = HashStream(KA_SEED)
    assert stream.below(2**64) == int.from_bytes(bytes.fromhex(BLOCKS_0_1_HEX[:16]), "big")


def test_below_many_empty_and_invalid_bounds():
    stream = HashStream(KA_SEED)
    assert stream.below_many([]).size == 0
    with pytest.raises(ValueError):
        stream.below_many([3, 0, 2])
    # nothing was consumed by either call
    assert stream.take(64).hex() == BLOCKS_0_1_HEX

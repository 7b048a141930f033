"""Factor-graph construction, syndrome algebra and BP decoding."""

import hashlib

import numpy as np
import pytest

import qkdsim.reconcile as rec

from qkdsim.errors import DecodeFailure, HashMismatch, QberAboveThreshold
from qkdsim.reconcile import (
    RATE_TABLE,
    build_factor_graph,
    compute_syndrome,
    decode,
    key_digest,
    rate_for_error,
    reconcile_keys,
)
from qkdsim.seeds import derive_seed
from qkdsim.sifting import ClassicalChannel

from conftest import reference_below, traced_peak

SEED = derive_seed(bytes(32), "reconcile-tests")

# Known answers of the graph contract in README.md, recorded before the
# batched construction: (n, rate) -> (adjacency_digest, SHA-256 of
# check_ptr as little-endian int64, m, edges).
GRAPH_KNOWN_ANSWERS = {
    (1024, 0.5): (
        "a8259b3ff99303b65d44fa8f21222ef8570429b4886384f20d61facec7beb18f",
        "8a8a9a18cd7c2d56ae562425f92170cbce9fea3cc072f1a6c9f89a4159aea4df",
        512,
        3072,
    ),
    (12_000, 0.68): (
        "36c07b75aefb1595ddad130c6bfcd09fc498094cdd0fc3beaac3a015965e0578",
        "37db229603e5166bb4b366213537867c9cb4c58f3dff3aeb2c95152203c7f817",
        3840,
        36000,
    ),
    (65_536, 0.53): (
        "1fd98f41bfaa5bc83f4daef47e44c5237360aaaebeb7d8ba9aab13d579697f52",
        "0ec39cb9f1699c9b01430dc7659584b66f92120134377dda92b66232b72caaa8",
        30802,
        196608,
    ),
}
# the zero-padded 256-bit block reconcile_keys builds for a 200-bit key
PADDED_BLOCK_KNOWN_ANSWER = (
    "2b3b39c56f15003589ffe83e1b47f8c402b96f3c0f3886a63f1f6a2c00566cfc",
    "f9a4f339b285b6b155c2e94075d5b39a167cb81a3916c24053a38c069314fa43",
    102,
    768,
)


def _fingerprint(g):
    ptr_digest = hashlib.sha256(g.check_ptr.astype("<i8").tobytes()).hexdigest()
    return g.adjacency_digest().hex(), ptr_digest, g.m, g.n_edges


def _reference_build_factor_graph(n, target_rate, seed, refill_hits=None):
    """The draw-by-draw construction the README contract describes.

    A list passed as ``refill_hits`` collects each (check, variable) that a
    spilled duplicate skips because an earlier refill already put the
    variable in that check.
    """
    m = int(round(n * (1.0 - target_rate)))
    slots = np.repeat(np.arange(n, dtype=np.int64), 3)
    n_edges = slots.size
    draws, _ = reference_below(seed, range(n_edges, 1, -1))
    for i, j in zip(range(n_edges - 1, 0, -1), draws):
        slots[i], slots[j] = slots[j], slots[i]
    bounds = (np.arange(m + 1, dtype=np.int64) * n_edges) // m
    members = [set() for _ in range(m)]
    spilled = []
    for c in range(m):
        for p in range(bounds[c], bounds[c + 1]):
            v = int(slots[p])
            if v in members[c]:
                spilled.append((c, v))
            else:
                members[c].add(v)
    refilled = set()
    for c0, v in spilled:
        for step in range(1, m + 1):
            c = (c0 + step) % m
            if (c, v) in refilled and refill_hits is not None:
                refill_hits.append((c, v))
            if v not in members[c]:
                members[c].add(v)
                refilled.add((c, v))
                break
    check_index, var_index = [], []
    for c in range(m):
        for v in sorted(members[c]):
            check_index.append(c)
            var_index.append(v)
    check_index = np.asarray(check_index, dtype=np.int64)
    var_index = np.asarray(var_index, dtype=np.int64)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(check_index, minlength=m))]).astype(np.int64)
    return check_index, var_index, ptr


def _reference_shuffle(draws):
    """The swap loop: step i = N-1, ..., 1 swaps positions i and draws[N-1-i]."""
    perm = list(range(len(draws) + 1))
    for i, j in zip(range(len(perm) - 1, 0, -1), draws):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _uniform_draws(rng, n):
    """A draw in [0, i] for each step i = n-1, ..., 1."""
    return (rng.random(n - 1) * np.arange(n, 1, -1)).astype(np.int64)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 257, 1000, 12_001, 65_536, 100_000])
def test_shuffle_matches_the_swap_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(3 if n < 10_000 else 1):
        draws = _uniform_draws(rng, n)
        got = rec._shuffled_positions(draws)
        assert got.tolist() == _reference_shuffle(draws.tolist())


@pytest.mark.parametrize("n", [2, 3, 7, 100, 3000])
def test_shuffle_matches_the_swap_loop_on_repeated_draws(n):
    steps = np.arange(n - 1, 0, -1)
    rng = np.random.default_rng(7 * n)
    cases = [
        np.zeros(n - 1, dtype=np.int64),  # every step swaps with position 0
        np.minimum(steps, 2),  # three targets shared by all steps
        steps // 2,  # pairs of steps share a target
        steps,  # every step keeps its own value
        np.minimum(steps, rng.integers(0, 4, n - 1)),
    ]
    for draws in cases:
        got = rec._shuffled_positions(draws)
        assert got.tolist() == _reference_shuffle(draws.tolist())
    assert rec._shuffled_positions(steps).tolist() == list(range(n))


@pytest.mark.parametrize("n", [3, 4, 1000])
def test_shuffle_matches_the_swap_loop_when_first_and_last_steps_stay(n):
    # j_i = i at the first step (i = N-1) and at the last (i = 1)
    draws = _uniform_draws(np.random.default_rng(n + 1), n)
    draws[0], draws[-1] = n - 1, 1
    got = rec._shuffled_positions(draws)
    assert got.tolist() == _reference_shuffle(draws.tolist())


def test_graph_deterministic():
    a = build_factor_graph(1024, 0.5, SEED)
    b = build_factor_graph(1024, 0.5, SEED)
    assert a.adjacency_digest() == b.adjacency_digest()
    assert np.array_equal(a.var_index, b.var_index)


@pytest.mark.parametrize("n, rate", sorted(GRAPH_KNOWN_ANSWERS))
def test_graph_known_answer(n, rate):
    assert _fingerprint(build_factor_graph(n, rate, SEED)) == GRAPH_KNOWN_ANSWERS[(n, rate)]


def test_padded_block_graph_known_answer(monkeypatch):
    built = []

    def spy(n, target_rate, seed):
        graph = build_factor_graph(n, target_rate, seed)
        built.append(graph)
        return graph

    monkeypatch.setattr(rec, "build_factor_graph", spy)
    rng = np.random.default_rng(31)
    alice = rng.integers(0, 2, 200).astype(np.uint8)
    bob = alice ^ (rng.random(200) < 0.02).astype(np.uint8)
    rec.reconcile_keys(alice, bob, 0.02, SEED, None, ClassicalChannel())
    assert [_fingerprint(g) for g in built] == [PADDED_BLOCK_KNOWN_ANSWER]


@pytest.mark.parametrize(
    "n, rate, label",
    [(256, 0.2, "a"), (256, 0.85, "b"), (300, 0.5, "c"), (1000, 0.6, "d"),
     (4096, 0.32, "e"), (10_000, 0.74, "f"), (10_000, 0.22, "g")],
)
def test_graph_matches_draw_by_draw_reference(n, rate, label):
    seed = derive_seed(SEED, f"reference-{label}")
    g = build_factor_graph(n, rate, seed)
    check_index, var_index, ptr = _reference_build_factor_graph(n, rate, seed)
    assert g.check_index.dtype == g.var_index.dtype == g.check_ptr.dtype == np.int64
    assert np.array_equal(g.check_index, check_index)
    assert np.array_equal(g.var_index, var_index)
    assert np.array_equal(g.check_ptr, ptr)


# Seeds found by search among derive_seed(SEED, f"refill-{n}-{i}"), i < 40:
# in each graph a spilled duplicate meets a check that already holds its
# variable because of an earlier refill.
@pytest.mark.parametrize("n, label", [(256, "refill-256-6"), (512, "refill-512-2"),
                                      (1024, "refill-1024-8")])
def test_graph_matches_reference_when_refills_collide(n, label):
    seed = derive_seed(SEED, label)
    hits = []
    check_index, var_index, ptr = _reference_build_factor_graph(n, 0.85, seed, hits)
    assert hits
    g = build_factor_graph(n, 0.85, seed)
    assert np.array_equal(g.check_index, check_index)
    assert np.array_equal(g.var_index, var_index)
    assert np.array_equal(g.check_ptr, ptr)


def test_graph_build_memory_stays_small():
    # about 10.5 MB without per-edge Python objects; per-edge lists and an
    # edge set take the same build past 38 MB
    build_factor_graph(1024, 0.6, SEED)  # first-call allocations stay out of the peak
    assert traced_peak(lambda: build_factor_graph(65_536, 0.6, SEED)) < 20e6


def test_graph_check_count_arithmetic():
    assert build_factor_graph(1024, 0.5, SEED).m == 512


def test_graph_seeds_give_distinct_graphs():
    digests = set()
    for i in range(100):
        g = build_factor_graph(512, 0.5, derive_seed(SEED, f"pair{i}"))
        digests.add(g.adjacency_digest())
    assert len(digests) == 100


def test_graph_degrees_and_no_duplicate_edges():
    g = build_factor_graph(4096, 0.6, SEED)
    var_deg = np.bincount(g.var_index, minlength=g.n)
    assert var_deg.min() >= 2
    assert var_deg.max() == 3
    keys = g.check_index * g.n + g.var_index
    assert np.unique(keys).size == keys.size
    check_deg = np.bincount(g.check_index, minlength=g.m)
    assert check_deg.min() >= 2


def test_graph_rejects_infeasible_rate():
    with pytest.raises(ValueError, match="rate 0.9999 gives 0 checks for 1024 bits"):
        build_factor_graph(1024, 0.9999, SEED)
    with pytest.raises(ValueError, match=r"target rate 1.5 outside \(0, 1\)"):
        build_factor_graph(1024, 1.5, SEED)


def test_rate_table_lookup():
    assert rate_for_error(0.0) == RATE_TABLE[0][1]  # highest committed rate
    rates = [rate_for_error(e) for e in np.linspace(0.0, 0.10, 30)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    with pytest.raises(QberAboveThreshold):
        rate_for_error(0.11)
    # a larger estimation subset narrows the pessimism margin
    assert rate_for_error(0.027, subset_size=50_000) >= rate_for_error(0.027, subset_size=1000)


def test_syndrome_of_zero_key_is_zero():
    g = build_factor_graph(512, 0.5, SEED)
    syn = compute_syndrome(np.zeros(512, dtype=np.uint8), g)
    assert syn.dtype == np.uint8 and syn.size == g.m
    assert not syn.any()


def test_syndrome_single_flip_touches_adjacent_checks():
    g = build_factor_graph(512, 0.5, SEED)
    key = np.zeros(512, dtype=np.uint8)
    key[77] = 1
    syn = compute_syndrome(key, g)
    adjacent = np.sort(g.check_index[g.var_index == 77])
    assert np.array_equal(np.flatnonzero(syn), adjacent)


def test_syndrome_linearity():
    g = build_factor_graph(512, 0.5, SEED)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, 512).astype(np.uint8)
    b = rng.integers(0, 2, 512).astype(np.uint8)
    sa = compute_syndrome(a, g)
    sb = compute_syndrome(b, g)
    sab = compute_syndrome(a ^ b, g)
    assert np.array_equal(sab, sa ^ sb)


def _reference_syndrome(bits, graph):
    """The float-bincount syndrome that the reduceat parity replaced."""
    sums = np.bincount(
        graph.check_index,
        weights=bits[graph.var_index].astype(np.float64),
        minlength=graph.m,
    )
    return (sums.astype(np.int64) & 1).astype(np.uint8)


@pytest.mark.parametrize("n, rate", [(256, 0.85), (512, 0.5), (10_000, 0.53), (65_536, 0.2)])
@pytest.mark.parametrize("dtype", [np.uint8, bool])
def test_syndrome_matches_bincount_reference(n, rate, dtype):
    g = build_factor_graph(n, rate, derive_seed(SEED, f"syn/{n}"))
    rng = np.random.default_rng(n)
    for key in (
        rng.integers(0, 2, n).astype(dtype),
        np.zeros(n, dtype=dtype),
        np.ones(n, dtype=dtype),
    ):
        syn = compute_syndrome(key, g)
        assert syn.dtype == np.uint8
        assert np.array_equal(syn, _reference_syndrome(key, g))


def test_syndrome_length_mismatch():
    g = build_factor_graph(512, 0.5, SEED)
    with pytest.raises(ValueError, match="key has 511 bits, graph expects 512"):
        compute_syndrome(np.zeros(511, dtype=np.uint8), g)
    with pytest.raises(ValueError, match="key has 511 bits, graph expects 512"):
        decode(np.zeros(511, dtype=np.uint8), np.zeros(g.m, dtype=np.uint8), g, 0.02)


@pytest.mark.parametrize("delta", [-1, 1])
def test_decode_rejects_a_syndrome_of_the_wrong_length(delta):
    g = build_factor_graph(512, 0.5, SEED)
    key = np.zeros(512, dtype=np.uint8)
    syn = np.zeros(g.m + delta, dtype=np.uint8)
    with pytest.raises(ValueError, match=f"syndrome has {g.m + delta} bits, graph has {g.m} checks"):
        decode(key, syn, g, 0.02)


def test_decode_error_free_returns_input():
    g = build_factor_graph(1024, 0.6, SEED)
    rng = np.random.default_rng(9)
    key = rng.integers(0, 2, 1024).astype(np.uint8)
    syn = compute_syndrome(key, g)
    assert np.array_equal(decode(key, syn, g, 0.0), key)


def test_decode_corrects_base_error_regime():
    # 2.7% flips on 10^4-bit blocks at the table rate
    rng = np.random.default_rng(11)
    rate = rate_for_error(0.027)
    wins = 0
    for trial in range(10):
        alice = rng.integers(0, 2, 10_000).astype(np.uint8)
        bob = alice ^ (rng.random(10_000) < 0.027).astype(np.uint8)
        g = build_factor_graph(10_000, rate, derive_seed(SEED, f"dec{trial}"))
        fixed = decode(bob, compute_syndrome(alice, g), g, 0.027)
        wins += np.array_equal(fixed, alice)
    assert wins == 10


def test_decode_fails_far_beyond_design_point():
    rng = np.random.default_rng(13)
    alice = rng.integers(0, 2, 10_000).astype(np.uint8)
    bob = alice ^ (rng.random(10_000) < 0.20).astype(np.uint8)
    g = build_factor_graph(10_000, 0.5, SEED)
    with pytest.raises(DecodeFailure):
        decode(bob, compute_syndrome(alice, g), g, 0.20, max_iters=40)


def test_alice_bob_round_trip_from_shared_seed():
    # both parties build the graph independently from the same seed
    shared = derive_seed(SEED, "otp-slice")
    g_alice = build_factor_graph(2048, 0.53, shared)
    g_bob = build_factor_graph(2048, 0.53, shared)
    rng = np.random.default_rng(17)
    key = rng.integers(0, 2, 2048).astype(np.uint8)
    noisy = key ^ (rng.random(2048) < 0.03).astype(np.uint8)
    fixed = decode(noisy, compute_syndrome(key, g_alice), g_bob, 0.03)
    assert np.array_equal(fixed, key)
    assert key_digest(fixed) == key_digest(key)


def test_reconcile_keys_efficiency_accounting():
    rng = np.random.default_rng(19)
    n = 12_000
    alice = rng.integers(0, 2, n).astype(np.uint8)
    bob = alice ^ (rng.random(n) < 0.027).astype(np.uint8)
    corrected, n_syn, rate = reconcile_keys(alice, bob, 0.027, SEED, 4000, ClassicalChannel())
    assert np.array_equal(corrected, alice)
    # exactly one block, syndrome count follows the rate
    assert n_syn == int(round(n * (1 - rate)))


def test_reconcile_keys_pads_short_blocks():
    rng = np.random.default_rng(23)
    alice = rng.integers(0, 2, 300).astype(np.uint8)
    bob = alice ^ (rng.random(300) < 0.02).astype(np.uint8)
    corrected, n_syn, _ = reconcile_keys(alice, bob, 0.02, SEED, None, ClassicalChannel())
    assert corrected.size == 300
    assert np.array_equal(corrected, alice)
    with pytest.raises(ValueError, match="key lengths differ"):
        reconcile_keys(alice, bob[:-1], 0.02, SEED, None, ClassicalChannel())


def test_reconcile_keys_hash_catches_mismatch(monkeypatch):
    import qkdsim.reconcile as rec

    rng = np.random.default_rng(29)
    alice = rng.integers(0, 2, 1000).astype(np.uint8)
    bob = alice.copy()

    def broken_decode(bob_key, syndrome, graph, error_rate, max_iters=100):
        out = bob_key.copy()
        out[0] ^= 1  # undetected residual error
        return out

    monkeypatch.setattr(rec, "decode", broken_decode)
    with pytest.raises(HashMismatch):
        rec.reconcile_keys(alice, bob, 0.01, SEED, None, ClassicalChannel())

"""One-way error reconciliation with seeded sparse parity-check codes.

Both parties expand a shared secret seed into the same random factor
graph, Alice transmits the syndrome of her key, and Bob runs belief
propagation until his key's syndrome matches. An eavesdropper who does
not hold the seed faces 2^256 candidate graphs.

Graph construction (byte-exact contract, see README): lay out the edge
slots [0,0,0,1,1,1,...,n-1,n-1,n-1] (every variable has degree 3),
Fisher-Yates shuffle them with draws from the seed's HashStream, split
the shuffled list into near-equal contiguous runs, one per check, then
sweep duplicate (check, variable) pairs forward into the first later
check that lacks the variable ("spill and refill"). The result is a
regular column-weight-3, near-regular row-weight code, deterministic in
(n, rate, seed).
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from qkdsim.errors import (
    DecodeFailure,
    HashMismatch,
    LengthMismatch,
    QberAboveThreshold,
    RateInfeasible,
)
from qkdsim.seeds import HashStream, derive_seed
from qkdsim.sifting import MSG_KEY_HASH, QBER_ABORT_THRESHOLD, ClassicalChannel, log_syndrome

VARIABLE_DEGREE = 3
MIN_BLOCK_BITS = 256
MAX_BLOCK_BITS = 1 << 16
LLR_CLIP = 30.0

# (highest design error rate, code rate): calibrated empirically at
# n = 10^4 so that decoding succeeds in >= 99% of blocks at the bound
# itself (scripts/calibrate_rates.py regenerates the measurements).
RATE_TABLE = (
    (0.005, 0.85),
    (0.010, 0.80),
    (0.016, 0.74),
    (0.024, 0.68),
    (0.034, 0.60),
    (0.046, 0.53),
    (0.060, 0.46),
    (0.075, 0.32),
    (0.090, 0.26),
    (0.105, 0.22),
    (0.115, 0.20),
)


@dataclass
class FactorGraph:
    """Sparse parity-check structure, reproducible from (n, rate, seed)."""

    n: int
    m: int
    check_index: np.ndarray  # per edge, grouped by check
    var_index: np.ndarray  # per edge
    check_ptr: np.ndarray  # edge range of check c is [ptr[c], ptr[c+1])
    seed: bytes

    @property
    def n_edges(self) -> int:
        return int(self.var_index.size)

    def adjacency_digest(self) -> bytes:
        canon = np.stack([self.check_index, self.var_index]).astype("<i8").tobytes()
        return hashlib.sha256(canon).digest()


def _shuffled_positions(draws: np.ndarray) -> np.ndarray:
    """The back-to-front Fisher-Yates shuffle of positions 0..N-1, without
    the swap loop.

    ``draws`` holds j_i for the steps i = N-1, ..., 1 in that order; step i
    swaps positions i and j_i <= i. Entry q of the result is the starting
    position of the value that the swap loop leaves at position q.

    The steps run from N-1 down, so a step with a larger index ran earlier.
    Position i is final after step i and receives what position j_i held
    just before it: what the last step to write there moved, which is the
    smallest s > i with j_s = j_i, or j_i's own value if there is none.
    Step s moved what position s held just before it: by the same rule,
    what the smallest step with j = s moved there (not s itself: every
    step reached this way has j_s < s), or s's own value. So every value
    ends a chain of links to steps that ran earlier, and pointer doubling
    resolves all the chains at once, as in list ranking (Wyllie, 1979).
    """
    n = draws.size + 1
    j = np.empty(n, dtype=np.int32)  # 3n < 2^31
    j[0] = 0  # a no-op step 0 lets position 0 follow the same rule
    j[1:] = draws[::-1]
    # The steps grouped by j, ascending within a group: two stable 16-bit
    # radix passes.
    order = np.argsort((j & 0xFFFF).astype(np.uint16), kind="stable")
    order = order[np.argsort((j[order] >> 16).astype(np.uint16), kind="stable")]
    order = order.astype(np.int32)
    grouped = j[order]
    same = grouped[1:] == grouped[:-1]
    later = np.full(n, -1, dtype=np.int32)  # the next step with the same j
    later[order[:-1][same]] = order[1:][same]
    # Step s links to the smallest step with j = s, or to itself when there
    # is none (or when that step is s itself, which no chain reaches).
    ptr = np.arange(n, dtype=np.int32)
    opens = np.concatenate([[True], ~same])
    ptr[grouped[opens]] = order[opens]
    del order, grouped, same, opens
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            break
        ptr = jumped
    # ptr[later] at later = -1 reads an entry that where() discards
    return np.where(later >= 0, ptr[later], j)


def build_factor_graph(n: int, target_rate: float, seed: bytes) -> FactorGraph:
    """Deterministic column-weight-3 graph with m = round(n * (1 - rate)) checks."""
    if n < MIN_BLOCK_BITS:
        raise ValueError(f"block too short: {n} < {MIN_BLOCK_BITS}")
    if not 0 < target_rate < 1:
        raise RateInfeasible(f"target rate {target_rate} outside (0, 1)")
    m = int(round(n * (1.0 - target_rate)))
    if m < VARIABLE_DEGREE + 1 or m >= n:
        raise RateInfeasible(f"rate {target_rate} gives {m} checks for {n} bits")

    # Fisher-Yates over edge slots with the draws below_many gives for the
    # bounds i + 1, i = 3n - 1, ..., 1. Slot q starts out holding variable
    # q // 3.
    n_edges = VARIABLE_DEGREE * n
    positions = _shuffled_positions(HashStream(seed).below_many(np.arange(n_edges, 1, -1)))

    # Edge (check c, variable v) is the key c * n + v. A position whose key
    # already occurred earlier in the same check is a duplicate.
    bounds = (np.arange(m + 1, dtype=np.int64) * n_edges) // m
    keys = np.repeat(np.arange(m, dtype=np.int64), np.diff(bounds)) * n
    keys += positions // VARIABLE_DEGREE
    del positions
    firsts, first_pos = np.unique(keys, return_index=True)
    is_dup = np.ones(n_edges, dtype=bool)
    is_dup[first_pos] = False
    # Spill and refill: each duplicate, in position order, moves to the next
    # check (cyclically from where it collided) that lacks the variable. A
    # variable belongs to at most 3 checks, so this always lands. A key is
    # an edge if the sorted firsts hold it or an earlier refill placed it.
    refilled = set()
    for key in keys[is_dup].tolist():
        c0, v = divmod(key, n)
        for step in range(1, m + 1):
            moved = (c0 + step) % m * n + v
            if moved in refilled:
                continue
            at = int(np.searchsorted(firsts, moved))
            if at < firsts.size and firsts[at] == moved:
                continue
            refilled.add(moved)
            break

    edges = np.sort(np.concatenate([firsts, np.fromiter(refilled, np.int64, len(refilled))]))
    check_index = edges // n
    var_index = edges % n
    counts = np.bincount(check_index, minlength=m)
    ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return FactorGraph(
        n=n, m=m, check_index=check_index, var_index=var_index, check_ptr=ptr, seed=seed
    )


def rate_for_error(error_estimate: float, subset_size: int | None = None) -> float:
    """Pick a committed code rate for a pessimistic design error rate.

    The design point is the estimate plus three binomial sigmas of the
    estimation subset; without a subset size, a fixed pessimism of
    max(25% relative, 0.005 absolute) stands in.
    """
    if error_estimate < 0:
        raise ValueError("error estimate cannot be negative")
    if error_estimate >= QBER_ABORT_THRESHOLD:
        raise QberAboveThreshold(f"error estimate {error_estimate:.4f} >= {QBER_ABORT_THRESHOLD}")
    if subset_size:
        margin = 3.0 * math.sqrt(
            error_estimate * (1.0 - error_estimate) / subset_size
        )
    else:
        margin = max(0.25 * error_estimate, 0.005)
    design = error_estimate + margin
    for bound, rate in RATE_TABLE:
        if design <= bound:
            return rate
    return RATE_TABLE[-1][1]


def compute_syndrome(key_bits: np.ndarray, graph: FactorGraph) -> np.ndarray:
    """Parity of the key bits (0 or 1, as bool or any integer dtype) on
    every check, one uint8 per check."""
    key_bits = np.asarray(key_bits)
    if key_bits.size != graph.n:
        raise LengthMismatch(f"key has {key_bits.size} bits, graph expects {graph.n}")
    return _syndrome_of(key_bits, graph)


def _syndrome_of(bits: np.ndarray, graph: FactorGraph) -> np.ndarray:
    # every check holds at least one edge, so no reduceat run is empty
    parity = np.bitwise_xor.reduceat(bits[graph.var_index], graph.check_ptr[:-1])
    return parity.astype(np.uint8)


def decode(
    bob_key: np.ndarray,
    syndrome: np.ndarray,
    graph: FactorGraph,
    error_rate: float,
    max_iters: int = 100,
) -> np.ndarray:
    """Sum-product decoding of Bob's key toward Alice's syndrome.

    Works on the error pattern e with H e = (syndrome XOR syndrome(bob)),
    channel prior P(e_i = 1) = error_rate, and returns bob_key XOR e_hat
    once the syndrome matches. ``syndrome`` holds Alice's ``graph.m``
    check bits, as ``compute_syndrome`` returns them.
    """
    bob_key = np.asarray(bob_key, dtype=np.uint8)
    if bob_key.size != graph.n:
        raise LengthMismatch(f"key has {bob_key.size} bits, graph expects {graph.n}")
    if np.size(syndrome) != graph.m:
        raise LengthMismatch(f"syndrome has {np.size(syndrome)} bits, graph has {graph.m} checks")
    if not 0 <= error_rate < 0.5:
        raise ValueError("error rate must lie in [0, 0.5)")

    delta = np.bitwise_xor(syndrome, _syndrome_of(bob_key, graph))
    if not delta.any():
        return bob_key.copy()

    eps = min(max(error_rate, 1e-4), 0.499)
    prior = math.log((1.0 - eps) / eps)  # LLR that an error bit is 0
    check_sign = 1.0 - 2.0 * delta[graph.check_index]

    msg_vc = np.full(graph.n_edges, prior)
    for _ in range(max_iters):
        half = np.tanh(np.clip(msg_vc, -LLR_CLIP, LLR_CLIP) / 2.0)
        tiny = np.flatnonzero(np.abs(half) < 1e-12)
        half[tiny] = np.sign(half[tiny]) * 1e-12 + 1e-15
        prod = np.multiply.reduceat(half, graph.check_ptr[:-1])
        msg_cv = 2.0 * np.arctanh(
            np.clip(check_sign * prod[graph.check_index] / half, -0.999999999, 0.999999999)
        )
        totals = prior + np.bincount(
            graph.var_index, weights=msg_cv, minlength=graph.n
        )
        errors = (totals < 0).astype(np.uint8)
        if np.array_equal(_syndrome_of(errors, graph), delta):
            return np.bitwise_xor(bob_key, errors)
        msg_vc = totals[graph.var_index] - msg_cv
    raise DecodeFailure(f"no syndrome match after {max_iters} iterations")


def key_digest(bits: np.ndarray) -> bytes:
    """64-bit verification digest exchanged after decoding."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
    return hashlib.blake2b(packed, digest_size=8).digest()


def reconcile_keys(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    error_estimate: float,
    seed: bytes,
    subset_size: int | None,
    channel: ClassicalChannel,
):
    """Run the full one-way reconciliation over one key pair.

    Keys are processed in blocks of at most 2^16 bits; a short block is
    padded with publicly known zeros which never enter the output.
    Returns (corrected bob key, syndrome bits spent, code rate used).

    Raises HashMismatch if the corrected keys differ despite matching
    syndromes, which the 64-bit digest exchange catches.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    if alice_bits.size != bob_bits.size:
        raise LengthMismatch("key lengths differ")

    rate = rate_for_error(error_estimate, subset_size)
    corrected = []
    n_syn = 0
    total = alice_bits.size
    n_blocks = max(1, math.ceil(total / MAX_BLOCK_BITS))
    for i in range(n_blocks):
        a = alice_bits[i * MAX_BLOCK_BITS : (i + 1) * MAX_BLOCK_BITS]
        b = bob_bits[i * MAX_BLOCK_BITS : (i + 1) * MAX_BLOCK_BITS]
        pad = max(MIN_BLOCK_BITS - a.size, 0)
        if pad:
            a = np.concatenate([a, np.zeros(pad, dtype=np.uint8)])
            b = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
        graph = build_factor_graph(a.size, rate, derive_seed(seed, f"block{i}"))
        syn = compute_syndrome(a, graph)
        log_syndrome(channel, graph, syn)
        fixed = decode(b, syn, graph, error_estimate)
        n_syn += graph.m
        corrected.append(fixed[: fixed.size - pad] if pad else fixed)

    bob_corrected = np.concatenate(corrected)
    digest_a = key_digest(alice_bits)
    digest_b = key_digest(bob_corrected)
    channel.send("alice", MSG_KEY_HASH, digest_a)
    channel.send("bob", MSG_KEY_HASH, digest_b)
    if digest_a != digest_b:
        raise HashMismatch("corrected keys differ despite matching syndromes")
    return bob_corrected, n_syn, rate

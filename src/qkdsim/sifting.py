"""Sifting exchange and subset error estimation over the public channel.

Bob announces (slot, basis) for every gated event, Alice replies with
the slots where his basis matched hers, and both keep those bits. Slots
where Bob registered more than one detector are thrown away whole: their
bit value is ambiguous. Bits revealed for alignment or error estimation
never re-enter a key.

Channel framing (public, not authenticated yet; each session spends 32 pad
bytes reserved for that): every message is  u8 type | u32 big-endian
payload length | payload.  Payload integers are little-endian numpy
scalars; bit arrays travel one byte per bit. Message types: 1 basis-announce,
2 match-reply, 3 subset-reveal, 4 syndrome, 5 PA-seed reference, 6 key-hash.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from qkdsim.errors import InsufficientData, QberAboveThreshold
from qkdsim.photonics import AliceRecord, state_bases, state_bits
from qkdsim.seeds import np_rng
from qkdsim.sync import AlignmentResult, GatedEvents

MSG_BASIS_ANNOUNCE = 1
MSG_MATCH_REPLY = 2
MSG_SUBSET_REVEAL = 3
MSG_SYNDROME = 4
MSG_PA_SEED = 5
MSG_KEY_HASH = 6

QBER_ABORT_THRESHOLD = 0.11  # estimates at or above it abort the run
MIN_KEY_FOR_ESTIMATE = 500
SUBSET_FRACTION = 0.25  # share of the sifted key revealed to estimate the error


class ClassicalChannel:
    """Reliable ordered transport that logs every frame it carries."""

    def __init__(self):
        self.log = []

    def send(self, sender: str, msg_type: int, payload: bytes) -> bytes:
        frame = struct.pack(">BI", msg_type, len(payload)) + payload
        self.log.append((sender, msg_type, payload))
        return frame

    @property
    def bytes_logged(self) -> int:
        return sum(len(p) + 5 for _, _, p in self.log)


def log_syndrome(channel: ClassicalChannel, graph, bits: np.ndarray) -> None:
    """Alice's syndrome of one block under its factor ``graph``: u32 n |
    f64 rate | u32 m | 8-byte SHA-256 prefix of the graph seed | m bytes."""
    payload = (
        struct.pack("<IdI", graph.n, 1.0 - graph.m / graph.n, graph.m)
        + hashlib.sha256(graph.seed).digest()[:8]
        + bits.astype(np.uint8).tobytes()
    )
    channel.send("alice", MSG_SYNDROME, payload)


def log_pa_seed_reference(channel: ClassicalChannel, offset: int, length: int) -> None:
    """The PA seed itself never crosses the wire, only its pad location."""
    channel.send("alice", MSG_PA_SEED, struct.pack("<QI", offset, length))


@dataclass
class SiftedKey:
    """Basis-matched key material plus the public-subset bookkeeping.

    ``n_rec`` counts every sifted bit received, including the ones later
    revealed; the invariant n_rec == len(bits) + n_err holds throughout.
    """

    bits: np.ndarray
    pulse_slots: np.ndarray
    n_rec: int
    n_err: int = 0

    def __post_init__(self):
        if self.bits.size != self.pulse_slots.size:
            raise ValueError("bits and slots must align")
        if self.n_rec != self.bits.size + self.n_err:
            raise ValueError("n_rec must equal len(bits) + n_err")

    def __len__(self):
        return int(self.bits.size)


def sift(
    gated: GatedEvents,
    alignment: AlignmentResult,
    alice: AliceRecord,
    channel: ClassicalChannel,
):
    """Run the sifting exchange; returns (alice_key, bob_key).

    Discards multi-fire slots, slots outside Alice's record, mismatched
    bases, and everything already revealed for alignment. Revealed events
    that would otherwise have been kept count into ``n_err``: they were
    received sifted bits, publicly spent.
    """
    slots = gated.slots
    dets = gated.detectors
    offset = alignment.start_offset_pulses
    bob_bases = state_bases(dets)

    # one join, and no copy of slots that are already little-endian int64
    payload = b"".join([
        struct.pack("<I", int(slots.size)),
        slots.astype("<i8", copy=False).tobytes(),
        bob_bases.tobytes(),
    ])
    channel.send("bob", MSG_BASIS_ANNOUNCE, payload)

    # Every event in slot order: one stable sort finds the multi-fire
    # slots, the revealed events and the key order.
    order = np.argsort(slots, kind="stable")
    sorted_slots = slots[order]
    # an event is single-fire when neither neighbour in slot order shares its slot
    distinct = sorted_slots[1:] != sorted_slots[:-1]
    keep = np.ones(slots.size, dtype=bool)
    keep[1:] &= distinct
    keep[:-1] &= distinct

    # Alice's state at every event's pulse, read once
    a_idx = sorted_slots + offset
    keep &= (a_idx >= 0) & (a_idx < alice.n_pulses)
    a_states = alice.states[np.clip(a_idx, 0, alice.n_pulses - 1, out=a_idx)]
    del a_idx
    keep &= state_bases(a_states) == bob_bases[order]

    # The first event at each revealed slot that some event holds; when
    # several hold it, the slot is multi-fire and that event already dropped.
    subset = np.unique(alignment.subset_slots)
    first = np.searchsorted(sorted_slots, subset, side="left")
    revealed = first[np.searchsorted(sorted_slots, subset, side="right") > first]
    # revealed single-fire events that would have been key bits
    n_revealed_matched = int(np.count_nonzero(keep[revealed]))
    keep[revealed] = False

    kept_slots = sorted_slots[keep]
    bob_bits = state_bits(dets[order[keep]])
    alice_bits = state_bits(a_states[keep])

    channel.send(
        "alice",
        MSG_MATCH_REPLY,
        b"".join([
            struct.pack("<I", int(kept_slots.size)),
            kept_slots.astype("<i8", copy=False).tobytes(),
        ]),
    )

    n_rec = int(kept_slots.size) + n_revealed_matched
    alice_key = SiftedKey(alice_bits, kept_slots, n_rec, n_revealed_matched)
    bob_key = SiftedKey(bob_bits, kept_slots, n_rec, n_revealed_matched)
    return alice_key, bob_key


def estimate_error(
    alice_key: SiftedKey,
    bob_key: SiftedKey,
    seed: bytes,
    channel: ClassicalChannel,
):
    """Compare a random public subset; returns (error, n_err, alice', bob').

    The subset (SUBSET_FRACTION of the key) leaves both keys. Raises
    QberAboveThreshold at an estimate of QBER_ABORT_THRESHOLD or more: at
    that disturbance an eavesdropper must be assumed and nothing is kept.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    if not np.array_equal(alice_key.pulse_slots, bob_key.pulse_slots):
        raise ValueError("keys must cover the same slots")
    n = len(alice_key)
    if n < MIN_KEY_FOR_ESTIMATE:
        raise InsufficientData(f"key too short to estimate on: {n} < {MIN_KEY_FOR_ESTIMATE}")

    k = max(int(round(n * SUBSET_FRACTION)), 1)
    rng = np_rng(seed)
    reveal = np.sort(rng.choice(n, size=k, replace=False))
    wrong = int((alice_key.bits[reveal] != bob_key.bits[reveal]).sum())
    error = wrong / k

    payload = (
        struct.pack("<I", k)
        + reveal.astype("<u4").tobytes()
        + bob_key.bits[reveal].astype(np.uint8).tobytes()
    )
    channel.send("bob", MSG_SUBSET_REVEAL, payload)

    keep = np.ones(n, dtype=bool)
    keep[reveal] = False

    def _trim(key: SiftedKey) -> SiftedKey:
        return SiftedKey(
            bits=key.bits[keep],
            pulse_slots=key.pulse_slots[keep],
            n_rec=key.n_rec,
            n_err=key.n_err + k,
        )

    alice_out, bob_out = _trim(alice_key), _trim(bob_key)
    if error >= QBER_ABORT_THRESHOLD:
        raise QberAboveThreshold(
            f"estimated error {error:.4f} at or above {QBER_ABORT_THRESHOLD}: aborting"
        )
    return error, k, alice_out, bob_out

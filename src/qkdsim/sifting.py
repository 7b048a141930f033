"""Sifting exchange and subset error estimation over the public channel.

Bob announces (slot, basis) for every gated event, Alice replies with
the slots where his basis matched hers, and both keep those bits. Slots
where Bob registered more than one detector are thrown away whole: their
bit value is ambiguous. Bits revealed for alignment or error estimation
never re-enter a key.

Channel framing (public, authenticated by OTP budget elsewhere): every
message is  u8 type | u32 big-endian payload length | payload.  Payload
integers are little-endian numpy scalars; bit arrays travel one byte per
bit. Message types: 1 basis-announce, 2 match-reply, 3 subset-reveal,
4 syndrome, 5 PA-seed reference, 6 key-hash.
"""

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

QBER_ABORT_THRESHOLD = 0.11
MIN_KEY_FOR_ESTIMATE = 500


class ClassicalChannel:
    """Reliable ordered transport that logs every frame it carries."""

    def __init__(self):
        self.log = []

    def send(self, sender: str, msg_type: int, payload: bytes) -> bytes:
        frame = struct.pack(">BI", msg_type, len(payload)) + payload
        self.log.append((sender, msg_type, payload))
        return frame

    @staticmethod
    def parse_frame(frame: bytes):
        msg_type, length = struct.unpack(">BI", frame[:5])
        return msg_type, frame[5 : 5 + length]

    @property
    def bytes_logged(self) -> int:
        return sum(len(p) + 5 for _, _, p in self.log)


def log_syndrome(channel: ClassicalChannel, syndrome) -> None:
    payload = (
        struct.pack("<IdI", syndrome.n, syndrome.rate, syndrome.bits.size)
        + syndrome.seed_fingerprint
        + syndrome.bits.astype(np.uint8).tobytes()
    )
    channel.send("alice", MSG_SYNDROME, payload)


def log_key_hash(channel: ClassicalChannel, sender: str, digest: bytes) -> None:
    channel.send(sender, MSG_KEY_HASH, digest)


def log_pa_seed_reference(channel: ClassicalChannel, offset: int, length: int) -> None:
    """The PA seed itself never crosses the wire, only its pad location."""
    channel.send("alice", MSG_PA_SEED, struct.pack("<QI", offset, length))


@dataclass
class SiftedKey:
    """Basis-matched key material plus the public-subset bookkeeping.

    ``n_rec`` counts every sifted bit received, including the ones later
    revealed; the invariant n_rec == len(bits) + n_err holds throughout.
    ``revealed_slots`` records which pulse slots went public and are
    therefore excluded from the key.
    """

    bits: np.ndarray
    pulse_slots: np.ndarray
    n_rec: int
    n_err: int = 0
    estimated_error: float = 0.0
    revealed_slots: np.ndarray = None

    def __post_init__(self):
        if self.revealed_slots is None:
            self.revealed_slots = np.empty(0, dtype=np.int64)
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
    channel: ClassicalChannel | None = None,
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

    uniq, counts = np.unique(slots, return_counts=True)
    multi_fire = uniq[counts > 1]
    single = ~np.isin(slots, multi_fire)
    revealed = np.isin(slots, alignment.subset_slots)

    # Alice's state at every event's pulse, read once
    a_idx = slots + offset
    in_record = (a_idx >= 0) & (a_idx < alice.n_pulses)
    a_states = alice.states[np.clip(a_idx, 0, alice.n_pulses - 1)]
    basis_match = in_record & (state_bases(a_states) == (dets & 1))

    if channel is not None:
        payload = (
            struct.pack("<I", int(slots.size))
            + slots.astype("<i8").tobytes()
            + (dets & 1).astype(np.uint8).tobytes()
        )
        channel.send("bob", MSG_BASIS_ANNOUNCE, payload)

    matched_keep = single & ~revealed & basis_match

    # revealed single-fire events that would have been key bits
    revealed_matched_slots = slots[single & revealed & basis_match]
    n_revealed_matched = int(revealed_matched_slots.size)

    kept_slots = slots[matched_keep]
    order = np.argsort(kept_slots, kind="stable")
    kept_slots = kept_slots[order]
    bob_bits = (dets[matched_keep][order] >> 1).astype(np.uint8)
    alice_bits = state_bits(a_states[matched_keep][order])

    if channel is not None:
        channel.send(
            "alice",
            MSG_MATCH_REPLY,
            struct.pack("<I", int(kept_slots.size)) + kept_slots.astype("<i8").tobytes(),
        )

    n_rec = int(kept_slots.size) + n_revealed_matched
    err = 1.0 - alignment.match_score
    alice_key = SiftedKey(
        alice_bits, kept_slots.copy(), n_rec, n_revealed_matched, err,
        revealed_slots=revealed_matched_slots.copy(),
    )
    bob_key = SiftedKey(
        bob_bits, kept_slots.copy(), n_rec, n_revealed_matched, err,
        revealed_slots=revealed_matched_slots.copy(),
    )
    return alice_key, bob_key


def estimate_error(
    alice_key: SiftedKey,
    bob_key: SiftedKey,
    subset_fraction: float,
    seed: bytes,
    channel: ClassicalChannel | None = None,
    threshold: float = QBER_ABORT_THRESHOLD,
    min_length: int = MIN_KEY_FOR_ESTIMATE,
):
    """Compare a random public subset; returns (error, n_err, alice', bob').

    The subset is removed from both keys. Raises QberAboveThreshold when
    the estimate crosses the abort line: at that disturbance an
    eavesdropper must be assumed and the run yields nothing.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    if not np.array_equal(alice_key.pulse_slots, bob_key.pulse_slots):
        raise ValueError("keys must cover the same slots")
    n = len(alice_key)
    if n < min_length:
        raise InsufficientData(f"key too short to estimate on: {n} < {min_length}")
    if not 0 < subset_fraction < 1:
        raise ValueError("subset fraction must lie in (0, 1)")

    k = max(int(round(n * subset_fraction)), 1)
    rng = np_rng(seed)
    reveal = np.sort(rng.choice(n, size=k, replace=False))
    wrong = int((alice_key.bits[reveal] != bob_key.bits[reveal]).sum())
    error = wrong / k

    if channel is not None:
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
            estimated_error=error,
            revealed_slots=np.concatenate(
                [key.revealed_slots, key.pulse_slots[reveal]]
            ),
        )

    alice_out, bob_out = _trim(alice_key), _trim(bob_key)
    if error > threshold:
        raise QberAboveThreshold(
            f"estimated error {error:.4f} above {threshold}: aborting"
        )
    return error, k, alice_out, bob_out

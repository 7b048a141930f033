"""Sifting exchange, subset error estimation and channel framing."""

import hashlib
import struct

import numpy as np
import pytest

from qkdsim.errors import InsufficientData, QberAboveThreshold
from qkdsim.params import SystemParams
from qkdsim.photonics import (
    add_background,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
    state_bases,
    state_bits,
)
from qkdsim.rate_model import error_band
from qkdsim.reconcile import rate_for_error, reconcile_keys
from qkdsim.seeds import derive_seed, np_rng
from qkdsim.sifting import (
    MSG_BASIS_ANNOUNCE,
    MSG_MATCH_REPLY,
    MSG_SUBSET_REVEAL,
    QBER_ABORT_THRESHOLD,
    ClassicalChannel,
    SiftedKey,
    estimate_error,
    log_pa_seed_reference,
    sift,
)
from qkdsim.sync import AlignmentResult, GatedEvents, detect_start, lock_clock

MASTER = derive_seed(bytes(32), "sifting-tests")


def seed(label):
    return derive_seed(MASTER, label)


def manual_alignment(offset, slots=()):
    slots = np.asarray(slots, dtype=np.int64)
    return AlignmentResult(
        start_offset_pulses=offset,
        match_score=1.0,
        runner_up_score=0.0,
        subset_slots=slots,
    )


def manual_gated(slots, detectors):
    slots = np.asarray(slots, dtype=np.int64)
    return GatedEvents(
        slots=slots,
        detectors=np.asarray(detectors, dtype=np.uint8),
        tag_indices=np.arange(slots.size),
        recovered_period_s=200e-9,
        phase_bin_s=1.25e-9,
        phase_histogram=np.zeros(160, dtype=np.int64),
    )


def gated_run(label, background_cps=0.0, n_pulses=1_500_000, injected=0.0):
    params = SystemParams(
        background_rate_cps=background_cps, injected_error_rate=injected
    )
    total = 0.05 + n_pulses * params.pulse_period_s
    rec = generate_alice_record(n_pulses, seed(label + "r"), start_time_s=0.05)
    ev = simulate_detections(rec, params, seed(label + "d"))
    ev = add_background(ev, params, total, seed(label + "b"))
    stream = multiplex_two_channel(ev, params)
    gated = lock_clock(stream, detect_start(stream), params)
    truth = stream.truth_pulses[gated.tag_indices]
    sig = truth >= 0
    offsets = gated.slots[sig] - truth[sig]
    vals, counts = np.unique(offsets, return_counts=True)
    true_offset = -int(vals[np.argmax(counts)])
    return rec, gated, stream, true_offset


def test_sift_single_matching_event():
    rec = generate_alice_record(100, seed("one"))
    state = int(rec.states[10])
    alice_key, bob_key = sift(
        manual_gated([10], [state]), manual_alignment(0), rec, ClassicalChannel()
    )
    assert len(alice_key) == len(bob_key) == 1
    assert alice_key.bits[0] == bob_key.bits[0] == state_bits(rec.states)[10]
    assert alice_key.n_rec == 1 and alice_key.n_err == 0


def test_sift_discards_conjugate_basis_and_unfired_slots():
    rec = generate_alice_record(100, seed("disc"))
    rec.states[20] = 0  # rectilinear pulse
    gated = manual_gated([20, 20_000], [1, 0])  # diagonal detector; out of range
    alice_key, bob_key = sift(gated, manual_alignment(0), rec, ClassicalChannel())
    assert len(alice_key) == 0
    assert len(bob_key) == 0


def test_sift_discards_double_fire_slots():
    rec = generate_alice_record(100, seed("dbl"))
    rec.states[5] = 0
    rec.states[6] = 0
    gated = manual_gated([5, 5, 6], [0, 2, 0])  # slot 5 fired two detectors
    alice_key, _ = sift(gated, manual_alignment(0), rec, ClassicalChannel())
    assert list(alice_key.pulse_slots) == [6]


def test_sift_keeps_half_of_gated_signal():
    # conjugate-basis detections are half of everything the receiver gates
    rec, gated, stream, offset = gated_run("half", n_pulses=16_000_000)
    assert gated.n_events >= 100_000
    alignment = manual_alignment(offset)
    alice_key, bob_key = sift(gated, alignment, rec, ClassicalChannel())
    kept = len(alice_key) / gated.n_events
    assert abs(kept - 0.5) < 0.01
    assert np.array_equal(alice_key.pulse_slots, bob_key.pulse_slots)


def test_sift_zero_error_without_noise_sources():
    params = SystemParams(
        base_ber_per_channel=(0.0, 0.0, 0.0, 0.0), clock_skew_ppm=0.0
    )
    rec = generate_alice_record(1_000_000, seed("cleanr"), start_time_s=0.05)
    ev = simulate_detections(rec, params, seed("cleand"))
    stream = multiplex_two_channel(ev, params)
    gated = lock_clock(stream, detect_start(stream), params)
    truth = stream.truth_pulses[gated.tag_indices]
    offs = gated.slots - truth
    offset = -int(np.bincount((offs - offs.min())).argmax() + offs.min())
    alice_key, bob_key = sift(gated, manual_alignment(offset), rec, ClassicalChannel())
    assert len(alice_key) > 1000
    assert np.array_equal(alice_key.bits, bob_key.bits)


def test_sift_background_only_events_are_coin_flips():
    rec = generate_alice_record(200_000, seed("bgr"))
    empty = simulate_detections(
        generate_alice_record(10, seed("e")),
        SystemParams(mean_photon_number=1e-9),
        seed("f"),
    )
    ev = add_background(empty, SystemParams(background_rate_cps=2 * 20000.0), 0.04, seed("bgb"))
    gated = manual_gated(
        np.arange(ev.n_events), ev.detectors
    )  # pretend each landed in its own slot
    alice_key, bob_key = sift(gated, manual_alignment(0), rec, ClassicalChannel())
    assert len(alice_key) > 500
    disagreement = (alice_key.bits != bob_key.bits).mean()
    assert abs(disagreement - 0.5) < 3 * np.sqrt(0.25 / len(alice_key))


def test_sift_full_key_disagreement_inside_efficiency_band():
    # end-to-end error convergence against the closed-form band
    b = 20000.0
    rec, gated, stream, offset = gated_run("band", background_cps=b)
    alice_key, bob_key = sift(gated, manual_alignment(offset), rec, ClassicalChannel())
    disagreement = (alice_key.bits != bob_key.bits).mean()
    params = SystemParams(background_rate_cps=b)
    hi, lo = error_band(params, [b])
    sigma = np.sqrt(disagreement * (1 - disagreement) / len(alice_key))
    assert lo[0] - 3 * sigma <= disagreement <= hi[0] + 3 * sigma


def test_sift_excludes_revealed_alignment_subset():
    rec, gated, stream, offset = gated_run("excl")
    revealed = gated.slots[:50]
    alignment = manual_alignment(offset, slots=revealed)
    alice_key, _ = sift(gated, alignment, rec, ClassicalChannel())
    assert not np.isin(alice_key.pulse_slots, revealed).any()
    assert alice_key.n_err > 0  # matched revealed events are spent bits
    assert alice_key.n_rec == len(alice_key) + alice_key.n_err


def _reference_sift(gated, alignment, alice, channel):
    """The np.unique / np.isin sift that one stable argsort replaced."""
    slots = gated.slots
    dets = gated.detectors
    offset = alignment.start_offset_pulses

    uniq, counts = np.unique(slots, return_counts=True)
    multi_fire = uniq[counts > 1]
    single = ~np.isin(slots, multi_fire)
    revealed = np.isin(slots, alignment.subset_slots)

    a_idx = slots + offset
    in_record = (a_idx >= 0) & (a_idx < alice.n_pulses)
    a_states = alice.states[np.clip(a_idx, 0, alice.n_pulses - 1)]
    bob_bases = state_bases(dets)
    basis_match = in_record & (state_bases(a_states) == bob_bases)

    payload = (
        struct.pack("<I", int(slots.size))
        + slots.astype("<i8").tobytes()
        + bob_bases.tobytes()
    )
    channel.send("bob", MSG_BASIS_ANNOUNCE, payload)

    matched_keep = single & ~revealed & basis_match
    n_revealed_matched = int(np.count_nonzero(single & revealed & basis_match))

    kept_slots = slots[matched_keep]
    order = np.argsort(kept_slots, kind="stable")
    kept_slots = kept_slots[order]
    bob_bits = state_bits(dets[matched_keep][order])
    alice_bits = state_bits(a_states[matched_keep][order])

    channel.send(
        "alice",
        MSG_MATCH_REPLY,
        struct.pack("<I", int(kept_slots.size)) + kept_slots.astype("<i8").tobytes(),
    )

    n_rec = int(kept_slots.size) + n_revealed_matched
    alice_key = SiftedKey(alice_bits, kept_slots.copy(), n_rec, n_revealed_matched)
    bob_key = SiftedKey(bob_bits, kept_slots.copy(), n_rec, n_revealed_matched)
    return alice_key, bob_key


def _assert_sift_matches_reference(gated, alignment, rec):
    got_channel, want_channel = ClassicalChannel(), ClassicalChannel()
    got = sift(gated, alignment, rec, got_channel)
    want = _reference_sift(gated, alignment, rec, want_channel)
    for g, w in zip(got, want):
        assert g.bits.dtype == w.bits.dtype and g.pulse_slots.dtype == w.pulse_slots.dtype
        assert np.array_equal(g.bits, w.bits)
        assert np.array_equal(g.pulse_slots, w.pulse_slots)
        assert (g.n_rec, g.n_err) == (w.n_rec, w.n_err)
    assert got_channel.log == want_channel.log


def _shuffled_gated(rng, n_events, n_slots):
    # unsorted slots from a small range, so many fire twice or more
    slots = rng.integers(-50, n_slots, n_events)
    return manual_gated(slots, rng.integers(0, 4, n_events))


@pytest.mark.parametrize("case", range(6))
def test_sift_matches_reference_on_unsorted_multi_fire_slots(case):
    rng = np.random.default_rng(case)
    rec = generate_alice_record(2000, seed(f"ref{case}"))
    gated = _shuffled_gated(rng, 3000, 2100)
    present = rng.choice(gated.slots, 200)
    # repeated, multi-fire, absent and out-of-record revealed slots
    revealed = np.concatenate([present, present[:20], [-40, -1, 2050, 10**9, 5000]])
    rng.shuffle(revealed)
    for subset in (revealed, [], present[:1]):
        _assert_sift_matches_reference(gated, manual_alignment(case * 7 - 20, subset), rec)


def test_sift_matches_reference_on_a_pipeline_run():
    rec, gated, _, offset = gated_run("ref-pipeline", background_cps=25_000.0)
    rng = np.random.default_rng(17)
    revealed = rng.choice(gated.slots, 400, replace=False)
    _assert_sift_matches_reference(gated, manual_alignment(offset, revealed), rec)
    _assert_sift_matches_reference(gated, manual_alignment(offset + 3, revealed), rec)


def test_sift_matches_reference_without_events():
    rec = generate_alice_record(100, seed("ref-empty"))
    _assert_sift_matches_reference(manual_gated([], []), manual_alignment(0, [5]), rec)


def test_estimate_error_identical_keys():
    bits = np.ones(2000, dtype=np.uint8)
    slots = np.arange(2000, dtype=np.int64)
    a = SiftedKey(bits.copy(), slots.copy(), 2000)
    b = SiftedKey(bits.copy(), slots.copy(), 2000)
    error, k, a2, b2 = estimate_error(a, b, seed("est0"), ClassicalChannel())
    assert error == 0.0
    assert k == 500
    assert len(a2) == 1500
    assert a2.n_rec == 2000 and a2.n_err == 500


def test_estimate_error_matches_injected_rate():
    rng = np.random.default_rng(31)
    n = 8000
    bits = rng.integers(0, 2, n).astype(np.uint8)
    flips = np.zeros(n, dtype=np.uint8)
    flips[: int(0.08 * n)] = 1
    rng.shuffle(flips)
    slots = np.arange(n, dtype=np.int64)
    a = SiftedKey(bits, slots.copy(), n)
    b = SiftedKey(bits ^ flips, slots.copy(), n)
    error, k, a2, b2 = estimate_error(a, b, seed("est8"), ClassicalChannel())
    sigma = np.sqrt(0.08 * 0.92 / k)
    assert abs(error - 0.08) < 3 * sigma
    # the subset is destroyed: remaining keys contain none of it
    assert len(a2) == n - k


def test_estimate_error_aborts_above_threshold():
    rng = np.random.default_rng(37)
    n = 4000
    bits = rng.integers(0, 2, n).astype(np.uint8)
    flips = (rng.random(n) < 0.2).astype(np.uint8)
    slots = np.arange(n, dtype=np.int64)
    a = SiftedKey(bits, slots.copy(), n)
    b = SiftedKey(bits ^ flips, slots.copy(), n)
    with pytest.raises(QberAboveThreshold):
        estimate_error(a, b, seed("abort"), ClassicalChannel())


def test_estimate_error_aborts_at_the_threshold_reconcile_rejects():
    # 55 of the 500 revealed bits differ: the estimate is exactly 0.11,
    # which no code rate covers, so estimation itself must abort
    n = 2000
    bits = np.zeros(n, dtype=np.uint8)
    slots = np.arange(n, dtype=np.int64)
    reveal = np.sort(np_rng(seed("edge")).choice(n, size=500, replace=False))
    flipped = bits.copy()
    flipped[reveal[:55]] = 1
    assert 55 / 500 == QBER_ABORT_THRESHOLD
    with pytest.raises(QberAboveThreshold):
        rate_for_error(55 / 500, 500)
    with pytest.raises(QberAboveThreshold):
        estimate_error(
            SiftedKey(bits, slots.copy(), n),
            SiftedKey(flipped, slots.copy(), n),
            seed("edge"),
            ClassicalChannel(),
        )


def test_estimate_error_requires_minimum_length():
    bits = np.ones(100, dtype=np.uint8)
    slots = np.arange(100, dtype=np.int64)
    with pytest.raises(InsufficientData):
        estimate_error(
            SiftedKey(bits.copy(), slots.copy(), 100),
            SiftedKey(bits.copy(), slots.copy(), 100),
            seed("short"),
            ClassicalChannel(),
        )


def _estimate(alice_slots, bob_slots):
    alice, bob = (
        SiftedKey(np.ones(len(s), np.uint8), np.asarray(s, np.int64), len(s))
        for s in (alice_slots, bob_slots)
    )
    estimate_error(alice, bob, seed("malformed"), ClassicalChannel())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SiftedKey(np.ones(3, np.uint8), np.arange(2), 3), "bits and slots must align"),
        (lambda: SiftedKey(np.ones(3, np.uint8), np.arange(3), 4, 2), "n_rec must equal"),
        (lambda: _estimate([0, 1, 2], [0, 1]), "keys must have equal length"),
        (lambda: _estimate([0, 1, 2], [0, 1, 3]), "keys must cover the same slots"),
    ],
    ids=["slots", "n_rec", "lengths", "key-slots"],
)
def test_sifted_keys_reject_malformed_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_channel_logs_and_frames_messages():
    channel = ClassicalChannel()
    frame = channel.send("bob", MSG_BASIS_ANNOUNCE, b"\x01\x02\x03")
    assert struct.unpack(">BI", frame[:5]) == (MSG_BASIS_ANNOUNCE, 3)
    assert frame[5:] == b"\x01\x02\x03"
    assert channel.bytes_logged == 8


def test_sift_and_estimate_log_protocol_messages():
    rec, gated, stream, offset = gated_run("log")
    channel = ClassicalChannel()
    alice_key, bob_key = sift(gated, manual_alignment(offset), rec, channel)
    estimate_error(alice_key, bob_key, seed("log2"), channel)
    types = [t for _, t, _ in channel.log]
    assert MSG_BASIS_ANNOUNCE in types
    assert MSG_MATCH_REPLY in types
    assert MSG_SUBSET_REVEAL in types


# Known-answer SHA-256 of the first frame of each message type (u8 type |
# u32 big-endian length | payload) from one seeded sift -> estimate ->
# reconcile -> PA-reference pass. Both parties parse these bytes, so they
# are a cross-party contract: if one ever changes, CHANGES.md must say why.
FRAME_SHA256 = {
    1: "194485cf947f0deeb982acbd14025afa3f814ee8da8c11015b40d6585252e418",
    2: "306278ab6bf86261e5e6585deb30435f29b7a150cd9f29837153fa10890e5aa8",
    3: "6d2b75c7fa74a6692918f3341d4bfb2dadea8d0ae4087e1b09368baa64d97947",
    4: "51222728069e97f2d4b798c647b51e0ce2cbbe9fbd5eff8b3df37013f1b74abc",
    5: "ab535a7526fdfb0e07b90daca0016ff0ce24e90d2906ec001d239f00f3809c75",
    6: "c1bb280b50b24eb0f476df7a540d1970e9893fb365fdaf6dfcc9c9638d430409",
}


class FirstFrames(ClassicalChannel):
    """Keeps the first frame ``send`` builds for each message type."""

    def __init__(self):
        super().__init__()
        self.first = {}

    def send(self, sender, msg_type, payload):
        frame = super().send(sender, msg_type, payload)
        self.first.setdefault(msg_type, frame)
        return frame


def test_channel_frames_match_known_answers():
    params = SystemParams()
    rec = generate_alice_record(200_000, seed("kat-r"))
    ev = simulate_detections(rec, params, seed("kat-d"))
    # the detections in time order, as the pinned frames were recorded
    order = np.argsort(ev.times_s, kind="stable")
    pulses, detectors = ev.pulses[order], ev.detectors[order]
    gated = manual_gated(pulses, detectors)
    channel = FirstFrames()
    alice_key, bob_key = sift(gated, manual_alignment(0, pulses[:50]), rec, channel)
    error, n_est, alice_key, bob_key = estimate_error(
        alice_key, bob_key, seed("kat-e"), channel
    )
    reconcile_keys(alice_key.bits, bob_key.bits, error, seed("kat-fg"), n_est, channel)
    log_pa_seed_reference(channel, 4160, 32)
    digests = {t: hashlib.sha256(f).hexdigest() for t, f in channel.first.items()}
    assert digests == FRAME_SHA256

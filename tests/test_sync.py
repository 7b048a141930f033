"""Start detection, clock lock, gating and sparse alignment."""

import numpy as np
import pytest

from qkdsim.errors import AmbiguousAlignment, LockLost, NoJumpFound
from qkdsim.params import SystemParams
from qkdsim.photonics import (
    ORIGIN_BACKGROUND,
    ORIGIN_SIGNAL,
    TagStream,
    add_background,
    add_background_per_detector,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
)
from qkdsim.seeds import derive_seed
from qkdsim.sync import (
    _MIN_MATCHED_FOR_SCORE,
    SyncConfig,
    _gate_assign,
    _offset_scores,
    detect_start,
    lock_clock,
    sparse_align,
)

MASTER = derive_seed(bytes(32), "sync-tests")


def seed(label):
    return derive_seed(MASTER, label)


def background_stream(rate_cps, duration, label, skew_ppm=0.0):
    params = SystemParams(mean_photon_number=1e-9)
    rec = generate_alice_record(params, 10, seed(label + "r"))
    events = simulate_detections(rec, params, seed(label + "d"))
    events = add_background_per_detector(events, rate_cps / 4, duration, seed(label + "b"))
    return multiplex_two_channel(events, clock_skew_ppm=skew_ppm, duration_s=duration)


def signal_stream(
    label,
    n_pulses=1_500_000,
    lead_in=0.05,
    background_cps=0.0,
    skew_ppm=0.0,
    params=None,
):
    params = params or SystemParams(background_rate_cps=background_cps)
    total = lead_in + n_pulses * params.pulse_period_s
    rec = generate_alice_record(params, n_pulses, seed(label + "r"), start_time_s=lead_in)
    events = simulate_detections(rec, params, seed(label + "d"))
    events = add_background(events, params, total, seed(label + "b"))
    stream = multiplex_two_channel(
        events, clock_skew_ppm=skew_ppm, duration_s=total, dead_time_s=params.dead_time_s
    )
    return stream, rec


# -- start detection ---------------------------------------------------------


def test_detect_start_finds_rate_jump():
    # 1 kcps of background, then a 10 kcps signal switching on at 0.5 s
    rng = np.random.default_rng(1)
    bg = np.sort(rng.random(1500) * 1.5)
    sig = np.sort(0.5 + rng.random(11000) * 1.0)
    times = np.sort(np.concatenate([bg, sig]))
    stream = TagStream(
        times_s=times,
        lines=rng.integers(0, 2, times.size).astype(np.uint8),
        clock_skew_ppm=0.0,
        duration_s=1.5,
    )
    onset = detect_start(stream, SyncConfig())
    assert 0.4 <= onset <= 0.6


def test_detect_start_pure_background_raises():
    stream = background_stream(4000.0, 2.0, "pure")
    with pytest.raises(NoJumpFound):
        detect_start(stream, SyncConfig())


def test_detect_start_zero_background_returns_first_tag():
    stream, _ = signal_stream("zb", n_pulses=500_000, lead_in=0.3)
    onset = detect_start(stream, SyncConfig())
    assert onset == pytest.approx(stream.times_s[0], abs=1e-3)


def test_detect_start_at_bright_background():
    # per-channel 26000 cps: the jump is only ~1.3x, still detected
    stream, _ = signal_stream("bright", background_cps=26000.0, skew_ppm=10.0)
    onset = detect_start(stream, SyncConfig())
    assert abs(onset - 0.05) < 0.02


# -- clock lock ---------------------------------------------------------------


def test_lock_clock_ideal_stream_keeps_every_tag():
    # zero skew, zero background, negligible jitter: slots equal pulse indices
    params = SystemParams(pulse_jitter_rms_s=1e-13, clock_skew_ppm=0.0)
    stream, rec = signal_stream("ideal", n_pulses=400_000, params=params)
    cfg = SyncConfig()
    gated = lock_clock(stream, detect_start(stream, cfg), cfg)
    # only multi-photon double fires in one (slot, line) window may drop
    assert gated.n_events >= stream.n_tags - 5
    # slots track pulse indices exactly, up to the start-detection anchor
    # that alignment later absorbs
    truth = stream.truth_pulses[gated.tag_indices]
    assert np.unique(gated.slots - truth).size == 1


def test_lock_clock_retention_under_skew():
    # same photon stream, recorded by a perfect clock and by one 10 ppm off
    params = SystemParams()
    n_pulses = 5_000_000
    total = 0.05 + n_pulses * params.pulse_period_s
    rec = generate_alice_record(params, n_pulses, seed("skr"), start_time_s=0.05)
    events = simulate_detections(rec, params, seed("skd"))
    kept = {}
    for ppm in (0.0, 10.0):
        stream = multiplex_two_channel(events, clock_skew_ppm=ppm, duration_s=total)
        cfg = SyncConfig()
        gated = lock_clock(stream, detect_start(stream, cfg), cfg)
        kept[ppm] = gated.n_events / stream.n_tags
    assert kept[10.0] >= 0.99 * kept[0.0]


def test_lock_clock_slot_consistency_under_skew():
    stream, rec = signal_stream("slots", n_pulses=2_500_000, skew_ppm=10.0)
    cfg = SyncConfig()
    gated = lock_clock(stream, detect_start(stream, cfg), cfg)
    truth = stream.truth_pulses[gated.tag_indices]
    offsets = gated.slots - truth
    mode = np.bincount((offsets - offsets.min()).astype(np.int64)).argmax() + offsets.min()
    assert (offsets == mode).mean() > 0.999
    # recovered period tracks the dilated transmitter period
    true_period = 200e-9 * (1 + 10e-6)
    assert abs(gated.recovered_period_s / true_period - 1) < 2e-7


def test_lock_clock_background_suppression_factor():
    # 5 ns gate on a 200 ns period: each of the two windows per line keeps
    # 1/40 of the background that reaches it
    stream, _ = signal_stream("sup", background_cps=20000.0, skew_ppm=10.0)
    cfg = SyncConfig()
    start = detect_start(stream, cfg)
    gated = lock_clock(stream, start, cfg)
    in_span = stream.times_s >= start
    n_bg = int((stream.truth_origins[in_span] == ORIGIN_BACKGROUND).sum())
    kept_bg = int((stream.truth_origins[gated.tag_indices] == ORIGIN_BACKGROUND).sum())
    expected = n_bg * 2 * (5e-9 / 200e-9)
    assert abs(kept_bg - expected) < 3 * np.sqrt(expected)
    # split per window: the direct and delayed windows each catch ~1/40
    kept_direct = int(
        (
            (stream.truth_origins[gated.tag_indices] == ORIGIN_BACKGROUND)
            & (gated.detectors < 2)
        ).sum()
    )
    assert abs(kept_direct - expected / 2) < 4 * np.sqrt(expected / 2)


def test_lock_clock_monotone_in_gate_width():
    params = SystemParams(background_rate_cps=20000.0)
    stream, _ = signal_stream("mono", params=params, skew_ppm=10.0)
    signal_kept, background_kept = [], []
    for gate_ns in (3.0, 5.0, 7.0):
        cfg = SyncConfig(gate_width_s=gate_ns * 1e-9)
        gated = lock_clock(stream, detect_start(stream, cfg), cfg)
        origins = stream.truth_origins[gated.tag_indices]
        signal_kept.append(int((origins == ORIGIN_SIGNAL).sum()))
        background_kept.append(int((origins == ORIGIN_BACKGROUND).sum()))
    assert signal_kept[0] <= signal_kept[1] <= signal_kept[2]
    assert background_kept[0] < background_kept[1] < background_kept[2]


def test_lock_clock_lost_when_signal_stops():
    params = SystemParams(background_rate_cps=30000.0)
    n_pulses = 1_000_000  # 0.2 s of signal, then 0.3 s of bare background
    rec = generate_alice_record(params, n_pulses, seed("lostr"), start_time_s=0.0)
    events = simulate_detections(rec, params, seed("lostd"))
    events = add_background(events, params, 0.5, seed("lostb"))
    stream = multiplex_two_channel(events, duration_s=0.5)
    with pytest.raises(LockLost):
        lock_clock(stream, 0.0, SyncConfig())


def test_gate_assign_degenerate_full_period_keeps_everything():
    rng = np.random.default_rng(3)
    times = np.sort(rng.random(5000) * 1e-3)
    direct, delayed, _ = _gate_assign(times, 0.0, 200e-9, 40e-9, 200e-9)
    assert np.all(direct | delayed)


def test_phase_histogram_shows_two_peaks(tmp_path):
    stream, _ = signal_stream("hist", background_cps=5000.0, skew_ppm=10.0)
    cfg = SyncConfig()
    gated = lock_clock(stream, detect_start(stream, cfg), cfg)
    path = tmp_path / "phases.csv"
    gated.write_phase_histogram(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "phase_ps,count"
    counts = np.array([int(r.split(",")[1]) for r in rows[1:]])
    phases = np.array([int(r.split(",")[0]) for r in rows[1:]])
    order = np.argsort(counts)
    top_two = np.sort(phases[order[-2:]])
    separation = top_two[1] - top_two[0]
    circular = min(separation, 200_000 - separation)
    assert abs(circular - 40_000) < 3000  # the 40 ns demux delay, in ps


# -- alignment ----------------------------------------------------------------


def aligned_subset(rec, n, offset, error_rate, rng):
    idx = rng.choice(rec.n_pulses - abs(offset) - 1, size=n, replace=False)
    slots = idx - offset
    bases = rec.bases[idx].copy()
    bits = rec.bits[idx].copy()
    flip = rng.random(n) < error_rate
    bits ^= flip.astype(np.uint8)
    return slots, bases, bits


def test_sparse_align_perfect_subset():
    rec = generate_alice_record(SystemParams(), 100_000, seed("al0"))
    rng = np.random.default_rng(5)
    slots, bases, bits = aligned_subset(rec, 300, 0, 0.0, rng)
    result = sparse_align(slots, bases, bits, rec, search_range=2000)
    assert result.start_offset_pulses == 0
    assert result.match_score == 1.0


def test_sparse_align_known_offset_with_errors():
    rec = generate_alice_record(SystemParams(), 200_000, seed("al1"))
    rng = np.random.default_rng(6)
    slots, bases, bits = aligned_subset(rec, 400, 1234, 0.05, rng)
    result = sparse_align(slots, bases, bits, rec, search_range=5000)
    assert result.start_offset_pulses == 1234
    assert result.match_score == pytest.approx(0.95, abs=0.04)


def test_sparse_align_uncorrelated_subset_is_ambiguous():
    rec = generate_alice_record(SystemParams(), 100_000, seed("al2"))
    rng = np.random.default_rng(7)
    slots = np.sort(rng.choice(50_000, size=300, replace=False))
    bases = rng.integers(0, 2, 300).astype(np.uint8)
    bits = rng.integers(0, 2, 300).astype(np.uint8)
    with pytest.raises(AmbiguousAlignment):
        sparse_align(slots, bases, bits, rec, search_range=5000)


def test_sparse_align_enforces_minimum_subset():
    rec = generate_alice_record(SystemParams(), 10_000, seed("al3"))
    with pytest.raises(ValueError):
        sparse_align(
            np.arange(100), np.zeros(100, np.uint8), np.zeros(100, np.uint8), rec
        )


# -- alignment scores against the chunked reference ---------------------------


def _reference_scores(subset_slots, subset_bases, subset_bits, alice, search_range):
    """The original scorer: index/compare tensors over 8192 offsets per chunk."""
    alice_bases = alice.bases
    alice_bits = alice.bits
    n = alice.n_pulses
    offsets = np.arange(-search_range, search_range + 1, dtype=np.int64)
    scores = np.zeros(offsets.size)
    for lo in range(0, offsets.size, 8192):
        chunk = offsets[lo : lo + 8192]
        idx = subset_slots[None, :] + chunk[:, None]
        valid = (idx >= 0) & (idx < n)
        idx_safe = np.clip(idx, 0, n - 1)
        basis_match = valid & (alice_bases[idx_safe] == subset_bases[None, :])
        agree = basis_match & (alice_bits[idx_safe] == subset_bits[None, :])
        matched = basis_match.sum(axis=1)
        good = matched >= _MIN_MATCHED_FOR_SCORE
        with np.errstate(invalid="ignore"):
            s = np.where(good, agree.sum(axis=1) / np.maximum(matched, 1), 0.0)
        scores[lo : lo + chunk.size] = s
    return scores


def pipeline_subset(background_cps, label, duration_s=0.3, k=400):
    """The revealed subset run_once would draw, from a short simulated run."""
    params = SystemParams(background_rate_cps=background_cps)
    stream, rec = signal_stream(
        label, n_pulses=int(duration_s / params.pulse_period_s), params=params,
        skew_ppm=params.clock_skew_ppm,
    )
    cfg = SyncConfig()
    gated = lock_clock(stream, detect_start(stream, cfg), cfg)
    chosen = np.random.default_rng(11).choice(gated.n_events, size=k, replace=False)
    dets = gated.detectors[chosen]
    return gated.slots[chosen], (dets & 1).astype(np.uint8), (dets >> 1).astype(np.uint8), rec


def assert_scores_match(slots, bases, bits, rec, search_range):
    args = (
        np.asarray(slots, dtype=np.int64),
        np.asarray(bases, dtype=np.uint8),
        np.asarray(bits, dtype=np.uint8),
        rec,
        search_range,
    )
    reference = _reference_scores(*args)
    assert _offset_scores(*args).tobytes() == reference.tobytes()
    return reference


@pytest.mark.parametrize("background_cps", [0.0, 50_000.0])
def test_offset_scores_match_reference_on_pipeline_subsets(background_cps):
    slots, bases, bits, rec = pipeline_subset(background_cps, f"ref{background_cps:g}")
    scores = assert_scores_match(slots, bases, bits, rec, 100_000)
    assert scores.max() > 0.5


def test_offset_scores_match_reference_with_slots_outside_the_record():
    rec = generate_alice_record(SystemParams(), 60_000, seed("ref-out"))
    rng = np.random.default_rng(12)
    slots = rng.integers(-20_000, 80_000, 400)
    bases = rng.integers(0, 2, 400)
    bits = rng.integers(0, 2, 400)
    assert (slots < 0).any() and (slots >= rec.n_pulses).any()
    assert_scores_match(slots, bases, bits, rec, 30_000)


def test_offset_scores_match_reference_on_a_record_shorter_than_the_search():
    rec = generate_alice_record(SystemParams(), 3_000, seed("ref-short"))
    rng = np.random.default_rng(13)
    idx = rng.choice(rec.n_pulses, size=250, replace=False)
    slots = idx - 700
    scores = assert_scores_match(slots, rec.bases[idx], rec.bits[idx], rec, 5_000)
    assert int(np.argmax(scores)) - 5_000 == 700

"""Start detection, clock lock, gating and sparse alignment."""

import hashlib
import tracemalloc
from bisect import insort
from dataclasses import replace

import numpy as np
import pytest

from qkdsim.errors import AmbiguousAlignment, InsufficientData, LockLost, NoJumpFound
from qkdsim.params import SystemParams
from qkdsim.photonics import (
    TagStream,
    add_background,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
    state_bases,
    state_bits,
)
from qkdsim.seeds import derive_seed
from qkdsim.sync import (
    _MIN_MATCHED_FOR_SCORE,
    START_DETECT_RATIO,
    START_DETECT_WINDOW,
    _bootstrap_window,
    _sorted_median,
    _offset_scores,
    detect_start,
    lock_clock,
    sparse_align,
)

MASTER = derive_seed(bytes(32), "sync-tests")


def seed(label):
    return derive_seed(MASTER, label)


def background_stream(rate_cps, duration, label):
    # rate_cps over both lines is rate_cps / 4 on each of the four detectors
    params = SystemParams(
        mean_photon_number=1e-9, background_rate_cps=rate_cps / 2, clock_skew_ppm=0.0
    )
    rec = generate_alice_record(10, seed(label + "r"))
    events = simulate_detections(rec, params, seed(label + "d"))
    events = add_background(events, params, duration, seed(label + "b"))
    return multiplex_two_channel(events, params)


def signal_stream(
    label,
    n_pulses=1_500_000,
    lead_in=0.05,
    background_cps=0.0,
    skew_ppm=0.0,
    params=None,
    sample=simulate_detections,
):
    params = params or SystemParams(background_rate_cps=background_cps)
    total = lead_in + n_pulses * params.pulse_period_s
    rec = generate_alice_record(n_pulses, seed(label + "r"), start_time_s=lead_in)
    events = sample(rec, params, seed(label + "d"))
    events = add_background(events, params, total, seed(label + "b"))
    stream = multiplex_two_channel(events, replace(params, clock_skew_ppm=skew_ppm))
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
    )
    onset = detect_start(stream)
    assert 0.4 <= onset <= 0.6


def test_detect_start_pure_background_raises():
    stream = background_stream(4000.0, 2.0, "pure")
    with pytest.raises(NoJumpFound):
        detect_start(stream)


def test_detect_start_zero_background_returns_first_tag():
    stream, _ = signal_stream("zb", n_pulses=500_000, lead_in=0.3)
    onset = detect_start(stream)
    assert onset == pytest.approx(stream.times_s[0], abs=1e-3)


def test_detect_start_at_bright_background():
    # per-channel 26000 cps: the jump is only ~1.3x, still detected
    stream, _ = signal_stream("bright", background_cps=26000.0, skew_ppm=10.0)
    onset = detect_start(stream)
    assert abs(onset - 0.05) < 0.02



def _reference_detect_start(stream, medians=None):
    """The np.median loop over a growing list of window rates.

    Appends (baselines seen, trailing median) to ``medians`` at every
    window it compares, so a test can see which cases it reached.
    """
    from qkdsim.sync import _refine_onset, _window_rates

    times = stream.times_s
    width = START_DETECT_WINDOW
    if times.size < max(8, width // 8):
        raise NoJumpFound("too few tags to detect a rate jump")
    width = min(width, times.size)
    stride = max(width // 2, 1)
    baselines = []
    if times[0] > times[width - 1] - times[0]:
        baselines.append(1.0 / times[0])
    starts, rates = _window_rates(times, width, stride)
    for k in range(starts.size):
        if baselines:
            trailing = float(np.median(baselines))
            if medians is not None:
                medians.append((len(baselines), trailing))
            if rates[k] > START_DETECT_RATIO * trailing:
                lo = max(int(starts[k]) - width, 0)
                hi = min(int(starts[k]) + 2 * width, times.size)
                return _refine_onset(times, lo, hi)
        baselines.append(float(rates[k]))
    raise NoJumpFound("no window exceeded the trailing background rate")


def _start_or_no_jump(detect, stream, **kwargs):
    try:
        return detect(stream, **kwargs)
    except NoJumpFound:
        return "NoJumpFound"


@pytest.mark.parametrize("background_cps", [0.0, 25000.0, 80000.0, 100000.0, 150000.0])
def test_detect_start_matches_median_loop_reference(background_cps):
    outcomes = []
    for k in range(3):
        stream, _ = signal_stream(
            f"ds{background_cps:g}-{k}", n_pulses=2_500_000, background_cps=background_cps
        )
        medians = []
        want = _start_or_no_jump(_reference_detect_start, stream, medians=medians)
        assert _start_or_no_jump(detect_start, stream) == want
        outcomes.append(want)
        if background_cps == 0.0:
            # the quiet lead-in seeds the baselines before the first window
            assert medians[0] == (1, 1.0 / stream.times_s[0])
    if background_cps == 150000.0:
        assert "NoJumpFound" in outcomes


def test_running_median_is_np_median():
    # infinite rates first, so the even-count mean meets inf beside a finite
    # value; then ties and distinct values in random order
    rng = np.random.default_rng(19)
    rest = np.concatenate([rng.random(300) * 1e5, np.repeat(rng.random(5) * 1e5, 20)])
    values = np.concatenate([np.full(40, np.inf), rng.permutation(rest)])
    running = []
    for v in values.tolist():
        insort(running, v)
        assert _sorted_median(running) == float(np.median(running)), len(running)


def _stream_with_repeated_times(label):
    """Background with clusters of identical tag times and a rate step.

    A window inside a cluster spans zero time and has rate ``inf``. The
    clusters lead the stream from t = 0 (no lead-in baseline), so the
    early trailing medians are infinite until the quiet windows outnumber
    them; the loud half then stands out.
    """
    rng = np.random.default_rng(np.frombuffer(seed(label)[:8], np.uint64))
    cluster_at = np.concatenate([[0.0], rng.random(5) * 0.05])
    clusters = np.repeat(cluster_at, rng.integers(4000, 8000, cluster_at.size))
    quiet = 0.05 + rng.random(100_000) * 0.95
    loud = 1.0 + rng.random(300_000) * 1.0
    times = np.sort(np.concatenate([quiet, loud, clusters]))
    return TagStream(times_s=times, lines=np.zeros(times.size, np.uint8))


@pytest.mark.parametrize("label", ["dup0", "dup1", "dup2"])
def test_detect_start_matches_median_loop_reference_on_repeated_times(label):
    stream = _stream_with_repeated_times(label)
    medians = []
    want = _start_or_no_jump(_reference_detect_start, stream, medians=medians)
    assert _start_or_no_jump(detect_start, stream) == want
    assert {n % 2 for n, _ in medians} == {0, 1}
    assert any(np.isinf(m) for _, m in medians) and np.isfinite(medians[-1][1])
    assert want != "NoJumpFound"


# -- clock lock ---------------------------------------------------------------


def test_lock_clock_ideal_stream_keeps_every_tag():
    # zero skew, zero background, negligible jitter: slots equal pulse indices
    params = SystemParams(pulse_jitter_rms_s=1e-13, clock_skew_ppm=0.0)
    stream, rec = signal_stream("ideal", n_pulses=400_000, params=params)
    gated = lock_clock(stream, detect_start(stream), params)
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
    rec = generate_alice_record(n_pulses, seed("skr"), start_time_s=0.05)
    events = simulate_detections(rec, params, seed("skd"))
    kept = {}
    for ppm in (0.0, 10.0):
        stream = multiplex_two_channel(events, replace(params, clock_skew_ppm=ppm))
        gated = lock_clock(stream, detect_start(stream), params)
        kept[ppm] = gated.n_events / stream.n_tags
    assert kept[10.0] >= 0.99 * kept[0.0]


def test_lock_clock_slot_consistency_under_skew():
    stream, rec = signal_stream("slots", n_pulses=2_500_000, skew_ppm=10.0)
    gated = lock_clock(stream, detect_start(stream), SystemParams())
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
    start = detect_start(stream)
    gated = lock_clock(stream, start, SystemParams())
    in_span = stream.times_s >= start
    n_bg = int((stream.truth_pulses[in_span] < 0).sum())
    background = stream.truth_pulses[gated.tag_indices] < 0
    kept_bg = int(background.sum())
    expected = n_bg * 2 * (5e-9 / 200e-9)
    assert abs(kept_bg - expected) < 3 * np.sqrt(expected)
    # split per window: the direct and delayed windows each catch ~1/40
    kept_direct = int((background & (gated.detectors < 2)).sum())
    assert abs(kept_direct - expected / 2) < 4 * np.sqrt(expected / 2)


def test_lock_clock_monotone_in_gate_width():
    params = SystemParams(background_rate_cps=20000.0)
    stream, _ = signal_stream("mono", params=params, skew_ppm=10.0)
    signal_kept, background_kept = [], []
    for gate_ns in (3.0, 5.0, 7.0):
        gate = replace(params, gate_width_s=gate_ns * 1e-9)
        pulses = stream.truth_pulses[lock_clock(stream, detect_start(stream), gate).tag_indices]
        signal_kept.append(int((pulses >= 0).sum()))
        background_kept.append(int((pulses < 0).sum()))
    assert signal_kept[0] <= signal_kept[1] <= signal_kept[2]
    assert background_kept[0] < background_kept[1] < background_kept[2]


# Known answers of lock_clock over 0.5 s at 10 ppm skew (five drift
# intervals), recorded before the intervals were taken as slices:
# background -> (gated events, recovered period, SHA-256 of slots,
# detectors, tag indices and phase histogram). The stream comes from the
# per-pulse reference sampler, so only lock_clock moves these answers.
LOCK_KNOWN_ANSWERS = {
    0.0: (16568, 2.0000199993202285e-07,
          "064164406f6303e979f71e0e65d34f6f0afdded393d60d739a113ea84a543c6e"),
    80000.0: (20621, 2.0000200007153992e-07,
              "d79b607e5a7d429f8d2dfb61af3d3d6d74db247f99c6c4f78499b0855056c7f0"),
}


@pytest.mark.parametrize("background_cps", sorted(LOCK_KNOWN_ANSWERS))
def test_lock_clock_known_answer(reference_sampler, background_cps):
    stream, _ = signal_stream(
        f"ka{background_cps:g}", n_pulses=2_500_000, background_cps=background_cps, skew_ppm=10.0,
        sample=reference_sampler,
    )
    gated = lock_clock(stream, detect_start(stream), SystemParams())
    digest = hashlib.sha256()
    for a in (gated.slots, gated.detectors, gated.tag_indices, gated.phase_histogram):
        digest.update(np.ascontiguousarray(a).tobytes())
    got = (gated.n_events, float(gated.recovered_period_s), digest.hexdigest())
    assert got == LOCK_KNOWN_ANSWERS[background_cps]



# Known answers of lock_clock from a start detected early, so the
# bootstrap slides past its first window: background -> (seconds early,
# gated events, recovered period, SHA-256 as above), recorded before the
# lock windows were taken as slices.
EARLY_LOCK_KNOWN_ANSWERS = {
    25000.0: (0.005, 17767, 2.0000199998528936e-07,
              "e0488903ae2f5269c7ea51d915986d8200ea96d6f9a620e6f87bf14205dbbab8"),
    80000.0: (0.01, 20433, 2.0000200009738954e-07,
              "456d44d4d4bb6e34cb613bae3d430b8df40b3258927ee39f37b6ca22e6fd214e"),
}


@pytest.mark.parametrize("background_cps", sorted(EARLY_LOCK_KNOWN_ANSWERS))
def test_lock_clock_known_answer_from_an_early_start(reference_sampler, background_cps):
    early, *answer = EARLY_LOCK_KNOWN_ANSWERS[background_cps]
    stream, _ = signal_stream(
        f"early{background_cps:g}", n_pulses=2_500_000, background_cps=background_cps,
        skew_ppm=10.0, sample=reference_sampler,
    )
    start = detect_start(stream) - early
    params = SystemParams()
    t = stream.times_s[stream.times_s >= start] - start
    assert _bootstrap_window(t, params.pulse_period_s, params.gate_width_s)[0] > 0
    gated = lock_clock(stream, start, params)
    digest = hashlib.sha256()
    for a in (gated.slots, gated.detectors, gated.tag_indices, gated.phase_histogram):
        digest.update(np.ascontiguousarray(a).tobytes())
    got = [gated.n_events, float(gated.recovered_period_s), digest.hexdigest()]
    assert got == answer


@pytest.mark.parametrize("boundary_s", [0.6, 1.3])
def test_lock_clock_histograms_a_tag_on_an_interval_boundary_once(boundary_s):
    # 6 * 0.1 and 5 * 0.1 + 0.1 differ by one ulp, as do 13 * 0.1 and
    # 12 * 0.1 + 0.1: a tag exactly there still lies in exactly one interval
    params = SystemParams(clock_skew_ppm=0.0)
    rng = np.random.default_rng(7)
    slots = np.unique(rng.integers(0, 6_750_000, 40_000))  # 1.35 s of pulses
    times = 50e-9 + slots * params.pulse_period_s
    lines = rng.integers(0, 2, slots.size).astype(np.uint8)
    at = int(np.searchsorted(times, boundary_s))
    extra = TagStream(np.insert(times, at, boundary_s), np.insert(lines, at, 0))
    before = lock_clock(TagStream(times, lines), 0.0, params).phase_histogram.sum()
    assert lock_clock(extra, 0.0, params).phase_histogram.sum() == before + 1


# Known answers of lock_clock over 1 s at 10 ppm skew with two gaps
# mid-stream: no tags in the drift interval [0.3, 0.4) s after the start
# and 12 (below MIN_TAGS_PER_INTERVAL) in [0.6, 0.7) s, each followed by
# tracked intervals. background -> (gated events, recovered period,
# SHA-256 as above), recorded before gating became one pass over the
# stream.
GAP_LOCK_KNOWN_ANSWERS = {
    0.0: (26224, 2.000019999929964e-07,
          "9d60a4d1c4fb5f6c3f91ca52c2522fa276663f2348448b39f59f9200949d503f"),
    25000.0: (28464, 2.0000199997256505e-07,
              "a33d9b15e4eb0c27167d1e643741628ba0c8c43cc56a73cfc95f41f291510ed6"),
}


@pytest.mark.parametrize("background_cps", sorted(GAP_LOCK_KNOWN_ANSWERS))
def test_lock_clock_known_answer_across_an_empty_and_a_sparse_interval(
    reference_sampler, background_cps
):
    stream, _ = signal_stream(
        f"gap{background_cps:g}", n_pulses=5_000_000, background_cps=background_cps,
        skew_ppm=10.0, sample=reference_sampler,
    )
    start = detect_start(stream)
    t = stream.times_s - start
    drop = (t >= 0.3) & (t < 0.4)
    drop[np.flatnonzero((t >= 0.6) & (t < 0.7))[12:]] = True
    gapped = TagStream(stream.times_s[~drop], stream.lines[~drop])
    gated = lock_clock(gapped, start, SystemParams())
    digest = hashlib.sha256()
    for a in (gated.slots, gated.detectors, gated.tag_indices, gated.phase_histogram):
        digest.update(np.ascontiguousarray(a).tobytes())
    got = (gated.n_events, float(gated.recovered_period_s), digest.hexdigest())
    assert got == GAP_LOCK_KNOWN_ANSWERS[background_cps]


def test_lock_clock_memory_stays_small():
    # about 6.4 MB with each whole-stream temporary freed at its last use;
    # one of them (or a view of it) kept alive longer takes it past 8 MB,
    # and all of them kept to the end of the call near 16 MB
    stream, _ = signal_stream("mem", n_pulses=5_000_000, background_cps=80000.0, skew_ppm=10.0)
    start = detect_start(stream)
    lock_clock(stream, start, SystemParams())  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        lock_clock(stream, start, SystemParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6


def test_lock_clock_lost_when_signal_stops():
    params = SystemParams(background_rate_cps=30000.0)
    n_pulses = 1_000_000  # 0.2 s of signal, then 0.3 s of bare background
    rec = generate_alice_record(n_pulses, seed("lostr"), start_time_s=0.0)
    events = simulate_detections(rec, params, seed("lostd"))
    events = add_background(events, params, 0.5, seed("lostb"))
    stream = multiplex_two_channel(events, replace(params, clock_skew_ppm=0.0))
    with pytest.raises(LockLost):
        lock_clock(stream, 0.0, params)


def test_phase_histogram_shows_two_peaks(tmp_path):
    stream, _ = signal_stream("hist", background_cps=5000.0, skew_ppm=10.0)
    gated = lock_clock(stream, detect_start(stream), SystemParams())
    path = tmp_path / "phases.csv"
    with open(path, "w", newline="") as fh:
        gated.write_phase_histogram(fh)
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
    bases = state_bases(rec.states)[idx].copy()
    bits = state_bits(rec.states)[idx].copy()
    flip = rng.random(n) < error_rate
    bits ^= flip.astype(np.uint8)
    return slots, bases, bits


def test_sparse_align_perfect_subset():
    rec = generate_alice_record(100_000, seed("al0"))
    rng = np.random.default_rng(5)
    slots, bases, bits = aligned_subset(rec, 300, 0, 0.0, rng)
    result = sparse_align(slots, bits << 1 | bases, rec, search_range=2000)
    assert result.start_offset_pulses == 0
    assert result.match_score == 1.0


def test_sparse_align_known_offset_with_errors():
    rec = generate_alice_record(200_000, seed("al1"))
    rng = np.random.default_rng(6)
    slots, bases, bits = aligned_subset(rec, 400, 1234, 0.05, rng)
    result = sparse_align(slots, bits << 1 | bases, rec, search_range=5000)
    assert result.start_offset_pulses == 1234
    assert result.match_score == pytest.approx(0.95, abs=0.04)


def test_sparse_align_uncorrelated_subset_is_ambiguous():
    rec = generate_alice_record(100_000, seed("al2"))
    rng = np.random.default_rng(7)
    slots = np.sort(rng.choice(50_000, size=300, replace=False))
    bases = rng.integers(0, 2, 300).astype(np.uint8)
    bits = rng.integers(0, 2, 300).astype(np.uint8)
    with pytest.raises(AmbiguousAlignment):
        sparse_align(slots, bits << 1 | bases, rec, search_range=5000)


def test_sparse_align_enforces_minimum_subset():
    rec = generate_alice_record(10_000, seed("al3"))
    with pytest.raises(InsufficientData):
        sparse_align(np.arange(100), np.zeros(100, np.uint8), rec, 100_000)


# -- alignment scores against the chunked reference ---------------------------


def _reference_scores(subset_slots, subset_bases, subset_bits, alice, search_range):
    """The original scorer: index/compare tensors over 8192 offsets per chunk."""
    alice_bases = state_bases(alice.states)
    alice_bits = state_bits(alice.states)
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
    gated = lock_clock(stream, detect_start(stream), params)
    chosen = np.random.default_rng(11).choice(gated.n_events, size=k, replace=False)
    dets = gated.detectors[chosen]
    return gated.slots[chosen], (dets & 1).astype(np.uint8), (dets >> 1).astype(np.uint8), rec


def assert_scores_match(slots, bases, bits, rec, search_range):
    slots = np.asarray(slots, dtype=np.int64)
    bases = np.asarray(bases, dtype=np.uint8)
    bits = np.asarray(bits, dtype=np.uint8)
    reference = _reference_scores(slots, bases, bits, rec, search_range)
    scores = _offset_scores(slots, bits << 1 | bases, rec, search_range)
    assert scores.tobytes() == reference.tobytes()
    return reference


@pytest.mark.parametrize("background_cps", [0.0, 50_000.0])
def test_offset_scores_match_reference_on_pipeline_subsets(background_cps):
    slots, bases, bits, rec = pipeline_subset(background_cps, f"ref{background_cps:g}")
    scores = assert_scores_match(slots, bases, bits, rec, 100_000)
    assert scores.max() > 0.5


def test_offset_scores_match_reference_with_slots_outside_the_record():
    rec = generate_alice_record(60_000, seed("ref-out"))
    rng = np.random.default_rng(12)
    slots = rng.integers(-20_000, 80_000, 400)
    bases = rng.integers(0, 2, 400)
    bits = rng.integers(0, 2, 400)
    assert (slots < 0).any() and (slots >= rec.n_pulses).any()
    assert_scores_match(slots, bases, bits, rec, 30_000)


def test_offset_scores_match_reference_on_a_record_shorter_than_the_search():
    rec = generate_alice_record(3_000, seed("ref-short"))
    rng = np.random.default_rng(13)
    idx = rng.choice(rec.n_pulses, size=250, replace=False)
    slots = idx - 700
    scores = assert_scores_match(
        slots, state_bases(rec.states)[idx], state_bits(rec.states)[idx], rec, 5_000
    )
    assert int(np.argmax(scores)) - 5_000 == 700


@pytest.mark.parametrize("n_events", [255, 256, 510, 1000])
def test_offset_scores_match_reference_across_the_counter_flush(n_events):
    # Aligned events put every event's agreement on one offset, and each
    # other offset collects about n/2 basis mismatches, so both counters
    # pass 255 once n does.
    rec = generate_alice_record(20_000, seed(f"flush{n_events}"))
    rng = np.random.default_rng(n_events)
    slots, bases, bits = aligned_subset(rec, n_events, 321, 0.02, rng)
    scores = assert_scores_match(slots, bases, bits, rec, 3_000)
    assert int(np.argmax(scores)) - 3_000 == 321


def test_offset_scores_match_reference_with_repeated_slots():
    rec = generate_alice_record(30_000, seed("ref-rep"))
    rng = np.random.default_rng(15)
    slots, bases, bits = aligned_subset(rec, 150, 40, 0.1, rng)
    slots = np.concatenate([slots, slots, slots[:50]])
    bases = np.concatenate([bases, 1 - bases, bases[:50]])
    bits = np.concatenate([bits, bits, 1 - bits[:50]])
    assert_scores_match(slots, bases, bits, rec, 2_000)


def test_offset_scores_match_reference_at_zero_search_range():
    rec = generate_alice_record(5_000, seed("ref-zero"))
    rng = np.random.default_rng(16)
    slots, bases, bits = aligned_subset(rec, 300, 0, 0.05, rng)
    scores = assert_scores_match(slots, bases, bits, rec, 0)
    assert scores.shape == (1,) and scores[0] > 0.9


def test_sparse_align_runner_up_is_the_second_highest_score():
    rec = generate_alice_record(100_000, seed("al-runner"))
    rng = np.random.default_rng(17)
    slots, bases, bits = aligned_subset(rec, 400, 777, 0.05, rng)
    result = sparse_align(slots, bits << 1 | bases, rec, search_range=5000)
    reference = _reference_scores(
        np.asarray(slots, np.int64), bases, bits, rec, 5000
    )
    order = np.argsort(reference)
    assert result.start_offset_pulses == int(order[-1]) - 5000 == 777
    assert result.match_score == reference[order[-1]]
    assert result.runner_up_score == reference[order[-2]]


def test_sparse_align_raises_on_a_planted_tie_at_the_top():
    # A record that repeats every 1000 pulses scores offsets 1000 apart alike.
    period = generate_alice_record(1_000, seed("al-tie"))
    rec = replace(period, states=np.tile(period.states, 20))
    rng = np.random.default_rng(18)
    idx = rng.choice(np.arange(5_000, 15_000), size=300, replace=False)
    slots = idx - 200
    bases = state_bases(rec.states)[idx]
    bits = state_bits(rec.states)[idx]
    scores = _offset_scores(slots, bits << 1 | bases, rec, 1_500)
    top = np.flatnonzero(scores == scores.max())
    assert top.tolist() == [700, 1700, 2700]  # offsets -800, 200 and 1200
    with pytest.raises(AmbiguousAlignment, match="1.000 vs 1.000"):
        sparse_align(slots, bits << 1 | bases, rec, search_range=1_500)

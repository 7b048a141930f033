"""Start detection, clock recovery, gating and index alignment.

Bob records blind: no timing reference crosses the channel. Everything
is recovered from the tag stream itself in three steps.

1. ``detect_start`` finds the jump in tag rate when the transmitter
   switches on, by comparing sliding-window rates against the trailing
   background estimate.
2. ``lock_clock`` locks onto the pulse grid. Tags repeat every period at
   two phases (the direct lines and the two channels delayed by 40 ns),
   so a circular histogram of tag time modulo the period shows a
   two-peak signature. A short bootstrap ladder pins the receiver clock
   skew by comparing peak phases across geometrically growing baselines;
   after that the phase is re-estimated every drift interval and tags
   within half a gate of either peak are kept, demultiplexed back onto
   four channels, and assigned pulse slots.
3. ``sparse_align`` maps Bob's slot numbering onto Alice's pulse indices
   by scoring a small revealed subset of (slot, basis, bit) triples
   against her record at every candidate offset.
"""

import csv
from dataclasses import dataclass

import numpy as np

from qkdsim.errors import AmbiguousAlignment, InsufficientData, LockLost, NoJumpFound
from qkdsim.photonics import AliceRecord, TagStream

_MIN_PEAK_TAGS = 20  # in-window tags before a bootstrap peak is trusted


@dataclass(frozen=True)
class SyncConfig:
    period_s: float = 200e-9
    gate_width_s: float = 5e-9
    drift_update_interval_s: float = 0.1
    start_detect_window: int = 1024  # tags per rate window
    start_detect_ratio: float = 1.2  # rate jump that counts as signal
    demux_delay_s: float = 40e-9
    bootstrap_window_s: float = 2e-3
    max_skew_ppm: float = 25.0  # widest clock skew the bootstrap scans for
    min_peak_ratio: float = 3.0  # peak/uniform score below which lock is lost
    min_tags_per_interval: int = 30
    min_alignment_subset: int = 200
    alignment_margin: float = 0.1

    def __post_init__(self):
        if not self.gate_width_s < self.demux_delay_s:
            raise ValueError("gate width must stay below the demux delay")
        if not self.drift_update_interval_s > 0:
            raise ValueError("drift update interval must be positive")
        if self.start_detect_window < 4:
            raise ValueError("start detection window too small")


@dataclass
class GatedEvents:
    """Gated, demultiplexed detections on Bob's slot grid."""

    slots: np.ndarray  # int64 pulse slot per kept tag
    detectors: np.ndarray  # uint8, demultiplexed back to 0..3
    tag_indices: np.ndarray  # positions in the source stream (oracle use)
    recovered_period_s: float
    phase_bin_s: float
    phase_histogram: np.ndarray  # residual-phase counts over one period

    @property
    def n_events(self) -> int:
        return int(self.slots.size)

    def write_phase_histogram(self, path) -> None:
        """Residual-phase histogram as CSV (phase_ps, count): the two-peak
        signature of the direct and delayed channels."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase_ps", "count"])
            for i, count in enumerate(self.phase_histogram):
                writer.writerow([int(round((i + 0.5) * self.phase_bin_s * 1e12)), int(count)])


@dataclass
class AlignmentResult:
    start_offset_pulses: int
    match_score: float
    runner_up_score: float
    subset_slots: np.ndarray
    subset_bases: np.ndarray
    subset_bits: np.ndarray


# ---------------------------------------------------------------------------
# start detection


def _window_rates(times: np.ndarray, width: int, stride: int):
    starts = np.arange(0, times.size - width + 1, stride)
    spans = times[starts + width - 1] - times[starts]
    rates = np.where(spans > 0, width / np.maximum(spans, 1e-12), np.inf)
    return starts, rates


def _refine_onset(times: np.ndarray, lo: int, hi: int) -> float:
    """Two-segment Poisson changepoint MLE over the tags in [lo, hi).

    Candidate onset j splits the region into j tags over the leading span
    and n - j over the trailing span; the split maximizing the joint rate
    likelihood is far more stable than local before/after rate ratios,
    which fluctuate badly over a few dozen tags.
    """
    seg = times[lo:hi]
    n = seg.size
    if n < 3:
        return float(seg[0])
    t_origin = times[lo - 1] if lo > 0 else 0.0
    t_end = float(seg[-1])
    j = np.arange(1, n - 1)
    span_before = np.maximum(seg[j] - t_origin, 1e-12)
    span_after = np.maximum(t_end - seg[j], 1e-12)
    log_lik = j * np.log(j / span_before) + (n - j) * np.log((n - j) / span_after)
    return float(seg[int(j[np.argmax(log_lik)])])


def detect_start(stream: TagStream, cfg: SyncConfig) -> float:
    """Time at which the transmission begins, from the tag-rate jump.

    The trailing background rate is the median of all window rates seen
    so far (seeded with the empty lead-in before the first tag); the
    first window exceeding ``start_detect_ratio`` times that estimate is
    refined down to the steepest local rate jump.
    """
    times = stream.times_s
    width = cfg.start_detect_window
    if times.size < max(8, width // 8):
        raise NoJumpFound("too few tags to detect a rate jump")
    width = min(width, times.size)
    stride = max(width // 2, 1)

    baselines = []
    first_span = times[width - 1] - times[0]
    if times[0] > first_span:
        # a quiet lead-in longer than the first window's own span is real
        # evidence of a low trailing rate (the zero-background case)
        baselines.append(1.0 / times[0])
    starts, rates = _window_rates(times, width, stride)
    for k in range(starts.size):
        if baselines:
            trailing = float(np.median(baselines))
            if rates[k] > cfg.start_detect_ratio * trailing:
                lo = max(int(starts[k]) - width, 0)
                hi = min(int(starts[k]) + 2 * width, times.size)
                return _refine_onset(times, lo, hi)
        baselines.append(float(rates[k]))
    raise NoJumpFound("no window exceeded the trailing background rate")


# ---------------------------------------------------------------------------
# clock lock


def _circ_diff(a, b, period):
    """Signed circular difference a - b wrapped into [-period/2, period/2)."""
    return (a - b + period / 2.0) % period - period / 2.0


def _rolling_window_sum(hist: np.ndarray, width_bins: int) -> np.ndarray:
    padded = np.concatenate([hist, hist[:width_bins]])
    c = np.concatenate([[0], np.cumsum(padded)])
    return (c[width_bins:] - c[:-width_bins])[: hist.size]


def _peak_phase(times: np.ndarray, period: float, delay: float, gate: float):
    """Direct-channel peak phase of a tag batch.

    Scores every candidate phase by the tags inside a gate-wide window
    there plus a second window one demux delay later, then refines the
    winner with a circular mean. Returns (phase, peak-to-uniform ratio,
    tags in the two windows).
    """
    nbins = max(int(round(period / (gate / 4.0))), 8)
    binw = period / nbins
    phases = times % period
    hist = np.bincount(
        np.minimum((phases / binw).astype(np.int64), nbins - 1), minlength=nbins
    )
    wb = max(int(round(gate / binw)), 1)
    window = _rolling_window_sum(hist, wb)
    shift = int(round(delay / binw)) % nbins
    score = window + np.roll(window, -shift)
    b = int(np.argmax(score))
    coarse = (b + wb / 2.0) * binw

    d_direct = _circ_diff(phases, coarse, period)
    d_delayed = _circ_diff(phases, (coarse + delay) % period, period)
    in_direct = np.abs(d_direct) <= gate / 2.0
    in_delayed = np.abs(d_delayed) <= gate / 2.0
    resid = np.concatenate([d_direct[in_direct], d_delayed[in_delayed]])
    if resid.size == 0:
        return coarse % period, 0.0, 0
    phase = (coarse + resid.mean()) % period
    covered = min(2.0 * wb / nbins, 1.0)
    expected_uniform = max(times.size * covered, 1e-9)
    return phase, resid.size / expected_uniform, resid.size


def _gate_assign(times: np.ndarray, phase_track: float, period: float, delay: float, gate: float):
    """Split tags into direct/delayed gate windows and assign pulse slots."""
    rel = times - phase_track
    ph = rel % period
    direct = np.minimum(ph, period - ph) <= gate / 2.0
    ph_del = (rel - delay) % period
    delayed = (np.minimum(ph_del, period - ph_del) <= gate / 2.0) & ~direct
    slots = np.where(
        delayed, np.round((rel - delay) / period), np.round(rel / period)
    ).astype(np.int64)
    return direct, delayed, slots


def _bootstrap_window(t, period, delay, gate, cfg):
    """Find the first window with a real two-peak signature and its skew.

    The detected start can sit up to a drift interval off the true onset,
    so windows are slid forward until one locks. An unknown skew smears
    the phase histogram (25 ppm walks 50 ns in 2 ms), so each window is
    scanned over skew hypotheses spaced to keep the residual smear inside
    half a gate.
    """
    w = cfg.bootstrap_window_s
    while (t < w).sum() < cfg.min_tags_per_interval and w < cfg.drift_update_interval_s:
        w *= 2.0
    spacing = gate / (2.0 * w)
    n_side = int(np.ceil(cfg.max_skew_ppm * 1e-6 / spacing))
    candidates = np.arange(-n_side, n_side + 1) * spacing
    limit = min(1.5 * cfg.drift_update_interval_s, float(t[-1]))
    ws = 0.0
    while ws <= limit:
        boot = (t >= ws) & (t < ws + w)
        if boot.sum() >= cfg.min_tags_per_interval:
            tau0 = float(t[boot].mean())
            ratio, alpha, phase0, n_in = -1.0, 0.0, 0.0, 0
            for a in candidates:
                tc = tau0 + (t[boot] - tau0) / (1.0 + a)
                cand_phase, cand_ratio, cand_n = _peak_phase(tc, period, delay, gate)
                if cand_ratio > ratio:
                    ratio, alpha, phase0, n_in = cand_ratio, float(a), cand_phase, cand_n
            if ratio >= cfg.min_peak_ratio and n_in >= _MIN_PEAK_TAGS:
                return ws, w, tau0, alpha, phase0
        ws += w
    raise LockLost("no dominant phase peak within a drift interval of the start")


def lock_clock(stream: TagStream, start_s: float, cfg: SyncConfig) -> GatedEvents:
    """Lock to the pulse grid from ``start_s`` onward and gate the stream."""
    period, gate, delay = cfg.period_s, cfg.gate_width_s, cfg.demux_delay_s
    picked = np.flatnonzero(stream.times_s >= start_s)
    if picked.size < cfg.min_tags_per_interval:
        raise LockLost("too few tags after the detected start")
    t = stream.times_s[picked] - start_s
    lines = stream.lines[picked].astype(np.uint8)
    horizon = float(t[-1])

    lock_at, w, tau0, alpha, phase0 = _bootstrap_window(t, period, delay, gate, cfg)
    if lock_at > 0:
        # tags before the locked window predate the transmission; their
        # slots would map below the transmitter's record anyway
        keep = t >= lock_at
        picked, t, lines = picked[keep], t[keep], lines[keep]

    # Pin the skew on geometrically longer baselines so the drift over one
    # tracking interval stays inside a fraction of the gate.
    reach = min(cfg.drift_update_interval_s, horizon - lock_at)
    delta = w
    while delta < reach:
        delta = min(delta * 4.0, reach)
        probe = (t >= lock_at + delta - w) & (t < lock_at + delta)
        if probe.sum() < cfg.min_tags_per_interval:
            continue
        tc = tau0 + (t[probe] - tau0) / (1.0 + alpha)
        phase1, ratio1, _ = _peak_phase(tc, period, delay, gate)
        if ratio1 < cfg.min_peak_ratio:
            continue
        baseline = float(t[probe].mean()) - tau0
        alpha += _circ_diff(phase1, phase0, period) / baseline

    # Tracking: re-estimate the phase every drift interval, gate with it,
    # and keep the unwrapped phase series for the final period refit.
    nbins = max(int(round(period / (gate / 4.0))), 8)
    histogram = np.zeros(nbins, dtype=np.int64)
    binw = period / nbins
    phase_track = phase0
    track_times, track_phases = [], []
    out_slots, out_dets, out_idx = [], [], []

    n_intervals = int(np.ceil(horizon / cfg.drift_update_interval_s)) or 1
    for k in range(n_intervals):
        lo = k * cfg.drift_update_interval_s
        hi = lo + cfg.drift_update_interval_s
        m = (t >= lo) & (t < hi) if k < n_intervals - 1 else (t >= lo)
        count = int(m.sum())
        if count == 0:
            continue
        tc = tau0 + (t[m] - tau0) / (1.0 + alpha)
        if count >= cfg.min_tags_per_interval:
            phase_k, ratio_k, _ = _peak_phase(tc, period, delay, gate)
            if ratio_k < cfg.min_peak_ratio:
                raise LockLost(
                    f"interval {k}: peak ratio {ratio_k:.2f} below {cfg.min_peak_ratio}"
                )
            phase_track = phase_track + _circ_diff(phase_k, phase_track % period, period)
            track_times.append(float(tc.mean()))
            track_phases.append(phase_track)
        # tags with few neighbours coast on the last phase estimate
        direct, delayed, slots = _gate_assign(tc, phase_track, period, delay, gate)
        kept = direct | delayed
        out_slots.append(slots[kept])
        det = lines[m][kept] + np.where(delayed[kept], 2, 0).astype(np.uint8)
        out_dets.append(det.astype(np.uint8))
        out_idx.append(picked[m][kept])
        resid = (tc - (phase_track - phase0)) % period
        histogram += np.bincount(
            np.minimum((resid / binw).astype(np.int64), nbins - 1), minlength=nbins
        )

    slots = np.concatenate(out_slots) if out_slots else np.empty(0, np.int64)
    dets = np.concatenate(out_dets) if out_dets else np.empty(0, np.uint8)
    idx = np.concatenate(out_idx) if out_idx else np.empty(0, np.int64)
    # anchor slot numbers at the lock point: however far off the detected
    # start was, the offset alignment must search stays bounded by the
    # bootstrap slide, not by start-detection accuracy
    slots -= int(round(lock_at / period))

    # One event per (slot, line): a later arrival in an already occupied
    # window is a collision artefact and is dropped.
    key = slots * 2 + (dets & 1)
    _, first = np.unique(key, return_index=True)
    first.sort()
    slots, dets, idx = slots[first], dets[first], idx[first]

    if len(track_times) >= 2:
        slope = np.polyfit(track_times, track_phases, 1)[0]
    else:
        slope = 0.0
    recovered_period = period * (1.0 + alpha) * (1.0 + slope)

    return GatedEvents(
        slots=slots,
        detectors=dets,
        tag_indices=idx,
        recovered_period_s=recovered_period,
        phase_bin_s=binw,
        phase_histogram=histogram,
    )


# ---------------------------------------------------------------------------
# alignment

_MIN_MATCHED_FOR_SCORE = 20


def _offset_scores(
    subset_slots: np.ndarray,
    subset_bases: np.ndarray,
    subset_bits: np.ndarray,
    alice: AliceRecord,
    search_range: int,
) -> np.ndarray:
    """Agreement score at each offset in [-search_range, search_range].

    Event (s, b, v) meets Alice's pulse s + o at offset o, so for every
    event one slice of her record adds its basis matches and its
    agreements to the per-offset counters; slots whose pulse falls
    outside the record add nothing. Offsets with fewer than
    ``_MIN_MATCHED_FOR_SCORE`` basis matches score 0.
    """
    states = alice.states
    n = states.size
    matched = np.zeros(2 * search_range + 1, dtype=np.int32)
    agree = np.zeros_like(matched)
    for s, b, v in zip(subset_slots.tolist(), subset_bases.tolist(), subset_bits.tolist()):
        a0 = max(s - search_range, 0)
        a1 = min(s + search_range + 1, n)
        if a0 >= a1 or b > 1:  # a basis outside {0, 1} matches no pulse
            continue
        seg = states[a0:a1]
        c0 = a0 - (s - search_range)
        matched[c0 : c0 + seg.size] += (seg & 1) == b
        agree[c0 : c0 + seg.size] += seg == (v << 1 | b)
    return np.where(matched >= _MIN_MATCHED_FOR_SCORE, agree / np.maximum(matched, 1), 0.0)


def sparse_align(
    subset_slots: np.ndarray,
    subset_bases: np.ndarray,
    subset_bits: np.ndarray,
    alice: AliceRecord,
    search_range: int = 100_000,
    margin: float = 0.1,
    min_subset: int = 200,
) -> AlignmentResult:
    """Find the slot offset mapping Bob's grid onto Alice's pulse indices.

    Scores every offset in [-search_range, search_range] by the fraction
    of basis-matched revealed bits that agree with Alice's record; the
    true offset stands far above the ~0.5 scored by uncorrelated data.
    """
    subset_slots = np.asarray(subset_slots, dtype=np.int64)
    subset_bases = np.asarray(subset_bases, dtype=np.uint8)
    subset_bits = np.asarray(subset_bits, dtype=np.uint8)
    if subset_slots.size < min_subset:
        raise InsufficientData(
            f"alignment subset has {subset_slots.size} events, need {min_subset}"
        )

    scores = _offset_scores(subset_slots, subset_bases, subset_bits, alice, search_range)
    order = np.argsort(scores)
    best = int(order[-1])
    runner = float(scores[order[-2]]) if scores.size > 1 else 0.0
    best_score = float(scores[best])
    if best_score - runner < margin:
        raise AmbiguousAlignment(
            f"top scores {best_score:.3f} vs {runner:.3f} within margin {margin}"
        )
    return AlignmentResult(
        start_offset_pulses=best - search_range,
        match_score=best_score,
        runner_up_score=runner,
        subset_slots=subset_slots,
        subset_bases=subset_bases,
        subset_bits=subset_bits,
    )

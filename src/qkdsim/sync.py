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
   by scoring a small revealed subset of (slot, state index) pairs
   against her record at every candidate offset.
"""

import csv
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from qkdsim.errors import AmbiguousAlignment, InsufficientData, LockLost, NoJumpFound
from qkdsim.params import DEMUX_DELAY_S, SystemParams
from qkdsim.photonics import AliceRecord, TagStream

_MIN_PEAK_TAGS = 20  # in-window tags before a bootstrap peak is trusted

DRIFT_UPDATE_INTERVAL_S = 0.1  # phase re-estimated once per interval
START_DETECT_WINDOW = 1024  # tags per rate window
START_DETECT_RATIO = 1.2  # rate jump that counts as signal
BOOTSTRAP_WINDOW_S = 2e-3
MAX_SKEW_PPM = 25.0  # widest clock skew the bootstrap scans for
MIN_PEAK_RATIO = 3.0  # peak/uniform score below which lock is lost
MIN_TAGS_PER_INTERVAL = 30
MIN_ALIGNMENT_SUBSET = 200
ALIGNMENT_MARGIN = 0.1  # best score must beat the runner-up by this much


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

    def write_phase_histogram(self, fh) -> None:
        """Residual-phase histogram as CSV (phase_ps, count) to the open file
        ``fh``: the two-peak signature of the direct and delayed channels."""
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
    t_origin = times[lo - 1] if lo > 0 else 0.0
    t_end = float(seg[-1])
    j = np.arange(1, n - 1)
    span_before = np.maximum(seg[j] - t_origin, 1e-12)
    span_after = np.maximum(t_end - seg[j], 1e-12)
    log_lik = j * np.log(j / span_before) + (n - j) * np.log((n - j) / span_after)
    return float(seg[int(j[np.argmax(log_lik)])])


def _sorted_median(values: list) -> float:
    """Median of an ascending list, computed as ``np.median`` computes it:
    the middle value, or the mean of the two middle values."""
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def detect_start(stream: TagStream) -> float:
    """Time at which the transmission begins, from the tag-rate jump.

    The trailing background rate is the median of all window rates seen
    so far (seeded with the empty lead-in before the first tag); the
    first window exceeding ``START_DETECT_RATIO`` times that estimate is
    refined by a two-segment Poisson changepoint MLE over the tags around
    it; start detection needs neither the period nor the gate. The rates
    are kept in a sorted list, so the running median is exact and each
    window costs one insertion instead of a median over every rate so far.
    """
    times = stream.times_s
    width = START_DETECT_WINDOW
    if times.size < max(8, width // 8):
        raise NoJumpFound("too few tags to detect a rate jump")
    width = min(width, times.size)
    stride = max(width // 2, 1)

    baselines = []  # ascending
    first_span = times[width - 1] - times[0]
    if times[0] > first_span:
        # a quiet lead-in longer than the first window's own span is real
        # evidence of a low trailing rate (the zero-background case)
        baselines.append(float(1.0 / times[0]))
    starts, rates = _window_rates(times, width, stride)
    for start, rate in zip(starts.tolist(), rates.tolist()):
        if baselines and rate > START_DETECT_RATIO * _sorted_median(baselines):
            lo = max(start - width, 0)
            hi = min(start + 2 * width, times.size)
            return _refine_onset(times, lo, hi)
        insort(baselines, rate)
    raise NoJumpFound("no window exceeded the trailing background rate")


# ---------------------------------------------------------------------------
# clock lock


def _mod(x: np.ndarray, period: float) -> np.ndarray:
    """``x % period`` for an array, as x - floor(x * (1 / period)) * period in
    one new array, in about 60 % of the time numpy's float remainder takes. A
    result can lie one ulp below 0 or on ``period``, where ``%`` gives
    [0, period)."""
    q = x * (1 / period)
    np.floor(q, out=q)
    q *= period
    np.subtract(x, q, out=q)
    return q


def _circ_diff(a, b, period):
    """Signed circular difference a - b wrapped into [-period/2, period/2):
    exactly for scalars, which keep ``%``, and to within one ulp for arrays."""
    if np.ndim(a) == 0:
        return (a - b + period / 2.0) % period - period / 2.0
    d = _mod(a - b + period / 2.0, period)
    d -= period / 2.0
    return d


def _phase_bins(phases: np.ndarray, period: float, gate: float):
    """Bin of each phase in [0, period), over bins about a quarter gate wide;
    returns (bins, bin count, bin width)."""
    nbins = max(int(round(period / (gate / 4.0))), 8)
    binw = period / nbins
    bins = np.empty(phases.shape, dtype=np.int64)
    np.divide(phases, binw, out=bins, casting="unsafe")  # truncates, as astype does
    np.minimum(bins, nbins - 1, out=bins)
    return bins, nbins, binw


def _rolling_window_sum(hist: np.ndarray, width_bins: int) -> np.ndarray:
    padded = np.concatenate([hist, hist[:width_bins]])
    c = np.concatenate([[0], np.cumsum(padded)])
    return (c[width_bins:] - c[:-width_bins])[: hist.size]


def _peak_phase(times: np.ndarray, period: float, gate: float):
    """Direct-channel peak phase of a tag batch.

    Scores every candidate phase by the tags inside a gate-wide window
    there plus a second window one demux delay later, then refines the
    winner with a circular mean. Returns (phase, peak-to-uniform ratio,
    tags in the two windows).
    """
    phases = _mod(times, period)
    bins, nbins, binw = _phase_bins(phases, period, gate)
    hist = np.bincount(bins, minlength=nbins)
    wb = max(int(round(gate / binw)), 1)
    window = _rolling_window_sum(hist, wb)
    shift = int(round(DEMUX_DELAY_S / binw)) % nbins
    score = window + np.roll(window, -shift)
    b = int(np.argmax(score))
    coarse = (b + wb / 2.0) * binw
    delayed_at = (coarse + DEMUX_DELAY_S) % period

    # Only a tag whose bin touches a window can lie in it; one bin of margin
    # on each side absorbs rounding. The residuals keep tag order, so their
    # mean is the one over all tags.
    near = np.zeros(nbins, dtype=bool)
    for center in (coarse, delayed_at):
        lo = math.floor((center - gate / 2.0) / binw) - 1
        hi = math.floor((center + gate / 2.0) / binw) + 1
        near[np.arange(lo, hi + 1) % nbins] = True
    near_phases = phases[near[bins]]
    d_direct = _circ_diff(near_phases, coarse, period)
    d_delayed = _circ_diff(near_phases, delayed_at, period)
    in_direct = np.abs(d_direct) <= gate / 2.0
    in_delayed = np.abs(d_delayed) <= gate / 2.0
    resid = np.concatenate([d_direct[in_direct], d_delayed[in_delayed]])
    if resid.size == 0:
        return coarse % period, 0.0, 0
    phase = (coarse + resid.mean()) % period
    covered = min(2.0 * wb / nbins, 1.0)
    expected_uniform = max(times.size * covered, 1e-9)
    return phase, resid.size / expected_uniform, resid.size


def _bootstrap_window(t, period, gate):
    """Find the first window with a real two-peak signature and its skew.

    The detected start can sit up to a drift interval off the true onset,
    so windows are slid forward until one locks. An unknown skew smears
    the phase histogram (25 ppm walks 50 ns in 2 ms), so each window is
    scanned over skew hypotheses spaced to keep the residual smear inside
    half a gate.
    """
    w = BOOTSTRAP_WINDOW_S
    while np.searchsorted(t, w) < MIN_TAGS_PER_INTERVAL and w < DRIFT_UPDATE_INTERVAL_S:
        w *= 2.0
    spacing = gate / (2.0 * w)
    n_side = int(np.ceil(MAX_SKEW_PPM * 1e-6 / spacing))
    candidates = np.arange(-n_side, n_side + 1) * spacing
    limit = min(1.5 * DRIFT_UPDATE_INTERVAL_S, float(t[-1]))
    ws = 0.0
    while ws <= limit:
        lo, hi = np.searchsorted(t, (ws, ws + w))
        if hi - lo >= MIN_TAGS_PER_INTERVAL:
            boot = t[lo:hi]
            tau0 = float(boot.mean())
            ratio, alpha, phase0, n_in = -1.0, 0.0, 0.0, 0
            for a in candidates:
                tc = tau0 + (boot - tau0) / (1.0 + a)
                cand_phase, cand_ratio, cand_n = _peak_phase(tc, period, gate)
                if cand_ratio > ratio:
                    ratio, alpha, phase0, n_in = cand_ratio, float(a), cand_phase, cand_n
            if ratio >= MIN_PEAK_RATIO and n_in >= _MIN_PEAK_TAGS:
                return ws, w, tau0, alpha, phase0
        ws += w
    raise LockLost("no dominant phase peak within a drift interval of the start")


def lock_clock(stream: TagStream, start_s: float, params: SystemParams) -> GatedEvents:
    """Lock to the pulse grid from ``start_s`` onward and gate the stream.

    Uses the pulse period and gate of ``params``. ``stream.times_s`` must
    be ascending, as ``multiplex_two_channel`` produces it, so every window
    of it is one slice. The phase is estimated per drift interval, each
    from the last; gating, slotting and the residual-phase histogram are
    then one pass over the whole stream.
    """
    period, gate = params.pulse_period_s, params.gate_width_s
    base = int(np.searchsorted(stream.times_s, start_s))  # stream index of t[0]
    if stream.n_tags - base < MIN_TAGS_PER_INTERVAL:
        raise LockLost("too few tags after the detected start")
    t = stream.times_s[base:] - start_s
    lines = stream.lines[base:]
    horizon = float(t[-1])

    lock_at, w, tau0, alpha, phase0 = _bootstrap_window(t, period, gate)
    # tags before the locked window predate the transmission; their slots
    # would map below the transmitter's record anyway
    first = int(np.searchsorted(t, lock_at))
    base, t, lines = base + first, t[first:], lines[first:]

    # Pin the skew on geometrically longer baselines so the drift over one
    # tracking interval stays inside a fraction of the gate.
    reach = min(DRIFT_UPDATE_INTERVAL_S, horizon - lock_at)
    delta = w
    while delta < reach:
        delta = min(delta * 4.0, reach)
        lo, hi = np.searchsorted(t, (lock_at + delta - w, lock_at + delta))
        if hi - lo < MIN_TAGS_PER_INTERVAL:
            continue
        tc = tau0 + (t[lo:hi] - tau0) / (1.0 + alpha)
        phase1, ratio1, _ = _peak_phase(tc, period, gate)
        if ratio1 < MIN_PEAK_RATIO:
            continue
        baseline = float(t[lo:hi].mean()) - tau0
        alpha += _circ_diff(phase1, phase0, period) / baseline

    # Tracking: one phase per drift interval [k D, (k + 1) D), unwrapped from
    # the last, feeds the period refit. t is sorted, so the intervals are
    # consecutive slices; each cut is computed once, so a tag lies in one.
    n_intervals = int(np.ceil(horizon / DRIFT_UPDATE_INTERVAL_S)) or 1
    cuts = np.searchsorted(t, np.arange(n_intervals + 1) * DRIFT_UPDATE_INTERVAL_S)
    cuts[-1] = t.size
    tc = tau0 + (t - tau0) / (1.0 + alpha)
    del t
    phase_track = phase0
    track_times, track_phases, interval_phases = [], [], []
    for k in range(n_intervals):
        first, end = int(cuts[k]), int(cuts[k + 1])
        if end - first >= MIN_TAGS_PER_INTERVAL:
            phase_k, ratio_k, _ = _peak_phase(tc[first:end], period, gate)
            if ratio_k < MIN_PEAK_RATIO:
                raise LockLost(f"interval {k}: peak ratio {ratio_k:.2f} below {MIN_PEAK_RATIO}")
            phase_track = phase_track + _circ_diff(phase_k, phase_track % period, period)
            track_times.append(float(tc[first:end].mean()))
            track_phases.append(phase_track)
        # an interval with few tags coasts on the last phase estimate
        interval_phases.append(phase_track)

    # One pass, each tag against its interval's phase; each array goes at its
    # last use, and the residual and the gate arithmetic work in place.
    phase = np.repeat(interval_phases, np.diff(cuts))
    rel = tc - phase
    phase -= phase0
    tc -= phase  # the residual before it wraps: tc - (phase - phase0)
    del phase
    residual = _mod(tc, period)
    del tc
    bins, nbins, binw = _phase_bins(residual, period, gate)
    histogram = np.bincount(bins, minlength=nbins)
    del residual, bins
    # a tag within half a gate of the direct window or of the window one
    # demux delay later is kept; direct wins a tie
    x = _circ_diff(rel, 0.0, period)
    direct = np.abs(x) <= gate / 2.0
    # x lies in [-period/2, period/2), so |x - 40 ns| is under one period
    # and its circular distance is the nearer of it and its complement
    x -= DEMUX_DELAY_S
    y = np.abs(x, out=x)
    del x
    delayed = ~direct & ((y <= gate / 2.0) | (period - y <= gate / 2.0))
    del y
    kept = np.flatnonzero(direct | delayed)
    del direct
    delayed = delayed[kept]
    rel = rel[kept]
    rel -= DEMUX_DELAY_S * delayed
    rel /= period
    slots = np.round(rel, out=rel).astype(np.int64)
    del rel
    dets = lines[kept] | delayed.view(np.uint8) << 1
    idx = base + kept
    del kept, delayed
    # anchor slot numbers at the lock point: however far off the detected
    # start was, the offset alignment must search stays bounded by the
    # bootstrap slide, not by start-detection accuracy
    slots -= int(round(lock_at / period))

    # One event per (slot, line): a later arrival in an already occupied
    # window is a collision artefact and is dropped. A stable sort puts each
    # pair's first arrival at the head of its run of equal keys; slots need
    # not ascend, since the phase may step at an interval boundary.
    key = slots * 2 + (dets & 1)
    order = np.argsort(key, kind="stable")
    key.sort()
    head = np.ones(key.size, dtype=bool)
    head[1:] = key[1:] != key[:-1]
    del key
    first = order[head]
    del order, head
    first.sort()
    # one at a time, so that one copy at most lives beside the arrays it replaces
    slots = slots[first]
    dets = dets[first]
    idx = idx[first]

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
_COUNTER_FLUSH = 255  # events a uint8 partial counter holds without wrapping


def _offset_scores(
    subset_slots: np.ndarray,
    subset_states: np.ndarray,
    alice: AliceRecord,
    search_range: int,
) -> np.ndarray:
    """Agreement score at each offset in [-search_range, search_range].

    Event (s, v) with state index v in 0..3 meets Alice's pulse s + o at
    offset o, so for every event one slice of her record is XORed with v:
    a zero marks an agreement and a set low bit a basis mismatch. Both
    are added to uint8 partial counters, flushed into int32 totals every
    ``_COUNTER_FLUSH`` events, so every count is an exact integer. Basis
    matches are each offset's coverage (a difference array over the
    events' slices) minus its mismatches; slots whose pulse falls outside
    the record add nothing. Offsets with fewer than
    ``_MIN_MATCHED_FOR_SCORE`` basis matches score 0.
    """
    states = alice.states
    n = states.size
    width = 2 * search_range + 1
    agree = np.zeros(width, dtype=np.int32)
    mismatch = np.zeros(width, dtype=np.int32)
    edges = np.zeros(width + 1, dtype=np.int32)
    agree8 = np.zeros(width, dtype=np.uint8)
    mismatch8 = np.zeros(width, dtype=np.uint8)
    x = np.empty(width, dtype=np.uint8)
    hit = np.empty(width, dtype=np.bool_)
    pending = 0
    for s, v in zip(subset_slots.tolist(), subset_states.tolist()):
        a0 = max(s - search_range, 0)
        a1 = min(s + search_range + 1, n)
        if a0 >= a1:
            continue
        c0 = a0 - (s - search_range)
        c1 = c0 + (a1 - a0)
        xs, hits = x[: a1 - a0], hit[: a1 - a0]
        np.bitwise_xor(states[a0:a1], v, out=xs)
        np.equal(xs, 0, out=hits)
        np.add(agree8[c0:c1], hits.view(np.uint8), out=agree8[c0:c1])
        np.bitwise_and(xs, 1, out=xs)
        np.add(mismatch8[c0:c1], xs, out=mismatch8[c0:c1])
        edges[c0] += 1
        edges[c1] -= 1
        pending += 1
        if pending == _COUNTER_FLUSH:
            agree += agree8
            mismatch += mismatch8
            agree8.fill(0)
            mismatch8.fill(0)
            pending = 0
    agree += agree8
    mismatch += mismatch8
    del agree8, mismatch8, x, hit
    matched = np.cumsum(edges[:-1], dtype=np.int32)
    matched -= mismatch
    del edges, mismatch
    return np.where(matched >= _MIN_MATCHED_FOR_SCORE, agree / np.maximum(matched, 1), 0.0)


def sparse_align(
    subset_slots: np.ndarray,
    subset_states: np.ndarray,
    alice: AliceRecord,
    search_range: int,
) -> AlignmentResult:
    """Find the slot offset mapping Bob's grid onto Alice's pulse indices.

    Each revealed event is its slot and its state index in 0..3 (Bob's
    detector index, ``bit << 1 | basis`` as in Alice's record). Scores
    every offset in [-search_range, search_range] by the fraction of
    basis-matched revealed bits that agree with Alice's record; the true
    offset stands far above the ~0.5 scored by uncorrelated data.
    """
    subset_slots = np.asarray(subset_slots, dtype=np.int64)
    subset_states = np.asarray(subset_states, dtype=np.uint8)
    if subset_slots.size < MIN_ALIGNMENT_SUBSET:
        raise InsufficientData(
            f"alignment subset has {subset_slots.size} events, need {MIN_ALIGNMENT_SUBSET}"
        )

    scores = _offset_scores(subset_slots, subset_states, alice, search_range)
    best = int(np.argmax(scores))
    best_score = float(scores[best])
    # a tie at the top makes the runner-up equal the best
    runner = float(max(scores[:best].max(initial=0.0), scores[best + 1 :].max(initial=0.0)))
    if best_score - runner < ALIGNMENT_MARGIN:
        raise AmbiguousAlignment(
            f"top scores {best_score:.3f} vs {runner:.3f} within margin {ALIGNMENT_MARGIN}"
        )
    return AlignmentResult(
        start_offset_pulses=best - search_range,
        match_score=best_score,
        runner_up_score=runner,
        subset_slots=subset_slots,
    )

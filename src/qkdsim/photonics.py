"""Faint-pulse transmitter, free-space channel and grating receiver model.

The transmitter fires one of four LEDs per clock period behind sheet
polarizers at 0/45/90/135 degrees. The receiver splits incoming light
four ways with a diffraction grating; a polarizer in one of the same
four orientations sits in front of each detector. States and detectors
share one index convention:

    index    0      1      2      3
    angle    0      45     90     135   (degrees)
    bit      0      0      1      1
    basis    rect   diag   rect   diag

A photon routed to a conjugate-basis detector registers with probability
1/2. A photon routed to its matching detector always registers, but
relocates onto the orthogonal detector of the same basis with that
destination channel's measured wrong-bit rate, which reproduces the
per-channel error rates observed during key exchange.

Ground-truth ``pulse`` labels (the emitting pulse, -1 for background)
ride along for test oracles only; protocol code must consume nothing
beyond tag times and line labels.
"""

from dataclasses import dataclass

import numpy as np

from qkdsim.params import DEMUX_DELAY_S, SystemParams
from qkdsim.seeds import np_rng

# Same-line tags closer than this are unresolvable even with zero dead time.
MERGE_RESOLUTION_S = 1e-12


def state_bits(states: np.ndarray) -> np.ndarray:
    """Bit encoding: 0/45 deg carry 0, 90/135 deg carry 1."""
    return (states >> 1).astype(np.uint8)


def state_bases(states: np.ndarray) -> np.ndarray:
    """Basis encoding: 0 = rectilinear (0/90), 1 = diagonal (45/135)."""
    return (states & 1).astype(np.uint8)


@dataclass
class AliceRecord:
    """Transmitter-side record of one run: which state fired on each pulse."""

    states: np.ndarray  # uint8 in 0..3, one per pulse
    start_time_s: float

    @property
    def n_pulses(self) -> int:
        return int(self.states.size)


@dataclass
class DetectionEvents:
    """Detector clicks with oracle labels.

    Any order is valid; ``multiplex_two_channel`` puts the tags in time
    order. ``simulate_detections`` emits nearly ascending times and
    ``add_background`` appends each detector's background in ascending
    order, which only speeds that sort up.
    """

    times_s: np.ndarray
    detectors: np.ndarray  # uint8 in 0..3
    pulses: np.ndarray  # emitting pulse index, -1 for background

    @property
    def n_events(self) -> int:
        return int(self.times_s.size)


@dataclass
class TagStream:
    """Two-line time-tag stream: the in-memory hand-off from detectors to software.

    ``truth_pulses`` (the emitting pulse, -1 for background) is an
    oracle-only side table that protocol code must not read.
    """

    times_s: np.ndarray
    lines: np.ndarray  # uint8 in {0, 1}
    dropped_collisions: int = 0
    truth_pulses: np.ndarray | None = None

    @property
    def n_tags(self) -> int:
        return int(self.times_s.size)


def _uniform_2bit(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.integers(0, 4, n, dtype=np.uint8)`` drawn in bulk: the same values,
    and the same generator state afterwards.

    numpy draws a bounded uint8 from the bytes of successive 32-bit words,
    lowest byte first, and keeps ``(byte * 4) >> 8`` of each; for range 4
    it never rejects a byte. So the draws are the top two bits of the
    little-endian bytes of ceil(n / 4) words, shifted in place.

    ``rng`` is a PCG64 generator, as ``np_rng`` makes. PCG64 hands out
    32-bit words from its raw 64-bit outputs, low half first, and keeps
    the high half buffered for the next word. So the words here are a half
    already buffered at entry, if there is one, then the little-endian
    bytes of raw outputs; an odd word count leaves the high half of the
    last output buffered, as numpy would.
    """
    bit_gen = rng.bit_generator
    state = bit_gen.state
    held = bool(n and state["has_uint32"])
    words = -(-n // 4) - held  # words still to come from raw outputs
    raw = bit_gen.random_raw(-(-words // 2))
    draws = raw.astype("<u8", copy=False).view(np.uint8)
    if held:  # a copy, but only of draws that follow another 32-bit draw
        head = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
        draws = np.concatenate([head, draws])
    if n:  # the buffered half as numpy's uint32 path leaves it
        if words:
            state = bit_gen.state
            state["uinteger"] = int(raw[-1]) >> 32
        state["has_uint32"] = words % 2
        bit_gen.state = state
    draws = draws[:n]
    draws >>= 6
    return draws


def generate_alice_record(n_pulses: int, seed: bytes, start_time_s: float = 0.0) -> AliceRecord:
    """Draw a uniformly random state per pulse, reproducible from the seed."""
    if n_pulses <= 0:
        raise ValueError("need at least one pulse")
    return AliceRecord(states=_uniform_2bit(np_rng(seed), n_pulses), start_time_s=start_time_s)


def simulate_detections(
    record: AliceRecord, params: SystemParams, seed: bytes
) -> DetectionEvents:
    """Monte-Carlo detection of one transmission.

    Per pulse the photon number is Poisson with the configured mean; each
    photon survives the lumped channel transmission times the detection
    efficiency, is routed by the grating to a uniformly random detector,
    and registers according to the polarizer in front of it. Multi-photon
    pulses can therefore fire several detectors in one period.

    The surviving photons are drawn by Poisson splitting rather than pulse
    by pulse: thinning Poisson(mu) photons with survival probability p
    leaves Poisson(mu * p) survivors per pulse, independently across
    pulses, and n independent Poisson(lam) counts are the same in law as
    one Poisson(n * lam) total spread uniformly over the n pulses. So one
    draw gives the total and one draw of that many uniform pulse indices
    places them, and the work follows the detected photons, not the
    pulses.
    """
    rng = np_rng(seed)
    n = record.n_pulses
    lam = params.mean_photon_number * params.channel_transmission * params.detection_efficiency
    k = int(rng.poisson(n * lam))
    pulse_idx = np.sort(rng.integers(0, n, size=k, dtype=np.int64))

    states = record.states[pulse_idx]
    port = _uniform_2bit(rng, k)  # grating output port
    matched = port == states
    conjugate = ((port ^ states) & 1) == 1
    registers = matched | (conjugate & (rng.random(k) < 0.5))

    # Relocation onto the orthogonal same-basis channel, governed by the
    # destination channel's wrong-bit rate.
    ber = np.asarray(params.base_ber_per_channel, dtype=np.float64)
    orthogonal = states ^ 2
    flip = matched & (rng.random(k) < ber[orthogonal])
    detectors = np.where(flip, orthogonal, port).astype(np.uint8)

    if params.injected_error_rate > 0:
        inject = matched & registers & (rng.random(k) < params.injected_error_rate)
        detectors = np.where(inject, detectors ^ 2, detectors).astype(np.uint8)

    times = (
        record.start_time_s
        + pulse_idx * params.pulse_period_s
        + rng.normal(0.0, params.pulse_jitter_rms_s, k)
    )

    registered = np.flatnonzero(registers)
    return DetectionEvents(
        times_s=times.take(registered),
        detectors=detectors.take(registered),
        pulses=pulse_idx.take(registered),
    )


def add_background(
    events: DetectionEvents,
    params: SystemParams,
    duration_s: float,
    seed: bytes,
) -> DetectionEvents:
    """Merge in a homogeneous Poisson background on every detector.

    The background covers [0, duration_s); a signal event past its end,
    such as a last pulse's jitter tail, is kept as it is.

    The rate per physical detector is ``params.background_rate_cps / 2``:
    the configured figure is the per-line rate after two detectors are
    multiplexed onto each input, so a physical rate r is stated as
    ``background_rate_cps = 2 * r`` (exact in floating point).

    The background follows ``events`` as one run per detector, each in
    ascending time order; sorting a run changes none of its draws.
    """
    rate_per_detector_cps = params.background_rate_cps / 2.0
    if rate_per_detector_cps == 0:
        return events

    rng = np_rng(seed)
    counts = rng.poisson(rate_per_detector_cps * duration_s, 4)
    total = int(counts.sum())
    times = rng.random(total) * duration_s
    # A sort put back on purpose, for speed only: every event of one run
    # has the same detector and pulse -1, so its order is invisible after
    # the multiplexer's stable sort, which then merges a few ascending runs
    # instead of sorting random data.
    ends = np.cumsum(counts)
    for lo, hi in zip((ends - counts).tolist(), ends.tolist()):
        times[lo:hi].sort()
    detectors = np.repeat(np.arange(4, dtype=np.uint8), counts)

    return DetectionEvents(
        times_s=np.concatenate([events.times_s, times]),
        detectors=np.concatenate([events.detectors, detectors]),
        pulses=np.concatenate([events.pulses, np.full(total, -1, dtype=np.int64)]),
    )


def _keep_after_dead_time(times: np.ndarray, resolution: float) -> np.ndarray:
    """Greedy survivor mask: drop any tag closer than `resolution` to the
    previously kept tag on the same line.

    Only a tag closer than `resolution` to its predecessor can be dropped:
    any other tag is at least that far from every earlier tag, so it is
    kept, and the rule restarts from it. The greedy loop therefore runs
    only over clusters of close tags, each from the kept tag before it.
    """
    keep = np.ones(times.size, dtype=bool)
    close = np.flatnonzero(np.diff(times) < resolution) + 1
    last = -np.inf
    prev = -1
    for i, t, before in zip(close.tolist(), times[close].tolist(), times[close - 1].tolist()):
        if i != prev + 1:  # a new cluster: its opening tag i - 1 was kept
            last = before
        if t - last >= resolution:
            last = t
        else:
            keep[i] = False
        prev = i
    return keep


def multiplex_two_channel(events: DetectionEvents, params: SystemParams) -> TagStream:
    """Combine four detectors onto two recorder lines with a fixed delay.

    Detectors 2 and 3 are delayed by ``DEMUX_DELAY_S`` and land on lines 0
    and 1 respectively, so each line carries two phase-separated channels
    (and twice the background). The receiver clock skew
    ``params.clock_skew_ppm`` is applied here as a linear dilation of all
    tag times. The tags come out in time order whatever the order of
    ``events``. Same-line tags inside the ``params.dead_time_s``
    resolution collapse onto the earlier tag and are counted as dropped.
    """
    times = events.times_s.astype(np.float64)
    times[events.detectors >= 2] += DEMUX_DELAY_S
    times *= 1.0 + params.clock_skew_ppm * 1e-6

    order = np.argsort(times, kind="stable")
    times = times[order]
    lines = (events.detectors[order] & 1).astype(np.uint8)

    resolution = max(params.dead_time_s, MERGE_RESOLUTION_S)
    keep = np.ones(times.size, dtype=bool)
    for line in (0, 1):
        on_line = np.flatnonzero(lines == line)
        keep[on_line] = _keep_after_dead_time(times[on_line], resolution)
    dropped = int(times.size - keep.sum())

    # indexed before the kept copies below: measured to lower a bright run's peak RSS
    pulses = events.pulses[order[keep]]

    return TagStream(
        times_s=times[keep],
        lines=lines[keep],
        dropped_collisions=dropped,
        truth_pulses=pulses,
    )

"""Shared test helpers."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from qkdsim.photonics import DetectionEvents
from qkdsim.seeds import np_rng


def reference_simulate_detections(record, params, seed):
    """Per-pulse sampler: one Poisson and one binomial draw over every pulse.

    The oracle for ``photonics.simulate_detections``, which draws the same
    law by Poisson splitting, and the sampler behind streams whose pinned
    digests must not move with it.
    """
    rng = np_rng(seed)
    n = record.n_pulses
    photons = rng.poisson(params.mean_photon_number, n)
    survivors = rng.binomial(photons, params.channel_transmission * params.detection_efficiency)
    pulse_idx = np.repeat(np.arange(n, dtype=np.int64), survivors)
    k = pulse_idx.size
    if k == 0:
        return DetectionEvents(np.empty(0), np.empty(0, np.uint8), np.empty(0, np.int64))
    states = record.states[pulse_idx]
    port = rng.integers(0, 4, size=k, dtype=np.uint8)
    matched = port == states
    conjugate = ((port ^ states) & 1) == 1
    registers = matched | (conjugate & (rng.random(k) < 0.5))
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
    return DetectionEvents(
        times_s=times[registers],
        detectors=detectors[registers],
        pulses=pulse_idx[registers],
    )


def reference_below(seed, bounds):
    """The draw-by-draw rule of the HashStream contract in README.md.

    The stream is SHAKE-256(seed), expanded here straight from hashlib and
    re-expanded to twice its length whenever the draws run past it (a
    longer SHAKE output begins with every shorter one); draw i is the
    big-endian u64 at stream bytes [8i, 8i + 8). Each bound b takes the
    next draw u, skipping any u >= floor(2^64 / b) * b, and gives u % b.
    The oracle for ``HashStream.below_many``; returns the values and the
    number of draws used.
    """
    values, used, stream = [], 0, b""
    for b in map(int, bounds):
        limit = 2**64 // b * b
        while True:
            if 8 * used == len(stream):
                stream = hashlib.shake_256(seed).digest(2 * len(stream) + 64)
            u = int.from_bytes(stream[8 * used : 8 * used + 8], "big")
            used += 1
            if u < limit:
                values.append(u % b)
                break
    return values, used


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs.

    Warm ``fn`` up first, so first-call allocations stay out of the peak.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def reference_sampler():
    return reference_simulate_detections

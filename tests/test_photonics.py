"""Transmitter/channel/receiver Monte-Carlo against its closed-form oracles."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from qkdsim.params import SystemParams
from qkdsim.photonics import (
    DetectionEvents,
    _keep_after_dead_time,
    TagStream,
    _uniform_2bit,
    add_background,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
    state_bases,
    state_bits,
)
from qkdsim.seeds import derive_seed, np_rng

MASTER = bytes(range(32))


def seed(label):
    return derive_seed(MASTER, label)


def test_alice_record_coding_scheme():
    rec = generate_alice_record(4, seed("tiny"))
    assert rec.n_pulses == 4
    assert set(np.unique(rec.states)) <= {0, 1, 2, 3}
    # 0 and 45 degrees carry bit 0, 90 and 135 carry bit 1
    for state, bit, basis in zip(rec.states, state_bits(rec.states), state_bases(rec.states)):
        assert bit == (0 if state in (0, 1) else 1)
        assert basis == state % 2


def test_alice_record_deterministic():
    a = generate_alice_record(1000, seed("det"))
    b = generate_alice_record(1000, seed("det"))
    assert np.array_equal(a.states, b.states)


def test_alice_state_frequencies_uniform():
    n = 1_000_000
    rec = generate_alice_record(n, seed("freq"))
    counts = np.bincount(rec.states, minlength=4)
    freqs = counts / n
    assert np.all(np.abs(freqs - 0.25) < 0.002)
    chi2 = ((counts - n / 4) ** 2 / (n / 4)).sum()
    assert chi2 < 11.34  # chi-square 99th percentile, 3 dof


# Recorded before the states were drawn from 32-bit words: n -> SHA-256 of
# generate_alice_record(n, seed("record-known-answer")).states
RECORD_KNOWN_ANSWERS = {
    1: "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5",
    2: "d4ea3fc5537ce615543ea44f074bff451fb6c9749e9e8692c111f7070b4780c7",
    3: "62cb1e4990546b2d9a29fd77d7162c74f30ce709f9fff5f341935c72e4ad2dca",
    4: "f4a1f368908311763fa2bb8141c0615019783aa727e077441117c83d0c3c6816",
    1001: "55f0b05b9482569a60dbca40073a0999d0fca52227b2c072d5c99a08b216b792",
    1_000_003: "c6cc08119bade3075439763f898aba71d2a9b11774945141bdc7f0159005a664",
}


@pytest.mark.parametrize("n", sorted(RECORD_KNOWN_ANSWERS))
def test_alice_record_known_answer(n):
    states = generate_alice_record(n, seed("record-known-answer")).states
    assert states.dtype == np.uint8
    assert hashlib.sha256(states.tobytes()).hexdigest() == RECORD_KNOWN_ANSWERS[n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 1000, 1001, 1002, 1003, 100_000, 100_001])
def test_uniform_2bit_equals_bounded_uint8_draws(n):
    # every n mod 4, so the last word is used in full or in part
    rng, ref = np_rng(seed(f"2bit{n}")), np_rng(seed(f"2bit{n}"))
    got = _uniform_2bit(rng, n)
    want = ref.integers(0, 4, size=n, dtype=np.uint8)
    assert got.dtype == np.uint8
    assert got.tobytes() == want.tobytes()
    # the generator, including its buffered half word, stands where the
    # reference left it
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 1000, 1001, 1002, 1003])
def test_uniform_2bit_after_a_buffered_half_equals_bounded_uint8_draws(n):
    # the state simulate_detections draws the grating port in: three
    # bounded int64 draws below 2^32 take three 32-bit words and leave the
    # high half of a 64-bit output buffered
    rng, ref = np_rng(seed(f"held{n}")), np_rng(seed(f"held{n}"))
    for gen in (rng, ref):
        gen.integers(0, 1000, 3, dtype=np.int64)
    assert rng.bit_generator.state["has_uint32"] == 1
    got = _uniform_2bit(rng, n)
    want = ref.integers(0, 4, size=n, dtype=np.uint8)
    assert got.dtype == np.uint8
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
    assert rng.random() == ref.random()


def test_simulate_no_photons_gives_no_signal():
    params = SystemParams(mean_photon_number=1e-9)
    rec = generate_alice_record(10_000, seed("mu0"))
    events = simulate_detections(rec, params, seed("mu0d"))
    assert events.n_events == 0


# Chi-square 99.99th percentiles by degrees of freedom, and the two-sided
# normal one: a comparison below fails a correct sampler with probability
# 1e-4 at each parameter point.
CHI2_9999 = {
    1: 15.14, 2: 18.42, 3: 21.11, 4: 23.51, 5: 25.74, 6: 27.86, 7: 29.88, 8: 31.83,
    9: 33.72, 10: 35.56, 11: 37.37, 12: 39.13, 13: 40.87, 14: 42.58, 15: 44.26, 16: 45.92,
}
Z_9999 = 3.89


def _paired_chi2(a, b):
    """Sum of (a - b)^2 / (a + b) over the cells either sample reaches, and
    the number of those cells."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    hit = (a + b) > 0
    return float(((a[hit] - b[hit]) ** 2 / (a[hit] + b[hit])).sum()), int(hit.sum())


def _detections_per_pulse(events, n_pulses):
    """Pulses with 0, 1, 2 and at least 3 registered detections."""
    per_pulse = np.bincount(events.pulses, minlength=n_pulses)
    return np.bincount(np.minimum(per_pulse, 3), minlength=4)


def _state_detector_counts(events, record):
    return np.bincount(4 * record.states[events.pulses] + events.detectors, minlength=16)


def _assert_same_dtypes(got, want):
    for name in ("times_s", "detectors", "pulses"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


def _pulses_firing_two_detectors(events):
    """Pulses whose registered detections reach at least two detectors."""
    fired = np.unique(events.pulses * 4 + events.detectors) // 4
    return int((np.bincount(fired) >= 2).sum())


@pytest.mark.parametrize(
    "n_pulses, label, overrides",
    [
        (1_500_000, "a", {}),
        (2_600_001, "b", {}),
        (500_000, "c", {"injected_error_rate": 0.05}),
        (300_000, "d", {"mean_photon_number": 2.5}),
        (200_000, "e", {"mean_photon_number": 2.5, "detection_efficiency": 1.0}),
        (2_000, "f", {"mean_photon_number": 300.0, "detection_efficiency": 0.01}),
    ],
)
def test_simulate_detections_matches_single_draw_reference(
    reference_sampler, n_pulses, label, overrides
):
    params = SystemParams(**overrides)
    rec = generate_alice_record(n_pulses, seed("ref" + label), start_time_s=0.05)
    got = simulate_detections(rec, params, seed("refd" + label))
    want = reference_sampler(rec, params, seed("refo" + label))
    assert got.n_events > 0
    _assert_same_dtypes(got, want)

    # detections per pulse: two samples of n pulses over the same four bins
    stat, cells = _paired_chi2(_detections_per_pulse(got, n_pulses),
                               _detections_per_pulse(want, n_pulses))
    assert stat < CHI2_9999[cells - 1]
    # each (state, detector) count is Poisson with the same mean in both
    stat, cells = _paired_chi2(_state_detector_counts(got, rec), _state_detector_counts(want, rec))
    assert stat < CHI2_9999[cells]
    # pulses firing two or more detectors: two binomials over n pulses
    a, b = _pulses_firing_two_detectors(got), _pulses_firing_two_detectors(want)
    pooled = (a + b) / (2 * n_pulses)
    assert abs(a - b) <= Z_9999 * np.sqrt(2 * n_pulses * pooled * (1 - pooled))


def test_simulate_detections_without_detections_matches_reference(reference_sampler):
    params = SystemParams(mean_photon_number=1e-9)
    rec = generate_alice_record(3_000_000, seed("dark"))
    got = simulate_detections(rec, params, seed("darkd"))
    want = reference_sampler(rec, params, seed("darkd"))
    assert got.n_events == want.n_events == 0
    _assert_same_dtypes(got, want)


def test_sifted_signal_rate_matches_closed_form():
    # S = R*M*T*eta/4 = 16875/s at the reference parameters
    params = SystemParams()
    n = 5_000_000  # one second of pulses
    rec = generate_alice_record(n, seed("rate"))
    events = simulate_detections(rec, params, seed("rated"))
    matched = (events.detectors & 1) == state_bases(rec.states)[events.pulses]
    got = int(matched.sum())
    expect = 16875.0 * n / params.repetition_rate_hz
    assert abs(got - expect) < 3 * np.sqrt(expect)
    assert abs(got - expect) / expect < 0.03


def test_conditional_wrong_bit_rate_on_135_channel():
    # the conditional error per receiving channel is independent of the
    # photon budget, so crank M and eta purely for sample size
    params = SystemParams(mean_photon_number=3.0, detection_efficiency=1.0)
    rec = generate_alice_record(700_000, seed("ber"))
    events = simulate_detections(rec, params, seed("berd"))
    matched = (events.detectors & 1) == state_bases(rec.states)[events.pulses]
    on_135 = matched & (events.detectors == 3)
    assert on_135.sum() >= 100_000
    wrong = state_bits(rec.states)[events.pulses[on_135]] != (events.detectors[on_135] >> 1)
    assert abs(wrong.mean() - 0.0475) < 0.005


def test_conjugate_basis_bits_uniform():
    params = SystemParams(mean_photon_number=3.0, detection_efficiency=1.0)
    rec = generate_alice_record(200_000, seed("conj"))
    events = simulate_detections(rec, params, seed("conjd"))
    mismatch = (events.detectors & 1) != state_bases(rec.states)[events.pulses]
    assert mismatch.sum() >= 100_000
    bits = events.detectors[mismatch] >> 1
    assert abs(bits.mean() - 0.5) < 0.01


def test_background_zero_is_identity():
    params = SystemParams(background_rate_cps=0.0)
    rec = generate_alice_record(1000, seed("bg0"))
    events = simulate_detections(rec, params, seed("bg0d"))
    merged = add_background(events, params, 1.0, seed("bg0b"))
    assert np.array_equal(merged.times_s, events.times_s)


def test_background_count_per_detector():
    # 26000 cps on each of 4 detectors over 1 s
    empty = simulate_detections(
        generate_alice_record(10, seed("x")),
        SystemParams(mean_photon_number=1e-9),
        seed("y"),
    )
    events = add_background(empty, SystemParams(background_rate_cps=2 * 26000.0), 1.0, seed("bgc"))
    total = events.n_events
    assert abs(total - 104000) < 3 * np.sqrt(104000)
    for det in range(4):
        count = int((events.detectors == det).sum())
        assert abs(count - 26000) < 4 * np.sqrt(26000)


def test_background_fraction_inside_gate_window():
    # a 5 ns window per 200 ns period catches ~1/40 of uniform background
    empty = simulate_detections(
        generate_alice_record(10, seed("x2")),
        SystemParams(mean_photon_number=1e-9),
        seed("y2"),
    )
    events = add_background(empty, SystemParams(background_rate_cps=2 * 50000.0), 1.0, seed("bgf"))
    phases = events.times_s % 200e-9
    inside = (phases < 5e-9).mean()
    assert abs(inside - 1 / 40) < 3 * np.sqrt((1 / 40) / events.n_events)


def test_multiplex_empty():
    empty = simulate_detections(
        generate_alice_record(10, seed("e")),
        SystemParams(mean_photon_number=1e-9),
        seed("f"),
    )
    stream = multiplex_two_channel(empty, SystemParams(clock_skew_ppm=0.0))
    assert stream.n_tags == 0


def test_multiplex_single_tag_delay_and_relabel():
    tau = 1e-3
    events = DetectionEvents(
        times_s=np.array([tau]),
        detectors=np.array([2], dtype=np.uint8),
        pulses=np.array([0], dtype=np.int64),
    )
    stream = multiplex_two_channel(events, SystemParams(clock_skew_ppm=0.0))
    assert stream.n_tags == 1
    assert stream.lines[0] == 0
    assert stream.times_s[0] == pytest.approx(tau + 40e-9, abs=1e-15)


def test_multiplex_doubles_per_line_background():
    empty = simulate_detections(
        generate_alice_record(10, seed("g")),
        SystemParams(mean_photon_number=1e-9),
        seed("h"),
    )
    b_det = 20000.0
    params = SystemParams(background_rate_cps=2 * b_det, clock_skew_ppm=0.0)
    events = add_background(empty, params, 1.0, seed("mux"))
    stream = multiplex_two_channel(events, params)
    for line in (0, 1):
        count = int((stream.lines == line).sum())
        assert abs(count - 2 * b_det) < 4 * np.sqrt(2 * b_det)


def test_multiplex_collision_dropped():
    events = DetectionEvents(
        times_s=np.array([1e-3, 1e-3 + 5e-9, 1e-3 + 1e-6]),
        detectors=np.array([0, 2, 0], dtype=np.uint8),  # det 2 lands on line 0 at +40ns
        pulses=np.arange(3, dtype=np.int64),
    )
    stream = multiplex_two_channel(events, SystemParams(clock_skew_ppm=0.0, dead_time_s=100e-9))
    # det-2 tag arrives 45 ns after the first line-0 tag: inside dead time
    assert stream.dropped_collisions == 1
    assert stream.n_tags == 2


def _reference_keep_after_dead_time(times, resolution):
    """The per-tag greedy loop over a whole line."""
    keep = np.ones(times.size, dtype=bool)
    last = -np.inf
    for i, t in enumerate(times):
        if t - last >= resolution:
            last = t
        else:
            keep[i] = False
    return keep


_DENSE_TIMES = np.sort(np.random.default_rng(5).random(4000)) * 4000 * 30e-9


@pytest.mark.parametrize(
    "times_ns",
    [
        [],
        [7.0],
        [0.0, 100.0, 200.0, 300.0],  # no collision
        [0.0, 50.0, 100.0],  # gaps of exactly the resolution
        [0.0, 10.0, 200.0, 400.0, 420.0, 900.0],  # isolated pairs
        [0.0, 1.0, 300.0, 600.0],  # collision at the first tag
        [0.0, 300.0, 600.0, 601.0],  # collision at the last tag
        [0.0, 30.0, 60.0, 90.0, 120.0, 500.0, 530.0, 560.0, 590.0],  # chains
        [0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0],  # one chain, whole line
        _DENSE_TIMES * 1e9,  # thousands of clusters of every length
    ],
)
def test_dead_time_clusters_match_whole_line_loop(times_ns):
    times = np.asarray(times_ns, dtype=np.float64) * 1e-9
    got = _keep_after_dead_time(times, 50e-9)
    assert got.tobytes() == _reference_keep_after_dead_time(times, 50e-9).tobytes()


def test_dead_time_dense_line_drops_inside_long_chains():
    keep = _keep_after_dead_time(_DENSE_TIMES, 50e-9)
    close = np.diff(_DENSE_TIMES) < 50e-9
    # a run of at least three close gaps in a row, with a kept tag inside it
    assert 0 < np.count_nonzero(~keep) < np.count_nonzero(close)
    assert any(close[i:i + 3].all() and keep[i + 2] for i in range(close.size - 2))


def test_multiplex_ignores_the_order_of_its_events():
    # only multiplex_two_channel puts events in time order, so any order in
    # must give the same stream, dead-time collisions included
    params = SystemParams(background_rate_cps=10000.0)
    rec = generate_alice_record(100_000, seed("perm"), start_time_s=1e-3)
    ev = simulate_detections(rec, params, seed("perm-d"))
    ev = add_background(ev, params, 0.021, seed("perm-b"))
    # a detector-2 click 45 ns after a detector-0 click shares line 0 inside
    # the 100 ns dead time
    ev = DetectionEvents(
        times_s=np.concatenate([ev.times_s, [5e-4, 5e-4 + 5e-9]]),
        detectors=np.concatenate([ev.detectors, np.array([0, 2], dtype=np.uint8)]),
        pulses=np.concatenate([ev.pulses, [-1, -1]]),
    )
    order = np.random.default_rng(8).permutation(ev.n_events)
    shuffled = DetectionEvents(ev.times_s[order], ev.detectors[order], ev.pulses[order])
    dead = replace(params, dead_time_s=100e-9)
    want = multiplex_two_channel(ev, dead)
    got = multiplex_two_channel(shuffled, dead)
    assert want.dropped_collisions >= 1
    assert got.dropped_collisions == want.dropped_collisions
    assert np.all(np.diff(got.times_s) >= 0)
    for name in ("times_s", "lines", "truth_pulses"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def bright_events(sample, label, n_pulses=2_500_000):
    """Signal plus background at the brightest bright_sweep row, B = 150 000."""
    params = SystemParams(background_rate_cps=150_000.0)
    rec = generate_alice_record(n_pulses, seed(label + "r"), start_time_s=0.05)
    events = sample(rec, params, seed(label + "d"))
    duration = 0.05 + n_pulses * params.pulse_period_s
    return events, add_background(events, params, duration, seed(label + "b")), params


# Known answers of the bright-row multiplexer, recorded while add_background
# still left its draws unsorted: dead time -> (dropped collisions, SHA-256
# of the times, lines and truth pulses). The per-pulse reference sampler
# supplies the signal, so only add_background and multiplex_two_channel
# move these answers.
BRIGHT_MUX_KNOWN_ANSWERS = {
    0.0: (0, "05a54d0dd2ea7501e55510bad18713855f6fdc6abde6b880de4cd4f7c807373a"),
    50e-9: (1454, "9c8321f914395575102f5ec73121fb8c9910b9ad963e068c344ec016dc3add77"),
}


@pytest.mark.parametrize("dead_time_s", sorted(BRIGHT_MUX_KNOWN_ANSWERS))
def test_bright_multiplex_known_answer(reference_sampler, dead_time_s):
    _, events, params = bright_events(reference_sampler, "bright-ka")
    stream = multiplex_two_channel(events, replace(params, dead_time_s=dead_time_s))
    digest = hashlib.sha256()
    for a in (stream.times_s, stream.lines, stream.truth_pulses):
        digest.update(a.tobytes())
    assert (stream.dropped_collisions, digest.hexdigest()) == BRIGHT_MUX_KNOWN_ANSWERS[dead_time_s]


def test_bright_multiplex_ignores_the_order_of_its_events():
    # the sibling of the test above at the brightest row with 50 ns dead
    # time: shuffled, time-sorted and segment-reversed inputs all give the
    # stream of add_background's own order
    signal, ev, params = bright_events(simulate_detections, "bright-perm")
    dead = replace(params, dead_time_s=50e-9)
    want = multiplex_two_channel(ev, dead)
    assert want.dropped_collisions >= 100
    n = signal.n_events
    counts = np.bincount(ev.detectors[n:], minlength=4)
    ends = n + np.cumsum(counts)
    segments_reversed = np.concatenate(
        [np.arange(n)] + [np.arange(lo, hi)[::-1] for lo, hi in zip(ends - counts, ends)]
    )
    orders = {
        "shuffled": np.random.default_rng(9).permutation(ev.n_events),
        "time-sorted": np.argsort(ev.times_s, kind="stable"),
        "segment-reversed": segments_reversed,
    }
    for label, order in orders.items():
        assert np.array_equal(np.sort(order), np.arange(ev.n_events)), label
        got = multiplex_two_channel(
            DetectionEvents(ev.times_s[order], ev.detectors[order], ev.pulses[order]), dead
        )
        assert got.dropped_collisions == want.dropped_collisions, label
        for name in ("times_s", "lines", "truth_pulses"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (label, name)


def test_background_runs_ascend_and_keep_the_raw_draws():
    # add_background sorts each detector's run of uniform times: the law is
    # that of the raw draws, which the same seed reproduces here
    signal, ev, params = bright_events(simulate_detections, "bright-runs", n_pulses=500_000)
    duration = 0.05 + 500_000 * params.pulse_period_s
    rng = np_rng(seed("bright-runsb"))
    counts = rng.poisson(params.background_rate_cps / 2.0 * duration, 4)
    raw = rng.random(int(counts.sum())) * duration
    n = signal.n_events
    for name in ("times_s", "detectors", "pulses"):
        assert getattr(ev, name)[:n].tobytes() == getattr(signal, name).tobytes(), name
    assert np.all(ev.pulses[n:] == -1)
    assert np.array_equal(np.bincount(ev.detectors[n:], minlength=4), counts)
    ends = np.cumsum(counts)
    for det, (lo, hi) in enumerate(zip(ends - counts, ends)):
        run = ev.times_s[n + lo:n + hi]
        assert np.all(ev.detectors[n + lo:n + hi] == det)
        assert np.all(np.diff(run) >= 0), det
        assert run.tobytes() == np.sort(raw[lo:hi]).tobytes(), det


def test_multiplex_deterministic():
    params = SystemParams(background_rate_cps=10000.0)
    rec = generate_alice_record(100_000, seed("d1"))
    streams = []
    for _ in range(2):
        ev = simulate_detections(rec, params, seed("d2"))
        ev = add_background(ev, params, 0.025, seed("d3"))
        streams.append(multiplex_two_channel(ev, params))
    assert np.array_equal(streams[0].times_s, streams[1].times_s)
    assert np.array_equal(streams[0].lines, streams[1].lines)


def test_tagstream_text_roundtrip(tmp_path):
    params = SystemParams(background_rate_cps=5000.0)
    rec = generate_alice_record(50_000, seed("io"))
    ev = simulate_detections(rec, params, seed("io2"))
    ev = add_background(ev, params, 0.011, seed("io3"))
    stream = multiplex_two_channel(ev, replace(params, clock_skew_ppm=0.0))
    path = tmp_path / "tags.txt"
    stream.to_text(path)
    loaded = TagStream.from_text(path)
    assert loaded.n_tags == stream.n_tags
    assert np.array_equal(loaded.lines, stream.lines)
    # picosecond quantization, strictly increasing
    assert np.all(np.diff(loaded.times_s) > 0)
    assert np.max(np.abs(loaded.times_s - stream.times_s)) < 2e-12


def _to_text_reference(stream, path):
    """The tie-bump loop: raise every clash to its predecessor + 1 ps
    until the times strictly increase."""
    ps = np.round(stream.times_s * 1e12).astype(np.int64)
    while True:
        clash = ps[1:] <= ps[:-1]
        if not clash.any():
            break
        ps[1:][clash] = ps[:-1][clash] + 1
    with open(path, "w") as fh:
        for t, line in zip(ps, stream.lines):
            fh.write(f"{t}\t{line}\n")


@pytest.mark.parametrize(
    "ps",
    [
        [],
        [5],
        [5, 5, 5, 6, 6, 9, 9, 9, 9, 10, 20],  # runs that spill into the next value
        [0] * 3000 + [1500, 2999, 3000, 3000, 4000],  # one long run swallowing later times
        [7, 7, 8, 8, 8, 8, 9, 30, 30, 31],
    ],
)
def test_tagstream_text_matches_tie_bump_loop(tmp_path, ps):
    times = np.asarray(ps, dtype=np.float64) * 1e-12
    # sub-picosecond jitter rounds onto the same picosecond
    times += np.resize([0.0, 0.2e-12, -0.3e-12, 0.4e-12], times.size)
    lines = (np.arange(times.size) % 2).astype(np.uint8)
    stream = TagStream(times_s=times, lines=lines)
    stream.to_text(tmp_path / "fast.txt")
    _to_text_reference(stream, tmp_path / "loop.txt")
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()
    # the bumped file reads back and writes out unchanged
    TagStream.from_text(tmp_path / "fast.txt").to_text(tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "fast.txt").read_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("5\t0\n5\t1\n", "2: time 5 ps does not follow 5 ps"),
        ("5\t0\n9\t1\n\n8\t0\n", "4: time 8 ps does not follow 9 ps"),
        ("5\t0\n9\t7\n", "2: line 7 is not 0 or 1"),
        ("5\t-1\n", "1: line -1 is not 0 or 1"),
        ("5\t0\t1\n", "1: .+ is not two tab-separated integers"),
        ("5\t0\n9 1\n", "2: '9 1' is not two tab-separated integers"),
    ],
    ids=["tie", "backwards", "line-7", "line-negative", "three-fields", "space"],
)
def test_tagstream_from_text_rejects_what_the_format_forbids(tmp_path, text, message):
    path = tmp_path / "tags.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"tags.txt:{message}"):
        TagStream.from_text(path)


def test_ground_truth_labels_partition_stream():
    params = SystemParams(background_rate_cps=8000.0)
    rec = generate_alice_record(200_000, seed("truth"))
    ev = simulate_detections(rec, params, seed("truth2"))
    n_signal = ev.n_events
    merged = add_background(ev, params, 0.041, seed("truth3"))
    # a pulse index marks signal and -1 marks background
    assert (merged.pulses >= 0).sum() == n_signal
    assert (merged.pulses == -1).sum() == merged.n_events - n_signal
    stream = multiplex_two_channel(merged, replace(params, clock_skew_ppm=0.0))
    assert (stream.truth_pulses >= 0).sum() == n_signal

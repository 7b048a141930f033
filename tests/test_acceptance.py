"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test prints its measured numbers so the margins are
visible, not just the verdict.
"""

import numpy as np
import pytest

from qkdsim.errors import DecodeFailure, StorageFailure
from qkdsim.otp_store import OtpStore
from qkdsim.params import SystemParams
from qkdsim.photonics import (
    add_background,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
)
from qkdsim.rate_model import predict
from qkdsim.reconcile import (
    build_factor_graph,
    compute_syndrome,
    decode,
    key_digest,
    rate_for_error,
)
from qkdsim.runner import RunConfig, run_once, sweep_background, sweep_gate
from qkdsim.seeds import derive_seed, parse_seed
from qkdsim.privacy import poisson_multi_prob, secure_fraction
from qkdsim.sync import detect_start, lock_clock

MASTER = parse_seed("acce97a4ce")


def report_line(criterion, verdict, detail):
    print(f"\nACCEPTANCE {criterion}: {verdict} — {detail}")


def test_criterion_1_background_bound():
    """B_max within 1% of 36000 counts/s at M=0.3, T=1, eta=0.045, t=5 ns."""
    pred = predict(SystemParams())
    rel = abs(pred.max_background_cps - 36000) / 36000
    report_line(1, "PASS" if rel < 0.01 else "FAIL",
                f"B_max={pred.max_background_cps:.1f} cps, {100 * rel:.2f}% from 36000")
    assert rel < 0.01


def test_criterion_2_error_rate_band_reproduction():
    """Simulated end-to-end error rates inside the efficiency band.

    Grid B in {0, 5k, 10k, 15k, 20k, 26k}; band from eta in [0.045, 0.055]
    widened by 3 binomial sigmas of the estimation subset; at least 5/6
    points per seed and 6/6 for the 10-seed average.
    """
    grid = (0.0, 5000.0, 10000.0, 15000.0, 20000.0, 26000.0)
    n_seeds = 10
    per_seed_pass = []
    errors = np.zeros((n_seeds, len(grid)))
    sigmas = np.zeros((n_seeds, len(grid)))
    bands = {}
    for s in range(n_seeds):
        seed = derive_seed(MASTER, f"fig6/{s}")
        hits = 0
        for j, b in enumerate(grid):
            params = SystemParams(background_rate_cps=b)
            r = run_once(params, 0.4, seed, label=f"fig6/B{b:g}")
            assert r.succeeded, f"seed {s} B={b}: {r.failure_stage}/{r.failure_kind}"
            sigma = np.sqrt(max(r.error_rate * (1 - r.error_rate), 1e-6) / r.n_err)
            errors[s, j] = r.error_rate
            sigmas[s, j] = sigma
            bands[b] = (r.e_pred_eta_high, r.e_pred_eta_low)  # (lower, upper)
            lo, hi = bands[b]
            hits += lo - 3 * sigma <= r.error_rate <= hi + 3 * sigma
        per_seed_pass.append(int(hits))

    mean_hits = 0
    for j, b in enumerate(grid):
        lo, hi = bands[b]
        mean_err = errors[:, j].mean()
        mean_sigma = sigmas[:, j].mean() / np.sqrt(n_seeds)
        mean_hits += lo - 3 * mean_sigma <= mean_err <= hi + 3 * mean_sigma

    ok = all(h >= 5 for h in per_seed_pass) and mean_hits == len(grid)
    report_line(2, "PASS" if ok else "FAIL",
                f"per-seed hits {per_seed_pass}, averaged {mean_hits}/{len(grid)}")
    assert all(h >= 5 for h in per_seed_pass)
    assert mean_hits == len(grid)


def test_criterion_3_secret_rate_endpoints():
    """Low background: 2000-8000 secret bits/s; B=25000: 250-2000."""
    low = run_once(SystemParams(background_rate_cps=0.0), 1.0,
                   derive_seed(MASTER, "endpoint-low"), label="low")
    bright = run_once(SystemParams(background_rate_cps=25000.0), 1.0,
                      derive_seed(MASTER, "endpoint-bright"), label="bright")
    assert low.succeeded and bright.succeeded
    ok = 2000 <= low.secret_bits_per_s <= 8000 and 250 <= bright.secret_bits_per_s <= 2000
    report_line(3, "PASS" if ok else "FAIL",
                f"low-B {low.secret_bits_per_s:.0f} bits/s, "
                f"B=25000 {bright.secret_bits_per_s:.0f} bits/s")
    assert 2000 <= low.secret_bits_per_s <= 8000
    assert 250 <= bright.secret_bits_per_s <= 2000


def test_criterion_4_yield_formula_oracle_equivalence():
    """Closed forms match truncated-series oracles to 1e-6."""
    import math

    worst = 0.0
    for m in (0.05, 0.1, 0.3, 0.5, 1.0):
        series = sum(m**n * math.exp(-m) / math.factorial(n) for n in range(2, 51))
        worst = max(worst, abs(poisson_multi_prob(m) - series))
        for t in (0.5, 0.8, 1.0):
            oracle = min(max(1.0 - series / ((1 - math.exp(-m)) * t), 0.0), 1.0)
            worst = max(worst, abs(secure_fraction(m, t) - oracle))
    ref = secure_fraction(0.3, 1.0)
    ok = worst < 1e-6 and abs(ref - 0.85749) < 1e-5
    report_line(4, "PASS" if ok else "FAIL",
                f"max oracle gap {worst:.2e}, b(0.3,1)={ref:.6f}")
    assert worst < 1e-6
    assert abs(ref - 0.85749) < 1e-5


@pytest.mark.parametrize("flip_rate", [0.01, 0.027, 0.05, 0.08])
def test_criterion_5_reconciliation_success(flip_rate):
    """>= 99/100 decodes at the table rate for 10^4-bit blocks; every
    success hash-verified. The 8% point witnesses workability below the
    error-correction limit."""
    rate = rate_for_error(flip_rate)
    rng = np.random.default_rng(int(flip_rate * 10_000))
    n = 10_000
    wins = 0
    for trial in range(100):
        alice = rng.integers(0, 2, n).astype(np.uint8)
        bob = alice ^ (rng.random(n) < flip_rate).astype(np.uint8)
        graph = build_factor_graph(n, rate, derive_seed(MASTER, f"rec/{flip_rate}/{trial}"))
        syndrome = compute_syndrome(alice, graph)
        try:
            fixed = decode(bob, syndrome, graph, flip_rate, max_iters=100)
        except DecodeFailure:
            continue
        assert key_digest(fixed) == key_digest(alice)  # hash-verified, every success
        wins += np.array_equal(fixed, alice)
    report_line(5, "PASS" if wins >= 99 else "FAIL",
                f"flips {flip_rate:.3f} at rate {rate}: {wins}/100 decoded")
    assert wins >= 99


def test_criterion_6_synchronization_quality():
    """10 ppm skew, 2.4 ns FWHM jitter: >= 99% of in-gate ground-truth
    signal events land on the correct pulse slot; background retention
    matches the factor-40 per-window suppression within 3 Poisson sigmas."""
    params = SystemParams(background_rate_cps=20000.0, clock_skew_ppm=10.0)
    n_pulses = 5_000_000
    total = 0.05 + n_pulses * params.pulse_period_s
    rec = generate_alice_record(n_pulses, derive_seed(MASTER, "sync-r"), start_time_s=0.05)
    events = simulate_detections(rec, params, derive_seed(MASTER, "sync-d"))
    events = add_background(events, params, total, derive_seed(MASTER, "sync-b"))
    stream = multiplex_two_channel(events, params)
    gated = lock_clock(stream, detect_start(stream), params)

    # ground truth: undo the clock dilation, subtract the emitting pulse's
    # grid time; direct tags sit near 0, delayed (detector 2/3) near 40 ns
    dilate = 1 + params.clock_skew_ppm * 1e-6
    is_sig = stream.truth_pulses >= 0
    resid_direct = stream.times_s / dilate - (0.05 + stream.truth_pulses * params.pulse_period_s)
    resid_delayed = resid_direct - 40e-9
    half = params.gate_width_s / 2
    in_gate = np.zeros(stream.n_tags, dtype=bool)
    in_gate[is_sig] = (np.abs(resid_direct[is_sig]) <= half) | (
        np.abs(resid_delayed[is_sig]) <= half
    )

    slot_of = np.full(stream.n_tags, np.iinfo(np.int64).min, dtype=np.int64)
    slot_of[gated.tag_indices] = gated.slots
    candidates = in_gate & is_sig
    offsets = slot_of[candidates] - stream.truth_pulses[candidates]
    offsets = offsets[slot_of[candidates] != np.iinfo(np.int64).min]
    mode = np.bincount((offsets - offsets.min()).astype(np.int64)).argmax() + offsets.min()
    correct = int((slot_of[candidates] == stream.truth_pulses[candidates] + mode).sum())
    slot_accuracy = correct / int(candidates.sum())

    # background retention over the span the lock actually processed
    t_lock = stream.times_s[gated.tag_indices].min()
    processed = stream.times_s >= t_lock
    n_bg = int((processed & ~is_sig).sum())
    kept_bg = int((~is_sig[gated.tag_indices]).sum())
    expected = n_bg * 2 * params.gate_width_s / params.pulse_period_s  # two windows/period
    bg_ok = abs(kept_bg - expected) <= 3 * np.sqrt(expected)

    ok = slot_accuracy >= 0.99 and bg_ok
    report_line(6, "PASS" if ok else "FAIL",
                f"slot accuracy {slot_accuracy:.4f}, background kept {kept_bg} "
                f"vs {expected:.0f} expected (factor-40 windows)")
    assert slot_accuracy >= 0.99
    assert bg_ok


def test_criterion_7_gate_width_tradeoff():
    """Best gate shifts from wide to narrow as background grows, with a
    crossover inside the grid."""
    cfg = RunConfig(
        duration_s=0.4,
        master_seed=derive_seed(MASTER, "gates"),
        axis_values=(3.0, 5.0, 7.0),
        background_values=(0.0, 10000.0, 20000.0, 30000.0, 40000.0),
    )
    reports = sweep_gate(cfg)
    best = {}
    for r in reports:
        best[r.background_cps] = r.best_gate_ns
    order = sorted(best)
    sequence = [best[b] for b in order]
    crossover = any(a != b for a, b in zip(sequence, sequence[1:]))
    ok = sequence[0] > sequence[-1] and crossover
    report_line(7, "PASS" if ok else "FAIL",
                f"best gate per B {dict(zip([f'{b:g}' for b in order], sequence))}")
    assert sequence[0] > sequence[-1], "widest-vs-narrowest ordering must flip"
    assert crossover


def test_criterion_8_determinism_and_two_party_symmetry(tmp_path):
    """Identical master seeds give byte-identical CSVs; Alice and Bob end
    every successful run with identical keys; the pad never re-serves a
    byte under 1000 randomized crash injections."""
    # byte-identical sweeps
    blobs = []
    for name in ("one.csv", "two.csv"):
        cfg = RunConfig(
            duration_s=0.25,
            master_seed=derive_seed(MASTER, "det"),
            axis_values=(0.0, 20000.0),
            out_path=str(tmp_path / name),
        )
        reports = sweep_background(cfg)
        assert all(r.succeeded and r.final_keys_match for r in reports)
        blobs.append((tmp_path / name).read_bytes())
    csv_identical = blobs[0] == blobs[1]

    # crash injection: a consume either completes or loses bytes, never repeats
    class FaultyStore(OtpStore):
        def __init__(self, path, budget=None):
            self._writes_left = float("inf") if budget is None else budget
            super().__init__(path)

        def arm(self, budget):
            self._writes_left = budget

        def _pwrite(self, pos, data):
            if self._writes_left <= 0:
                raise OSError("injected crash")
            self._writes_left -= 1
            super()._pwrite(pos, data)

    rng = np.random.default_rng(1000)
    violations = 0
    for seq in range(1000):
        path = tmp_path / f"c{seq}.otp"
        pad = bytes(i % 251 for i in range(1024))
        OtpStore.create(path, pad).close()
        store = FaultyStore(path)
        high_water = 0
        for _ in range(int(rng.integers(2, 8))):
            n = int(rng.integers(1, 48))
            store.arm(int(rng.integers(0, 6)))
            try:
                if n <= store.remaining:
                    data = store.consume(n, "export")
                    end = store.consumed_offset
                    if end - n < high_water or data != pad[end - n : end]:
                        violations += 1
                    high_water = end
            except StorageFailure:
                store.close()
                store = FaultyStore(path)
        store.close()
        final = OtpStore(path)
        if final.consumed_offset < high_water:
            violations += 1
        final.close()

    ok = csv_identical and violations == 0
    report_line(8, "PASS" if ok else "FAIL",
                f"CSV identical: {csv_identical}, crash-injection violations: {violations}/1000")
    assert csv_identical
    assert violations == 0

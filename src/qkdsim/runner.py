"""End-to-end runs and parameter sweeps.

One run executes the whole chain: generate -> simulate -> background ->
multiplex -> detect_start -> lock_clock -> sparse_align -> sift ->
estimate_error -> reconcile -> privacy-compress -> report. Failures of
any stage become structured rows rather than exceptions, so a sweep over
hostile conditions (bright background, injected errors) keeps its
partial results.

Background convention: ``background_rate_cps`` is the per-channel rate
seen on each multiplexed input line, the same quantity the closed-form
model and all reported sweeps use. The simulation realizes it as half
that rate on each of the two physical detectors feeding a line.

Seeding: the master seed fans out through labeled derivation per stage
and per sweep point, so identical master seeds give byte-identical CSVs.
When an OTP store is attached, the factor-graph and privacy-amplification
seeds come out of the pad (32 bytes each, plus 32 per session reserved for
authentication, which no frame has yet) and the finished key refills it.

Settings shared by every run (lead-in, alignment subset and search
range) are module constants; ``open_outputs`` opens and closes the pad
store and the CSV of a sweep or a single run.
"""

import csv
import dataclasses
import math
import numbers
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np

from qkdsim import privacy, rate_model
from qkdsim.errors import PadDepleted, QkdError
from qkdsim.otp_store import OtpStore, session_budget
from qkdsim.params import SystemParams
from qkdsim.photonics import (
    add_background,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
)
from qkdsim.reconcile import reconcile_keys
from qkdsim.seeds import SEED_BYTES, derive_seed, np_rng
from qkdsim.sifting import (
    SUBSET_FRACTION,
    ClassicalChannel,
    estimate_error,
    log_pa_seed_reference,
    sift,
)
from qkdsim.sync import detect_start, lock_clock, sparse_align

AUTH_BYTES_PER_SESSION = 32
SESSION_PAD_COST = AUTH_BYTES_PER_SESSION + 2 * SEED_BYTES

LEAD_IN_S = 0.05  # idle time before the first pulse, for start detection
# 400 revealed events keep the true-offset score clear of the extreme
# order statistic of ~2e5 random offsets even at 6-8% error rates
ALIGNMENT_SUBSET = 400
SEARCH_RANGE = 100_000  # alignment offsets scanned on each side of zero
PAD_BYTES = 64 * 1024  # initial pad of a store created from a seed


@dataclass
class RunReport:
    """One CSV row: outcome plus the complete parameter set that made it."""

    background_cps: float = 0.0
    gate_ns: float = 0.0
    n_rec: int = 0
    error_rate: float = 0.0
    ec_efficiency: float = 0.0
    secure_fraction: float = 0.0
    n_fin: int = 0
    seconds: float = 0.0
    secret_bits_per_s: float = 0.0
    e_pred_eta_low: float = 0.0
    e_pred_eta_high: float = 0.0
    best_gate_ns: float = 0.0
    rep: int = 0
    run_label: str = ""
    master_seed_hex: str = ""
    repetition_rate_hz: float = 0.0
    mean_photon_number: float = 0.0
    channel_transmission: float = 0.0
    detection_efficiency: float = 0.0
    pulse_period_ns: float = 0.0
    jitter_rms_ps: float = 0.0
    clock_skew_ppm: float = 0.0
    dead_time_ns: float = 0.0
    injected_error_rate: float = 0.0
    base_error_rate: float = 0.0
    safety_margin_bits: int = 0
    lead_in_s: float = 0.0
    subset_fraction: float = 0.0
    code_rate: float = 0.0
    n_err: int = 0
    n_syn: int = 0
    start_offset_pulses: int = 0
    alignment_score: float = 0.0
    final_keys_match: bool = False
    failure_stage: str = ""
    failure_kind: str = ""

    @property
    def succeeded(self) -> bool:
        return self.failure_stage == ""


REPORT_COLUMNS = [f.name for f in dataclasses.fields(RunReport)]


@dataclass
class RunConfig:
    """Sweep description: parameter overrides, axis values and bookkeeping."""

    params: SystemParams = field(default_factory=SystemParams)
    duration_s: float = 1.0
    repetitions: int = 1
    master_seed: bytes = bytes(32)
    axis_values: tuple = ()
    background_values: tuple = (0.0, 10000.0, 20000.0, 30000.0, 40000.0)
    out_path: str | None = None
    otp_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.repetitions, numbers.Integral) or self.repetitions < 1:
            raise ValueError(f"repetitions must be an integer >= 1, got {self.repetitions!r}")
        _pulse_count(self.params, self.duration_s)
        for v in (*self.axis_values, *self.background_values):
            if not np.isfinite(v) or v < 0:
                raise ValueError("sweep values must be finite and non-negative")


def _pulse_count(params: SystemParams, duration_s: float) -> int:
    """Pulses sent in ``duration_s``; a duration that is not finite or
    spans no pulse raises ValueError."""
    n = int(round(duration_s * params.repetition_rate_hz)) if math.isfinite(duration_s) else 0
    if n < 1:
        raise ValueError(f"duration must be finite and span at least one pulse, got {duration_s}")
    return n


def _base_report(params: SystemParams, duration_s, label, master_seed, rep):
    hi, lo = rate_model.error_band(params, [params.background_rate_cps])
    return RunReport(
        background_cps=params.background_rate_cps,
        gate_ns=round(params.gate_width_s * 1e9, 6),
        seconds=duration_s,
        e_pred_eta_low=float(hi[0]),
        e_pred_eta_high=float(lo[0]),
        rep=rep,
        run_label=label,
        master_seed_hex=master_seed.hex(),
        repetition_rate_hz=params.repetition_rate_hz,
        mean_photon_number=params.mean_photon_number,
        channel_transmission=params.channel_transmission,
        detection_efficiency=params.detection_efficiency,
        pulse_period_ns=round(params.pulse_period_s * 1e9, 6),
        jitter_rms_ps=round(params.pulse_jitter_rms_s * 1e12, 6),
        clock_skew_ppm=params.clock_skew_ppm,
        dead_time_ns=round(params.dead_time_s * 1e9, 6),
        injected_error_rate=params.injected_error_rate,
        base_error_rate=params.base_error_rate,
        safety_margin_bits=params.safety_margin_bits,
        lead_in_s=LEAD_IN_S,
        subset_fraction=SUBSET_FRACTION,
    )


def run_once(
    params: SystemParams,
    duration_s: float,
    master_seed: bytes,
    label: str = "run",
    rep: int = 0,
    otp: OtpStore | None = None,
    phase_hist: TextIO | None = None,
) -> RunReport:
    """Execute one full key exchange and report the yield.

    With ``otp`` the session's seeds come out of the pad and the final
    key tops it up; the clock lock's residual-phase histogram goes to
    ``phase_hist``, a text file the caller has opened.

    Protocol-stage failures (no start jump, lost lock, ambiguous
    alignment, too little data, error rate above threshold, decode
    failure, depleted pad, failed pad write) come back as a report with
    ``failure_stage``/``failure_kind`` set. A duration spanning no pulse
    raises ValueError first; ``SystemParams`` has already rejected a gate
    or a pulse period the receiver cannot use.
    """
    n_pulses = _pulse_count(params, duration_s)
    report = _base_report(params, duration_s, label, master_seed, rep)

    def seed(stage):
        return derive_seed(master_seed, f"{label}/{stage}")

    stage = "budget"
    try:
        if otp is not None:
            if not session_budget(otp, SESSION_PAD_COST):
                raise PadDepleted("pad below the per-attempt reserve")
            otp.consume(AUTH_BYTES_PER_SESSION, "auth")
            fg_seed = otp.consume(SEED_BYTES, "fg_seed")
            pa_offset = otp.consumed_offset
            pa_seed = otp.consume(SEED_BYTES, "pa_seed")
        else:
            fg_seed = seed("fg")
            pa_seed = seed("pa")
            pa_offset = 0

        stage = "photonics"
        total_duration = LEAD_IN_S + n_pulses * params.pulse_period_s
        record = generate_alice_record(n_pulses, seed("alice"), start_time_s=LEAD_IN_S)
        events = simulate_detections(record, params, seed("detect"))
        events = add_background(events, params, total_duration, seed("background"))
        stream = multiplex_two_channel(events, params)
        del events  # its truth labels travel in the stream

        stage = "detect_start"
        start = detect_start(stream)

        stage = "lock_clock"
        gated = lock_clock(stream, start, params)
        del stream
        if phase_hist is not None:
            gated.write_phase_histogram(phase_hist)

        stage = "sparse_align"
        rng = np_rng(seed("subset"))
        k = min(ALIGNMENT_SUBSET, gated.n_events)
        chosen = rng.choice(gated.n_events, size=k, replace=False)
        alignment = sparse_align(
            gated.slots[chosen], gated.detectors[chosen], record, search_range=SEARCH_RANGE
        )
        report.start_offset_pulses = alignment.start_offset_pulses
        report.alignment_score = alignment.match_score

        stage = "sift"
        channel = ClassicalChannel()
        alice_key, bob_key = sift(gated, alignment, record, channel)
        del record, gated, alignment  # the keys are all later stages read

        stage = "estimate_error"
        error, n_est, alice_key, bob_key = estimate_error(
            alice_key, bob_key, seed("estimate"), channel
        )
        report.n_rec = alice_key.n_rec
        report.n_err = alice_key.n_err
        report.error_rate = error

        stage = "reconcile"
        bob_corrected, n_syn, code_rate = reconcile_keys(
            alice_key.bits, bob_key.bits, error, fg_seed, n_est, channel
        )
        report.n_syn = n_syn
        report.code_rate = code_rate
        ec_efficiency = 1.0 - n_syn / alice_key.n_rec
        report.ec_efficiency = ec_efficiency

        stage = "privacy"
        b = privacy.secure_fraction(params.mean_photon_number, params.channel_transmission)
        report.secure_fraction = b
        bound = privacy.final_length(
            alice_key.n_rec, alice_key.n_err, error, ec_efficiency, b, params.safety_margin_bits
        )
        n_fin = min(bound, int(alice_key.bits.size))
        log_pa_seed_reference(channel, pa_offset, SEED_BYTES)
        final_alice = privacy.compress(alice_key.bits, n_fin, pa_seed)
        final_bob = privacy.compress(bob_corrected, n_fin, pa_seed)
        keys_match = bool(np.array_equal(final_alice, final_bob))
        if otp is not None and keys_match and n_fin >= 8:
            usable = (n_fin // 8) * 8
            otp.top_up(np.packbits(final_alice[:usable]).tobytes())
        # only a key that reached the store counts: a failed row yields nothing
        report.final_keys_match = keys_match
        report.n_fin = n_fin
        report.secret_bits_per_s = n_fin / duration_s
    except QkdError as exc:
        report.failure_stage = stage
        report.failure_kind = type(exc).__name__
    return report


def seeded_store(path, seed: bytes, size: int = PAD_BYTES) -> OtpStore:
    """Create a pad store at ``path`` holding ``size`` bytes drawn from ``seed``.

    A size that is negative or not an integer raises ValueError before
    any file is created; a size of 0 makes an empty pad.
    """
    if not isinstance(size, numbers.Integral) or size < 0:
        raise ValueError(f"pad size must be a non-negative integer, got {size!r}")
    pad = np_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    return OtpStore.create(path, pad)


def attach_store(cfg: RunConfig):
    if cfg.otp_path is None:
        return None
    if os.path.exists(cfg.otp_path):
        return OtpStore(cfg.otp_path)
    # fresh store gets a pad bootstrapped from the master seed
    return seeded_store(cfg.otp_path, derive_seed(cfg.master_seed, "initial-pad"))


@contextmanager
def open_outputs(cfg: RunConfig):
    """Attach the configured pad store and open the CSV; yields (otp, emit).

    ``otp`` is None without ``otp_path``. ``emit(report)`` appends one
    row and flushes it, so an interrupted sweep keeps its finished rows;
    without ``out_path`` it does nothing. Both close on the way out,
    also when opening the CSV fails.
    """
    with ExitStack() as stack:
        otp = attach_store(cfg)
        if otp is not None:
            stack.enter_context(otp)
        writer = None
        if cfg.out_path:
            fh = stack.enter_context(open(cfg.out_path, "w", newline=""))
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()

        def emit(report: RunReport) -> None:
            if writer is not None:
                writer.writerow(dataclasses.asdict(report))
                fh.flush()

        yield otp, emit


def sweep_background(cfg: RunConfig):
    """One run per (background value, repetition); emits CSV if configured."""
    if not cfg.axis_values:
        raise ValueError("a sweep needs at least one axis value")
    reports = []
    with open_outputs(cfg) as (otp, emit):
        for b in cfg.axis_values:
            for rep in range(cfg.repetitions):
                params = replace(cfg.params, background_rate_cps=float(b))
                label = f"B{b:g}/rep{rep}"
                report = run_once(params, cfg.duration_s, cfg.master_seed, label, rep, otp)
                reports.append(report)
                emit(report)
    return reports


def sweep_gate(cfg: RunConfig):
    """Full pipeline per (gate width, background, repetition).

    The ``best_gate_ns`` column carries, for every row of a background
    group, the gate whose mean secret rate won at that background. A gate
    the receiver cannot use, an empty axis or an empty background grid
    raises ValueError before any run or output.
    """
    gates_ns = cfg.axis_values
    if not gates_ns:
        raise ValueError("a sweep needs at least one axis value")
    if not cfg.background_values:
        raise ValueError("a gate sweep needs at least one background value")
    for gate_ns in gates_ns:
        replace(cfg.params, gate_width_s=float(gate_ns) * 1e-9)  # checks the gate
    reports = []
    with open_outputs(cfg) as (otp, emit):
        for b in cfg.background_values:
            group = []
            for gate_ns in gates_ns:
                for rep in range(cfg.repetitions):
                    params = replace(
                        cfg.params,
                        background_rate_cps=float(b),
                        gate_width_s=float(gate_ns) * 1e-9,
                    )
                    label = f"B{b:g}/g{gate_ns:g}/rep{rep}"
                    group.append(
                        run_once(params, cfg.duration_s, cfg.master_seed, label, rep, otp)
                    )
            means = {
                g: float(np.mean([r.secret_bits_per_s for r in group if r.gate_ns == g]))
                for g in {r.gate_ns for r in group}
            }
            best = max(sorted(means), key=lambda g: means[g])
            for report in group:
                report.best_gate_ns = best
                emit(report)
            reports.extend(group)
    return reports

"""Pipeline orchestration, sweeps, CSV output and the command line."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from qkdsim import cli, runner
from qkdsim.cli import load_config, main
from qkdsim.otp_store import DEFAULT_LEDGER_CAPACITY, HEADER_SIZE, LEDGER_ENTRY_SIZE, OtpStore
from qkdsim.params import SystemParams
from qkdsim.runner import (
    REPORT_COLUMNS,
    RunConfig,
    RunReport,
    run_once,
    sweep_background,
    sweep_gate,
)
from qkdsim.seeds import parse_seed

from conftest import traced_peak

SEED = parse_seed("5eed")

# Known-answer SHA-256 digests of the CSV bytes written by the tests below.
# They depend on numpy's Generator streams (PCG64 and the distributions
# drawn from it) as well as on the pipeline. If they ever change on
# purpose, CHANGES.md must say why.
SWEEP_CSV_SHA256 = (
    "ad70b2579ffd218233fc4c087eaf6db584f3b24d65bb307ba076fb1c6e590f6b"
)
GATE_CSV_SHA256 = (
    "9c7bf839420ef85f30a048044ebb85ab118a83faa428dcb286ef079503344e24"
)
RUN_CSV_SHA256 = (
    "5b1d0496552035dbdaaa407279194c897a80295420470ee77fa03cd655f4c054"
)
PHASE_HIST_SHA256 = (
    "4b22162d9e6f34623247807802ea4b16755ee854b58beb76884ab654cfd5c360"
)
# The store-backed sweep: the CSV of each of two sweeps over one pad
# store, and the store's header plus pad region after each (the ledger
# between them holds wall-clock timestamps). The first sweep bootstraps
# the pad from the master seed, the second reopens it.
STORE_SWEEP_CSV_SHA256 = (
    "78279f2f727e101016169fd2b8049e01431353449813399d11e2ed441bef8399"
)
STORE_AFTER_SWEEP_SHA256 = (
    "49607e78fe29cd47260907af5003c950866d4ddd9a71d70da5b25542ce5cec6a",
    "8da33c471ee1046bafa4994cbc83428c730ac63b8cca3996243dbcf5a7ef67f4",
)
# The whole file `qkd-sim otp init --size 512 --seed aa` writes.
OTP_INIT_SHA256 = (
    "00775bc9ec7a551203ecbd39ca6a4d7002ac56c342133c6d79cf1f96e33179c0"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_once_reference_point():
    report = run_once(SystemParams(), 0.4, SEED, label="ref")
    assert report.succeeded
    assert report.final_keys_match
    # sifted rate tracks S = 16875/s within the double-fire/jitter losses
    assert 0.9 * 16875 * 0.4 < report.n_rec <= 16875 * 0.4 * 1.05
    assert abs(report.error_rate - 0.027) < 0.01
    assert report.n_fin > 0
    assert report.secret_bits_per_s == pytest.approx(report.n_fin / 0.4)


def test_run_memory_holds_record_plus_one_stage():
    # A 6 s run holds Alice's 30 MB record plus the working set of the one
    # stage running: about 41.8 MB. With the detections, the tag stream and
    # the gated events kept alive to the end, reconcile_keys peaked at 58 MB.
    run_once(SystemParams(), 6.0, bytes(32))  # first-call allocations stay out of the peak
    assert traced_peak(lambda: run_once(SystemParams(), 6.0, bytes(32))) < 48e6


def test_run_once_deterministic():
    a = run_once(SystemParams(), 0.2, SEED, label="det")
    b = run_once(SystemParams(), 0.2, SEED, label="det")
    assert a == b


def test_run_once_reports_qber_abort_stage(tmp_path, capsys):
    params = SystemParams(injected_error_rate=0.2)
    report = run_once(params, 0.2, SEED, label="abort")
    assert not report.succeeded
    assert report.failure_stage == "estimate_error"
    assert report.failure_kind == "QberAboveThreshold"
    assert report.n_fin == 0
    # the command line prints the failed stage and exits 1
    cfg_file = tmp_path / "eve.cfg"
    cfg_file.write_text("injected_error_rate = 0.2\nduration = 0.2\nseed = 5eed\n")
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().out == "FAILED at estimate_error: QberAboveThreshold\n"


def test_run_once_reports_no_jump_on_buried_signal():
    # background far beyond the bound: the rate jump vanishes
    params = SystemParams(background_rate_cps=400_000.0)
    report = run_once(params, 0.2, SEED, label="buried")
    assert not report.succeeded
    assert report.failure_stage in ("detect_start", "lock_clock", "sparse_align")


def test_run_once_consumes_and_tops_up_pad(tmp_path):
    path = tmp_path / "pad.otp"
    rng = np.random.default_rng(0)
    store = OtpStore.create(path, rng.integers(0, 256, 4096, dtype=np.uint8).tobytes())
    report = run_once(SystemParams(), 0.3, SEED, label="otp", otp=store)
    assert report.succeeded
    purposes = [e.purpose for e in store.ledger]
    assert purposes == ["auth", "fg_seed", "pa_seed"]
    # a successful run tops the pad back up by more than it consumed
    assert store.remaining > 4096 - 96
    store.close()


def test_run_once_budget_failure(tmp_path):
    store = OtpStore.create(tmp_path / "thin.otp", b"\x42" * 64)
    report = run_once(SystemParams(), 0.2, SEED, label="thin", otp=store)
    assert (report.failure_stage, report.failure_kind) == ("budget", "PadDepleted")
    assert store.consumed_offset == 0
    store.close()


class FaultyStore(OtpStore):
    """A pad store whose write number ``fail_at`` (from 0) raises OSError."""

    def __init__(self, path, fail_at):
        self._writes_left = fail_at
        super().__init__(path)

    def _pwrite(self, pos, data):
        if self._writes_left <= 0:
            raise OSError("injected write fault")
        self._writes_left -= 1
        super()._pwrite(pos, data)


# A session writes 11 times: three consumes (ledger entry, header,
# zeroing each), then the top-up (pad, header). Write k fails; the row,
# the consumed offset and the pad left after reopening the store.
@pytest.mark.parametrize(
    "fail_at, stage, offset, remaining",
    [(k, "budget", off, 4096 - off) for k, off in enumerate([0, 32, 32, 32, 64, 64, 64, 96, 96])]
    + [(9, "privacy", 96, 4000), (10, "privacy", 96, 4000), (11, "", 96, 4113)],
)
def test_a_pad_write_fault_at_any_write_ends_the_run_as_a_row(
    tmp_path, fail_at, stage, offset, remaining
):
    path = tmp_path / "pad.otp"
    runner.seeded_store(path, bytes(32), 4096).close()
    with FaultyStore(path, fail_at) as store:
        report = run_once(SystemParams(), 0.2, bytes(32), otp=store)
    assert report.failure_stage == stage
    assert report.failure_kind == ("StorageFailure" if stage else "")
    # a failed row counts no key bits, also when the key was made before
    # its top-up failed
    if stage:
        assert (report.n_fin, report.secret_bits_per_s, report.final_keys_match) == (0, 0.0, False)
    else:
        assert report.n_fin > 0 and report.final_keys_match
    with OtpStore(path) as reopened:
        assert (reopened.consumed_offset, reopened.remaining) == (offset, remaining)
        n_entries = len(reopened.ledger)
        run_once(SystemParams(), 0.2, bytes(32), label="next", otp=reopened)
        # the next session's first consume starts where the reopened pad does
        assert reopened.ledger[n_entries].offset == offset


@pytest.mark.parametrize("otp", [False, True])
def test_jitter_past_the_last_pulse_ends_the_run_as_a_row(tmp_path, otp):
    # 0.1 ms of jitter, over a thousand pulse periods, leaves no phase to
    # lock on and carries the last tags past the background's span; the
    # run still ends as a row, also after the budget stage spent pad
    store = runner.seeded_store(tmp_path / "pad.otp", bytes(32), 4096) if otp else None
    params = SystemParams(pulse_jitter_rms_s=1e-4)
    report = run_once(params, 0.05, bytes([1]) * 32, otp=store)
    assert (report.failure_stage, report.failure_kind) == ("lock_clock", "LockLost")
    if store is not None:
        store.close()


@pytest.mark.parametrize("duration_s", [0.005, 0.02, 0.03])
def test_run_once_too_short_is_a_structured_failure(duration_s):
    # 0.005 s leaves too few gated events to align on; 0.02-0.03 s either
    # align on too few events to separate the best offset from the runner-up
    # or align but sift too few bits to estimate the error on. Which of the
    # short-run failures a seed meets is down to its draws.
    report = run_once(SystemParams(), duration_s, parse_seed("a1b2c3"))
    assert (report.failure_stage, report.failure_kind) in {
        ("sparse_align", "InsufficientData"),
        ("sparse_align", "AmbiguousAlignment"),
        ("estimate_error", "InsufficientData"),
    }
    assert report.n_fin == 0


def test_sweep_background_completes_past_a_too_short_row(tmp_path):
    out = tmp_path / "short.csv"
    cfg = RunConfig(
        duration_s=0.005,
        master_seed=parse_seed("a1b2c3"),
        axis_values=(0.0, 5000.0),
        out_path=str(out),
    )
    reports = sweep_background(cfg)
    assert len(reports) == 2
    assert reports[0].failure_kind == "InsufficientData"
    assert len(out.read_text().strip().splitlines()) == 3


def test_sweep_closes_store_when_csv_cannot_open(tmp_path, monkeypatch):
    stores = []

    def attach(cfg):
        stores.append(OtpStore.create(cfg.otp_path, bytes(256)))
        return stores[-1]

    monkeypatch.setattr(runner, "attach_store", attach)
    cfg = RunConfig(
        otp_path=str(tmp_path / "pad.otp"),
        out_path=str(tmp_path / "missing" / "bg.csv"),
        axis_values=(0.0,),
    )
    with pytest.raises(FileNotFoundError):
        sweep_background(cfg)
    assert stores[0]._fh is None


def test_sweep_background_csv(tmp_path):
    out = tmp_path / "bg.csv"
    cfg = RunConfig(
        duration_s=0.2,
        master_seed=SEED,
        axis_values=(0.0, 20000.0),
        out_path=str(out),
    )
    reports = sweep_background(cfg)
    assert len(reports) == 2
    assert all(r.succeeded for r in reports)
    # errors grow with background; predictions ride along in the row
    assert reports[1].error_rate > reports[0].error_rate
    assert reports[1].e_pred_eta_low > reports[1].e_pred_eta_high
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3


def test_sweep_csv_byte_identical_across_runs(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        cfg = RunConfig(
            duration_s=0.2,
            master_seed=SEED,
            axis_values=(0.0, 15000.0),
            out_path=str(tmp_path / name),
        )
        sweep_background(cfg)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == SWEEP_CSV_SHA256


def test_store_backed_sweep_matches_known_answers_and_resumes(tmp_path):
    pad = tmp_path / "pad.otp"
    ledger_end = HEADER_SIZE + DEFAULT_LEDGER_CAPACITY * LEDGER_ENTRY_SIZE
    for i, store_sha256 in enumerate(STORE_AFTER_SWEEP_SHA256):
        out = tmp_path / f"sweep{i}.csv"
        cfg = RunConfig(
            duration_s=0.3,
            master_seed=SEED,
            axis_values=(0.0, 25000.0),
            out_path=str(out),
            otp_path=str(pad),
        )
        reports = sweep_background(cfg)
        assert all(r.succeeded for r in reports)
        assert _sha256(out) == STORE_SWEEP_CSV_SHA256
        raw = pad.read_bytes()
        assert hashlib.sha256(raw[:HEADER_SIZE] + raw[ledger_end:]).hexdigest() == store_sha256
        with OtpStore(pad) as store:  # each sweep continues from the consumed offset
            assert store.consumed_offset == (i + 1) * 2 * runner.SESSION_PAD_COST


def test_sweep_gate_best_gate_column(tmp_path):
    cfg = RunConfig(
        duration_s=0.2,
        master_seed=SEED,
        axis_values=(3.0, 7.0),
        background_values=(30000.0,),
        out_path=str(tmp_path / "gate.csv"),
    )
    reports = sweep_gate(cfg)
    assert len(reports) == 2
    assert len({r.best_gate_ns for r in reports}) == 1
    assert reports[0].best_gate_ns in (3.0, 7.0)
    assert _sha256(tmp_path / "gate.csv") == GATE_CSV_SHA256


def _spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


def test_secret_rate_falls_with_background_and_hits_zero():
    # the secret-rate curve: decreasing in B (Spearman over reps, |rho|
    # beyond the p<0.01 critical value for n=12, and the 2-rep means at
    # B = 0, 16000 and 30000 in order) and falling to zero in the mean once
    # the background bound is passed. Adjacent 2-rep means 4000-8000 cps
    # apart are within sampling noise of each other, so only the wider
    # steps are ordered.
    cfg = RunConfig(
        duration_s=0.4,
        repetitions=2,
        master_seed=SEED,
        axis_values=(0.0, 8000.0, 16000.0, 24000.0, 30000.0, 34000.0),
    )
    reports = sweep_background(cfg)
    assert all(r.succeeded for r in reports)
    rho = _spearman(
        np.array([r.background_cps for r in reports]),
        np.array([r.secret_bits_per_s for r in reports]),
    )
    assert rho < -0.780  # two-tailed p<0.01 critical value for n=12
    means = {}
    for r in reports:
        means.setdefault(r.background_cps, []).append(r.secret_bits_per_s)
    curve = [np.mean(means[b]) for b in (0.0, 16000.0, 30000.0)]
    assert curve[0] > curve[1] > curve[2]
    # beyond the workable bound (B_max ~ 36000) the yield collapses. A
    # 0.4 s run there still distils a short key from about one estimate
    # in six that lands low, so the property is on the mean of 4 runs: at
    # most a tenth of the B = 0 mean (0.047 at worst over 40 master seeds)
    dead = [
        run_once(SystemParams(background_rate_cps=45000.0), 0.4, SEED, label=f"dead/rep{i}")
        for i in range(4)
    ]
    assert np.mean([r.secret_bits_per_s for r in dead]) < 0.1 * np.mean(means[0.0])


def test_sifted_rate_nondecreasing_in_gate_width():
    rates = []
    for gate_ns in (3.0, 5.0, 7.0):
        params = SystemParams(background_rate_cps=20000.0, gate_width_s=gate_ns * 1e-9)
        report = run_once(params, 0.2, SEED, label=f"g{gate_ns}")
        assert report.succeeded
        rates.append(report.n_rec)
    assert rates[0] <= rates[1] <= rates[2]


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# reference point\nbackground_rate_cps = 5000\nduration = 0.5\nseed = ab\n"
    )
    values = load_config(cfg_file)
    assert values == {"background_rate_cps": "5000", "duration": "0.5", "seed": "ab"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_config(bad)


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(
        [
            "run",
            "--duration",
            "0.2",
            "--seed",
            "0baf",
            "--out",
            str(out),
            "--phase-hist",
            str(tmp_path / "hist.csv"),
        ]
    )
    assert rc == 0
    assert "secret_bits_per_s" in capsys.readouterr().out
    assert _sha256(out) == RUN_CSV_SHA256
    assert _sha256(tmp_path / "hist.csv") == PHASE_HIST_SHA256


def test_store_backed_run_once_writes_the_phase_histogram_to_an_open_file(tmp_path):
    # the histogram comes from the photonics seeds alone, not from the pad
    hist = tmp_path / "hist.csv"
    with runner.seeded_store(tmp_path / "p.otp", bytes(32), 4096) as store:
        with open(hist, "w", newline="") as fh:
            report = run_once(SystemParams(), 0.2, parse_seed("0baf"), otp=store, phase_hist=fh)
        assert store.consumed_offset == 96
    assert report.succeeded
    assert _sha256(hist) == PHASE_HIST_SHA256


def test_cli_run_with_a_bad_phase_hist_path_spends_no_pad(tmp_path):
    pad = tmp_path / "pad.otp"
    assert main(["otp", "init", "--otp", str(pad), "--size", "4096"]) == 0
    out = tmp_path / "run.csv"
    argv = ["run", "--duration", "0.3", "--otp", str(pad), "--out", str(out)]
    with pytest.raises(FileNotFoundError):
        main(argv + ["--phase-hist", str(tmp_path / "missing" / "h.csv")])
    with OtpStore(pad) as store:
        assert store.consumed_offset == 0
    assert not out.exists()


def test_cli_run_that_ends_before_the_lock_leaves_an_empty_phase_hist(tmp_path):
    hist = tmp_path / "h.csv"
    assert main(["run", "--duration", "0.001", "--phase-hist", str(hist)]) == 1
    assert hist.read_bytes() == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sweep", "gate", "--values", "3", "--backgrounds", "0,nan"],
        ["sweep", "--sweep", "background", "--values", "0,inf"],
        ["run", "--background", "nan"],
        ["run", "--background", "inf"],
    ],
)
def test_cli_rejects_non_finite_background_before_writing(tmp_path, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="finite and non-negative"):
        main(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sweep", "gate", "--values", "3,45", "--backgrounds", "0"],
        ["sweep", "--sweep", "background", "--values", "0", "--gate-ns", "40"],
        ["run", "--gate-ns", "45"],
    ],
)
def test_cli_rejects_gate_at_demux_delay_before_writing(tmp_path, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="below the demux delay"):
        main(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep, values, backgrounds, match",
    [
        pytest.param(sweep, values, None, "at least one axis value", id=f"{sweep}-{values}")
        for sweep in ("background", "gate")
        for values in ("", ",")
    ]
    + [pytest.param("gate", "5", ",", "at least one background value", id="gate-no-backgrounds")],
)
def test_cli_rejects_an_empty_sweep_axis_before_writing(
    tmp_path, sweep, values, backgrounds, match
):
    out, pad = tmp_path / "out.csv", tmp_path / "pad.otp"
    argv = ["sweep", "--sweep", sweep, "--values", values, "--out", str(out), "--otp", str(pad)]
    if backgrounds is not None:
        argv += ["--backgrounds", backgrounds]
    with pytest.raises(ValueError, match=match):
        main(argv)
    assert not out.exists()
    assert not pad.exists()


@pytest.mark.parametrize("reps", [0, -1, 2.0, "2", None])
def test_run_config_rejects_repetitions_that_are_not_a_positive_integer(tmp_path, reps):
    out, pad = tmp_path / "out.csv", tmp_path / "pad.otp"
    with pytest.raises(ValueError, match="repetition"):
        cfg = RunConfig(
            duration_s=0.2,
            repetitions=reps,
            axis_values=(0.0,),
            out_path=str(out),
            otp_path=str(pad),
        )
        sweep_background(cfg)
    assert not out.exists()
    assert not pad.exists()
    assert RunConfig(repetitions=np.int64(2)).repetitions == 2  # numpy integers are integers


def test_sweep_gate_rejects_an_unusable_gate_before_any_output(tmp_path):
    # a RunConfig does not know its axis values are gates; sweep_gate checks them
    cfg = RunConfig(
        duration_s=0.2,
        master_seed=SEED,
        axis_values=(3.0, 45.0),
        background_values=(0.0,),
        out_path=str(tmp_path / "gate.csv"),
        otp_path=str(tmp_path / "pad.otp"),
    )
    with pytest.raises(ValueError, match="below the demux delay"):
        sweep_gate(cfg)
    assert not (tmp_path / "gate.csv").exists()
    assert not (tmp_path / "pad.otp").exists()


@pytest.mark.parametrize(
    "line",
    ["backgroud_rate_cps = 5000", "pulse_period_s = 100e-9", "gate_ns = 3", "values = 0,5000"],
)
@pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "background", "--values", "0"]])
def test_cli_rejects_unknown_config_key_before_writing(tmp_path, command, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"duration = 0.05\n{line}\n")
    out = tmp_path / "out.csv"
    key = line.split("=")[0].strip()
    with pytest.raises(ValueError, match=f"run.cfg:2: unknown key '{key}'"):
        main(command + ["--config", str(cfg_file), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("line", ["duration = 0.2s", "background_rate_cps = 5k"])
def test_cli_rejects_a_malformed_config_value_that_a_flag_overrides(tmp_path, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{line}\n")
    out = tmp_path / "out.csv"
    argv = ["run", "--config", str(cfg_file), "--duration", "0.2", "--background", "0"]
    with pytest.raises(ValueError, match="could not convert"):
        main(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("text", ["0.01,0.02,0.03,0.04", " 0.01, 0.02 ,0.03,  0.04 "])
def test_cli_config_passes_four_channel_bers(tmp_path, monkeypatch, text):
    seen = []

    def record(params, *args, **kwargs):
        seen.append(params)
        return RunReport()

    monkeypatch.setattr(cli, "run_once", record)
    cfg_file = tmp_path / "ber.cfg"
    cfg_file.write_text(f"base_ber_per_channel = {text}\n")
    assert main(["run", "--config", str(cfg_file)]) == 0
    assert seen[0].base_ber_per_channel == (0.01, 0.02, 0.03, 0.04)


@pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf", "1e-8"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "background", "--values", "0"]])
def test_cli_rejects_duration_without_pulses_before_writing(tmp_path, command, duration):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="span at least one pulse"):
        main(command + ["--duration", duration, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("duration_s", [0.0, -1.0, float("nan")])
def test_run_once_rejects_duration_without_pulses(duration_s):
    with pytest.raises(ValueError, match="span at least one pulse"):
        run_once(SystemParams(), duration_s, SEED)


def test_cli_sweep_and_config(tmp_path, capsys):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("duration = 0.2\nseed = 77\n")
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg_file),
            "--sweep",
            "background",
            "--values",
            "0,10000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "2/2 runs succeeded" in capsys.readouterr().out
    assert len(out.read_text().strip().splitlines()) == 3


def test_cli_otp_subcommands(tmp_path, capsys):
    path = tmp_path / "pad.otp"
    assert main(["otp", "init", "--otp", str(path), "--size", "512", "--seed", "aa"]) == 0
    assert _sha256(path) == OTP_INIT_SHA256
    assert main(["otp", "status", "--otp", str(path)]) == 0
    out = capsys.readouterr().out
    assert "512 pad bytes" in out
    assert "pad bytes remaining: 512" in out
    store = OtpStore(path)
    store.consume(64, "auth")
    store.close()
    assert main(["otp", "ledger", "--otp", str(path)]) == 0
    assert "auth" in capsys.readouterr().out


@pytest.mark.parametrize("size", [-1, 2.5, "512"])
def test_seeded_store_rejects_a_bad_size_before_creating_a_file(tmp_path, size):
    path = tmp_path / "pad.otp"
    with pytest.raises(ValueError, match="pad size must be a non-negative integer"):
        runner.seeded_store(path, bytes(32), size)
    assert not path.exists()
    if size == -1:  # the CLI reaches the same check
        with pytest.raises(ValueError, match="pad size"):
            main(["otp", "init", "--otp", str(path), "--size", "-1"])
        assert not path.exists()


def test_seeded_store_of_size_zero_is_an_empty_pad(tmp_path):
    with runner.seeded_store(tmp_path / "pad.otp", bytes(32), 0) as store:
        assert store.remaining == 0


def test_params_reject_negative_safety_margin():
    assert SystemParams(safety_margin_bits=0).safety_margin_bits == 0
    with pytest.raises(ValueError, match="safety margin"):
        SystemParams(safety_margin_bits=-5)


def test_params_check_the_demux_geometry_on_both_sides_of_each_limit():
    # gate < 40 ns demux delay < period / 2
    assert SystemParams(gate_width_s=39.9e-9).gate_width_s == 39.9e-9
    with pytest.raises(ValueError, match="below the demux delay"):
        SystemParams(gate_width_s=40e-9)
    assert SystemParams(repetition_rate_hz=1 / 80.1e-9).pulse_period_s > 80e-9
    with pytest.raises(ValueError, match="half the pulse period"):
        SystemParams(repetition_rate_hz=12.5e6)  # an 80 ns period


@pytest.mark.parametrize(
    "field, value",
    [
        ("pulse_jitter_rms_s", -1e-9),
        ("pulse_jitter_rms_s", float("inf")),
        ("mean_photon_number", float("inf")),
        ("safety_margin_bits", float("nan")),
        ("safety_margin_bits", float("inf")),
        ("clock_skew_ppm", float("nan")),
        ("clock_skew_ppm", float("inf")),
        ("clock_skew_ppm", -1e6),
        ("dead_time_s", -1.0),
        ("dead_time_s", float("nan")),
        ("channel_transmission", 0.0),
        ("detection_efficiency", 1.5),
        ("base_ber_per_channel", (0.01, 0.02, 0.03)),
        ("base_ber_per_channel", (0.01, 0.02, 0.5, 0.04)),
        ("injected_error_rate", 0.5),
    ],
)
def test_params_reject_values_a_run_cannot_use(field, value):
    message = {
        "channel_transmission": r"transmission must be in \(0, 1\]",
        "detection_efficiency": r"efficiency must be in \(0, 1\]",
        "base_ber_per_channel": "one base BER per channel",
        "injected_error_rate": r"injected error rate must lie in \[0, 0.5\)",
    }.get(field, "must be finite")
    if field == "base_ber_per_channel" and len(value) == 4:
        message = r"each base BER must lie in \[0, 0.5\)"
    with pytest.raises(ValueError, match=message):
        SystemParams(**{field: value})


def test_params_accept_the_edges_of_the_valid_range():
    params = SystemParams(
        pulse_jitter_rms_s=0.0, safety_margin_bits=0, clock_skew_ppm=-999_999.0, dead_time_s=0.0
    )
    assert params.clock_skew_ppm == -999_999.0


@pytest.mark.parametrize("line", ["pulse_jitter_rms_s = -1e-9", "clock_skew_ppm = nan"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "background", "--values", "0"]])
def test_cli_rejects_an_unusable_param_before_writing_or_spending_pad(tmp_path, command, line):
    pad = tmp_path / "pad.otp"
    assert main(["otp", "init", "--otp", str(pad), "--size", "512"]) == 0
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"duration = 0.3\n{line}\n")
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="must be finite"):
        main(command + ["--config", str(cfg_file), "--otp", str(pad), "--out", str(out)])
    assert not out.exists()
    with OtpStore(pad) as store:
        assert store.consumed_offset == 0
        assert store.remaining == 512
        assert len(store.ledger) == 0


def test_params_derive_pulse_period_from_rate():
    assert SystemParams().pulse_period_s == 200e-9
    assert replace(SystemParams(), repetition_rate_hz=10e6).pulse_period_s == 100e-9
    with pytest.raises(TypeError):
        SystemParams(pulse_period_s=100e-9)
    with pytest.raises(ValueError, match="finite and positive"):
        SystemParams(repetition_rate_hz=0.0)


def test_run_once_rejects_period_below_twice_the_demux_delay_before_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started before its settings were checked")

    monkeypatch.setattr(runner, "generate_alice_record", no_work)
    with pytest.raises(ValueError, match="half the pulse period"):
        run_once(SystemParams(repetition_rate_hz=20e6), 0.01, SEED)


def test_cli_sweep_rejects_period_below_twice_the_demux_delay_before_writing(tmp_path):
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("repetition_rate_hz = 20e6\n")
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="half the pulse period"):
        main(["sweep", "--config", str(cfg_file), "--sweep", "background", "--values", "0,5000",
              "--duration", "0.05", "--out", str(out)])
    assert not out.exists()

"""Pipeline orchestration, sweeps, CSV output and the command line."""

import hashlib

import numpy as np
import pytest

from qkdsim import runner
from qkdsim.cli import load_config, main
from qkdsim.otp_store import OtpStore
from qkdsim.params import SystemParams
from qkdsim.runner import (
    REPORT_COLUMNS,
    RunConfig,
    run_once,
    sweep_background,
    sweep_gate,
)
from qkdsim.seeds import parse_seed

SEED = parse_seed("5eed")

# Known-answer SHA-256 digests of the CSV bytes written by the tests below.
# They depend on numpy's Generator streams (PCG64 and the distributions
# drawn from it) as well as on the pipeline. If they ever change on
# purpose, CHANGES.md must say why.
SWEEP_CSV_SHA256 = (
    "818833a989c9e55eea02b87e6639c6fc4128dfe6dd5223a6da67660467ed8747"
)
GATE_CSV_SHA256 = (
    "7701e2475d85c4ab4d86822307af71d1eda5b7a4e30e1a651136c8e5efdcf4bc"
)
RUN_CSV_SHA256 = (
    "cbd0df3299a6c27d45ed3765845d08720e97770e7673385d8ea86799dd47ae7a"
)
PHASE_HIST_SHA256 = (
    "2b074e4cac54d7fc679f536d16ea1c97ee6e572e129d6b46d408fde6b0c6d05b"
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


def test_run_once_deterministic():
    a = run_once(SystemParams(), 0.2, SEED, label="det")
    b = run_once(SystemParams(), 0.2, SEED, label="det")
    assert a == b


def test_run_once_reports_qber_abort_stage():
    params = SystemParams(injected_error_rate=0.2)
    report = run_once(params, 0.2, SEED, label="abort")
    assert not report.succeeded
    assert report.failure_stage == "estimate_error"
    assert report.failure_kind == "QberAboveThreshold"
    assert report.n_fin == 0


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
    assert report.failure_stage == "budget"
    store.close()


@pytest.mark.parametrize("duration_s", [0.005, 0.02, 0.03])
def test_run_once_too_short_is_a_structured_failure(duration_s):
    # 0.005 s leaves too few gated events to align on; 0.02-0.03 s align
    # but sift too few bits to estimate the error on
    report = run_once(SystemParams(), duration_s, parse_seed("a1b2c3"))
    assert report.failure_stage in ("sparse_align", "estimate_error")
    assert report.failure_kind == "InsufficientData"


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
        sweep_axis="background",
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
            sweep_axis="background",
            axis_values=(0.0, 15000.0),
            out_path=str(tmp_path / name),
        )
        sweep_background(cfg)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == SWEEP_CSV_SHA256


def test_sweep_gate_best_gate_column(tmp_path):
    cfg = RunConfig(
        duration_s=0.2,
        master_seed=SEED,
        sweep_axis="gate",
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
    # the secret-rate curve: strictly decreasing in B (Spearman over reps,
    # |rho| beyond the p<0.01 critical value for n=12) and zero before the
    # background bound region is left behind
    cfg = RunConfig(
        duration_s=0.4,
        repetitions=2,
        master_seed=SEED,
        sweep_axis="background",
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
    curve = [np.mean(means[b]) for b in sorted(means)]
    assert all(a > b for a, b in zip(curve, curve[1:]))
    # beyond the workable bound the yield collapses to nothing
    dead = run_once(
        SystemParams(background_rate_cps=45000.0), 0.4, SEED, label="dead"
    )
    assert dead.n_fin == 0


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
    assert main(["otp", "status", "--otp", str(path)]) == 0
    out = capsys.readouterr().out
    assert "512 pad bytes" in out
    assert "pad bytes remaining: 512" in out
    store = OtpStore(path)
    store.consume(64, "auth")
    store.close()
    assert main(["otp", "ledger", "--otp", str(path)]) == 0
    assert "auth" in capsys.readouterr().out

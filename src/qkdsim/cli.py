"""Command-line entry point.

    qkd-sim run    --duration 1.0 --seed <hex> --out run.csv [--otp pad.otp] [--phase-hist h.csv]
    qkd-sim sweep  --sweep background --values 0,5000,10000 --reps 3 ...
    qkd-sim sweep  --sweep gate --values 3,5,7 --backgrounds 0,20000,40000 ...
    qkd-sim otp    {init,status,ledger} --otp pad.otp [--size N] [--seed hex]

A config file (--config, line-oriented key=value, '#' comments) supplies
defaults for duration, reps, seed, out, otp and any SystemParams field,
with base_ber_per_channel as four comma-separated floats. Explicit flags
win, any other key is an error, and so is a value that does not parse,
also one that a flag overrides.
"""

import argparse
import dataclasses
import sys
from contextlib import nullcontext

from qkdsim.otp_store import OtpStore
from qkdsim.params import SystemParams
from qkdsim.runner import (
    PAD_BYTES,
    RunConfig,
    open_outputs,
    run_once,
    seeded_store,
    sweep_background,
    sweep_gate,
)
from qkdsim.seeds import parse_seed


def _parse_values(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


# The run settings: config key -> (RunConfig field, parser).
_RUN_KEYS = {
    "duration": ("duration_s", float),
    "reps": ("repetitions", int),
    "seed": ("master_seed", parse_seed),
    "out": ("out_path", str),
    "otp": ("otp_path", str),
}
# Every config key's parser; a SystemParams field parses by its declared type.
_PARSERS = {
    f.name: _parse_values if f.type is tuple else f.type for f in dataclasses.fields(SystemParams)
}
_PARSERS.update((key, parse) for key, (_, parse) in _RUN_KEYS.items())


def load_config(path) -> dict:
    """Parse a line-oriented key=value config file; an unknown key raises
    ValueError naming the file, line and key."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def _add_common(parser):
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--duration", type=float, default=None, help="seconds per run")
    parser.add_argument("--reps", type=int, default=None, help="repetitions per point")
    parser.add_argument("--seed", default=None, help="hex master seed (up to 32 bytes)")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--otp", default=None, help="OTP store path")
    parser.add_argument("--background", type=float, default=None,
                        help="per-channel background rate (counts/s)")
    parser.add_argument("--gate-ns", type=float, default=None, help="gate width in ns")


def _make_config(args) -> RunConfig:
    """Each setting from its flag, else the config file, else the RunConfig
    or SystemParams default. Every value the file gives is parsed."""
    file_cfg = load_config(args.config) if args.config else {}
    flags = {
        "duration": args.duration,
        "reps": args.reps,
        "seed": args.seed,
        "out": args.out,
        "otp": args.otp,
        "background_rate_cps": args.background,
        "gate_width_s": None if args.gate_ns is None else args.gate_ns * 1e-9,
    }
    given = [*file_cfg.items(), *((key, v) for key, v in flags.items() if v is not None)]
    values = {key: _PARSERS[key](v) for key, v in given}
    run = {field: values.pop(key) for key, (field, _) in _RUN_KEYS.items() if key in values}
    backgrounds = getattr(args, "backgrounds", None)
    return RunConfig(
        params=SystemParams(**values),
        axis_values=_parse_values(args.values) if getattr(args, "values", None) else (),
        background_values=(
            _parse_values(backgrounds) if backgrounds else RunConfig.background_values
        ),
        **run,
    )


def _cmd_run(args) -> int:
    cfg = _make_config(args)
    # opened first, so a bad path fails before the pad or CSV is touched
    hist = open(args.phase_hist, "w", newline="") if args.phase_hist else nullcontext()
    with hist as fh, open_outputs(cfg) as (otp, emit):
        report = run_once(cfg.params, cfg.duration_s, cfg.master_seed, otp=otp, phase_hist=fh)
        emit(report)
    if report.succeeded:
        print(
            f"n_rec={report.n_rec} error={report.error_rate:.4f} "
            f"e_ec={report.ec_efficiency:.4f} n_fin={report.n_fin} "
            f"secret_bits_per_s={report.secret_bits_per_s:.1f}"
        )
        return 0
    print(f"FAILED at {report.failure_stage}: {report.failure_kind}")
    return 1


def _cmd_sweep(args) -> int:
    cfg = _make_config(args)
    if args.sweep == "background":
        reports = sweep_background(cfg)
    else:
        reports = sweep_gate(cfg)
    ok = sum(r.succeeded for r in reports)
    print(f"{ok}/{len(reports)} runs succeeded" + (f" -> {cfg.out_path}" if cfg.out_path else ""))
    return 0


def _cmd_otp(args) -> int:
    if args.action == "init":
        store = seeded_store(args.otp, parse_seed(args.seed), args.size)
        print(f"created {args.otp}: {store.remaining} pad bytes")
        store.close()
        return 0
    store = OtpStore(args.otp)
    try:
        if args.action == "status":
            print(f"pad bytes remaining: {store.remaining}")
            print(f"consumed offset:     {store.consumed_offset}")
            print(f"ledger entries:      {len(store.ledger)}")
        else:  # ledger
            for entry in store.ledger:
                print(
                    f"{entry.purpose:8s} offset={entry.offset:<10d} "
                    f"length={entry.length:<6d} t={entry.timestamp:.3f}"
                )
    finally:
        store.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qkd-sim",
        description="Free-space BB84 link simulator and post-processing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single end-to-end key exchange")
    _add_common(p_run)
    p_run.add_argument("--phase-hist", default=None,
                       help="write the residual-phase histogram CSV here")

    p_sweep = sub.add_parser("sweep", help="parameter sweep, one CSV row per run")
    _add_common(p_sweep)
    p_sweep.add_argument("--sweep", choices=["background", "gate"], required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values (cps, or ns for gates)")
    p_sweep.add_argument("--backgrounds", default=None,
                         help="background grid for gate sweeps (cps)")

    p_otp = sub.add_parser("otp", help="inspect or create an OTP store")
    p_otp.add_argument("action", choices=["init", "status", "ledger"])
    p_otp.add_argument("--otp", required=True, help="store path")
    p_otp.add_argument("--size", type=int, default=PAD_BYTES, help="initial pad bytes")
    p_otp.add_argument("--seed", default="00", help="hex seed for the initial pad")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_otp(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run a slice of one workload's ops in a fresh interpreter.

    python3 worker.py <spawned_at> <src_dir> <spec_json>

run.py starts one of these per slice, so each slice's first op is a
cold op. The first thing it does is ``import qkdsim.cli``, the import
every ``qkd-sim`` invocation pays; ``setup_s`` is the time from
``spawned_at`` (the parent's CLOCK_MONOTONIC just before the spawn) until
that import returns. With no ops in the spec the worker is a pure
set-up probe. It prints one JSON object on stdout.
"""

import sys
import time


def main() -> int:
    spawned_at, src = float(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, src)
    import qkdsim.cli  # noqa: F401  (the import under measurement)

    setup_s = time.monotonic() - spawned_at

    import json

    spec = json.loads(sys.argv[3])
    out = {"setup_s": setup_s}
    if spec["ops"]:
        out.update(run_ops(spec))
    print(json.dumps(out))
    return 0


def numpy_environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_op(workload, seed, tmp, tiny):
    """One op through the public API; returns (reports, sweep CSV path or None)."""
    import os

    from qkdsim import runner
    from qkdsim.params import SystemParams

    duration = workload.tiny_duration_s if tiny else workload.duration_s
    if workload.grid is None:
        return [runner.run_once(SystemParams(), duration, seed)], None
    csv_path = os.path.join(tmp, "sweep.csv")
    cfg = runner.RunConfig(
        params=SystemParams(),
        duration_s=duration,
        master_seed=seed,
        axis_values=workload.grid,
        otp_path=os.path.join(tmp, "pad.otp"),
        out_path=csv_path,
    )
    return runner.sweep_background(cfg), csv_path


def check_op(workload, reports, csv_path):
    """Per-op output checks against the closed-form rate model.

    Returns (problems, bands): the problems found, and for every
    successful row at a background whose band lies below the abort
    threshold, (B, E, band low, band high, sigma) for run.py's error-band
    check, which like acceptance criterion 2 judges a run's rows together.
    """
    import csv
    import dataclasses
    import math

    from qkdsim import rate_model
    from qkdsim.params import SystemParams
    from qkdsim.sifting import QBER_ABORT_THRESHOLD

    problems, bands = [], []
    if workload.grid is not None:
        if len(reports) != len(workload.grid):
            problems.append(f"{len(reports)} rows for {len(workload.grid)} background values")
        with open(csv_path, newline="") as fh:
            if sum(1 for _ in csv.DictReader(fh)) != len(reports):
                problems.append("sweep CSV row count differs from the reports")
    for r in reports:
        where = f"B={r.background_cps:g}"
        params = dataclasses.replace(SystemParams(), background_rate_cps=r.background_cps)
        if r.n_fin > 0 and not r.final_keys_match:
            problems.append(f"{where}: {r.n_fin} final bits but the keys differ")
        if not r.succeeded and not r.failure_kind:
            problems.append(f"{where}: failure at {r.failure_stage} without a kind")
        hi, lo = rate_model.error_band(params, [r.background_cps])
        # Where the whole band lies above the abort threshold, the rare row
        # that completes does so because its estimate came out low: its E
        # is selected, not sampled, and says nothing about the model.
        if r.succeeded and hi[0] < QBER_ABORT_THRESHOLD:
            sigma = math.sqrt(max(r.error_rate * (1 - r.error_rate), 1e-6) / r.n_err)
            bands.append((r.background_cps, r.error_rate, float(lo[0]), float(hi[0]), sigma))
        if r.n_rec > 0:
            # Sifted signal S plus sifted background: P_b per gate in four
            # gates a period (two lines, direct and delayed), half sifted.
            pred = rate_model.predict(params)
            expected = (pred.sifted_rate_cps + 2 * params.repetition_rate_hz
                        * pred.background_prob_per_gate) * r.seconds
            ratio = r.n_rec / expected
            if not 0.9 < ratio <= 1.05:
                problems.append(f"{where}: n_rec {r.n_rec} is {ratio:.3f} of the model's")
    return problems, bands


def run_ops(spec):
    import dataclasses
    import resource
    import tempfile

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    ops = []
    try:
        for op in spec["ops"]:
            seed = workloads.op_seed(workload.name, spec["seed"], op)
            with tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp:
                if tracer:
                    tracer.begin_op(op)
                raised, bands = None, []
                start = time.perf_counter()
                try:
                    reports, csv_path = run_op(workload, seed, tmp, spec["tiny"])
                except Exception as exc:  # a raising op is counted, and the run goes on
                    reports, raised = [], f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
                if raised:
                    problems = [raised]
                else:
                    problems, bands = check_op(workload, reports, csv_path)
            ops.append(
                {
                    "op": op,
                    "seconds": seconds,
                    "rows": [dataclasses.asdict(r) for r in reports],
                    "problems": problems,
                    "bands": bands,
                }
            )
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": numpy_environment(),
        "spans": tracer.spans if tracer else [],
    }


if __name__ == "__main__":
    sys.exit(main())

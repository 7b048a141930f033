"""qkdsim benchmark: seeded workloads through the public API, checked against the rate model.

    python3 perfbench/run.py --workload short_clean --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load shape: a closed loop. Ops run back to back, one process at a time,
and the only other threads are numpy's BLAS pool, left at its default.
Each run is a fixed sequence of ops derived from ``--seed``; ``--seconds``
sizes it (steady ops filling about that long at the nominal op time),
never a measured time, so yields and counts repeat exactly at one seed.

``--trace 0`` measures the end-to-end metrics. The ops are spread over a
few fresh worker processes: each worker's first op is a cold sample
(``cold_op_s``), the rest are steady samples, and several pure set-up
probes time the ``import qkdsim.cli`` every invocation pays (``setup_s``).

``--trace 1`` runs the same leading ops twice in fresh workers, once
plain and once with the pipeline's public functions wrapped (see
tracing.py), checks that both give identical reports, and reports the
per-layer metrics and the tracing overhead.

Every op's output is checked (see worker.check_op). The last line of
stdout is one JSON object; a failed check makes the exit code 1. The
metric names and units come from BENCHMARK.json at the checkout root.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 8
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


class Spawner:
    """Starts worker processes one at a time, all within one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, ops, trace=False):
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "ops": ops,
            "trace": trace,
            "tiny": self.args.tiny,
            "tmp": str(OUT / "tmp"),
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("run deadline passed before all workers ran")
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), repr(spawned_at), str(SRC),
                 json.dumps(spec)],
                capture_output=True, text=True, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker for ops {ops} passed the run deadline") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"worker for ops {ops} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With ten samples or fewer no percentile qualifies; the maximum is
    reported, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qkdsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return commit, digest.hexdigest()[:16]


def environment(args, worker_env):
    commit, src_digest = source_identity()
    threads = {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS}
    return {
        "python": platform.python_version(),
        **worker_env,
        "blas_threads": threads,
        "blas_thread_setting": "default (one per core)"
        if all(v == "unset" for v in threads.values()) else "set by environment",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256_16": src_digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }


def check_error_band(ops):
    """Acceptance criterion 2's tolerance applied to one run's successful rows.

    Rows count as inside when E lies in the efficiency band widened by 3
    binomial sigmas; at least 5 in 6 must be inside, and at each
    background value the mean E must lie in the band widened by 3 mean
    sigmas over sqrt(rows). A failure marks the ops whose rows broke it.
    """
    rows = [(op, *band) for op in ops for band in op["bands"]]
    outside = [(op, b, e) for op, b, e, lo, hi, s in rows if not lo - 3 * s <= e <= hi + 3 * s]
    if 6 * len(outside) > len(rows):
        for op, b, e in outside:
            op["problems"].append(f"B={b:g}: E={e:.4f} outside the band, "
                                  f"{len(outside)} of {len(rows)} rows outside")
    for b in sorted({row[1] for row in rows}):
        at_b = [row for row in rows if row[1] == b]
        mean_e = statistics.fmean(row[2] for row in at_b)
        tol = 3 * statistics.fmean(row[5] for row in at_b) / len(at_b) ** 0.5
        lo, hi = at_b[0][3], at_b[0][4]
        if not lo - tol <= mean_e <= hi + tol:
            for op in {id(row[0]): row[0] for row in at_b}.values():
                op["problems"].append(f"B={b:g}: mean E {mean_e:.4f} over {len(at_b)} rows "
                                      f"outside [{lo:.4f}, {hi:.4f}] +- {tol:.4f}")


def rows_of(ops):
    return [row for op in ops for row in op["rows"]]


def timed_run(args, spawn, w):
    setup = [spawn([])["setup_s"] for _ in range(2 if args.tiny else SETUP_PROBES)]
    results = [spawn(ops) for ops in workloads.timed_plan(w, args.seconds, args.tiny)]
    setup += [r["setup_s"] for r in results]
    ops = [op for r in results for op in r["ops"]]
    check_error_band(ops)
    ok = [op for op in ops if not op["problems"]]
    steady = [op for r in results for op in r["ops"][1:] if not op["problems"]]
    cold = [r["ops"][0]["seconds"] for r in results if not r["ops"][0]["problems"]]
    rows = rows_of(ok)
    if not (steady and cold and rows):
        raise WorkerFailed("no op passed its checks")
    op_s = [op["seconds"] for op in steady]
    tail_s, tail_pct = tail(op_s)
    sim_s = sum(row["seconds"] for row in rows)
    completed = sum(row["failure_stage"] == "" for row in rows)
    metrics = {
        "sim_s_per_host_s": sum(row["seconds"] for row in rows_of(steady)) / sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "cold_op_s": statistics.median(cold),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "secret_bits_per_sim_s": sum(row["n_fin"] for row in rows) / sim_s,
        "completed_frac": completed / len(rows),
    }
    notes = {
        "op_s_p50": f"{len(op_s)} steady ops",
        "op_s_tail": f"p{tail_pct:.1f} of {len(op_s)} steady ops",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "cold_op_s": f"median of {len(cold)} fresh processes: "
        + ", ".join(f"{c:.3f}" for c in cold),
        "secret_bits_per_sim_s": f"{sum(row['n_fin'] for row in rows)} bits / {sim_s:g} s",
        "completed_frac": f"abort_frac {len(rows) - completed}/{len(rows)} runs",
    }
    return {"ops": ops, "metrics": metrics, "notes": notes, "env": results[0]["env"]}


def traced_run(args, spawn, w):
    plan = workloads.traced_plan(w, args.seconds, args.tiny)
    plain, traced = spawn(plan), spawn(plan, trace=True)
    ops = plain["ops"] + traced["ops"]
    check_error_band(plain["ops"])
    check_error_band(traced["ops"])
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["rows"] != b["rows"]:
            b["problems"].append("traced reports differ from untraced ones")
    steady = plan[1:]
    metrics, bases = tracing.layer_metrics(traced["spans"], steady, len(plan))
    overhead = statistics.median(op["seconds"] for op in traced["ops"][1:]) - statistics.median(
        op["seconds"] for op in plain["ops"][1:]
    )
    metrics["trace.overhead_s"] = overhead
    metrics["privacy.compress_first_s"] = tracing.busy_time(
        traced["spans"], ("privacy.compress",), plan[0]
    )
    # median per-op self time of every span name, largest first
    per_op = [tracing.self_times(traced["spans"], op) for op in steady]
    names = {name for own in per_op for name in own}
    table = {name: statistics.median(own.get(name, 0.0) for own in per_op) for name in names}
    return {
        "ops": ops,
        "metrics": metrics,
        "notes": bases,
        "env": traced["env"],
        "self_s_per_span": dict(sorted(table.items(), key=lambda kv: -kv[1])),
        "spans": traced["spans"],
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own run.py process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", args.seed,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                              text=True, timeout=DEADLINE_S + 30)
        print(proc.stdout, end="")
        if proc.returncode not in (0, 1):
            print(f"perfbench: {name} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: short transmissions, two workers, one steady op")
    args = parser.parse_args(argv)
    # a terminated run raises here, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qkdsim" / "__init__.py").is_file():
        print(f"perfbench: no qkdsim sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    spawn = Spawner(args)
    try:
        spawn([])  # compiles the bytecode cache; not measured
        run = traced_run if args.trace else timed_run
        record = run(args, spawn, w)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops, metrics, notes = record["ops"], record["metrics"], record["notes"]
    failed = [op for op in ops if op["problems"]]
    record["env"] = env = environment(args, record["env"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} failed={len(failed)}")
    print("env " + json.dumps(env, sort_keys=True))
    for op in failed:
        for problem in op["problems"]:
            print(f"CHECK FAILED op {op['op']}: {problem}")
    print(f"error_frac {len(failed)}/{len(ops)} ops")
    for m in wanted:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']:<8} {note}")

    spans = record.pop("spans", None)
    if spans is not None:
        print("self time per span, median per steady op:")
        for name, t in record["self_s_per_span"].items():
            print(f"  {name:<36} {t:>10.4f} s")
        with open(OUT / f"trace-{tag}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "attrs"),
                                             s))) + "\n")
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

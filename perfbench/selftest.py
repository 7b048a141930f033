"""Plumbing self-test of the benchmark, every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload and both trace settings it runs ``run.py --tiny`` and
checks that the last stdout line is the result object with exactly the
contract's keys, that it carries every metric BENCHMARK.json names, with
its unit, and no other, and that the run passed its output checks. It
then checks that the traced spans cover every stage ``run_once`` names
in ``failure_stage``, and that run.py exits non-zero without printing a
result in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"SELFTEST FAILED: {message}")
    sys.exit(1)


def run(cwd, workload, trace, tiny=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, trace, spec):
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        fail(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = result["metrics"]
    if set(emitted) != {m["name"] for m in wanted}:
        fail(f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = emitted[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            fail(f"{label}: {m['name']} emitted as {got}, unit should be {m['unit']}")
        if not math.isfinite(got["value"]) or (not trace and got["value"] == 0):
            fail(f"{label}: {m['name']} = {got['value']}")
    print(f"ok  {label}: {len(wanted)} metrics, {result['attempted']} ops")


def check_stage_coverage():
    runner_src = (ROOT / "src" / "qkdsim" / "runner.py").read_text()
    stages = set(re.findall(r'\bstage = "(\w+)"', runner_src))
    if stages != set(tracing.STAGE_SPANS):
        fail(f"runner stages {sorted(stages)} != traced stages {sorted(tracing.STAGE_SPANS)}")
    seen = set()
    for trace_file in (HERE / "out").glob("trace-*-seed7-trace1.jsonl"):
        seen |= {json.loads(line)["name"] for line in trace_file.open()}
    missing = {n for names in tracing.STAGE_SPANS.values() for n in names} - seen
    if missing:
        fail(f"stage spans never recorded: {sorted(missing)}")
    print(f"ok  spans cover every failure_stage: {', '.join(sorted(stages))}")


def check_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "short_clean", 0, tiny=False)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or "{" in proc.stdout:
        fail(f"run.py without sources exited {proc.returncode}, printed {proc.stdout!r}")
    print(f"ok  without sources: exit {proc.returncode}, no result printed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(name, trace, spec)
    check_stage_coverage()
    check_refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()

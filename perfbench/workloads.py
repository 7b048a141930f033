"""Workload definitions and the op plan of one benchmark run.

Pure data and stdlib only: run.py imports this without importing numpy
or qkdsim, so its own interpreter stays out of the timings.

One op is one call into the public API (``runner.run_once`` or
``runner.sweep_background``) with a master seed derived from the
workload seed, so a seed fixes every op's inputs and every yield and
count metric repeats exactly.
"""

import hashlib
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    duration_s: float  # transmission seconds per run_once
    tiny_duration_s: float  # the self-test's size
    grid: tuple | None  # background values of a sweep op; None means one run_once at B = 0
    op_seconds: float  # nominal steady op wall time on a 2-core host; sizes the op count
    workers: int  # fresh processes per timed run; each one's first op is a cold sample


WORKLOADS = {
    w.name: w
    for w in (
        # Fixed per-run costs: sparse_align is about two thirds of the op.
        Workload("short_clean", 1.0, 0.3, None, op_seconds=1.65, workers=5),
        # Costs that grow with duration: 6 s is the shortest key that crosses
        # MAX_BLOCK_BITS, so reconcile runs two blocks, one of them padded.
        Workload("long_clean", 6.0, 0.6, None, op_seconds=7.1, workers=2),
        # Every outcome the pipeline has (full, reduced and zero yield,
        # structured aborts) plus OTP store writes beside reads. 80000
        # passes start detection and nearly always aborts at
        # estimate_error; at 100000 start detection fails for about half
        # the seeds, and the op time then swings by the 1.2 s that row's
        # alignment costs.
        Workload(
            "bright_sweep",
            1.0,
            0.3,
            (0.0, 25000.0, 50000.0, 80000.0, 150000.0),
            op_seconds=7.4,
            workers=3,
        ),
    )
}

TINY_WORKERS = 2


def op_seed(workload: str, seed: str, op: int) -> bytes:
    """32-byte master seed of op ``op``; the program sees nothing else of the seed."""
    return hashlib.sha256(f"qkdsim-perfbench/{workload}/{seed}/op{op}".encode()).digest()


def timed_plan(w: Workload, seconds: int, tiny: bool):
    """Op indices per fresh worker process for the untraced run.

    Each worker's first op is a cold sample; the steady ops that follow
    fill about ``seconds`` at the nominal op time. The plan depends only
    on the arguments, never on a measured time.
    """
    workers = min(w.workers, TINY_WORKERS) if tiny else w.workers
    steady = max(1, math.ceil(seconds / w.op_seconds))
    n_ops = workers + steady
    cuts = [round(k * n_ops / workers) for k in range(workers + 1)]
    return [list(range(cuts[k], cuts[k + 1])) for k in range(workers)]


def traced_plan(w: Workload, seconds: int, tiny: bool):
    """Op indices run twice by the traced run, once per pass (untraced, traced).

    One cold op plus at least two steady ops per pass, about half of
    ``seconds`` each, so the traced run takes about as long as a timed one.
    """
    steady = 1 if tiny else max(2, math.ceil(seconds / (2 * w.op_seconds)))
    return list(range(1 + steady))

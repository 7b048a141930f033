"""Spans recorded from outside the program, and the per-layer metrics read off them.

``Tracer.install`` replaces the pipeline's public functions at the
module attributes the pipeline looks up at call time (for example
``qkdsim.runner.sparse_align`` or ``qkdsim.reconcile.decode``) with
wrappers that record one span per call. A span is
``[name, start, end, parent, op, attrs]``: times from ``perf_counter``,
``parent`` the index of the enclosing span (-1 at the top), ``op`` the
op index, and ``attrs`` the counters read off the call's arguments and
result. Spans stay in memory until the run ends. The program itself is
untouched; ``uninstall`` puts the originals back.

The analysis half is stdlib only, so run.py can use it without
importing numpy.
"""

import math
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Every stage run_once names in failure_stage, and the spans inside it.
STAGE_SPANS = {
    "budget": ("otp_store.session_budget", "otp_store.consume"),
    "photonics": (
        "photonics.generate_alice_record",
        "photonics.simulate_detections",
        "photonics.add_background",
        "photonics.multiplex_two_channel",
    ),
    "detect_start": ("sync.detect_start",),
    "lock_clock": ("sync.lock_clock",),
    "sparse_align": ("sync.sparse_align",),
    "sift": ("sifting.sift",),
    "estimate_error": ("sifting.estimate_error",),
    "reconcile": ("reconcile.reconcile_keys",),
    "privacy": ("privacy.final_length", "privacy.compress"),
}

LAYERS = ("photonics", "sync", "sifting", "reconcile", "privacy", "otp_store", "runner")

# per-layer time metric -> spans whose busy time it reports
BUSY_METRICS = {
    "photonics.generate_alice_record_s": ("photonics.generate_alice_record",),
    "photonics.simulate_detections_s": ("photonics.simulate_detections",),
    "photonics.add_background_s": ("photonics.add_background",),
    "photonics.multiplex_two_channel_s": ("photonics.multiplex_two_channel",),
    "sync.detect_start_s": ("sync.detect_start",),
    "sync.lock_clock_s": ("sync.lock_clock",),
    "sync.sparse_align_s": ("sync.sparse_align",),
    "sifting.sift_s": ("sifting.sift",),
    "sifting.estimate_error_s": ("sifting.estimate_error",),
    "reconcile.reconcile_keys_s": ("reconcile.reconcile_keys",),
    "reconcile.build_factor_graph_s": ("reconcile.build_factor_graph",),
    "reconcile.compute_syndrome_s": ("reconcile.compute_syndrome",),
    "reconcile.decode_s": ("reconcile.decode",),
    "privacy.compress_s": ("privacy.compress",),
    "privacy.toeplitz_hash_s": ("privacy.toeplitz_hash",),
    "otp_store.open_s": ("otp_store.create", "otp_store.open"),
    "otp_store.consume_s": ("otp_store.consume",),
    "otp_store.top_up_s": ("otp_store.top_up",),
    "runner.run_once_s": ("runner.run_once",),
}


# -- recording (runs in the worker, after qkdsim is imported) ---------------


class Tracer:
    """Wraps the pipeline's public functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []
        self._run_state = {}

    def begin_op(self, op: int) -> None:
        self.op = op
        self._run_state = {}

    def install(self) -> None:
        from qkdsim import otp_store, privacy, rate_model, reconcile, runner

        def detections(args, kwargs, result):
            return {"pulses": args[0].n_pulses, "detections": result.n_events}

        def tags(args, kwargs, result):
            return {"tags": result.n_tags, "dropped_collisions": result.dropped_collisions}

        def gated(args, kwargs, result):
            return {"gated_events": result.n_events}

        def alignment(args, kwargs, result):
            return {"margin": result.match_score - result.runner_up_score}

        def sifted(args, kwargs, result):
            self._run_state = {"sifted_bits": result[0].n_rec, "channel": args[3]}
            return {"sifted_bits": result[0].n_rec}

        def graph(args, kwargs, result):
            return {"edges": result.n_edges}

        def consumed(args, kwargs, result):
            return {"bytes": args[1]}

        def topped_up(args, kwargs, result):
            return {"bytes": len(args[1])}

        def run_once(args, kwargs, result):
            params, duration_s = args[0], args[1]
            state, self._run_state = self._run_state, {}
            attrs = {
                "duration_s": duration_s,
                "model_sifted_bits": rate_model.predict(params).sifted_rate_cps * duration_s,
                "n_fin": result.n_fin,
                "failure_stage": result.failure_stage,
                "code_rate": result.code_rate,
                "error_rate": result.error_rate,
            }
            if "channel" in state:
                attrs["sifted_bits"] = state["sifted_bits"]
                attrs["channel_bytes"] = state["channel"].bytes_logged
            return attrs

        store = otp_store.OtpStore
        points = [
            (runner, "run_once", "runner.run_once", run_once),
            (runner, "sweep_background", "runner.sweep_background", None),
            (runner, "attach_store", "runner.attach_store", None),
            (runner, "session_budget", "otp_store.session_budget", None),
            (runner, "generate_alice_record", "photonics.generate_alice_record", None),
            (runner, "simulate_detections", "photonics.simulate_detections", detections),
            (runner, "add_background", "photonics.add_background", None),
            (runner, "multiplex_two_channel", "photonics.multiplex_two_channel", tags),
            (runner, "detect_start", "sync.detect_start", None),
            (runner, "lock_clock", "sync.lock_clock", gated),
            (runner, "sparse_align", "sync.sparse_align", alignment),
            (runner, "sift", "sifting.sift", sifted),
            (runner, "estimate_error", "sifting.estimate_error", None),
            (runner, "reconcile_keys", "reconcile.reconcile_keys", None),
            (reconcile, "build_factor_graph", "reconcile.build_factor_graph", graph),
            (reconcile, "compute_syndrome", "reconcile.compute_syndrome", None),
            (reconcile, "decode", "reconcile.decode", None),
            (privacy, "final_length", "privacy.final_length", None),
            (privacy, "compress", "privacy.compress", None),
            (privacy, "toeplitz_hash", "privacy.toeplitz_hash", None),
            (store, "create", "otp_store.create", None),
            (store, "__init__", "otp_store.open", None),
            (store, "consume", "otp_store.consume", consumed),
            (store, "top_up", "otp_store.top_up", topped_up),
        ]
        for owner, attr, name, attrs_of in points:
            self._wrap(owner, attr, name, attrs_of)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def _wrap(self, owner, attr, name, attrs_of):
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ATTRS] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append((owner, attr, raw))


# -- analysis (stdlib only) -------------------------------------------------


def busy_time(spans, names, op) -> float:
    """Wall time of op ``op`` inside spans named in ``names``, nested ones counted once."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[OP] != op or s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def self_times(spans, op):
    """Exclusive time per span name in op ``op``: duration minus that of its direct children."""
    own = defaultdict(float)
    for s in spans:
        if s[OP] != op:
            continue
        own[s[NAME]] += s[END] - s[START]
        if s[PARENT] >= 0:
            own[spans[s[PARENT]][NAME]] -= s[END] - s[START]
    return dict(own)


def _binary_entropy(e: float) -> float:
    return -e * math.log2(e) - (1 - e) * math.log2(1 - e)


def layer_metrics(spans, steady_ops, n_ops):
    """Per-layer metrics of a traced run, per op.

    Times are medians over the steady ops of each op's busy or self time;
    counts are totals over all ``n_ops`` ops divided by ``n_ops``; ratios
    are taken of totals, so every count and ratio is a function of the
    seed alone. Returns (metrics, bases), bases naming each ratio's base.
    """
    metrics = {}
    for metric, names in BUSY_METRICS.items():
        metrics[metric] = statistics.median(busy_time(spans, names, op) for op in steady_ops)
    own = [self_times(spans, op) for op in steady_ops]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            sum(t for name, t in o.items() if name.split(".")[0] == layer) for o in own
        )

    sums = defaultdict(float)
    runs = []
    for s in spans:
        attrs = s[ATTRS] or {}
        if s[NAME] == "runner.run_once":
            runs.append(attrs)
        elif s[NAME] == "reconcile.build_factor_graph" and "edges" in attrs:
            sums["blocks"] += 1
            sums["edges"] += attrs["edges"]
        elif s[NAME] == "sync.sparse_align" and "margin" in attrs:
            sums["aligned"] += 1
            sums["margin"] += attrs["margin"]
        elif s[NAME] in ("otp_store.consume", "otp_store.top_up") and "bytes" in attrs:
            sums[s[NAME]] += attrs["bytes"]
        for key in ("pulses", "detections", "tags", "dropped_collisions", "gated_events"):
            sums[key] += attrs.get(key, 0)

    reconciled = [r for r in runs if r.get("code_rate", 0) > 0 and 0 < r["error_rate"] < 0.5]
    sifted = [r for r in runs if "sifted_bits" in r]
    metrics.update(
        {
            "photonics.detections_per_pulse": sums["detections"] / max(sums["pulses"], 1),
            "photonics.tags": sums["tags"] / n_ops,
            "photonics.dropped_collisions": sums["dropped_collisions"] / n_ops,
            "sync.gated_events": sums["gated_events"] / n_ops,
            "sync.gated_per_tag": sums["gated_events"] / max(sums["tags"], 1),
            "sync.align_margin": sums["margin"] / max(sums["aligned"], 1),
            "sifting.sifted_bits": sum(r["sifted_bits"] for r in sifted) / n_ops,
            "sifting.sifted_over_model": sum(r["sifted_bits"] for r in sifted)
            / max(sum(r["model_sifted_bits"] for r in sifted), 1),
            "sifting.channel_bytes": sum(r["channel_bytes"] for r in sifted) / n_ops,
            "reconcile.blocks": sums["blocks"] / n_ops,
            "reconcile.edges": sums["edges"] / n_ops,
            "reconcile.f": statistics.fmean(
                (1 - r["code_rate"]) / _binary_entropy(r["error_rate"]) for r in reconciled
            )
            if reconciled
            else 0.0,
            "otp_store.bytes_consumed": sums["otp_store.consume"] / n_ops,
            "otp_store.bytes_topped_up": sums["otp_store.top_up"] / n_ops,
            "runner.yield_frac": sum(r["n_fin"] > 0 for r in runs) / max(len(runs), 1),
        }
    )
    for stage in STAGE_SPANS:
        metrics[f"runner.aborts.{stage}"] = (
            sum(r["failure_stage"] == stage for r in runs) / n_ops
        )
    bases = {
        "photonics.detections_per_pulse": f"{sums['pulses']:.0f} pulses",
        "sync.gated_per_tag": f"{sums['tags']:.0f} tags",
        "sync.align_margin": f"{sums['aligned']:.0f} alignments",
        "sifting.sifted_over_model": f"{len(sifted)} sifted runs",
        "reconcile.f": f"{len(reconciled)} reconciled runs",
        "runner.yield_frac": f"{len(runs)} runs",
    }
    return metrics, bases

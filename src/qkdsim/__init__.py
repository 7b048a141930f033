"""Simulator and post-processing stack for a short-range free-space BB84 link.

The package covers the full chain from faint-pulse transmission through
detection, time-tag synchronization, sifting, LDPC reconciliation and
privacy amplification, plus the consumable one-time-pad store the final
keys feed into.
"""

from qkdsim.params import SystemParams
from qkdsim.photonics import (
    AliceRecord,
    DetectionEvents,
    TagStream,
    add_background,
    generate_alice_record,
    multiplex_two_channel,
    simulate_detections,
)
from qkdsim.rate_model import RatePrediction, error_band, predict
from qkdsim.sync import (
    AlignmentResult,
    GatedEvents,
    detect_start,
    lock_clock,
    sparse_align,
)
from qkdsim.sifting import ClassicalChannel, SiftedKey, estimate_error, sift
from qkdsim.reconcile import (
    FactorGraph,
    build_factor_graph,
    compute_syndrome,
    decode,
    rate_for_error,
    reconcile_keys,
)
from qkdsim.privacy import (
    compress,
    final_length,
    poisson_multi_prob,
    secure_fraction,
)
from qkdsim.otp_store import OtpStore, session_budget
from qkdsim.runner import RunConfig, RunReport, run_once, sweep_background, sweep_gate

__version__ = "0.1.0"

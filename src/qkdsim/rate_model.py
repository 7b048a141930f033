"""Closed-form rate and error-rate model, the oracle the simulation is
validated against.

With repetition rate R, mean photon number M, lumped transmission T,
detection efficiency eta, gate width t and background rate B:

    sifted signal rate     S     = R * M * T * eta / 4
    background probability P_b   = B * t            (per gate, per channel)
    sifted error rate      E     = E_base + 4 * B * t / (M * T * eta)
    workable background    B_max = M * T * eta / (75.5 * t)

The 75.5 constant is kept as printed; it is the E < 0.08 workability
bound folded through the error-rate formula (4 / (0.08 - 0.027) = 75.47,
a 0.1% discrepancy tolerated in tests).
"""

from dataclasses import dataclass

import numpy as np

from qkdsim.params import SystemParams

BACKGROUND_BOUND_CONSTANT = 75.5
# detection efficiencies of the receiver's weaker and stronger channels
ETA_LOW = 0.045
ETA_HIGH = 0.055


@dataclass(frozen=True)
class RatePrediction:
    sifted_rate_cps: float  # S
    background_prob_per_gate: float  # P_b
    error_rate: float  # E
    max_background_cps: float  # B_max


def predict(params: SystemParams) -> RatePrediction:
    """Evaluate the four closed-form figures for one parameter set."""
    m_t_eta = (
        params.mean_photon_number
        * params.channel_transmission
        * params.detection_efficiency
    )
    signal = params.repetition_rate_hz * m_t_eta / 4.0
    p_b = params.background_rate_cps * params.gate_width_s
    error = params.base_error_rate + 4.0 * p_b / m_t_eta
    b_max = m_t_eta / (BACKGROUND_BOUND_CONSTANT * params.gate_width_s)
    return RatePrediction(
        sifted_rate_cps=signal,
        background_prob_per_gate=p_b,
        error_rate=error,
        max_background_cps=b_max,
    )


def error_band(params: SystemParams, background_grid):
    """Predicted error rate over a background grid at two efficiencies.

    The receiver's channels differ slightly in efficiency, so the pair of
    curves brackets where measured error rates should fall. Returns
    (high-error curve at ETA_LOW, low-error curve at ETA_HIGH).
    """
    grid = np.asarray(background_grid, dtype=np.float64)
    if (grid < 0).any():
        raise ValueError("background grid must be non-negative")
    m_t = params.mean_photon_number * params.channel_transmission
    base = params.base_error_rate
    curve_low_eta = base + 4.0 * grid * params.gate_width_s / (m_t * ETA_LOW)
    curve_high_eta = base + 4.0 * grid * params.gate_width_s / (m_t * ETA_HIGH)
    return curve_low_eta, curve_high_eta


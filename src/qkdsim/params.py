"""Physical and protocol constants shared across the pipeline."""

import math
from dataclasses import dataclass

# Gaussian FWHM -> standard deviation
FWHM_TO_SIGMA = 1.0 / 2.3548200450309493

# Measured wrong-bit rates of the four receiver channels (0/45/90/135 deg),
# taken during key exchange with the current hardware.
MEASURED_CHANNEL_BER = (0.0132, 0.0254, 0.0220, 0.0475)

# Fixed delay that puts detectors 2 and 3 onto the recorder lines of 0 and 1.
DEMUX_DELAY_S = 40e-9


@dataclass(frozen=True)
class SystemParams:
    """Transmitter, channel and receiver constants.

    ``background_rate_cps`` follows the per-channel convention used for
    all reported rates: it is the rate seen on each of the two multiplexed
    input lines, which is twice the rate of a single physical detector
    (see :mod:`qkdsim.runner`).

    Construction checks every value, and the receiver geometry: gate <
    ``DEMUX_DELAY_S`` < period / 2 keeps the direct and delayed windows apart.
    """

    repetition_rate_hz: float = 5e6
    mean_photon_number: float = 0.3
    channel_transmission: float = 1.0
    detection_efficiency: float = 0.045
    gate_width_s: float = 5e-9
    pulse_jitter_rms_s: float = 2.4e-9 * FWHM_TO_SIGMA  # 2.4 ns FWHM optical pulse
    background_rate_cps: float = 0.0
    base_ber_per_channel: tuple = MEASURED_CHANNEL_BER
    safety_margin_bits: int = 100
    dead_time_s: float = 0.0
    clock_skew_ppm: float = 10.0
    injected_error_rate: float = 0.0  # extra disturbance knob (eavesdropper-style)

    def __post_init__(self):
        if not (math.isfinite(self.repetition_rate_hz) and self.repetition_rate_hz > 0):
            raise ValueError("repetition rate must be finite and positive")
        if not DEMUX_DELAY_S < self.pulse_period_s / 2:
            raise ValueError("demux delay must stay below half the pulse period")
        if not (math.isfinite(self.mean_photon_number) and self.mean_photon_number > 0):
            raise ValueError("mean photon number must be finite and positive")
        if not 0 < self.channel_transmission <= 1:
            raise ValueError("channel transmission must be in (0, 1]")
        if not 0 < self.detection_efficiency <= 1:
            raise ValueError("detection efficiency must be in (0, 1]")
        if not 0 < self.gate_width_s < DEMUX_DELAY_S:
            raise ValueError("gate width must be positive and below the demux delay")
        if not (math.isfinite(self.pulse_jitter_rms_s) and self.pulse_jitter_rms_s >= 0):
            raise ValueError("pulse jitter must be finite and non-negative")
        if not (math.isfinite(self.background_rate_cps) and self.background_rate_cps >= 0):
            raise ValueError("background rate must be finite and non-negative")
        if len(self.base_ber_per_channel) != 4:
            raise ValueError("need one base BER per channel")
        for ber in self.base_ber_per_channel:
            if not 0 <= ber < 0.5:
                raise ValueError("each base BER must lie in [0, 0.5)")
        if not 0 <= self.injected_error_rate < 0.5:
            raise ValueError("injected error rate must lie in [0, 0.5)")
        if not (math.isfinite(self.safety_margin_bits) and self.safety_margin_bits >= 0):
            raise ValueError("safety margin must be finite and non-negative")
        if not (math.isfinite(self.dead_time_s) and self.dead_time_s >= 0):
            raise ValueError("dead time must be finite and non-negative")
        if not (math.isfinite(self.clock_skew_ppm) and self.clock_skew_ppm > -1e6):
            raise ValueError("clock skew must be finite and above -1e6 ppm")

    @property
    def pulse_period_s(self) -> float:
        """Pulse spacing, always 1 / ``repetition_rate_hz``."""
        return 1.0 / self.repetition_rate_hz

    @property
    def base_error_rate(self) -> float:
        """Expected sifted error rate with no background: channel BER average."""
        return float(sum(self.base_ber_per_channel)) / 4.0

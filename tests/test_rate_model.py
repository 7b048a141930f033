"""Closed-form predictions at the reference operating point."""

import numpy as np
import pytest

from qkdsim.params import SystemParams
from qkdsim.rate_model import error_band, predict

REFERENCE = SystemParams()  # R=5 MHz, M=0.3, T=1, eta=0.045, t=5 ns


def test_sifted_signal_rate():
    assert predict(REFERENCE).sifted_rate_cps == pytest.approx(16875.0)


def test_background_bound_near_36000():
    b_max = predict(REFERENCE).max_background_cps
    assert b_max == pytest.approx(35761.6, abs=0.5)
    assert abs(b_max - 36000) / 36000 < 0.01


def test_error_at_zero_background_is_base_rate():
    pred = predict(SystemParams(background_rate_cps=0.0))
    assert pred.error_rate == pytest.approx(REFERENCE.base_error_rate)
    assert pred.error_rate == pytest.approx(0.027, abs=1e-3)


def test_error_at_background_bound_hits_workable_limit():
    # the 75.5 constant encodes E < 0.08: 4/(0.08-0.027) = 75.47
    pred = predict(REFERENCE)
    at_bound = SystemParams(background_rate_cps=pred.max_background_cps)
    e = predict(at_bound).error_rate
    assert abs(e - 0.08) / 0.08 < 1e-3


def test_background_probability_per_gate():
    pred = predict(SystemParams(background_rate_cps=26000.0))
    assert pred.background_prob_per_gate == pytest.approx(26000.0 * 5e-9)


def test_error_band_example_point():
    hi, lo = error_band(REFERENCE, [26000.0])
    assert hi[0] == pytest.approx(0.0655, abs=5e-4)
    assert lo[0] < hi[0]


def test_error_band_collapses_at_zero_background():
    hi, lo = error_band(REFERENCE, [0.0])
    assert hi[0] == pytest.approx(lo[0])
    assert hi[0] == pytest.approx(REFERENCE.base_error_rate)


def test_error_band_efficiency_ordering():
    grid = np.linspace(0, 40000, 9)
    hi, lo = error_band(REFERENCE, grid)
    assert np.all(lo[1:] < hi[1:])  # higher efficiency -> lower error
    assert np.all(np.diff(hi) > 0)


"""Yield-bound arithmetic against independent oracles, and the Toeplitz hash."""

import hashlib
import math

import numpy as np
import pytest

from qkdsim.privacy import (
    compress,
    final_length,
    poisson_multi_prob,
    secure_fraction,
    toeplitz_hash,
)
from qkdsim.seeds import HashStream, derive_seed

SEED = derive_seed(bytes(32), "privacy-tests")


def series_multi_prob(m):
    """Independent oracle: truncated Poisson series for P(n >= 2)."""
    return sum(m**n * math.exp(-m) / math.factorial(n) for n in range(2, 51))


def test_multi_photon_prob_vanishes_at_small_mean():
    assert poisson_multi_prob(1e-8) < 1e-15


def test_multi_photon_prob_reference_value():
    assert poisson_multi_prob(0.3) == pytest.approx(0.036936, abs=1e-6)
    assert poisson_multi_prob(0.3) == pytest.approx(series_multi_prob(0.3), abs=1e-12)


@pytest.mark.parametrize("m", [0.05, 0.1, 0.3, 0.5, 1.0])
def test_multi_photon_prob_matches_series(m):
    assert poisson_multi_prob(m) == pytest.approx(series_multi_prob(m), abs=1e-6)


@pytest.mark.parametrize("m", [0.01, 0.1, 0.3, 0.7, 1.3, 2.0])
def test_poisson_terms_sum_to_one(m):
    p0 = math.exp(-m)
    p1 = m * math.exp(-m)
    assert p0 + p1 + poisson_multi_prob(m) == pytest.approx(1.0, abs=1e-12)


def test_secure_fraction_reference_value():
    assert secure_fraction(0.3, 1.0) == pytest.approx(0.85749, abs=1e-5)


@pytest.mark.parametrize("m", [0.05, 0.1, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("t", [0.5, 0.8, 1.0])
def test_secure_fraction_matches_series_oracle(m, t):
    received = (1 - math.exp(-m)) * t
    oracle = min(max(1.0 - series_multi_prob(m) / received, 0.0), 1.0)
    assert secure_fraction(m, t) == pytest.approx(oracle, abs=1e-6)


def test_secure_fraction_clamps_to_zero():
    # at tiny transmission the multi-photon emissions exceed what arrives
    assert secure_fraction(1.0, 0.3) == 0.0


def test_secure_fraction_monotone_in_mean_photon_number():
    grid = np.linspace(0.05, 1.0, 20)
    values = [secure_fraction(m, 1.0) for m in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_yield_lossless_corner():
    assert final_length(16875, 0, 0.0, 1.0, 1.0, 0) == 16875


def test_final_length_frozen_example():
    # direct evaluation of the bound at the worked operating point
    # (high-precision oracle value: 3524.1375...)
    assert final_length(16875, 4219, 0.027, 0.5, secure_fraction(0.3, 1.0), 100) == 3524


def test_final_length_zero_when_error_reaches_secure_fraction():
    assert final_length(10000, 0, 0.86, 1.0, secure_fraction(0.3, 1.0), 100) == 0


def test_yield_collapses_as_error_approaches_half_secure_fraction():
    # the bracket crosses E_ec - 1 there, so the yield clamps to zero
    b = secure_fraction(0.3, 1.0)
    assert final_length(10000, 0, 0.499 * b, 0.9, b, 100) == 0


def test_final_length_monotone_over_grid():
    def value(n_rec=20000, n_err=5000, eps=0.03):
        return final_length(n_rec, n_err, eps, 0.6, secure_fraction(0.3, 1.0), 100)

    eps_grid = np.linspace(0.0, 0.1, 15)
    yields = [value(eps=e) for e in eps_grid]
    assert all(a >= b for a, b in zip(yields, yields[1:]))
    nerr_grid = range(0, 10000, 500)
    yields = [value(n_err=k) for k in nerr_grid]
    assert all(a >= b for a, b in zip(yields, yields[1:]))
    nrec_grid = range(10000, 40000, 2000)
    yields = [value(n_rec=k) for k in nrec_grid]
    assert all(a <= b for a, b in zip(yields, yields[1:]))


# -- compression -------------------------------------------------------------


def test_compress_zero_length():
    key = np.ones(100, dtype=np.uint8)
    assert compress(key, 0, SEED).size == 0


def test_compress_rejects_bad_length():
    key = np.ones(10, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"output length 11 outside \[0, 10\]"):
        compress(key, 11, SEED)


def test_toeplitz_identity_configuration():
    rng = np.random.default_rng(5)
    key = rng.integers(0, 2, 40).astype(np.uint8)
    diag = np.zeros(2 * key.size - 1, dtype=np.uint8)
    diag[key.size - 1] = 1  # first row e1, first column zero below the corner
    assert np.array_equal(toeplitz_hash(key, key.size, diag), key)


def test_compress_linearity():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 2, 300).astype(np.uint8)
    b = rng.integers(0, 2, 300).astype(np.uint8)
    out_xor = compress(a ^ b, 128, SEED)
    assert np.array_equal(out_xor, compress(a, 128, SEED) ^ compress(b, 128, SEED))


def test_compress_deterministic_across_parties():
    rng = np.random.default_rng(7)
    key = rng.integers(0, 2, 500).astype(np.uint8)
    assert np.array_equal(compress(key, 200, SEED), compress(key.copy(), 200, SEED))
    assert not np.array_equal(
        compress(key, 200, SEED), compress(key, 200, derive_seed(SEED, "other"))
    )


def convolve_reference(key_bits, out_len, diagonal_bits):
    """Direct-convolution oracle: y_i = sum_j d[n-1+i-j] x_j mod 2."""
    n = key_bits.size
    full = np.convolve(diagonal_bits.astype(np.int64), key_bits.astype(np.int64))
    return (full[n - 1 : n - 1 + out_len] & 1).astype(np.uint8)


@pytest.mark.parametrize(
    "n,m",
    [
        (1, 1),
        (2, 1),
        (2, 2),
        (7, 3),
        (64, 64),
        (1000, 1),
        (1000, 999),
        (12_450, 4_960),
        # n + m - 1 at a power of two and one above it: the FFT size edge
        (512, 513),
        (512, 514),
        (1, 1024),
        (1024, 1),
    ],
)
def test_toeplitz_hash_matches_convolution_reference(n, m):
    rng = np.random.default_rng(n * 7919 + m)
    key = rng.integers(0, 2, n).astype(np.uint8)
    diag = rng.integers(0, 2, n + m - 1).astype(np.uint8)
    out = toeplitz_hash(key, m, diag)
    assert out.dtype == np.uint8
    assert np.array_equal(out, convolve_reference(key, m, diag))


@pytest.mark.parametrize("n", [150_000, 149_999])
def test_toeplitz_hash_all_ones_worst_case(n):
    # every exact entry is n, the largest value the product can reach,
    # so this is where float rounding has the least room
    m = 60_000
    out = toeplitz_hash(np.ones(n, np.uint8), m, np.ones(n + m - 1, np.uint8))
    assert np.array_equal(out, np.full(m, n & 1, dtype=np.uint8))


def test_toeplitz_hash_rejects_wrong_diagonal_length():
    with pytest.raises(ValueError, match="need 13 diagonal bits, got 12"):
        toeplitz_hash(np.ones(10, np.uint8), 4, np.ones(12, np.uint8))


def test_toeplitz_hash_of_empty_key_is_zero():
    out = toeplitz_hash(np.empty(0, np.uint8), 3, np.zeros(2, np.uint8))
    assert np.array_equal(out, np.zeros(3, np.uint8))


# Known answer for the Toeplitz contract (README, "Deterministic
# derivations"): compress() of a HashStream key, packed MSB-first.
COMPRESS_KEY_LEN, COMPRESS_OUT_LEN = 12_450, 4_960
COMPRESS_SHA256 = "fb3ba52d7f0d40d9a86fd69f307f701d91c98a130883eada1f64c25f42622edc"


def test_compress_known_answer():
    key = HashStream(derive_seed(SEED, "kat-key")).bits(COMPRESS_KEY_LEN)
    out = compress(key, COMPRESS_OUT_LEN, derive_seed(SEED, "kat-pa"))
    assert out.size == COMPRESS_OUT_LEN
    assert hashlib.sha256(np.packbits(out).tobytes()).hexdigest() == COMPRESS_SHA256

"""Privacy amplification: secure-yield accounting and Toeplitz compression.

The yield bound charges the faint-pulse source for its multi-photon
emissions (a pulse-splitting eavesdropper keeps one photon of every
multi-photon pulse), then subtracts what error estimation and the
revealed syndrome information are worth. Compression uses a seeded
Toeplitz universal hash so both parties shrink their corrected keys to
the computed length identically.
"""

import math

import numpy as np

from qkdsim.errors import LengthInvalid
from qkdsim.seeds import HashStream


def poisson_multi_prob(mean_photon_number: float) -> float:
    """Probability of two or more photons in a pulse: 1 - e^-M - M e^-M."""
    if mean_photon_number <= 0:
        raise ValueError("mean photon number must be positive")
    m = mean_photon_number
    return -math.expm1(-m) - m * math.exp(-m)


def secure_fraction(mean_photon_number: float, transmission: float) -> float:
    """Fraction of received bits a pulse-splitting attacker cannot hold.

    b = 1 - P(n>=2) / ((1 - e^-M) * T), clamped to [0, 1]. Zero means the
    multi-photon emissions can account for everything Bob received and no
    bits are secure.
    """
    if not 0 < transmission <= 1:
        raise ValueError("transmission must be in (0, 1]")
    m = mean_photon_number
    received = -math.expm1(-m) * transmission
    b = 1.0 - poisson_multi_prob(m) / received
    return min(max(b, 0.0), 1.0)


def final_length(
    n_rec: int,
    n_err: int,
    error_rate: float,
    ec_efficiency: float,
    secure_frac: float,
    safety_margin_bits: int,
) -> int:
    """Secret output length for one run; 0 means retain nothing.

    n_fin = floor((n_rec - n_err) * b * (E_ec - log2(1 + 4x - 4x^2)) - n_s)
    with x = error_rate / b. The bracket is clamped below at zero before
    the multiplication: a negative information rate means no key, not a
    negative one.
    """
    if secure_frac <= 0 or error_rate >= secure_frac:
        return 0
    x = error_rate / secure_frac
    bracket = ec_efficiency - math.log2(1.0 + 4.0 * x - 4.0 * x * x)
    bracket = max(bracket, 0.0)
    raw = (n_rec - n_err) * secure_frac * bracket - safety_margin_bits
    return max(int(math.floor(raw)), 0)


def toeplitz_hash(key_bits: np.ndarray, out_len: int, diagonal_bits: np.ndarray) -> np.ndarray:
    """Multiply a key by the binary Toeplitz matrix T[i, j] = d[n - 1 + i - j].

    ``diagonal_bits`` holds the n + m - 1 diagonal values with the first
    row stored reversed at the front: d[n-1] is T[0, 0], d[n-1-j] the rest
    of the first row, d[n-1+i] the first column.

    y_i = sum_j d[n-1+i-j] x_j is entry n - 1 + i of the full convolution
    d * x, computed here as a real FFT product of size N, the smallest
    power of two at or above n + m - 1. The circular product of size N
    adds entry k + N of the full convolution onto entry k; the full
    convolution ends at entry 2n + m - 3, and k + N >= n - 1 + n + m - 1
    passes that for every wanted k >= n - 1, so entries n - 1 to
    n + m - 2 are not aliased. Every exact entry is an integer in [0, n].
    The float64 FFT convolution errs by O(eps * log2(N) * |d|_2 * |x|_2)
    <= O(eps * log2(N) * (n + m)), below 1e-7 for any key under 1e7 bits
    and so far inside the 0.5 that rounding to the nearest integer
    tolerates: the result equals the exact product mod 2. At the worst
    case, all-ones d and x with n = 150 000 and m = 60 000, the largest
    distance to an integer measured 2.9e-11.
    """
    n = int(key_bits.size)
    m = int(out_len)
    if m == 0:
        return np.empty(0, dtype=np.uint8)
    d = np.asarray(diagonal_bits, dtype=np.float64)
    if d.size != n + m - 1:
        raise LengthInvalid(f"need {n + m - 1} diagonal bits, got {d.size}")
    if n == 0:  # an empty key maps to the zero vector
        return np.zeros(m, dtype=np.uint8)
    x = np.asarray(key_bits, dtype=np.float64)
    size = 1 << (n + m - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(d, size) * np.fft.rfft(x, size), size)
    return (np.rint(full[n - 1 : n - 1 + m]).astype(np.int64) & 1).astype(np.uint8)


def compress(key_bits: np.ndarray, out_len: int, seed: bytes) -> np.ndarray:
    """Compress a corrected key with a seed-expanded Toeplitz hash.

    The diagonal bits are the first n + out_len - 1 bits of the seed's
    HashStream, MSB-first; both parties expand the shared seed to the
    identical matrix.
    """
    key_bits = np.asarray(key_bits, dtype=np.uint8)
    if not 0 <= out_len <= key_bits.size:
        raise LengthInvalid(
            f"output length {out_len} outside [0, {key_bits.size}]"
        )
    diag = HashStream(seed).bits(key_bits.size + out_len - 1)
    return toeplitz_hash(key_bits, out_len, diag)

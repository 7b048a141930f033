"""Seed derivation and deterministic byte streams.

A 256-bit master seed fans out into per-stage seeds through labeled
SHA-256 derivation, so changing how one stage draws randomness can never
reshuffle another stage's. Simulation noise uses numpy generators seeded
from the derived bytes. Constructions that both parties must reproduce
byte-exactly from shared OTP material (factor graphs, Toeplitz rows) read
the SHAKE-256 ``HashStream`` instead, each from byte 0; its byte-level
contract is documented in the README.
"""

import hashlib

import numpy as np

SEED_BYTES = 32


def parse_seed(text: str) -> bytes:
    """Parse a hex seed string, left-padding with zeros to 32 bytes."""
    raw = bytes.fromhex(text)
    if len(raw) > SEED_BYTES:
        raise ValueError(f"seed longer than {SEED_BYTES} bytes")
    return raw.rjust(SEED_BYTES, b"\x00")


def derive_seed(master: bytes, label: str) -> bytes:
    """Derive a stage seed as SHA-256(master || '/' || label)."""
    return hashlib.sha256(master + b"/" + label.encode("utf-8")).digest()


def np_rng(seed: bytes) -> np.random.Generator:
    """Numpy generator seeded from a 32-byte seed."""
    return np.random.Generator(np.random.PCG64(int.from_bytes(seed, "big")))


class HashStream:
    """Byte stream SHAKE-256(seed), the extendable-output function of FIPS 202.

    The stream, its big-endian u64 draws and the skip rule of ``below_many``
    are a cross-party contract: both parties expand the same OTP bytes to
    identical graphs and hash rows. Each expansion reads from byte 0, so
    the object keeps no position, only the absorbed seed.
    """

    def __init__(self, seed: bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError("HashStream seed must be exactly 32 bytes")
        self._shake = hashlib.shake_256(seed)

    def read(self, start: int, stop: int) -> bytes:
        """Bytes [start, stop) of the stream."""
        return self._shake.digest(stop)[start:]

    def below_many(self, bounds) -> np.ndarray:
        """Uniform integers in [0, b), one per bound b, as a uint64 array.

        Draw i is the big-endian u64 at bytes [8i, 8i + 8). Each bound takes
        the next unused draw u and gives u % b, unless u is at or above
        floor(2^64 / b) * b: then u is skipped and the same bound takes the
        next draw. Bounds must lie in [1, 2^64).
        """
        if not isinstance(bounds, np.ndarray):
            bounds = np.array(list(bounds), dtype=object)  # Python ints stay exact past 2^63
        if bounds.size and not 1 <= int(bounds.min()) <= int(bounds.max()) < 2**64:
            raise ValueError("bound must lie in [1, 2^64)")
        bounds = bounds.astype(np.uint64)
        out = np.empty(bounds.size, dtype=np.uint64)
        top = np.uint64(2**64 - 1)
        done = draw = 0
        while done < bounds.size:  # one bulk pass, and one more after each skip
            b = bounds[done:]
            u = np.frombuffer(self.read(8 * draw, 8 * (draw + b.size)), ">u8").astype(np.uint64)
            skip = u > top - (top % b + np.uint64(1)) % b  # u >= floor(2^64 / b) * b
            ok = int(skip.argmax()) if skip.any() else b.size
            np.remainder(u[:ok], b[:ok], out=out[done : done + ok])
            done += ok
            draw += ok + 1
        return out

    def bits(self, n: int) -> np.ndarray:
        """First n bits of the stream, MSB-first within each byte."""
        return np.unpackbits(np.frombuffer(self.read(0, (n + 7) // 8), np.uint8))[:n]

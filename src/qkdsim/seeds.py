"""Seed derivation and deterministic byte streams.

A 256-bit master seed fans out into per-stage seeds through labeled
SHA-256 derivation, so changing how one stage draws randomness can never
reshuffle another stage's. Simulation noise uses numpy generators seeded
from the derived bytes. Constructions that both parties must reproduce
byte-exactly from shared OTP material (factor graphs, Toeplitz rows) use
the counter-mode ``HashStream`` instead; its byte-level contract is
documented in the README.
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
    """Counter-mode SHA-256 byte stream: block k = SHA-256(seed || k as u64 BE).

    The stream, the big-endian u64 draws and the rejection sampling in
    ``below`` are part of the cross-party contract: two stores seeded with
    the same OTP bytes must expand to identical graphs and hash rows.
    """

    def __init__(self, seed: bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError("HashStream seed must be exactly 32 bytes")
        self._prefix = hashlib.sha256(seed)  # the seed hashed once, copied per block
        self._counter = 0
        self._buf = bytearray()

    def _fill(self, n: int) -> None:
        """Hash, in one pass, the blocks that bring the buffer to n bytes."""
        short = n - len(self._buf)
        if short <= 0:
            return
        first = self._counter
        self._counter += -(-short // 32)
        copy = self._prefix.copy
        for k in range(first, self._counter):
            h = copy()
            h.update(k.to_bytes(8, "big"))
            self._buf += h.digest()

    def take(self, n: int) -> bytes:
        self._fill(n)
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free by rejection on u64 draws.

        n must lie in [1, 2^64]; above that no u64 draw could be accepted.
        """
        if not 1 <= n <= 2**64:
            raise ValueError("bound must lie in [1, 2^64]")
        limit = (2**64 // n) * n
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def below_many(self, bounds) -> np.ndarray:
        """``[self.below(b) for b in bounds]`` as a uint64 array, in bulk.

        The draws for all bounds are hashed at once and reduced with one
        vectorised ``u % b``. A draw ``below`` would reject (u at or above
        the largest multiple of b that fits in 2^64) ends the bulk part;
        from there on the draws go through ``below`` one at a time. The
        values and the stream position afterwards are therefore exactly
        those of successive ``below`` calls. Bounds must lie in [1, 2^64).
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.size and not bounds.min() > 0:
            raise ValueError("bound must be positive")
        k = bounds.size
        self._fill(8 * k)
        # astype copies out of the buffer, and the temporary view is gone
        # before the del below (a bytearray with a live export cannot shrink).
        u = np.frombuffer(self._buf, dtype=">u8", count=k).astype(np.uint64)
        top = np.uint64(2**64 - 1)
        rem = (top % bounds + np.uint64(1)) % bounds  # 2^64 mod b
        rejected = u > top - rem
        ok = int(rejected.argmax()) if rejected.any() else k
        del self._buf[: 8 * ok]
        tail = [self.below(int(b)) for b in bounds[ok:]]
        return np.concatenate([u[:ok] % bounds[:ok], np.array(tail, dtype=np.uint64)])

    def bits(self, n: int) -> np.ndarray:
        """Next n bits of the stream, MSB-first within each byte."""
        nbytes = (n + 7) // 8
        raw = np.frombuffer(self.take(nbytes), dtype=np.uint8)
        return np.unpackbits(raw)[:n]

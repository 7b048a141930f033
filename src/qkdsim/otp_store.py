"""Persistent one-time-pad store with monotone consumption and top-up.

The shared secret is consumable: every factor-graph seed, privacy-
amplification seed and authentication reserve burns pad bytes that are
never served twice, and successful runs append fresh key material.

File layout (all integers little-endian):

    header   64 bytes   magic "OTPSTOR1", version u16, pad u16,
                        ledger_capacity u32, ledger_count u32,
                        consumed_offset u64, pad_length u64, crc32 u32
    ledger   capacity * 40 bytes, a ring: entry i (from 0) sits in
                        slot i % capacity; ledger_count only grows
                        purpose u8, pad 7, offset u64, length u64,
                        timestamp f64, crc32 u32, pad 4
    pad      pad_length bytes, zeroized up to consumed_offset

Crash safety: a consume writes its ledger entry and persists the
advanced offset *before* the bytes are handed to the caller, so a crash
at any point either loses the bytes (safe) or never served them. On open
the ring is scanned onward from the header's count for valid entries
written ahead of a crash, up to one that ends inside the consumed region
(an older lap), and the consumed region is re-zeroized.
"""

import contextlib
import os
import struct
import time
import zlib
from dataclasses import dataclass

from qkdsim.errors import PadDepleted, StorageFailure

MAGIC = b"OTPSTOR1"
VERSION = 1
HEADER_SIZE = 64
LEDGER_ENTRY_SIZE = 40
DEFAULT_LEDGER_CAPACITY = 64

_HEADER_BODY_FMT = "<8sHHIIQQ"  # the header up to its crc32, which follows as a u32
_ENTRY_FMT = "<B7sQQdI4s"

PURPOSES = {"fg_seed": 1, "pa_seed": 2, "auth": 3, "export": 4}
_PURPOSE_NAMES = {v: k for k, v in PURPOSES.items()}


@dataclass(frozen=True)
class LedgerEntry:
    purpose: str
    offset: int
    length: int
    timestamp: float


def _entry_crc(purpose_code: int, offset: int, length: int, timestamp: float) -> int:
    return zlib.crc32(struct.pack("<BQQd", purpose_code, offset, length, timestamp))


class OtpStore:
    """Single-writer pad store bound to one file."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = None
        try:
            self._open()
        except BaseException:
            # A flush that fails again on close must not hide the error.
            with contextlib.suppress(OSError):
                self.close()
            raise

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        initial_pad: bytes = b"",
        ledger_capacity: int = DEFAULT_LEDGER_CAPACITY,
    ) -> "OtpStore":
        if not (isinstance(ledger_capacity, int) and 1 <= ledger_capacity < 2**32):
            raise ValueError(f"ledger capacity must be an integer in [1, 2**32): {ledger_capacity}")
        path = os.fspath(path)
        if os.path.exists(path):
            raise StorageFailure(f"refusing to overwrite existing store {path}")
        with open(path, "wb") as fh:
            fh.write(cls._pack_header(ledger_capacity, 0, 0, len(initial_pad)))
            fh.write(b"\x00" * (ledger_capacity * LEDGER_ENTRY_SIZE))
            fh.write(initial_pad)
            fh.flush()
            os.fsync(fh.fileno())
        return cls(path)

    @staticmethod
    def _pack_header(capacity, count, consumed, pad_length) -> bytes:
        body = struct.pack(
            _HEADER_BODY_FMT, MAGIC, VERSION, 0, capacity, count, consumed, pad_length
        )
        crc = zlib.crc32(body)
        header = body + struct.pack("<I", crc)
        return header + b"\x00" * (HEADER_SIZE - len(header))

    def _open(self):
        try:
            self._fh = open(self.path, "r+b")
        except OSError as exc:
            raise StorageFailure(f"cannot open store: {exc}") from exc
        raw = self._fh.read(HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise StorageFailure("truncated store header")
        magic, version, _, capacity, count, consumed, pad_length, crc = struct.unpack_from(
            _HEADER_BODY_FMT + "I", raw
        )
        if magic != MAGIC or version != VERSION:
            raise StorageFailure("not a pad store (bad magic or version)")
        if crc != zlib.crc32(raw[: struct.calcsize(_HEADER_BODY_FMT)]):
            raise StorageFailure("store header failed its checksum")
        if capacity == 0:
            raise StorageFailure("store header has no ledger capacity")
        self._ledger_capacity = capacity
        self._ledger_count = count
        self._consumed = consumed
        self._pad_length = pad_length
        # a create cut short leaves a file that would serve short reads
        if os.fstat(self._fh.fileno()).st_size < self._pad_pos(pad_length):
            raise StorageFailure("store file is shorter than its ledger and pad")
        self._recover()

    def _recover(self):
        """Adopt valid ledger entries written ahead of a crashed header
        update, then re-zeroize the consumed region."""
        scan = self._ledger_count
        while scan < self._ledger_count + self._ledger_capacity:
            entry = self._read_entry(scan % self._ledger_capacity)
            if entry is None:
                break
            end = entry.offset + entry.length
            if end <= self._consumed:
                break  # stale slot from an older lap
            self._consumed = max(self._consumed, end)
            scan += 1
        try:
            if scan != self._ledger_count:
                self._ledger_count = scan
                self._write_header()
            if self._consumed > 0:
                self._pwrite(self._pad_pos(0), b"\x00" * self._consumed)
                self._flush()
        except OSError as exc:
            raise StorageFailure(f"write failed during recovery: {exc}") from exc

    # -- low-level IO (kept small so tests can inject faults) ---------------

    def _pwrite(self, pos: int, data: bytes) -> None:
        self._fh.seek(pos)
        self._fh.write(data)

    def _pread(self, pos: int, n: int) -> bytes:
        self._fh.seek(pos)
        return self._fh.read(n)

    def _flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _pad_pos(self, offset: int) -> int:
        return HEADER_SIZE + self._ledger_capacity * LEDGER_ENTRY_SIZE + offset

    def _write_header(self) -> None:
        self._pwrite(
            0,
            self._pack_header(
                self._ledger_capacity, self._ledger_count, self._consumed, self._pad_length
            ),
        )

    def _read_entry(self, slot: int):
        raw = self._pread(HEADER_SIZE + slot * LEDGER_ENTRY_SIZE, LEDGER_ENTRY_SIZE)
        if len(raw) < LEDGER_ENTRY_SIZE:
            return None
        code, _, offset, length, ts, crc, _ = struct.unpack(_ENTRY_FMT, raw)
        if code not in _PURPOSE_NAMES or length == 0:
            return None
        if crc != _entry_crc(code, offset, length, ts):
            return None
        return LedgerEntry(_PURPOSE_NAMES[code], offset, length, ts)

    # -- public API ---------------------------------------------------------

    @property
    def remaining(self) -> int:
        return self._pad_length - self._consumed

    @property
    def consumed_offset(self) -> int:
        return self._consumed

    @property
    def ledger(self):
        """The last ``min(count, capacity)`` entries, oldest first."""
        first = max(self._ledger_count - self._ledger_capacity, 0)
        return [
            self._read_entry(i % self._ledger_capacity)
            for i in range(first, self._ledger_count)
        ]

    def consume(self, n_bytes: int, purpose: str) -> bytes:
        """Serve the next ``n_bytes`` of pad for the stated purpose."""
        if purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {purpose!r}")
        if n_bytes <= 0:
            raise ValueError("must consume at least one byte")
        if n_bytes > self.remaining:
            raise PadDepleted(
                f"{n_bytes} bytes requested, {self.remaining} remaining"
            )

        offset = self._consumed
        data = self._pread(self._pad_pos(offset), n_bytes)
        ts = time.time()
        code = PURPOSES[purpose]
        entry = struct.pack(
            _ENTRY_FMT,
            code,
            b"\x00" * 7,
            offset,
            n_bytes,
            ts,
            _entry_crc(code, offset, n_bytes, ts),
            b"\x00" * 4,
        )
        try:
            slot = self._ledger_count % self._ledger_capacity
            self._pwrite(HEADER_SIZE + slot * LEDGER_ENTRY_SIZE, entry)
            self._flush()
            self._ledger_count += 1
            self._consumed = offset + n_bytes
            self._write_header()
            self._flush()
            self._pwrite(self._pad_pos(offset), b"\x00" * n_bytes)
            self._flush()
        except OSError as exc:
            raise StorageFailure(f"write failed during consume: {exc}") from exc
        return data

    def top_up(self, new_secret: bytes) -> None:
        """Append verified fresh key material to the pad."""
        if not new_secret:
            return
        try:
            self._pwrite(self._pad_pos(self._pad_length), new_secret)
            self._flush()
            self._pad_length += len(new_secret)
            self._write_header()
            self._flush()
        except OSError as exc:
            raise StorageFailure(f"write failed during top-up: {exc}") from exc

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def session_budget(store: OtpStore, per_attempt_cost: int) -> bool:
    """Go/no-go for another key-exchange attempt.

    Bright conditions can burn the pad through repeated failed attempts
    without ever topping it up; refuse to start when the remaining pad
    cannot cover the attempt cost.
    """
    if per_attempt_cost < 0:
        raise ValueError("attempt cost cannot be negative")
    return store.remaining >= per_attempt_cost

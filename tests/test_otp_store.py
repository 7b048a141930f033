"""Pad-store consumption, top-up, persistence and crash safety."""

import errno
import hashlib
import io

import numpy as np
import pytest

from qkdsim.errors import PadDepleted, StorageFailure
from qkdsim.otp_store import HEADER_SIZE, LEDGER_ENTRY_SIZE, OtpStore, session_budget


def make_store(tmp_path, size=64, name="pad.otp", capacity=256):
    pad = bytes(range(256)) * (size // 256 + 1)
    return OtpStore.create(tmp_path / name, pad[:size], ledger_capacity=capacity)


def test_consume_serves_prefix(tmp_path):
    store = make_store(tmp_path)
    data = store.consume(32, "fg_seed")
    assert data == bytes(range(32))
    assert store.remaining == 32


def test_consume_past_end_depletes_without_state_change(tmp_path):
    store = make_store(tmp_path)
    store.consume(32, "auth")
    with pytest.raises(PadDepleted):
        store.consume(33, "pa_seed")
    assert store.remaining == 32
    assert len(store.ledger) == 1


def test_consumes_are_disjoint(tmp_path):
    store = make_store(tmp_path)
    store.consume(16, "fg_seed")
    store.consume(16, "pa_seed")
    ranges = [(e.offset, e.offset + e.length) for e in store.ledger]
    assert ranges == [(0, 16), (16, 32)]


def test_topup_then_consume_roundtrip(tmp_path):
    store = OtpStore.create(tmp_path / "fresh.otp", b"")
    assert store.remaining == 0
    secret = bytes(np.random.default_rng(0).integers(0, 256, 1000, dtype=np.uint8))
    store.top_up(secret)
    assert store.remaining == 1000
    assert store.consume(1000, "export") == secret


def test_consumed_bytes_zeroized_on_disk(tmp_path):
    store = make_store(tmp_path)
    store.consume(32, "auth")
    store.close()
    raw = (tmp_path / "pad.otp").read_bytes()
    pad_region = raw[HEADER_SIZE + 256 * LEDGER_ENTRY_SIZE :]
    assert pad_region[:32] == bytes(32)
    assert pad_region[32:64] == bytes(range(32, 64))


def test_reopen_preserves_state(tmp_path):
    store = make_store(tmp_path)
    store.consume(10, "auth")
    store.top_up(b"\xaa" * 20)
    store.close()
    reopened = OtpStore(tmp_path / "pad.otp")
    assert reopened.remaining == 64 - 10 + 20
    assert reopened.consumed_offset == 10
    assert [e.purpose for e in reopened.ledger] == ["auth"]


def test_two_party_symmetry(tmp_path):
    a = make_store(tmp_path, size=128, name="alice.otp")
    b = make_store(tmp_path, size=128, name="bank.otp")
    for purpose, n in [("auth", 32), ("fg_seed", 32), ("pa_seed", 32)]:
        assert a.consume(n, purpose) == b.consume(n, purpose)


def test_session_budget(tmp_path):
    store = make_store(tmp_path, size=200)
    assert session_budget(store, 96)
    store.consume(150, "auth")
    assert not session_budget(store, 96)
    assert session_budget(store, 40)


def test_failed_attempts_burn_exactly_their_cost(tmp_path):
    store = make_store(tmp_path, size=1024)
    cost = 96
    for _ in range(5):
        store.consume(32, "auth")
        store.consume(32, "fg_seed")
        store.consume(32, "pa_seed")
    assert store.remaining == 1024 - 5 * cost
    spent = sum(e.length for e in store.ledger)
    assert spent == 5 * cost


def test_randomized_ops_against_reference_model(tmp_path):
    """Interleaved top-ups and consumes never re-serve a byte."""
    rng = np.random.default_rng(42)
    store = OtpStore.create(tmp_path / "model.otp", b"", ledger_capacity=2048)
    expected_offset = 0
    appended = 0
    for _ in range(400):
        if rng.random() < 0.5 and appended < 60000:
            n = int(rng.integers(1, 200))
            # pad bytes encode their absolute position, so reuse is detectable
            chunk = bytes((appended + i) % 251 for i in range(n))
            store.top_up(chunk)
            appended += n
        else:
            n = int(rng.integers(1, 100))
            if n > store.remaining:
                with pytest.raises(PadDepleted):
                    store.consume(n, "export")
                continue
            data = store.consume(n, "export")
            assert data == bytes((expected_offset + i) % 251 for i in range(n))
            expected_offset += n
    # ledger audit: ranges disjoint, ordered, within the pad
    ledger = store.ledger
    ends = 0
    for entry in ledger:
        assert entry.offset == ends
        ends = entry.offset + entry.length
    assert ends == expected_offset <= appended


class FaultyStore(OtpStore):
    """Raises after a configured number of low-level writes."""

    def __init__(self, path, fail_after=None):
        self._writes_left = float("inf") if fail_after is None else fail_after
        super().__init__(path)

    def arm(self, fail_after):
        self._writes_left = fail_after

    def _pwrite(self, pos, data):
        if self._writes_left <= 0:
            raise OSError("injected crash")
        self._writes_left -= 1
        super()._pwrite(pos, data)


def test_crash_injection_never_reserves_bytes(tmp_path):
    """Simulated interruption at every persistence point: a reopened store
    must never serve a byte that a completed consume already returned."""
    rng = np.random.default_rng(7)
    sequences = 200
    for seq in range(sequences):
        path = tmp_path / f"crash{seq}.otp"
        pad = bytes(i % 251 for i in range(2048))
        OtpStore.create(path, pad).close()
        store = FaultyStore(path)
        high_water = 0  # end of the last range actually handed to a caller
        for _ in range(int(rng.integers(2, 10))):
            n = int(rng.integers(1, 64))
            store.arm(int(rng.integers(0, 6)))
            try:
                if n <= store.remaining:
                    data = store.consume(n, "export")
                    end = store.consumed_offset
                    start = end - n
                    assert start >= high_water  # a crash may lose bytes, never repeat them
                    assert data == pad[start:end]
                    high_water = end
            except StorageFailure:
                store.close()
                store = FaultyStore(path)  # recovery reopen
        store.close()
        final = OtpStore(path)
        offset = final.consumed_offset
        assert offset >= high_water
        if final.remaining >= 8:
            assert final.consume(8, "export") == pad[offset : offset + 8]
        final.close()


def test_write_failure_while_opening_is_a_storage_failure(tmp_path):
    """A crash in recovery's re-zeroization raises StorageFailure, closes
    the file and leaves a store that opens cleanly afterwards."""
    path = tmp_path / "reopen.otp"
    pad = bytes(range(64))
    with OtpStore.create(path, pad) as store:
        store.consume(10, "export")
    opened = []

    class RecordingFaultyStore(FaultyStore):
        def _open(self):
            opened.append(self)
            super()._open()

    with pytest.raises(StorageFailure, match="injected crash"):
        RecordingFaultyStore(path, fail_after=0)
    assert opened[0]._fh is None
    with OtpStore(path) as store:
        assert store.consumed_offset == 10
        assert store.consume(4, "export") == pad[10:14]


def test_flush_failure_while_opening_is_a_storage_failure(tmp_path, monkeypatch):
    """A disk that fails every flush: recovery's flush and the retry on
    close both fail, and the StorageFailure still wins with the file closed."""
    path = tmp_path / "full.otp"
    pad = bytes(range(64))
    with OtpStore.create(path, pad) as store:
        store.consume(10, "export")

    class FullDisk(io.BufferedRandom):
        def flush(self):
            raise OSError(errno.ENOSPC, "injected: no space left on device")

    files = []

    def open_full_disk(file, mode):
        files.append(FullDisk(io.FileIO(file, mode)))
        return files[-1]

    monkeypatch.setattr("qkdsim.otp_store.open", open_full_disk, raising=False)
    with pytest.raises(StorageFailure, match="no space left"):
        OtpStore(path)
    assert files[0].closed
    monkeypatch.undo()
    with OtpStore(path) as store:
        assert store.consumed_offset == 10
        assert store.consume(4, "export") == pad[10:14]


@pytest.mark.parametrize("capacity", [0, -1, 2**32, 2.5])
def test_create_rejects_an_unusable_ledger_capacity_before_touching_the_path(tmp_path, capacity):
    path = tmp_path / "cap.otp"
    with pytest.raises(ValueError, match="ledger capacity"):
        OtpStore.create(path, bytes(64), ledger_capacity=capacity)
    assert not path.exists()
    OtpStore.create(path, bytes(64), ledger_capacity=1).close()  # a retry succeeds


def test_header_with_zero_ledger_capacity_is_a_storage_failure(tmp_path):
    # a CRC-valid header whose ring has no slot cannot record a consume
    path = tmp_path / "cap0.otp"
    path.write_bytes(OtpStore._pack_header(0, 0, 0, 64) + bytes(64))
    with pytest.raises(StorageFailure, match="no ledger capacity"):
        OtpStore(path)


def test_ledger_ring_outlives_its_capacity(tmp_path):
    """10^4 consume + top-up sessions through a 4-slot ledger: no byte is
    served twice, and the ledger keeps the last 4 contiguous entries."""
    capacity = 4
    path = tmp_path / "soak.otp"
    store = OtpStore.create(path, bytes(i % 251 for i in range(64)), ledger_capacity=capacity)
    served = 0  # pad bytes encode their absolute position, so reuse is detectable
    appended = 64
    for session in range(10_000):
        n = 1 + session % 16
        assert store.consume(n, "export") == bytes((served + i) % 251 for i in range(n))
        served += n
        store.top_up(bytes((appended + i) % 251 for i in range(n)))
        appended += n
        if session % 2500 == 2499:
            store.close()
            store = OtpStore(path)
    assert store.consumed_offset == served
    ledger = store.ledger
    assert len(ledger) == capacity
    assert ledger[-1].offset + ledger[-1].length == served
    assert all(a.offset + a.length == b.offset for a, b in zip(ledger, ledger[1:]))
    store.close()


def test_crash_injection_across_the_ledger_wrap(tmp_path):
    """A crash at each write of a consume, with the ledger at every count
    around its first and second wrap, never re-serves a byte and leaves a
    ledger that ends where consumption does."""
    capacity = 3
    pad = bytes(i % 251 for i in range(1024))
    for count in range(2 * capacity + 1):
        for fail_after in range(3):  # ledger entry, header, zeroization
            path = tmp_path / f"wrap{count}-{fail_after}.otp"
            OtpStore.create(path, pad, ledger_capacity=capacity).close()
            store = FaultyStore(path)
            for _ in range(count):
                store.consume(8, "export")
            high_water = store.consumed_offset
            store.arm(fail_after)
            with pytest.raises(StorageFailure):
                store.consume(8, "export")
            store.close()
            store = OtpStore(path)
            # a crash after the entry is written loses the range, never repeats it
            entries = count + (fail_after > 0)
            assert store.consumed_offset == high_water + 8 * (fail_after > 0)
            for _ in range(capacity + 1):
                offset = store.consumed_offset
                assert store.consume(5, "export") == pad[offset : offset + 5]
                entries += 1
                ledger = store.ledger
                assert len(ledger) == min(entries, capacity)
                assert ledger[-1].offset + ledger[-1].length == store.consumed_offset
                assert all(a.offset + a.length == b.offset for a, b in zip(ledger, ledger[1:]))
            store.close()


# Known-answer SHA-256 of the 64-byte header of a fresh store after one
# consume. The other party and later opens parse it, so it is a byte
# contract; ledger entries carry timestamps and are not pinned.
HEADER_SHA256 = "65d781bb2a9d17510401d7e289e1f98a8d44806220349b97473c7c4935365999"


def test_header_after_one_consume_matches_known_answer(tmp_path):
    store = make_store(tmp_path, size=1024)
    store.consume(32, "auth")
    store.close()
    header = (tmp_path / "pad.otp").read_bytes()[:HEADER_SIZE]
    assert hashlib.sha256(header).hexdigest() == HEADER_SHA256

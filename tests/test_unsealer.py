"""Unit tests for in-memory unsealing: sync, parallel, and background."""

import gc
import io
import mmap
import os
import struct
import threading
import time
import tracemalloc
import weakref
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelvault.crypto as crypto_mod
import modelvault.unsealer as unsealer_mod
from modelvault.container import HEADER_SIZE, MAGIC, SealedFormat, decode
from modelvault.crypto import CipherMode, KeyMaterial, decrypt_block, sha256
from modelvault.errors import (CancelledError, ContainerError, CrcError,
                               DigestError, InvariantError, IoError,
                               KeyMismatchError, LengthError, ModelVaultError, ModeError,
                               PaddingError, RangeError, TruncationError,
                               VersionError)
from modelvault.sealer import seal
from modelvault.unsealer import (ModelBlob, unseal, unseal_background,
                                 unseal_file, unseal_parallel)
from conftest import FIPS_KEY_BYTES

MODEL = bytes((i * 31 + 7) % 256 for i in range(10240))


@pytest.fixture
def container_bytes(fips_key):
    sealed, _ = seal(MODEL, fips_key, chunk_size=4096)  # 4096+4096+2048
    return sealed


@pytest.fixture
def raw_bytes(fips_key):
    sealed, _ = seal(MODEL, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
    return sealed


def counting_decrypt(monkeypatch, delay=0.0, threads=None):
    """Instrument _decrypt_chunk; returns the chunk indexes in call order.

    Given a ``threads`` list, each call also appends its thread's ident.
    """
    calls = []
    real = unsealer_mod._decrypt_chunk

    def wrapper(*args):  # (key, nonce, index, ciphertext, out)
        if delay:
            time.sleep(delay)
        calls.append(args[2])
        if threads is not None:
            threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(unsealer_mod, "_decrypt_chunk", wrapper)
    return calls


class TestUnsealRaw:
    def test_round_trip(self, raw_bytes, fips_key):
        blob = unseal(raw_bytes, fips_key, SealedFormat.RAW_DAT)
        assert blob.to_bytes() == MODEL
        assert blob.source_mode is CipherMode.RAW_ECB_PKCS7
        assert blob.digest == sha256(MODEL)

    def test_wrong_key_fails_padding(self, raw_bytes, other_key):
        with pytest.raises(PaddingError):
            unseal(raw_bytes, other_key, SealedFormat.RAW_DAT)

    def test_padding_failure_wipes_the_buffer(self, raw_bytes, other_key,
                                              monkeypatch):
        wiped = []
        real = crypto_mod._wipe

        def recording_wipe(buf):
            real(buf)
            wiped.append(buf)

        monkeypatch.setattr(crypto_mod, "_wipe", recording_wipe)
        with pytest.raises(PaddingError):
            unseal(raw_bytes, other_key, SealedFormat.RAW_DAT)
        [buf] = wiped
        assert len(buf) >= len(raw_bytes) and not any(buf)

    def test_one_plaintext_buffer(self, fips_key):
        size = 8 * 1024 * 1024
        sealed, _ = seal(bytes(size), fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        tracemalloc.start()
        try:
            blob = unseal(sealed, fips_key, SealedFormat.RAW_DAT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) == size
        assert peak < 1.1 * size


class TestUnsealContainer:
    def test_round_trip(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        assert blob.to_bytes() == MODEL
        assert blob.source_mode is CipherMode.CHUNKED_CTR

    def test_empty_model(self, fips_key):
        sealed, _ = seal(b"", fips_key)
        blob = unseal(sealed, fips_key, SealedFormat.CONTAINER)
        assert blob.to_bytes() == b""
        assert blob.digest == sha256(b"")

    def test_wrong_key_detected_before_any_decryption(
            self, container_bytes, other_key, monkeypatch):
        calls = counting_decrypt(monkeypatch)
        with pytest.raises(KeyMismatchError):
            unseal(container_bytes, other_key, SealedFormat.CONTAINER)
        assert calls == []  # fingerprint gate fired first

    def test_key_mismatch_names_fingerprints_only(
            self, container_bytes, other_key, fips_key):
        with pytest.raises(KeyMismatchError) as exc_info:
            unseal(container_bytes, other_key, SealedFormat.CONTAINER)
        message = str(exc_info.value)
        assert fips_key.fingerprint.hex() in message
        assert other_key.secret.hex() not in message

    def test_corrupted_payload_fails_digest(self, container_bytes, fips_key):
        mutated = bytearray(container_bytes)
        mutated[-1] ^= 0x01  # last payload byte; header stays intact
        with pytest.raises(DigestError):
            unseal(bytes(mutated), fips_key, SealedFormat.CONTAINER)

    def test_raw_bytes_declared_container_rejected(self, raw_bytes, fips_key):
        with pytest.raises(ModeError):
            unseal(raw_bytes, fips_key, SealedFormat.CONTAINER)


class TestUnsealParallel:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_matches_sync(self, container_bytes, fips_key, workers):
        sync = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        par = unseal_parallel(container_bytes, fips_key, workers=workers)
        assert par.to_bytes() == sync.to_bytes() == MODEL
        assert par.digest == sync.digest

    def test_non_dividing_chunk_size(self, fips_key):
        # 10240 = 4096 + 4096 + 2048: a short tail chunk.
        sealed, _ = seal(MODEL, fips_key, chunk_size=4096)
        assert decode(sealed, len(sealed)).chunk_count == 3
        assert unseal_parallel(sealed, fips_key, workers=3).to_bytes() == MODEL

    def test_more_workers_than_chunks(self, container_bytes, fips_key):
        blob = unseal_parallel(container_bytes, fips_key, workers=64)
        assert blob.to_bytes() == MODEL

    def test_default_workers_used(self, container_bytes, fips_key):
        assert unseal_parallel(container_bytes, fips_key).to_bytes() == MODEL

    def test_raw_rejected(self, raw_bytes, fips_key):
        with pytest.raises(ModeError):
            unseal_parallel(raw_bytes, fips_key)

    def test_bad_worker_count(self, container_bytes, fips_key):
        with pytest.raises(RangeError):
            unseal_parallel(container_bytes, fips_key, workers=0)

    def test_wrong_key_rejected_without_decrypting(
            self, container_bytes, other_key, monkeypatch):
        calls = counting_decrypt(monkeypatch)
        with pytest.raises(KeyMismatchError):
            unseal_parallel(container_bytes, other_key)
        assert calls == []

    def test_every_chunk_decrypted_once(self, container_bytes, fips_key,
                                        monkeypatch):
        calls = counting_decrypt(monkeypatch)
        unseal_parallel(container_bytes, fips_key, workers=3)
        assert sorted(calls) == [0, 1, 2]

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_chunks_decrypt_in_order_on_calling_thread(
            self, container_bytes, fips_key, monkeypatch, workers):
        threads = []
        calls = counting_decrypt(monkeypatch, threads=threads)
        unseal_parallel(container_bytes, fips_key, workers=workers)
        assert calls == [0, 1, 2]
        assert threads == [threading.get_ident()] * 3


class TestModelBlob:
    def test_data_is_read_only(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        view = blob.data
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 0

    def test_release_zero_fills(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        view = blob.data  # taken before release, observes the same buffer
        assert not blob.released
        blob.release()
        assert blob.released
        assert bytes(view) == bytes(len(MODEL))

    def test_release_is_idempotent(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        blob.release()
        blob.release()
        assert blob.released

    def test_to_bytes_is_a_copy(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        copy = blob.to_bytes()
        blob.release()
        assert copy == MODEL  # the copy survives the wipe

    def test_repr_shows_no_content(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        assert MODEL[:8].hex() not in repr(blob)


def counting_sha256(monkeypatch):
    """Instrument unsealer.sha256; returns the lengths it hashed."""
    hashed = []
    real = unsealer_mod.sha256

    def wrapper(data):
        hashed.append(len(data))
        return real(data)

    monkeypatch.setattr(unsealer_mod, "sha256", wrapper)
    return hashed


class TestLazyDigest:
    def test_raw_unseal_hashes_only_when_digest_is_read(self, raw_bytes, fips_key,
                                                         monkeypatch):
        hashed = counting_sha256(monkeypatch)
        blob = unseal(raw_bytes, fips_key, SealedFormat.RAW_DAT)
        assert hashed == []
        assert "unread" in repr(blob) and hashed == []  # repr does not hash
        assert blob.digest == sha256(MODEL)
        assert blob.digest == sha256(MODEL)
        assert hashed == [len(MODEL)]

    def test_first_digest_read_after_release_raises(self, raw_bytes, fips_key):
        blob = unseal(raw_bytes, fips_key, SealedFormat.RAW_DAT)
        blob.release()
        with pytest.raises(ModelVaultError, match="released"):
            blob.digest

    def test_container_digest_is_read_before_return(self, container_bytes, fips_key):
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        blob.release()
        assert blob.digest == sha256(MODEL)  # checked, so known, before the wipe


class Collector:
    """Thread-safe-enough sinks for the background tests."""

    def __init__(self):
        self.progress = []
        self.done = []

    def on_progress(self, event):
        self.progress.append(event)

    def on_done(self, blob, error):
        self.done.append((blob, error))


class TestUnsealBackground:
    def test_success_path(self, container_bytes, fips_key):
        sink = Collector()
        handle = unseal_background(container_bytes, fips_key,
                                   on_progress=sink.on_progress,
                                   on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "done"
        [(blob, error)] = sink.done
        assert error is None
        assert blob.to_bytes() == MODEL

        events = sink.progress
        assert len(events) == 3
        assert [e.chunks_done for e in events] == [1, 2, 3]
        assert all(e.chunks_total == 3 for e in events)
        bytes_seq = [e.bytes_done for e in events]
        assert bytes_seq == sorted(bytes_seq)
        assert bytes_seq[-1] == len(MODEL)

    def test_no_sinks_needed(self, container_bytes, fips_key):
        handle = unseal_background(container_bytes, fips_key)
        assert handle.wait(10)
        assert handle.state() == "done"

    def test_returns_before_decryption_finishes(self, container_bytes,
                                                fips_key, monkeypatch):
        counting_decrypt(monkeypatch, delay=0.15)
        start = time.perf_counter()
        handle = unseal_background(container_bytes, fips_key)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1  # scheduling must not wait on chunk work
        assert handle.state() == "running" or handle.wait(10)
        assert handle.wait(10)

    def test_bad_input_reported_via_on_done(self, raw_bytes, fips_key):
        sink = Collector()
        handle = unseal_background(raw_bytes, fips_key, on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "failed"
        [(blob, error)] = sink.done
        assert blob is None
        assert isinstance(error, ModeError)

    def test_wrong_key_reported_via_on_done(self, container_bytes, other_key):
        sink = Collector()
        handle = unseal_background(container_bytes, other_key,
                                   on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "failed"
        [(blob, error)] = sink.done
        assert blob is None
        assert isinstance(error, KeyMismatchError)

    def test_digest_failure_reported_via_on_done(self, container_bytes,
                                                 fips_key):
        mutated = bytearray(container_bytes)
        mutated[-1] ^= 0x01
        sink = Collector()
        handle = unseal_background(bytes(mutated), fips_key,
                                   on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "failed"
        assert isinstance(sink.done[0][1], DigestError)

    def test_cancel_mid_run(self, fips_key, monkeypatch):
        sealed, _ = seal(bytes(40960), fips_key, chunk_size=4096)  # 10 chunks
        counting_decrypt(monkeypatch, delay=0.1)
        sink = Collector()
        handle = unseal_background(sealed, fips_key,
                                   on_progress=sink.on_progress,
                                   on_done=sink.on_done)
        # Let at least one chunk land, then pull the plug.
        deadline = time.time() + 5
        while not sink.progress and time.time() < deadline:
            time.sleep(0.01)
        handle.cancel()
        assert handle.wait(10)
        assert handle.state() == "cancelled"
        [(blob, error)] = sink.done
        assert blob is None
        assert isinstance(error, CancelledError)
        assert len(sink.progress) < 10  # nowhere near all chunks

        events_at_done = len(sink.progress)
        time.sleep(0.3)
        assert len(sink.progress) == events_at_done  # no events after done

    def test_cancel_immediately(self, container_bytes, fips_key, monkeypatch):
        counting_decrypt(monkeypatch, delay=0.2)
        handle = unseal_background(container_bytes, fips_key)
        handle.cancel()
        assert handle.wait(10)
        assert handle.state() == "cancelled"

    def test_cancel_after_done_changes_nothing(self, container_bytes,
                                               fips_key):
        sink = Collector()
        handle = unseal_background(container_bytes, fips_key,
                                   on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "done"
        handle.cancel()
        time.sleep(0.05)
        assert handle.state() == "done"
        assert len(sink.done) == 1

    def test_on_done_has_run_when_wait_returns(self, container_bytes,
                                               fips_key):
        calls = []

        def slow_sink(blob, error):
            time.sleep(0.05)
            calls.append((blob, error))

        handle = unseal_background(container_bytes, fips_key,
                                   on_done=slow_sink)
        assert handle.wait(10)
        assert len(calls) == 1
        assert calls[0][1] is None

    def test_done_sink_exception_swallowed(self, container_bytes, fips_key):
        def explosive(blob, error):
            raise RuntimeError("sink bug")

        handle = unseal_background(container_bytes, fips_key,
                                   on_done=explosive)
        assert handle.wait(10)
        assert handle.state() == "done"

    def test_progress_sink_exception_fails_the_job(self, container_bytes,
                                                   fips_key):
        sink = Collector()

        def explosive(event):
            raise RuntimeError("progress bug")

        handle = unseal_background(container_bytes, fips_key,
                                   on_progress=explosive,
                                   on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "failed"
        [(blob, error)] = sink.done
        assert blob is None
        assert isinstance(error, RuntimeError)


def _unseal_in_background(sealed, key):
    finished = threading.Event()
    outcome = []

    def on_done(blob, error):
        outcome.append((blob, error))
        finished.set()

    unseal_background(sealed, key, on_done=on_done)
    assert finished.wait(10)
    [(blob, error)] = outcome
    assert error is None
    return blob


CONTAINER_PATHS = {
    "sync": lambda sealed, key: unseal(sealed, key, SealedFormat.CONTAINER),
    "parallel": lambda sealed, key: unseal_parallel(sealed, key, workers=2),
    "background": _unseal_in_background,
}


class TestSingleHashPass:
    @pytest.mark.parametrize("path", sorted(CONTAINER_PATHS))
    def test_plaintext_hashed_once(self, path, container_bytes, fips_key,
                                   monkeypatch):
        hashed = counting_sha256(monkeypatch)
        blob = CONTAINER_PATHS[path](container_bytes, fips_key)
        assert hashed == [len(MODEL)]
        assert blob.digest == sha256(blob.data) == sha256(MODEL)


class TestReleaseInPlace:
    def test_wipe_allocates_no_plaintext_sized_buffer(self):
        size = 2 * 1024 * 1024 + 1000  # whole 64 KiB blocks plus a tail
        blob = ModelBlob(bytearray(b"\x5a" * size), CipherMode.CHUNKED_CTR)
        view = blob.data
        tracemalloc.start()
        try:
            blob.release()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert view.tobytes() == bytes(size)
        assert peak < 0.1 * size


def _mutate(sealed: bytes, mutations) -> bytes:
    data = bytearray(sealed)
    for kind, position, bit in mutations:
        if kind == "truncate":
            del data[position % (len(data) + 1):]
        elif data:
            if kind == "flip":
                data[position % len(data)] ^= 1 << bit
            else:  # flip a header field and re-fix the CRC so the header check passes
                data[position % min(len(data), HEADER_SIZE - 4)] ^= 1 << bit
                if len(data) >= HEADER_SIZE:
                    data[HEADER_SIZE - 4:HEADER_SIZE] = struct.pack(
                        "<I", zlib.crc32(data[:HEADER_SIZE - 4]))
    return bytes(data)


FUZZ_KEY = KeyMaterial(FIPS_KEY_BYTES)
FUZZ_SEALED = seal(MODEL, FUZZ_KEY, chunk_size=4096)[0]
FUZZ_RAW = seal(MODEL, FUZZ_KEY, mode=CipherMode.RAW_ECB_PKCS7)[0]
MUTATION = st.tuples(st.sampled_from(["flip", "truncate", "flip-refix-crc"]),
                     st.integers(min_value=0, max_value=len(FUZZ_SEALED)),
                     st.integers(min_value=0, max_value=7))


class TestMutatedArtifacts:
    @settings(max_examples=300, deadline=None)
    @given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
    def test_only_taxonomy_errors(self, mutations):
        mutated = _mutate(FUZZ_SEALED, mutations)
        try:
            decode(mutated, len(mutated))
        except ModelVaultError:
            pass
        try:
            blob = unseal(mutated, FUZZ_KEY, SealedFormat.CONTAINER)
        except ModelVaultError:
            pass
        else:
            assert blob.to_bytes() == MODEL  # anything accepted is the sealed model

        # Raw .dat has no integrity check: an accepted output only has to be
        # the mutated input less its 1-16 padding bytes.
        mutated_raw = _mutate(FUZZ_RAW, mutations)
        try:
            blob = unseal(mutated_raw, FUZZ_KEY, SealedFormat.RAW_DAT)
        except ModelVaultError:
            return
        assert 1 <= len(mutated_raw) - len(blob) <= 16


def _put(offset: int, value: bytes, refix_crc: bool = False):
    def mutate(data: bytearray) -> bytearray:
        data[offset:offset + len(value)] = value
        if refix_crc:
            data[HEADER_SIZE - 4:HEADER_SIZE] = struct.pack("<I", zlib.crc32(data[:HEADER_SIZE - 4]))
        return data
    return mutate


def _flip_last_byte(data: bytearray) -> bytearray:
    data[-1] ^= 0x01
    return data


# Damage to FUZZ_SEALED (chunks of 4096, 4096 and 2048 bytes) and the error
# it must raise, whether the artifact is unsealed from bytes or from a file.
DAMAGE = {
    "magic": (_put(0, b"XXXX"), ModeError),
    "version": (_put(4, b"\x02"), VersionError),
    "crc": (_put(30, b"\x01"), CrcError),
    "mode-byte": (_put(6, b"\xff", refix_crc=True), InvariantError),
    "chunk-count": (_put(32, struct.pack("<I", 2), refix_crc=True), InvariantError),
    "table-entry": (_put(HEADER_SIZE + 12, struct.pack("<Q", 4097)), InvariantError),
    "short-header": (lambda data: data[:10], TruncationError),
    "short-table": (lambda data: data[:HEADER_SIZE + 12], TruncationError),
    "short-payload": (lambda data: data[:-1], TruncationError),
    "trailing-byte": (lambda data: data + b"\x00", InvariantError),
    # plaintext_len 2^64-1, chunk_size 1, chunk_count 2^32-1
    "huge-claimed-count": (_put(20, struct.pack("<QII", (1 << 64) - 1, 1, (1 << 32) - 1),
                                refix_crc=True), TruncationError),
    "payload-bit": (_flip_last_byte, DigestError),
}


def _write(tmp_path, data):
    path = tmp_path / "sealed.mvc"
    path.write_bytes(data)
    return path


def counting_reads(monkeypatch):
    """Record the bytes unseal_file reads; returns (file reads, pread counts).

    The file reads are every ``readinto`` and ``readall`` on the file that
    unseal_file opens; the pread counts are its positioned header reads.
    """
    reads, preads = [], []
    real_pread = os.pread

    class CountingFile(io.FileIO):
        def readinto(self, buf):
            n = super().readinto(buf)
            reads.append(n)
            return n

        def readall(self):
            data = super().readall()
            reads.append(len(data))
            return data

    def counting_pread(fd, n, offset):
        data = real_pread(fd, n, offset)
        preads.append(len(data))
        return data

    monkeypatch.setattr(unsealer_mod, "open", lambda path, mode, buffering: CountingFile(path),
                        raising=False)
    monkeypatch.setattr(os, "pread", counting_pread)
    return reads, preads


class TestUnsealFile:
    @pytest.mark.parametrize("reader", ["bytes", "file"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_raises_the_same_error_from_bytes_and_file(self, damage, reader,
                                                               tmp_path):
        mutate, error = DAMAGE[damage]
        data = bytes(mutate(bytearray(FUZZ_SEALED)))
        with pytest.raises(error):
            if reader == "bytes":
                unseal(data, FUZZ_KEY, SealedFormat.CONTAINER)
            else:
                unseal_file(_write(tmp_path, data), FUZZ_KEY, SealedFormat.CONTAINER)

    def test_a_damaged_count_reads_only_the_header(self, tmp_path, monkeypatch):
        mutate, error = DAMAGE["huge-claimed-count"]
        path = _write(tmp_path, bytes(mutate(bytearray(FUZZ_SEALED))))
        read = []
        real = unsealer_mod._read_exactly

        def counting_read(source, buf, *args):
            read.append(len(buf))
            return real(source, buf, *args)

        monkeypatch.setattr(unsealer_mod, "_read_exactly", counting_read)
        with pytest.raises(error):
            unseal_file(path, FUZZ_KEY, SealedFormat.CONTAINER)
        assert read == [HEADER_SIZE]

    @pytest.mark.parametrize("declared", [None, SealedFormat.CONTAINER])
    def test_container_round_trip(self, container_bytes, fips_key, tmp_path, declared,
                                  monkeypatch):
        calls = counting_decrypt(monkeypatch)
        blob = unseal_file(_write(tmp_path, container_bytes), fips_key, declared)
        assert blob.to_bytes() == MODEL
        assert blob.source_mode is CipherMode.CHUNKED_CTR
        assert calls == [0, 1, 2]

    def test_raw_dat_round_trip(self, raw_bytes, fips_key, tmp_path):
        blob = unseal_file(_write(tmp_path, raw_bytes), fips_key)
        assert blob.to_bytes() == MODEL
        assert blob.source_mode is CipherMode.RAW_ECB_PKCS7

    def test_raw_dat_is_decrypted_in_the_buffer_it_is_read_into(self, raw_bytes, fips_key,
                                                                 tmp_path, monkeypatch):
        reads, preads = counting_reads(monkeypatch)
        blob = unseal_file(_write(tmp_path, raw_bytes), fips_key)
        assert blob.to_bytes() == MODEL
        assert sum(reads) == len(raw_bytes) and preads == [HEADER_SIZE]
        buf = blob.data.obj
        assert type(buf) is bytearray and len(buf) == len(raw_bytes) + 15
        blob.release()
        pad = len(raw_bytes) - len(MODEL)
        assert buf == bytes(len(MODEL)) + bytes([pad]) * pad + bytes(15)

    def test_raw_dat_holds_the_plaintext_once(self, fips_key, tmp_path):
        size = 8 * 1024 * 1024
        sealed, _ = seal(bytes(size), fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        path = _write(tmp_path, sealed)
        del sealed
        tracemalloc.start()
        try:
            blob = unseal_file(path, fips_key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) == size
        assert peak <= 1.05 * size

    def test_raw_dat_that_shrinks_raises(self, raw_bytes, fips_key, tmp_path, monkeypatch):
        path = _write(tmp_path, raw_bytes)
        real = unsealer_mod._read_exactly

        def truncate_then_read(source, buf, *args):
            with open(path, "r+b") as handle:
                handle.truncate(len(raw_bytes) - 16)
            return real(source, buf, *args)

        monkeypatch.setattr(unsealer_mod, "_read_exactly", truncate_then_read)
        with pytest.raises(IoError, match="changed while it was being unsealed") as info:
            unseal_file(path, fips_key)
        assert info.value.path == str(path)

    @pytest.mark.parametrize("declared", [None, SealedFormat.RAW_DAT])
    def test_raw_dat_of_a_bad_length_reads_and_allocates_nothing(self, fips_key, tmp_path,
                                                                 monkeypatch, declared):
        path = _write(tmp_path, b"not a container")
        os.truncate(path, 8 * 1024 * 1024 + 1)  # sparse: 8 MiB and one byte
        reads, _ = counting_reads(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(LengthError):
                unseal_file(path, fips_key, declared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reads == []
        assert peak < 1024 * 1024

    def test_raw_dat_wrong_key_fails_padding_and_wipes(self, raw_bytes, other_key, tmp_path,
                                                       monkeypatch):
        wiped = []
        real = crypto_mod._wipe

        def recording_wipe(buf):
            real(buf)
            wiped.append(buf)

        monkeypatch.setattr(crypto_mod, "_wipe", recording_wipe)
        with pytest.raises(PaddingError):
            unseal_file(_write(tmp_path, raw_bytes), other_key)
        [buf] = wiped
        assert len(buf) == len(raw_bytes) + 15 and not any(buf)

    def test_raw_dat_declared_container_reads_only_the_header(self, raw_bytes, fips_key,
                                                              tmp_path, monkeypatch):
        path = _write(tmp_path, raw_bytes)
        with pytest.raises(ModeError) as from_bytes:
            unseal(raw_bytes, fips_key, SealedFormat.CONTAINER)
        reads, preads = counting_reads(monkeypatch)
        with pytest.raises(ModeError) as from_file:
            unseal_file(path, fips_key, SealedFormat.CONTAINER)
        assert str(from_file.value) == str(from_bytes.value)
        assert reads == [] and preads == [HEADER_SIZE]

    def test_empty_container(self, fips_key, tmp_path):
        sealed, _ = seal(b"", fips_key)
        assert unseal_file(_write(tmp_path, sealed), fips_key).to_bytes() == b""

    def test_raw_that_starts_with_the_magic_needs_the_raw_format(self, fips_key, tmp_path):
        # ECB: a first plaintext block that decrypts from MVC1... seals to MVC1...
        model = decrypt_block(fips_key, MAGIC + bytes(12)) + MODEL
        sealed, _ = seal(model, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert sealed[:4] == MAGIC
        path = _write(tmp_path, sealed)
        blob = unseal_file(path, fips_key, SealedFormat.RAW_DAT)
        assert blob.to_bytes() == model
        assert len(blob.data.obj) == len(sealed) + 15  # decrypted where it was read
        with pytest.raises(ContainerError):
            unseal_file(path, fips_key)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("declared", [None, SealedFormat.CONTAINER])
    def test_fifo_is_read_whole(self, container_bytes, fips_key, tmp_path, declared):
        fifo = tmp_path / "sealed.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(bytes(container_bytes),),
                                  daemon=True)
        writer.start()
        blob = unseal_file(fifo, fips_key, declared)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert blob.to_bytes() == MODEL

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("declared", [None, SealedFormat.RAW_DAT])
    def test_raw_fifo_is_read_whole(self, raw_bytes, fips_key, tmp_path, declared):
        fifo = tmp_path / "sealed.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(bytes(raw_bytes),),
                                  daemon=True)
        writer.start()
        blob = unseal_file(fifo, fips_key, declared)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert blob.to_bytes() == MODEL
        assert blob.source_mode is CipherMode.RAW_ECB_PKCS7

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_raw_fifo_is_decrypted_in_the_buffer_it_is_read_into(self, fips_key, tmp_path):
        size = 8 * 1024 * 1024
        sealed, _ = seal(bytes(size), fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        sealed = bytes(sealed)
        fifo = tmp_path / "sealed.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(sealed,), daemon=True)
        tracemalloc.start()
        try:
            writer.start()
            blob = unseal_file(fifo, fips_key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert blob.data == bytes(size)
        assert len(blob.data.obj) == len(sealed) + 15
        assert peak <= 1.2 * size

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("length", [0, 17])
    def test_raw_fifo_of_a_bad_length_raises(self, fips_key, tmp_path, length):
        fifo = tmp_path / "sealed.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(bytes(length),),
                                  daemon=True)
        writer.start()
        with pytest.raises(LengthError):
            unseal_file(fifo, fips_key, SealedFormat.RAW_DAT)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_wrong_key_allocates_no_buffer(self, container_bytes, other_key, tmp_path,
                                           monkeypatch):
        calls = counting_decrypt(monkeypatch)
        with pytest.raises(KeyMismatchError):
            unseal_file(_write(tmp_path, container_bytes), other_key)
        assert calls == []

    def test_file_that_shrinks_midway_raises_and_wipes(self, container_bytes, fips_key,
                                                       tmp_path, monkeypatch):
        path = _write(tmp_path, container_bytes)
        buffers = []
        real = unsealer_mod._decrypt_chunk

        def decrypt_then_truncate(key, nonce, index, ciphertext, out):
            if not buffers:
                buffers.append(out.obj)
                with open(path, "r+b") as handle:
                    handle.truncate(len(container_bytes) - 100)
            return real(key, nonce, index, ciphertext, out)

        monkeypatch.setattr(unsealer_mod, "_decrypt_chunk", decrypt_then_truncate)
        with pytest.raises(IoError, match="changed while it was being unsealed") as info:
            unseal_file(path, fips_key)
        assert info.value.path == str(path)
        assert buffers[0] == bytearray(len(MODEL))  # the blob buffer is wiped

    def test_holds_the_plaintext_once(self, fips_key, tmp_path):
        size = 8 * 1024 * 1024
        sealed, _ = seal(bytes(size), fips_key)
        path = _write(tmp_path, sealed)
        del sealed
        tracemalloc.start()
        try:
            blob = unseal_file(path, fips_key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) == size
        assert peak <= 1.05 * size


# Over one 2 MiB huge page, with a tail that fills no page; from 4 MiB on a
# mapping holds an aligned huge page wherever the kernel places it.
LARGE_MODEL = bytes(range(256)) * (5 * 4096) + b"tail"


def _thp_mode() -> str:
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as modes:
            return modes.read().split("[")[1].split("]")[0]
    except (OSError, IndexError):
        return "unavailable"


def _anon_huge_kb(address: int) -> int:
    """AnonHugePages of the mapping that holds ``address``, from /proc/self/smaps."""
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            first = line.split()[0]
            if "-" in first and not first.endswith(":"):
                start, end = (int(bound, 16) for bound in first.split("-"))
                inside = start <= address < end
            elif inside and first == "AnonHugePages:":
                return int(line.split()[1])
    raise AssertionError(f"no mapping holds {address:#x}")


def _unseal_large(how, sealed, key, tmp_path):
    if how == "unseal":
        return unseal(sealed, key, SealedFormat.CONTAINER)
    if how == "unseal_parallel":
        return unseal_parallel(sealed, key)
    if how == "unseal_file":
        return unseal_file(_write(tmp_path, sealed), key)
    done = []
    handle = unseal_background(sealed, key, on_done=lambda *outcome: done.append(outcome))
    assert handle.wait(10)
    [(blob, error)] = done
    assert error is None
    return blob


class TestLargeBlob:
    """A plaintext of one huge page or more lives in a mapping of its own."""

    @pytest.fixture(scope="class")
    def large_sealed(self):
        return seal(LARGE_MODEL, FUZZ_KEY)[0]

    @pytest.mark.parametrize("how", ["unseal", "unseal_parallel", "unseal_background",
                                     "unseal_file"])
    def test_round_trip_in_a_mapping(self, how, large_sealed, tmp_path):
        blob = _unseal_large(how, large_sealed, FUZZ_KEY, tmp_path)
        assert isinstance(blob.data.obj, mmap.mmap)
        assert len(blob) == len(LARGE_MODEL)
        assert blob.to_bytes() == LARGE_MODEL
        assert blob.digest == sha256(LARGE_MODEL)
        assert repr(blob).startswith(f"ModelBlob({len(LARGE_MODEL)} bytes, sha256=")

    def test_release_zeroes_views_and_data(self, large_sealed):
        blob = unseal(large_sealed, FUZZ_KEY, SealedFormat.CONTAINER)
        view = blob.data
        blob.release()
        assert not any(view)
        assert not any(blob.data)
        assert len(blob) == len(LARGE_MODEL)
        assert repr(blob) == "ModelBlob(released, sha256=" + blob.digest.hex()[:16] + "…)"

    def test_counted_by_tracemalloc_until_collected(self, large_sealed):
        n = len(LARGE_MODEL)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            blob = unseal(large_sealed, FUZZ_KEY, SealedFormat.CONTAINER)
            living = tracemalloc.get_traced_memory()[0] - baseline
            mapping = weakref.ref(blob.data.obj)
            del blob
            gc.collect()
            collected = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert mapping() is None  # unmapped with the blob
        assert living >= n
        assert collected < n // 2

    def test_refused_advice_still_round_trips(self, large_sealed, monkeypatch):
        # Advice values no kernel knows: every madvise call raises OSError.
        monkeypatch.setattr(crypto_mod, "_ADVICE", (0x7FFF, 0x7FFE))
        with mmap.mmap(-1, mmap.PAGESIZE) as probe, pytest.raises(OSError):
            probe.madvise(0x7FFF)
        blob = unseal(large_sealed, FUZZ_KEY, SealedFormat.CONTAINER)
        assert isinstance(blob.data.obj, mmap.mmap)
        assert blob.to_bytes() == LARGE_MODEL

    def test_one_mib_stays_on_the_heap(self):
        model = bytes(1 << 20)
        blob = unseal(seal(model, FUZZ_KEY)[0], FUZZ_KEY, SealedFormat.CONTAINER)
        assert type(blob.data.obj) is bytearray
        assert blob.to_bytes() == model

    @pytest.mark.skipif(_thp_mode() not in ("always", "madvise"),
                        reason="transparent huge pages are off or absent")
    def test_mapping_gets_huge_pages(self, large_sealed):
        blob = unseal(large_sealed, FUZZ_KEY, SealedFormat.CONTAINER)
        assert _anon_huge_kb(blob.data.obj.address) > 0

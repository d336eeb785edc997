"""Unit tests for in-memory unsealing: sync, parallel, and background."""

import gc
import io
import mmap
import os
import random
import struct
import sys
import threading
import time
import tracemalloc
import types
import weakref
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelvault._files as files_mod
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

    def test_cancel_before_the_runner_starts(self, container_bytes, fips_key, monkeypatch):
        # The runner thread starts only once cancel() has returned, so the
        # cancel is seen before the first chunk, every time.
        deferred = []

        class DeferredThread(threading.Thread):
            def start(self):
                deferred.append(self)

        monkeypatch.setattr(unsealer_mod, "threading", types.SimpleNamespace(
            Thread=DeferredThread, Event=threading.Event, Lock=threading.Lock))
        calls = counting_decrypt(monkeypatch)
        sink = Collector()
        handle = unseal_background(container_bytes, fips_key,
                                   on_progress=sink.on_progress, on_done=sink.on_done)
        handle.cancel()
        [runner] = deferred
        threading.Thread.start(runner)
        assert handle.wait(10)
        assert handle.state() == "cancelled"
        [(blob, error)] = sink.done
        assert blob is None
        assert isinstance(error, CancelledError) and "before decryption" in str(error)
        assert calls == [] and sink.progress == []

    def test_runner_that_cannot_start_is_reported_via_on_done(self, container_bytes,
                                                              fips_key, monkeypatch):
        start = threading.Thread.start

        def cannot_start_the_runner(thread):
            if thread.name == "mvc-unseal":
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", cannot_start_the_runner)
        done = []
        handle = unseal_background(container_bytes, fips_key, on_done=lambda *outcome:
                                   done.append((*outcome, threading.current_thread())))
        assert handle.wait(0)
        assert handle.state() == "failed"
        [(blob, error, thread)] = done
        assert blob is None and isinstance(error, RuntimeError)
        assert thread is threading.current_thread()

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


def counting_hash_chunk(monkeypatch, fail_at=None, delay=0.0):
    """Instrument _hash_chunk; returns (piece bytes, thread) per call, in call order.

    Call number ``fail_at`` (from 0) raises instead of hashing; each call
    first sleeps ``delay`` seconds.
    """
    calls = []
    real = unsealer_mod._hash_chunk

    def wrapper(sha, piece):
        if delay:
            time.sleep(delay)
        if len(calls) == fail_at:
            raise RuntimeError("hash bug")
        calls.append((bytes(piece), threading.current_thread()))
        return real(sha, piece)

    monkeypatch.setattr(unsealer_mod, "_hash_chunk", wrapper)
    return calls


def hash_helpers():
    return [t for t in threading.enumerate() if t.name == "mvc-hash"]


class TestSingleHashPass:
    @pytest.mark.parametrize("path", sorted(CONTAINER_PATHS))
    def test_plaintext_hashed_once(self, path, fips_key, monkeypatch):
        # Random bytes, so a piece hashed out of place or twice cannot
        # match by accident (MODEL repeats every 256 bytes).
        model = random.Random(28).randbytes(10240)
        sealed, _ = seal(model, fips_key, chunk_size=4096)
        whole = counting_sha256(monkeypatch)
        calls = counting_hash_chunk(monkeypatch)
        blob = CONTAINER_PATHS[path](sealed, fips_key)
        pieces = [piece for piece, _ in calls]
        assert whole == []
        assert [len(p) for p in pieces] == [4096, 4096, 2048]
        assert b"".join(pieces) == model  # contiguous, in order, each byte once
        assert blob.digest == sha256(blob.data) == sha256(model)

    def test_unseal_file_hashes_each_byte_once(self, fips_key, monkeypatch, tmp_path):
        model = random.Random(29).randbytes(10240)
        path = tmp_path / "model.bin"
        path.write_bytes(seal(model, fips_key, chunk_size=4096)[0])
        whole = counting_sha256(monkeypatch)
        calls = counting_hash_chunk(monkeypatch)
        blob = unseal_file(path, fips_key)
        assert whole == []
        assert b"".join(piece for piece, _ in calls) == model
        assert blob.digest == sha256(model)
        [helper] = {thread for _, thread in calls}
        assert helper.name == "mvc-hash" and not helper.is_alive()


def recording_buffers(monkeypatch):
    """Record every plaintext buffer _secret_buffer hands the unsealer."""
    buffers = []
    real = unsealer_mod._secret_buffer

    def wrapper(n):
        buffers.append(real(n))
        return buffers[-1]

    monkeypatch.setattr(unsealer_mod, "_secret_buffer", wrapper)
    return buffers


def recording_wipes(monkeypatch):
    """Record, for every wipe, whether a hash helper was still alive."""
    helpers_alive = []
    real = unsealer_mod._wipe

    def wrapper(buf):
        helpers_alive.append(bool(hash_helpers()))
        return real(buf)

    monkeypatch.setattr(unsealer_mod, "_wipe", wrapper)
    return helpers_alive


class TestHashHelper:
    """One helper thread per unseal hashes the chunks; it never outlives the call."""

    @pytest.mark.parametrize("path", sorted(CONTAINER_PATHS))
    def test_one_helper_hashes_every_chunk_and_is_gone_after(self, path, container_bytes,
                                                             fips_key, monkeypatch):
        calls = counting_hash_chunk(monkeypatch)
        blob = CONTAINER_PATHS[path](container_bytes, fips_key)
        assert blob.to_bytes() == MODEL
        [helper] = {thread for _, thread in calls}
        assert helper.name == "mvc-hash" and helper.daemon
        assert not helper.is_alive() and hash_helpers() == []

    def test_digest_failure_joins_the_helper_then_wipes(self, container_bytes, fips_key,
                                                        monkeypatch):
        mutated = bytearray(container_bytes)
        mutated[-1] ^= 0x01
        counting_hash_chunk(monkeypatch, delay=0.02)  # the helper lags the decrypts
        buffers = recording_buffers(monkeypatch)
        helpers_alive = recording_wipes(monkeypatch)
        with pytest.raises(DigestError):
            unseal(bytes(mutated), fips_key, SealedFormat.CONTAINER)
        [buf] = buffers
        assert helpers_alive == [False]
        assert bytes(buf) == bytes(len(MODEL))
        assert hash_helpers() == []

    def test_concurrent_unseals_under_fast_switching(self, fips_key):
        # More unsealing threads than CPUs, each with its own helper, and a
        # GIL handed over every microsecond: every digest must still check.
        model = random.Random(30).randbytes(65536)
        sealed, _ = seal(model, fips_key, chunk_size=4096)  # 16 chunks
        results = []

        def unseal_many():
            for _ in range(10):
                blob = unseal(sealed, fips_key, SealedFormat.CONTAINER)
                results.append(blob.to_bytes() == model)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=unseal_many) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [True] * 60
        assert hash_helpers() == []

    def test_wrong_key_starts_no_helper(self, container_bytes, other_key, monkeypatch):
        calls = counting_hash_chunk(monkeypatch)
        with pytest.raises(KeyMismatchError):
            unseal(container_bytes, other_key, SealedFormat.CONTAINER)
        assert calls == [] and hash_helpers() == []

    def test_background_cancel_joins_the_helper_then_wipes(self, fips_key, monkeypatch):
        model = bytes(range(256)) * 160  # 10 chunks
        sealed, _ = seal(model, fips_key, chunk_size=4096)
        counting_decrypt(monkeypatch, delay=0.05)
        counting_hash_chunk(monkeypatch, delay=0.02)
        buffers = recording_buffers(monkeypatch)
        helpers_alive = recording_wipes(monkeypatch)
        sink = Collector()
        handle = unseal_background(sealed, fips_key, on_progress=sink.on_progress,
                                   on_done=sink.on_done)
        deadline = time.time() + 5
        while not sink.progress and time.time() < deadline:
            time.sleep(0.01)
        handle.cancel()
        assert handle.wait(10)
        assert handle.state() == "cancelled"
        [buf] = buffers
        assert helpers_alive == [False]
        assert bytes(buf) == bytes(len(model))
        assert hash_helpers() == []

    def test_raising_progress_sink_joins_the_helper_then_wipes(self, container_bytes,
                                                              fips_key, monkeypatch):
        counting_hash_chunk(monkeypatch, delay=0.02)
        buffers = recording_buffers(monkeypatch)
        helpers_alive = recording_wipes(monkeypatch)
        sink = Collector()

        def explosive(event):
            raise RuntimeError("progress bug")

        handle = unseal_background(container_bytes, fips_key, on_progress=explosive,
                                   on_done=sink.on_done)
        assert handle.wait(10)
        assert handle.state() == "failed"
        [buf] = buffers
        assert helpers_alive == [False]
        assert bytes(buf) == bytes(len(MODEL))
        assert hash_helpers() == []

    def test_a_failing_hash_fails_the_unseal(self, container_bytes, fips_key, monkeypatch):
        counting_hash_chunk(monkeypatch, fail_at=1)
        buffers = recording_buffers(monkeypatch)
        helpers_alive = recording_wipes(monkeypatch)
        with pytest.raises(RuntimeError, match="hash bug"):
            unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        [buf] = buffers
        assert helpers_alive == [False]
        assert bytes(buf) == bytes(len(MODEL))
        assert hash_helpers() == []

    def test_one_chunk_and_raw_start_no_thread(self, fips_key, raw_bytes, monkeypatch,
                                               tmp_path):
        one_chunk, _ = seal(MODEL, fips_key)  # MODEL fits the default chunk
        path = tmp_path / "model.bin.dat"
        path.write_bytes(raw_bytes)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        blobs = [unseal(one_chunk, fips_key, SealedFormat.CONTAINER),
                 unseal_parallel(one_chunk, fips_key),
                 unseal(raw_bytes, fips_key, SealedFormat.RAW_DAT),
                 unseal_file(path, fips_key)]
        assert all(blob.digest == sha256(MODEL) for blob in blobs)

    def test_no_thread_to_start_hashes_inline(self, container_bytes, fips_key, monkeypatch):
        def cannot_start(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", cannot_start)
        calls = counting_hash_chunk(monkeypatch)
        blob = unseal(container_bytes, fips_key, SealedFormat.CONTAINER)
        assert blob.to_bytes() == MODEL and blob.digest == sha256(MODEL)
        assert {thread for _, thread in calls} == {threading.current_thread()}


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


def _unseal_fifo(tmp_path, data, key, declared=None):
    """unseal_file of a FIFO that a writer thread fills with ``data``."""
    fifo = tmp_path / "sealed.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return unseal_file(fifo, key, declared)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def counting_reads(monkeypatch):
    """Record the bytes unseal_file reads; returns (file reads, pread counts, opened paths).

    The file reads are every ``readinto`` and ``readall`` on the file that
    unseal_file opens; the pread counts are its positioned header reads.
    The opened paths show that the file was opened through the fake.
    """
    reads, preads, opened = [], [], []
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

    def counting_open(path, mode, buffering):
        opened.append(path)
        return CountingFile(path)

    monkeypatch.setattr(files_mod, "open", counting_open, raising=False)
    monkeypatch.setattr(os, "pread", counting_pread)
    return reads, preads, opened


class TestUnsealFile:
    @pytest.mark.parametrize("reader", [
        "bytes", "file",
        pytest.param("fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                      reason="needs named pipes"))])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_raises_the_same_error_from_bytes_and_file(self, damage, reader,
                                                               tmp_path):
        mutate, error = DAMAGE[damage]
        data = bytes(mutate(bytearray(FUZZ_SEALED)))
        with pytest.raises(error):
            if reader == "bytes":
                unseal(data, FUZZ_KEY, SealedFormat.CONTAINER)
            elif reader == "file":
                unseal_file(_write(tmp_path, data), FUZZ_KEY, SealedFormat.CONTAINER)
            else:
                _unseal_fifo(tmp_path, data, FUZZ_KEY, SealedFormat.CONTAINER)

    def test_a_damaged_count_reads_only_the_header(self, tmp_path, monkeypatch):
        mutate, error = DAMAGE["huge-claimed-count"]
        path = _write(tmp_path, bytes(mutate(bytearray(FUZZ_SEALED))))
        read = []
        real = unsealer_mod._read_exactly

        def counting_read(source, buf, *args):
            read.append(len(buf))
            return real(source, buf, *args)

        monkeypatch.setattr(unsealer_mod, "_read_exactly", counting_read)
        _, preads, _ = counting_reads(monkeypatch)
        with pytest.raises(error):
            unseal_file(path, FUZZ_KEY, SealedFormat.CONTAINER)
        assert read == [] and preads == [HEADER_SIZE]

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
        reads, preads, opened = counting_reads(monkeypatch)
        path = _write(tmp_path, raw_bytes)
        blob = unseal_file(path, fips_key)
        assert blob.to_bytes() == MODEL
        assert sum(reads) == len(raw_bytes) and preads == [HEADER_SIZE] and opened == [path]
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
        reads, _, opened = counting_reads(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(LengthError):
                unseal_file(path, fips_key, declared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reads == [] and opened == [path]
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
        reads, preads, opened = counting_reads(monkeypatch)
        with pytest.raises(ModeError) as from_file:
            unseal_file(path, fips_key, SealedFormat.CONTAINER)
        assert str(from_file.value) == str(from_bytes.value)
        assert reads == [] and preads == [HEADER_SIZE] and opened == [path]

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
    @pytest.mark.parametrize("fmt", ["container", "raw"])
    def test_fifo_is_read_into_a_heap_buffer_off_linux(self, container_bytes, raw_bytes,
                                                       fips_key, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(crypto_mod, "_MAP_FLAGS", None)  # no anonymous mappings
        sealed = bytes(container_bytes if fmt == "container" else raw_bytes)
        fifo = tmp_path / "sealed.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(sealed,), daemon=True)
        writer.start()
        blob = unseal_file(fifo, fips_key)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert blob.to_bytes() == MODEL
        assert type(blob.data.obj) is crypto_mod._HeapBuffer

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
    @pytest.mark.parametrize("flip", [False, True], ids=["intact", "flipped-bit"])
    def test_container_fifo_is_decrypted_in_the_buffer_it_is_read_into(
            self, fips_key, tmp_path, monkeypatch, flip):
        size = 8 * 1024 * 1024
        model = random.Random(3).randbytes(size)
        sealed, _ = seal(model, fips_key)
        if flip:
            sealed[-1] ^= 1
        sealed = bytes(sealed)
        wiped = []
        real_wipe = unsealer_mod._wipe

        def recording_wipe(buf):
            real_wipe(buf)
            wiped.append(buf)

        monkeypatch.setattr(unsealer_mod, "_wipe", recording_wipe)
        fifo = tmp_path / "sealed.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(sealed,), daemon=True)
        tracemalloc.start()
        try:
            writer.start()
            if flip:
                with pytest.raises(DigestError):
                    unseal_file(fifo, fips_key)
            else:
                blob = unseal_file(fifo, fips_key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        writer.join(timeout=10)
        assert not writer.is_alive()
        if flip:
            [payload] = wiped
            assert len(payload) == size and payload == bytes(size)
            assert isinstance(payload.obj, mmap.mmap) and len(payload.obj) == len(sealed)
        else:
            assert wiped == [] and blob.data == model
            assert isinstance(blob.data.obj, mmap.mmap) and len(blob.data.obj) == len(sealed)
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

    def test_wrong_key_allocates_no_buffer(self, fips_key, other_key, tmp_path,
                                           monkeypatch):
        size = 8 * 1024 * 1024
        sealed, _ = seal(bytes(size), fips_key)
        path = _write(tmp_path, sealed)
        del sealed
        calls = counting_decrypt(monkeypatch)
        reads, preads, opened = counting_reads(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(KeyMismatchError):
                unseal_file(path, other_key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and reads == [] and preads == [HEADER_SIZE] and opened == [path]
        assert peak < 1024 * 1024

    def test_file_that_shrinks_midway_raises(self, container_bytes, fips_key, tmp_path,
                                             monkeypatch):
        path = _write(tmp_path, container_bytes)
        calls = counting_decrypt(monkeypatch)
        real = unsealer_mod._read_exactly

        def truncate_then_read(source, buf, *args):
            with open(path, "r+b") as handle:
                handle.truncate(len(container_bytes) - 100)
            return real(source, buf, *args)

        monkeypatch.setattr(unsealer_mod, "_read_exactly", truncate_then_read)
        with pytest.raises(IoError, match="changed while it was being unsealed") as info:
            unseal_file(path, fips_key)
        assert info.value.path == str(path)
        assert calls == []  # refused before any plaintext exists

    @pytest.mark.parametrize("fmt", ["container", "raw"])
    def test_file_that_grows_midway_raises(self, container_bytes, raw_bytes, fips_key,
                                           tmp_path, monkeypatch, fmt):
        # At rest, the same bytes plus 16 would raise InvariantError or PaddingError.
        path = _write(tmp_path, container_bytes if fmt == "container" else raw_bytes)
        calls = counting_decrypt(monkeypatch)
        real = unsealer_mod._read_exactly

        def append_then_read(source, buf, *args):
            with open(path, "ab") as handle:
                handle.write(bytes(16))
            return real(source, buf, *args)

        monkeypatch.setattr(unsealer_mod, "_read_exactly", append_then_read)
        with pytest.raises(IoError, match="changed while it was being unsealed") as info:
            unseal_file(path, fips_key)
        assert info.value.path == str(path)
        assert calls == []

    def test_file_that_shrinks_before_its_header_is_read_raises(self, container_bytes,
                                                                fips_key, tmp_path,
                                                                monkeypatch):
        path = _write(tmp_path, container_bytes)
        real_pread = os.pread

        def truncate_then_pread(fd, n, offset):
            os.truncate(path, 10)
            return real_pread(fd, n, offset)

        monkeypatch.setattr(os, "pread", truncate_then_pread)
        with pytest.raises(IoError, match="changed while it was being unsealed") as info:
            unseal_file(path, fips_key, SealedFormat.CONTAINER)
        assert info.value.path == str(path)

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


def _smaps_kb(address: int, name: str) -> int:
    """Field ``name`` (say ``Rss``), in kB, of the mapping that holds ``address``."""
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            first = line.split()[0]
            if "-" in first and not first.endswith(":"):
                start, end = (int(bound, 16) for bound in first.split("-"))
                inside = start <= address < end
            elif inside and first == f"{name}:":
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
        # An advice value no kernel knows: every madvise call raises OSError.
        monkeypatch.setattr(crypto_mod, "_MADV_HUGEPAGE", 0x7FFF)
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
        assert _smaps_kb(blob.data.obj.address, "AnonHugePages") > 0

    def test_mapping_is_faulted_in_by_its_writes(self):
        # No page is resident until a write fills it, so an unseal faults
        # the plaintext in chunk by chunk, not all at once up front.
        n = 8 << 20
        buf = crypto_mod._secret_buffer(n)
        assert _smaps_kb(buf.address, "Rss") == 0
        buf[:] = bytes([0xA5]) * n
        assert _smaps_kb(buf.address, "Rss") == n >> 10

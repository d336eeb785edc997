"""Unsealing: decrypt a sealed model entirely in memory.

Nothing in this module writes to storage; the decrypted model only ever
exists as an in-process buffer that the caller can hand to an ML runtime
and explicitly wipe afterwards. Three entry points share one chunk
engine, ``_decrypt_chunks``:

* unseal            - synchronous, single-threaded
* unseal_parallel   - synchronous, chunks fan out over a worker pool
                      whenever more than one worker can be used
* unseal_background - returns at once; workers decrypt while progress and
                      completion callbacks fire, and a handle can cancel

Each chunk is decrypted from a view of the sealed bytes straight into
the blob's buffer, and the blob's own digest is the one checked against
the container: plaintext is written once and hashed once.

Container payloads are checked twice: the key fingerprint before any
ciphertext is touched (wrong key fails fast, without decrypting), and the
plaintext digest after assembly (corruption fails loud). The raw ``.dat``
layout has no metadata, so there a wrong key only surfaces as a padding
failure, exactly like the pipeline it is byte-compatible with.

Zeroization caveat: release() wipes the blob's own buffer. On the
container path no per-chunk plaintext exists outside it, and to_bytes()
is the only copy, which is the caller's to manage. The raw path goes
through immutable bytes from the cipher that no wipe reaches; treat the
wipe as hygiene, not as a hard memory guarantee.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Optional

from .container import MAGIC, SealedContainer, SealedFormat, decode
from .crypto import CipherMode, KeyMaterial, ctr_crypt, ecb_decrypt, sha256
from .errors import CancelledError, DigestError, KeyMismatchError, ModeError, RangeError


class ModelBlob:
    """Decrypted model bytes held in memory, plus their SHA-256 digest.

    The digest check stands in for "the model loads": feed ``data`` to
    your interpreter, then call release() to zero the buffer.
    """

    def __init__(self, buf: bytearray, source_mode: CipherMode):
        self._buf = buf
        self.digest = sha256(buf)
        self.source_mode = source_mode
        self._released = False

    @property
    def data(self) -> memoryview:
        """Read-only view of the plaintext. Zeroed once released."""
        return memoryview(self._buf).toreadonly()

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def released(self) -> bool:
        return self._released

    def to_bytes(self) -> bytes:
        """Copy out the plaintext (the copy is the caller's to manage)."""
        return bytes(self._buf)

    def release(self) -> None:
        """Overwrite the buffer with zeros. Safe to call twice."""
        _wipe(self._buf)
        self._released = True

    def __repr__(self) -> str:
        state = "released" if self._released else f"{len(self._buf)} bytes"
        return f"ModelBlob({state}, sha256={self.digest.hex()[:16]}…)"


@dataclass(frozen=True)
class UnsealProgress:
    """One progress event: how many chunks and bytes are decrypted so far."""

    chunks_done: int
    chunks_total: int
    bytes_done: int


ProgressSink = Callable[[UnsealProgress], None]
DoneSink = Callable[[Optional[ModelBlob], Optional[Exception]], None]

_ZEROS = memoryview(bytes(64 * 1024))


def _wipe(buf: bytearray) -> None:
    # Block by block, so wiping allocates nothing the size of the plaintext.
    view = memoryview(buf)
    for start in range(0, len(view), len(_ZEROS)):
        piece = view[start : start + len(_ZEROS)]
        piece[:] = _ZEROS[: len(piece)]


def _decrypt_chunk(key: KeyMaterial, nonce: bytes, index: int, ciphertext: memoryview,
                   out: memoryview) -> None:
    # Module-level indirection so tests can count or slow chunk decryption.
    ctr_crypt(ciphertext, key, nonce, index, out=out)


def _open_container(sealed: bytes, key: KeyMaterial) -> SealedContainer:
    """Decode and fingerprint-check; no payload bytes are decrypted here.

    Inputs that do not even start with the container magic get ModeError
    (a raw .dat handed to the chunked path). Anything magic-prefixed is
    treated as a container, so corruption surfaces as the precise
    CrcError/VersionError/TruncationError instead of being misread as a
    format mix-up.
    """
    if sealed[:4] != MAGIC:
        raise ModeError("not a sealed container; raw .dat payloads cannot be chunk-parallelized")
    parsed = decode(sealed)
    if parsed.header.key_fingerprint != key.fingerprint:
        raise KeyMismatchError(
            f"container was sealed under key {parsed.header.key_fingerprint.hex()}, "
            f"got {key.fingerprint.hex()}"
        )
    return parsed


def _decrypt_chunks(
    parsed: SealedContainer,
    key: KeyMaterial,
    buf: bytearray,
    workers: int,
    on_chunk: ProgressSink | None,
    cancelled: Callable[[], bool] | None,
) -> None:
    """Decrypt every chunk of ``parsed`` into its own slice of ``buf``.

    Runs inline when only one worker can be used, otherwise over a thread
    pool. After each chunk lands, on the calling thread, ``cancelled`` is
    polled (true raises CancelledError) and ``on_chunk`` gets a progress
    event. On any exit the pool has drained: chunks not yet started are
    dropped and in-flight chunks have finished.
    """
    nonce = parsed.header.file_nonce
    payload, out = memoryview(parsed.payload), memoryview(buf)
    total = parsed.header.chunk_count

    def work(index: int) -> int:
        entry = parsed.chunk_table[index]
        span = slice(entry.ciphertext_offset, entry.ciphertext_offset + entry.plaintext_len)
        _decrypt_chunk(key, nonce, index, payload[span], out[span])
        return entry.plaintext_len

    pool_size = min(workers, total)
    pool = ThreadPoolExecutor(pool_size, thread_name_prefix="mvc-chunk") if pool_size > 1 else None
    try:
        if pool is None:
            landed = map(work, range(total))
        else:
            futures = [pool.submit(work, index) for index in range(total)]
            landed = (future.result() for future in as_completed(futures))
        chunks_done = bytes_done = 0
        for nbytes in landed:
            if cancelled is not None and cancelled():
                raise CancelledError("cancelled while decrypting")
            chunks_done += 1
            bytes_done += nbytes
            if on_chunk is not None:
                on_chunk(UnsealProgress(chunks_done, total, bytes_done))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _unseal_container(
    sealed: bytes,
    key: KeyMaterial,
    workers: int | None,
    on_chunk: ProgressSink | None = None,
    cancelled: Callable[[], bool] | None = None,
) -> ModelBlob:
    """Open, decrypt and verify a container; the buffer is wiped on any failure."""
    parsed = _open_container(sealed, key)
    if workers is None:
        workers = default_workers(parsed.header.chunk_count)
    if workers < 1:
        raise RangeError(f"workers must be at least 1, got {workers}")
    buf = bytearray(parsed.header.plaintext_len)
    try:
        _decrypt_chunks(parsed, key, buf, workers, on_chunk, cancelled)
        blob = ModelBlob(buf, CipherMode.CHUNKED_CTR)
        if blob.digest != parsed.header.plaintext_digest:
            raise DigestError("decrypted plaintext does not match the container digest")
    except BaseException:
        _wipe(buf)
        raise
    return blob


def unseal(sealed: bytes, key: KeyMaterial, declared_format: SealedFormat) -> ModelBlob:
    """Decrypt a sealed artifact of a known format, in memory.

    Raw artifacts rely on padding validity alone; containers verify the
    key fingerprint first and the plaintext digest afterwards.
    """
    if declared_format is SealedFormat.RAW_DAT:
        return ModelBlob(bytearray(ecb_decrypt(sealed, key)), CipherMode.RAW_ECB_PKCS7)
    return _unseal_container(sealed, key, workers=1)


def default_workers(chunk_count: int) -> int:
    """Worker-count default: processors this process may run on, capped at chunk count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, min(len(os.sched_getaffinity(0)), chunk_count))
    return max(1, min(os.cpu_count() or 1, chunk_count))


def unseal_parallel(sealed: bytes, key: KeyMaterial, workers: int | None = None) -> ModelBlob:
    """Decrypt a container with chunks spread over a thread pool.

    Output is byte-identical to unseal() for any worker count; surplus
    workers are never started, and a single usable worker runs inline
    with no pool. Raw artifacts are rejected with ModeError (the padding
    chain cannot be split safely).
    """
    return _unseal_container(sealed, key, workers)


class UnsealHandle:
    """Owner's view of a background unseal: observe state, wait, cancel."""

    def __init__(self):
        self._done_event = threading.Event()
        self._lock = threading.Lock()
        self._state = "running"
        self._cancel_requested = threading.Event()

    def state(self) -> str:
        """One of "running", "done", "failed", "cancelled"."""
        with self._lock:
            return self._state

    def cancel(self) -> None:
        """Request cancellation; returns immediately.

        Chunks not yet started are dropped, in-flight chunks finish but
        their output is discarded, every produced plaintext buffer is
        wiped, and on_done fires once with CancelledError.
        """
        self._cancel_requested.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state. True if it did."""
        return self._done_event.wait(timeout)

    def _settle(self, state: str) -> bool:
        with self._lock:
            if self._state != "running":
                return False
            self._state = state
        return True


def unseal_background(
    sealed: bytes,
    key: KeyMaterial,
    workers: int | None = None,
    on_progress: ProgressSink | None = None,
    on_done: DoneSink | None = None,
) -> UnsealHandle:
    """Start decrypting on background workers and return immediately.

    The scheduling call does no decoding or decryption itself. Progress
    events (one per finished chunk, monotone, ending at chunks_total) and
    the final outcome arrive on the sinks, which are invoked from worker
    threads. Every failure, including bad input, is delivered through
    on_done as ``on_done(None, error)``; nothing is raised here. On
    success on_done receives ``(blob, None)``.
    """
    handle = UnsealHandle()

    def run() -> None:
        blob: ModelBlob | None = None
        error: Exception | None = None
        try:
            if handle._cancel_requested.is_set():
                raise CancelledError("cancelled before decryption started")
            blob = _unseal_container(sealed, key, workers, on_progress,
                                     handle._cancel_requested.is_set)
            state = "done"
        except CancelledError as exc:
            state, error = "cancelled", exc
        except Exception as exc:
            state, error = "failed", exc
        if not handle._settle(state):
            return
        handle._done_event.set()
        if on_done is not None:
            try:
                on_done(blob, error)
            except Exception:
                pass  # a completion sink that throws has nowhere better to go

    threading.Thread(target=run, name="mvc-unseal", daemon=True).start()
    return handle

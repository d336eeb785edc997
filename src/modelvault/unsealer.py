"""Unsealing: decrypt a sealed model entirely in memory.

Nothing in this module writes to storage; the decrypted model only ever
exists as an in-process buffer that the caller can hand to an ML runtime
and explicitly wipe afterwards. Three entry points share one chunk
engine, ``_decrypt_chunks``, which decrypts the chunks in order on the
thread that runs it (AES holds the GIL, so more threads would not help):

* unseal            - synchronous, on the calling thread
* unseal_parallel   - the same, for containers only, under an older
                      name; its worker count is checked, then ignored
* unseal_background - returns at once; one runner thread decrypts while
                      progress and completion callbacks fire, and a
                      handle can cancel

Each chunk is decrypted from a view of the sealed bytes straight into
the blob's buffer, and the blob's own digest is the one checked against
the container: plaintext is written once and hashed once.

Container payloads are checked twice: the key fingerprint before any
ciphertext is touched (wrong key fails fast, without decrypting), and the
plaintext digest after assembly (corruption fails loud). The raw ``.dat``
layout has no metadata, so there a wrong key only surfaces as a padding
failure, exactly like the pipeline it is byte-compatible with.

Zeroization caveat: release() wipes the blob's own buffer. On both the
container and the raw path the plaintext is decrypted straight into that
buffer, and to_bytes() is the only copy, which is the caller's to
manage. Treat the wipe as hygiene, not as a hard memory guarantee.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .container import MAGIC, SealedContainer, SealedFormat, chunk_slices, decode
from .crypto import CipherMode, KeyMaterial, _wipe, ctr_crypt, ecb_decrypt, sha256
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
        raise ModeError("not a sealed container; unseal a raw .dat in the raw format")
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
    on_chunk: ProgressSink | None,
    cancelled: Callable[[], bool] | None,
) -> None:
    """Decrypt every chunk of ``parsed``, in order, into its slice of ``buf``.

    After each chunk ``cancelled`` is polled (true raises CancelledError)
    and ``on_chunk`` gets a progress event.
    """
    h = parsed.header
    payload, out = memoryview(parsed.payload), memoryview(buf)
    for index, span in enumerate(chunk_slices(h.plaintext_len, h.chunk_size)):
        _decrypt_chunk(key, h.file_nonce, index, payload[span], out[span])
        if cancelled is not None and cancelled():
            raise CancelledError("cancelled while decrypting")
        if on_chunk is not None:
            on_chunk(UnsealProgress(index + 1, h.chunk_count, span.stop))


def _unseal_container(
    sealed: bytes,
    key: KeyMaterial,
    on_chunk: ProgressSink | None = None,
    cancelled: Callable[[], bool] | None = None,
) -> ModelBlob:
    """Open, decrypt and verify a container; the buffer is wiped on any failure."""
    parsed = _open_container(sealed, key)
    buf = bytearray(parsed.header.plaintext_len)
    try:
        _decrypt_chunks(parsed, key, buf, on_chunk, cancelled)
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
        return ModelBlob(ecb_decrypt(sealed, key), CipherMode.RAW_ECB_PKCS7)
    return _unseal_container(sealed, key)


def unseal_parallel(sealed: bytes, key: KeyMaterial, workers: int | None = None) -> ModelBlob:
    """Decrypt a container on the calling thread, exactly like unseal().

    ``workers`` must be at least 1 (RangeError otherwise) and is otherwise
    ignored: the chunks always decrypt one after another, since AES holds
    the GIL and a thread pool never ran two chunks at once. Raw artifacts
    are rejected with ModeError.
    """
    if workers is not None and workers < 1:
        raise RangeError(f"workers must be at least 1, got {workers}")
    return _unseal_container(sealed, key)


class UnsealHandle:
    """Owner's view of a background unseal: observe state, wait, cancel."""

    def __init__(self):
        self._done_event = threading.Event()
        self._lock = threading.Lock()
        self._state = "running"
        self._cancel_requested = threading.Event()

    def state(self) -> str:
        """One of "running", "done", "failed", "cancelled".

        The state turns terminal just before on_done runs; wait() returns
        only after on_done has returned.
        """
        with self._lock:
            return self._state

    def cancel(self) -> None:
        """Request cancellation; returns immediately.

        The chunk in flight finishes and no later chunk is decrypted; the
        plaintext buffer is wiped and on_done fires once with
        CancelledError.
        """
        self._cancel_requested.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job has settled and on_done has returned. True if so."""
        return self._done_event.wait(timeout)

    def _settle(self, state: str) -> None:
        with self._lock:
            self._state = state


def unseal_background(
    sealed: bytes,
    key: KeyMaterial,
    on_progress: ProgressSink | None = None,
    on_done: DoneSink | None = None,
) -> UnsealHandle:
    """Start decrypting on one background thread and return immediately.

    The scheduling call does no decoding or decryption itself. Progress
    events (one per finished chunk, monotone, ending at chunks_total) and
    the final outcome arrive on the sinks, which are invoked from that
    thread. Every failure, including bad input, is delivered through
    on_done as ``on_done(None, error)``; nothing is raised here. On
    success on_done receives ``(blob, None)``.

    on_done runs before wait() returns, so a caller that waits sees its
    effects. It must therefore not wait() on its own handle.
    """
    handle = UnsealHandle()

    def run() -> None:
        blob: ModelBlob | None = None
        error: Exception | None = None
        try:
            if handle._cancel_requested.is_set():
                raise CancelledError("cancelled before decryption started")
            blob = _unseal_container(sealed, key, on_progress,
                                     handle._cancel_requested.is_set)
            state = "done"
        except CancelledError as exc:
            state, error = "cancelled", exc
        except Exception as exc:
            state, error = "failed", exc
        handle._settle(state)
        try:
            if on_done is not None:
                on_done(blob, error)
        except Exception:
            pass  # a completion sink that throws has nowhere better to go
        finally:
            handle._done_event.set()

    threading.Thread(target=run, name="mvc-unseal", daemon=True).start()
    return handle

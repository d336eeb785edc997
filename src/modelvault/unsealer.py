"""Unsealing: decrypt a sealed model entirely in memory.

Nothing in this module writes to storage; the decrypted model only ever
exists as an in-process buffer that the caller can hand to an ML runtime
and explicitly wipe afterwards. Every container unseal runs one chunk
loop, ``_unseal_chunks``, the mirror of the sealer's ``_seal_chunks``,
which decrypts the chunks in order on the thread that runs it (AES holds
the GIL, so more threads would not help), each into its slice of the
blob's buffer. From sealed bytes a chunk is decrypted from a view of
them; from a file it is read into its slice and decrypted in place:

* unseal            - synchronous, on the calling thread
* unseal_parallel   - the same, for containers only, under an older
                      name; its worker count is checked, then ignored
* unseal_background - returns at once; one runner thread decrypts while
                      progress and completion callbacks fire, and a
                      handle can cancel
* unseal_file       - from a path, holding the sealed file only once

Container payloads are checked twice: the key fingerprint before any
ciphertext is touched (wrong key fails fast, without decrypting), and the
plaintext digest after assembly (corruption fails loud). The raw ``.dat``
layout has no metadata, so there a wrong key only surfaces as a padding
failure, exactly like the pipeline it is byte-compatible with, and
nothing is hashed until ``digest`` is read.

Zeroization caveat: release() wipes the blob's own buffer. On both the
container and the raw path the plaintext is decrypted straight into that
buffer, and to_bytes() is the only copy, which is the caller's to
manage. Treat the wipe as hygiene, not as a hard memory guarantee.

Where a plaintext lives: a container's plaintext of 2 MiB or more gets a
private anonymous mapping of its own from ``crypto._secret_buffer``,
backed by huge pages where the kernel allows. It is wiped in place by
release(), unmapped when the blob and every view of it are collected, and
counted by tracemalloc like heap memory. A smaller one, and every raw
``.dat`` plaintext, lives in a ``bytearray`` on the heap. No dump, swap or
lock property is claimed for either.
"""

from __future__ import annotations

import functools
import mmap
import os
import stat
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .container import (HEADER_SIZE, ContainerHeader, SealedFormat, chunk_slices, decode,
                        decode_header, detect_format, header_len)
from .crypto import (CipherMode, KeyMaterial, _ecb_buffer, _ecb_decrypt_into, _secret_buffer,
                     _wipe, ctr_crypt, ecb_decrypt, sha256)
from .errors import (CancelledError, DigestError, KeyMismatchError, ModelVaultError,
                     ModeError, RangeError)
from .sealer import _read_exactly, _reading

# A pipe holds 64 KiB by default, so a larger read from one gains nothing,
# and the bytes of one read are a small transient beside the growing buffer.
_PIPE_READ = 64 * 1024


class ModelBlob:
    """Decrypted model bytes held in memory, plus their SHA-256 digest.

    The digest check stands in for "the model loads": feed ``data`` to
    your interpreter, then call release() to zero the buffer. The buffer is
    a ``bytearray`` (a raw plaintext is a view of the start of one) or, for
    a container plaintext of 2 MiB or more, a mapping of its own (see
    ``crypto._secret_buffer``); release() zeroes every plaintext byte in place.
    """

    def __init__(self, buf: bytearray | mmap.mmap | memoryview, source_mode: CipherMode):
        self._buf = buf
        self.source_mode = source_mode
        self._released = False

    @functools.cached_property
    def digest(self) -> bytes:
        """SHA-256 of the plaintext, computed on first read.

        A first read after release() raises ModelVaultError rather than
        hash the zeros.
        """
        if self._released:
            raise ModelVaultError("the blob was released before its digest was read")
        return sha256(self._buf)

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
        digest = self.__dict__.get("digest")  # only if already computed
        return f"ModelBlob({state}, sha256={digest.hex()[:16] + '…' if digest else 'unread'})"


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


def _unseal_chunks(header: ContainerHeader, key: KeyMaterial, next_chunk,
                   on_chunk: ProgressSink | None = None, cancelled=None) -> ModelBlob:
    """Check the key fingerprint, then decrypt each chunk into the blob buffer.

    ``next_chunk(span, out)`` returns the ciphertext of the chunk whose
    slice of the buffer is ``out``; it may fill ``out`` and return it. Each
    chunk polls ``cancelled`` and reports to ``on_chunk``; the digest is
    checked last, and the buffer is wiped on any failure.
    """
    if header.key_fingerprint != key.fingerprint:
        raise KeyMismatchError(
            f"container was sealed under key {header.key_fingerprint.hex()}, "
            f"got {key.fingerprint.hex()}"
        )
    buf = _secret_buffer(header.plaintext_len)
    view = memoryview(buf)
    try:
        for index, span in enumerate(chunk_slices(header.plaintext_len, header.chunk_size)):
            _decrypt_chunk(key, header.file_nonce, index, next_chunk(span, view[span]), view[span])
            if cancelled is not None and cancelled():
                raise CancelledError("cancelled while decrypting")
            if on_chunk is not None:
                on_chunk(UnsealProgress(index + 1, header.chunk_count, span.stop))
        blob = ModelBlob(buf, CipherMode.CHUNKED_CTR)
        if blob.digest != header.plaintext_digest:
            raise DigestError("decrypted plaintext does not match the container digest")
    except BaseException:
        _wipe(buf)
        raise
    return blob


def _require_container(head) -> None:
    if detect_format(head) is not SealedFormat.CONTAINER:
        raise ModeError("not a sealed container; unseal a raw .dat in the raw format")


def _unseal_container(sealed, key: KeyMaterial, on_chunk=None, cancelled=None) -> ModelBlob:
    _require_container(sealed)
    header = decode(sealed, len(sealed))
    payload = memoryview(sealed)[len(sealed) - header.plaintext_len:]
    return _unseal_chunks(header, key, lambda span, out: payload[span], on_chunk, cancelled)


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


def unseal_file(path, key: KeyMaterial, declared_format: SealedFormat | None = None) -> ModelBlob:
    """Decrypt the sealed artifact at ``path`` in memory; None detects the format.

    In a regular file a container is read chunk by chunk, and a raw ``.dat``
    whole, into the buffer it is decrypted in, every read bounded by the file's
    size (IoError if it shrinks). Anything else, such as a FIFO, is read whole,
    once, into one bytearray; a raw ``.dat`` is decrypted there in place, while a
    container is decrypted from it into a second buffer.
    """
    with _reading(path):
        source = open(path, "rb", buffering=0)
    with source, _reading(path):
        info = os.fstat(source.fileno())
        size = info.st_size if stat.S_ISREG(info.st_mode) else 0
        if not size:
            sealed = bytearray()
            while chunk := source.read(_PIPE_READ):
                sealed += chunk  # grown in place: the sealed bytes are held once
            declared_format = declared_format or detect_format(sealed)
            if declared_format is not SealedFormat.RAW_DAT:
                return unseal(sealed, key, declared_format)
            size = len(sealed)
            buf = _ecb_buffer(size, sealed)
        else:
            prefix = os.pread(source.fileno(), HEADER_SIZE, 0)

            def read(buf):
                _read_exactly(source, buf, path, "unsealed")
                return buf

            if (declared_format or detect_format(prefix)) is not SealedFormat.RAW_DAT:
                _require_container(prefix)
                head = read(bytearray(min(size, HEADER_SIZE)))
                head += read(bytearray(header_len(decode_header(head, size).chunk_count)
                                       - len(head)))
                return _unseal_chunks(decode(head, size), key, lambda span, out: read(out))
            buf = _ecb_buffer(size)
            read(memoryview(buf)[:size])
    plaintext = _ecb_decrypt_into(memoryview(buf)[:size], buf, key)
    return ModelBlob(plaintext, CipherMode.RAW_ECB_PKCS7)


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

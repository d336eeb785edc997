"""Unsealing: decrypt a sealed model entirely in memory.

Nothing in this module writes to storage; the decrypted model only ever
exists as an in-process buffer that the caller can hand to an ML runtime
and explicitly wipe afterwards. One read, one decrypt path: every
container unseal runs ``_unseal_container``, the mirror of the sealer's
``_seal_chunks``, which decodes the container, checks the key, and
decrypts the chunks in order on the thread that runs it, each from its
slice of the payload. AES holds the GIL, so more decrypting threads would
not help; SHA-256 in ``hashlib`` releases it, so one helper thread per
unseal (``_ChunkHasher``) hashes chunk k while the caller decrypts chunk
k+1. A container of one chunk is hashed inline, with no thread.
From sealed bytes it decrypts into a fresh buffer; ``unseal_file`` reads
its input whole, once, through ``_files``, and has it decrypted in place
in the buffer it was read into:

* unseal            - synchronous, on the calling thread
* unseal_parallel   - the same, for containers only, under an older
                      name; its worker count is checked, then ignored
* unseal_background - returns at once; one runner thread decrypts while
                      progress and completion callbacks fire, and a
                      handle can cancel
* unseal_file       - from a path, holding the sealed file only once

Container payloads are checked twice: the key fingerprint before any
ciphertext is touched (wrong key fails fast, without decrypting, and from
a regular file before anything past the header is read), and the
plaintext digest after assembly (corruption fails loud). The raw ``.dat``
layout has no metadata, so there a wrong key only surfaces as a padding
failure, exactly like the pipeline it is byte-compatible with, and
nothing is hashed until ``digest`` is read.

Zeroization caveat: release() wipes the blob's own buffer. On both the
container and the raw path the plaintext is decrypted straight into that
buffer, and to_bytes() is the only copy, which is the caller's to
manage. Treat the wipe as hygiene, not as a hard memory guarantee.

Where a plaintext lives: a container's plaintext of 2 MiB or more that
is decrypted from sealed bytes gets a private anonymous mapping of its own
from ``crypto._secret_buffer``, backed by huge pages where the kernel
allows. It is wiped in place by release(), unmapped when the blob and
every view of it are collected, and counted by tracemalloc like heap
memory. A smaller one, and every raw ``.dat`` plaintext from bytes, lives
in a ``bytearray`` on the heap. An artifact that ``unseal_file`` reads is
decrypted in the buffer it was read into, and its plaintext is the view of
the payload behind the header, or of a raw ``.dat``'s start: from a
regular file, a container is read into a ``_secret_buffer`` of the file's
size and a raw ``.dat`` into a ``bytearray``; from a FIFO or another
unsized input, either is read into a ``crypto._growing_buffer`` (on Linux
a mapping, grown without a copy). No dump, swap or lock property is
claimed for any of them.
"""

from __future__ import annotations

import functools
import hashlib
import mmap
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from ._files import (_PIPE_READ, _changed_error, _check_ended, _open_input, _read_exactly,
                     _read_whole, _reading)
from .container import (HEADER_SIZE, ContainerHeader, SealedFormat, chunk_slices, decode,
                        decode_header, detect_format)
from .crypto import (CipherMode, KeyMaterial, _ecb_buffer, _ecb_decrypt_into, _growing_buffer,
                     _secret_buffer, _wipe, ctr_crypt, ecb_decrypt, sha256)
from .errors import (CancelledError, DigestError, KeyMismatchError, ModelVaultError,
                     ModeError, RangeError)


class ModelBlob:
    """Decrypted model bytes held in memory, plus their SHA-256 digest.

    The digest check stands in for "the model loads": feed ``data`` to
    your interpreter, then call release() to zero the buffer. From sealed
    bytes the buffer is a ``bytearray`` (a raw plaintext is a view of the
    start of one) or, for a container plaintext of 2 MiB or more, a mapping
    of its own (see ``crypto._secret_buffer``). From ``unseal_file``, one
    read and one decrypt path, it is a view of the buffer the artifact was
    read into. release() zeroes every plaintext byte in place.

    ``digest``, if given, is the SHA-256 of ``buf`` that the caller has
    already computed: a container unseal passes the one it checked against
    the header, so the plaintext is never hashed twice.
    """

    def __init__(self, buf: bytearray | mmap.mmap | memoryview, source_mode: CipherMode,
                 digest: bytes | None = None):
        self._buf = buf
        self.source_mode = source_mode
        self._released = False
        if digest is not None:
            self.digest = digest  # fills the cached_property below

    @functools.cached_property
    def digest(self) -> bytes:
        """SHA-256 of the plaintext, as given to the constructor or computed on first read.

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


def _hash_chunk(sha, piece: memoryview) -> None:
    # Module-level indirection so tests can count what is hashed, and on which thread.
    sha.update(piece)


class _ChunkHasher:
    """SHA-256 of a plaintext fed chunk by chunk, in order.

    With more than one chunk, a daemon thread named ``mvc-hash`` hashes each
    chunk while the caller decrypts the next: ``hashlib`` releases the GIL
    while it hashes, and AES does not. ``feed`` returns only once the helper
    has taken the chunk and is about to hash it. A helper woken while the
    caller is back in AES would wait for the GIL up to a switch interval
    (5 ms) before it could start. With one chunk, or if no thread can start,
    each chunk is hashed on the caller's thread. ``close`` joins the helper;
    it runs before the fed buffer is wiped or handed out.
    """

    def __init__(self, chunks: int):
        self._sha = hashlib.sha256()
        self._error: BaseException | None = None
        self._thread = None
        if chunks > 1:
            self._todo = queue.SimpleQueue()
            self._taken = threading.Lock()
            self._taken.acquire()
            thread = threading.Thread(target=self._run, name="mvc-hash", daemon=True)
            try:
                thread.start()
            except RuntimeError:
                return
            self._thread = thread

    def _run(self) -> None:
        while (piece := self._todo.get()) is not None:
            self._taken.release()  # just before hashing: the caller goes on from here
            if self._error is None:
                try:
                    _hash_chunk(self._sha, piece)
                except BaseException as exc:  # raised again by digest()
                    self._error = exc

    def feed(self, piece: memoryview) -> None:
        """Hash ``piece`` after every piece fed before it."""
        if self._thread is None:
            _hash_chunk(self._sha, piece)
            return
        self._todo.put(piece)
        self._taken.acquire()

    def close(self) -> None:
        """Join the helper once it has hashed what it was fed. Safe to call twice."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._todo.put(None)
            thread.join()

    def digest(self) -> bytes:
        """The digest of everything fed; the helper is joined first."""
        self.close()
        if self._error is not None:
            raise self._error
        return self._sha.digest()


def _keyed_header(head, size: int, key: KeyMaterial, parse) -> ContainerHeader:
    """``parse(head, size)`` of a container, refused unless it was sealed under ``key``."""
    if detect_format(head) is not SealedFormat.CONTAINER:
        raise ModeError("not a sealed container; unseal a raw .dat in the raw format")
    header = parse(head, size)
    if header.key_fingerprint != key.fingerprint:
        raise KeyMismatchError(
            f"container was sealed under key {header.key_fingerprint.hex()}, "
            f"got {key.fingerprint.hex()}"
        )
    return header


def _unseal_container(sealed, key: KeyMaterial, in_place: bool = False,
                      on_chunk: ProgressSink | None = None, cancelled=None) -> ModelBlob:
    """Decode the container ``sealed``, check the key, then decrypt its chunks in order.

    The blob buffer is a fresh one from ``_secret_buffer``, or, ``in_place``,
    the payload of ``sealed`` itself, which its owner then gives up. Each
    decrypted chunk goes to a ``_ChunkHasher``, then polls ``cancelled`` and
    reports to ``on_chunk``; the digest is checked last. On any failure the
    hasher is joined and then the buffer is wiped.
    """
    header = _keyed_header(sealed, len(sealed), key, decode)
    payload = memoryview(sealed)[len(sealed) - header.plaintext_len:]
    buf = payload if in_place else _secret_buffer(header.plaintext_len)
    view = memoryview(buf)
    hasher = _ChunkHasher(header.chunk_count)
    try:
        for index, span in enumerate(chunk_slices(header.plaintext_len, header.chunk_size)):
            _decrypt_chunk(key, header.file_nonce, index, payload[span], view[span])
            hasher.feed(view[span])
            if cancelled is not None and cancelled():
                raise CancelledError("cancelled while decrypting")
            if on_chunk is not None:
                on_chunk(UnsealProgress(index + 1, header.chunk_count, span.stop))
        digest = hasher.digest()
        if digest != header.plaintext_digest:
            raise DigestError("decrypted plaintext does not match the container digest")
    except BaseException:
        hasher.close()
        _wipe(buf)
        raise
    return ModelBlob(buf, CipherMode.CHUNKED_CTR, digest)


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

    One read, one decrypt path. A regular file is refused on its 72-byte
    header alone if its format, header or key is wrong; otherwise it is read
    whole, with one read bounded by its size (IoError if it shrinks or
    grows meanwhile). Anything else, such as a FIFO, is read whole into one
    ``_growing_buffer``. Either way the artifact is decrypted in place in the
    buffer it was read into: a container's plaintext is the view of its
    payload, a raw ``.dat``'s the view of its start.
    """
    with _open_input(path) as (source, _, size), _reading(path):
        sealed = None if size else _read_whole(source, _growing_buffer(_PIPE_READ), path)
        head = os.pread(source.fileno(), HEADER_SIZE, 0) if size else sealed
        raw = (declared_format or detect_format(head)) is SealedFormat.RAW_DAT
        if size:
            if len(head) < min(size, HEADER_SIZE):  # it shrank since it was opened
                raise _changed_error(path, "unsealed")
            if not raw:
                _keyed_header(head, size, key, decode_header)
            sealed = _ecb_buffer(size) if raw else _secret_buffer(size)
            _read_exactly(source, memoryview(sealed)[:size], path, "unsealed")
            _check_ended(source, path, "unsealed")
        elif raw:
            size = len(sealed)
            sealed = _ecb_buffer(size, sealed)
    if not raw:
        return _unseal_container(sealed, key, in_place=True)
    plaintext = _ecb_decrypt_into(memoryview(sealed)[:size], sealed, key)
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
    success on_done receives ``(blob, None)``. If that thread cannot be
    started, the handle settles "failed" and on_done receives the
    ``RuntimeError`` on the caller's thread before this returns.

    on_done runs before wait() returns, so a caller that waits sees its
    effects. It must therefore not wait() on its own handle.
    """
    handle = UnsealHandle()

    def run(start_error: RuntimeError | None = None) -> None:
        blob: ModelBlob | None = None
        error: Exception | None = None
        try:
            if start_error is not None:
                raise start_error
            if handle._cancel_requested.is_set():
                raise CancelledError("cancelled before decryption started")
            blob = _unseal_container(sealed, key, on_chunk=on_progress,
                                     cancelled=handle._cancel_requested.is_set)
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

    try:
        threading.Thread(target=run, name="mvc-unseal", daemon=True).start()
    except RuntimeError as exc:  # no thread to run on: settle here instead
        run(exc)
    return handle

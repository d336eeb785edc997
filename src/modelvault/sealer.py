"""Sealing: encrypt a model into a distributable artifact, with timings.

Raw mode emits the bare ECB/PKCS#7 ciphertext and nothing else, so the
output is byte-identical to the classic one-shot pipeline for the same key
and input. Container mode draws a fresh random file nonce and runs one
per-chunk loop for both entry points: each chunk is walked in windows,
and each window of plaintext is hashed into the running SHA-256,
encrypted under its chunk's counter stream at its offset in the chunk,
and handed on; the header, which carries the digest, is packed last.
``seal`` and a whole-in-memory ``seal_file`` take each chunk as one
window.

``seal`` encrypts each chunk from the model straight into the one
artifact buffer it returns, so no plaintext is staged there.
``seal_file`` streams a regular file through one reused buffer of at
most ``_SEAL_WINDOW`` (256 KiB) bytes, whatever the chunk size, so it
never holds more of the model than that: it reserves the header's bytes
at the start of the output, reads, hashes, encrypts in place and writes
each window, then writes the header at offset 0. A model file that
changes size meanwhile is refused.
Raw mode, an input whose size is not known up front, and an output that
cannot seek are handled whole in memory. ``seal_file`` allocates one
buffer for the model, which is only filled, and wipes it once the model
is sealed or the seal has failed. A regular file is read into a
``bytearray`` of its size (and refused if it changes size meanwhile).
Any other input, or a regular file whose size reads 0, is read by
``_files._read_whole`` into a buffer that grows until the input ends. The
model is sealed where it was read, so it is held once: a container's
chunks are hashed and encrypted in place in that buffer, and the header
is written followed by the buffer; a raw model is padded and encrypted
in place, in ``crypto._ECB_ROOM`` bytes of room that the buffer has
behind it (a sized read allocates them, and ``_read_whole`` leaves them
behind what it read). An empty file seals to the same bytes either way.

The artifact and its manifest are written through
``_files._atomic_output``, which renames a temp file over a new or
regular path and writes a FIFO, device or symlink through. As that
truncates, ``seal_file`` refuses a symlink to the model itself. With a
manifest, it refuses, before opening anything, an output that is
neither new nor, links followed, a regular file, such as a FIFO.

Timing split mirrors the two-column reporting convention this toolkit
benchmarks against, with the digest and the commit timed on their own.
Each phase is timed into one ``_Phases`` record, keyed by the
``SealReport`` field it fills, and the report is built from it:

* ``hash_ms`` -- SHA-256 of the plaintext.
* ``encrypt_ms`` -- the cipher work: the CTR calls on the windows of a
  container's chunks, or the ECB/PKCS#7 encryption of a raw seal.
* ``storage_ms`` -- for ``seal_file``, the writes of the sealed bytes
  (window by window when streamed, then the header) plus the flush to the
  OS. 0 for ``seal``.
* ``commit_ms`` -- for ``seal_file``, the rest of the artifact's output:
  creating the temp file (or opening a written-through output), setting
  its mode, the close and the rename, but not the freeing of a replaced
  file, which runs after it on another thread. 0 for ``seal``. It is not
  in the manifest.

Reading the model file and writing the manifest are in none of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import stat
from dataclasses import dataclass
from pathlib import Path

from ._files import (_PIPE_READ, _Phases, _atomic_output, _check_ended, _open_input,
                     _read_exactly, _read_whole)
from .container import (
    ContainerHeader,
    DEFAULT_CHUNK_SIZE,
    MAX_CHUNK_SIZE,
    chunk_count_for,
    chunk_slices,
    encode_header,
    header_len,
)
from .crypto import (CipherMode, KeyMaterial, NONCE_BYTES, _ECB_ROOM, _ecb_encrypt_into,
                     _growing_buffer, _wipe, ctr_crypt, ecb_encrypt, sha256)
from .errors import IoError, RangeError

MIN_CHUNK_SIZE = 4096
# The most of the model seal_file streams through memory at once. A chunk
# longer than this is read, hashed, encrypted at its offset and written a
# window at a time; a multiple of 16, as ctr_crypt's offset must be.
_SEAL_WINDOW = 256 * 1024
# The SealReport fields that a seal's _Phases times.
_SEAL_PHASES = ("hash_ms", "encrypt_ms", "storage_ms", "commit_ms")


@dataclass(frozen=True)
class SealReport:
    """What one seal did and how long its phases took."""

    input_len: int
    output_len: int
    mode: CipherMode
    encrypt_ms: float
    storage_ms: float
    plaintext_digest: bytes
    hash_ms: float
    commit_ms: float = 0.0

    def manifest(self) -> dict:
        """The JSON-ready manifest written alongside sealed files."""
        return {
            "input_len": self.input_len,
            "output_len": self.output_len,
            "mode": self.mode.token,
            "encrypt_ms": self.encrypt_ms,
            "storage_ms": self.storage_ms,
            "sha256_hex": self.plaintext_digest.hex(),
        }


def _check_chunk_size(mode: CipherMode, chunk_size: int) -> None:
    if mode is CipherMode.CHUNKED_CTR and not MIN_CHUNK_SIZE <= chunk_size <= MAX_CHUNK_SIZE:
        raise RangeError(f"chunk_size must be between {MIN_CHUNK_SIZE} and "
                         f"{MAX_CHUNK_SIZE}, got {chunk_size}")


def seal(
    model_bytes: bytes,
    key: KeyMaterial,
    mode: CipherMode = CipherMode.CHUNKED_CTR,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[bytearray, SealReport]:
    """Encrypt model bytes in memory. Returns (sealed bytes, report).

    The sealed bytes come back as a bytearray in both modes, the one
    buffer the artifact was built in.

    The report's storage_ms and commit_ms are 0; only seal_file touches
    storage.
    """
    _check_chunk_size(mode, chunk_size)
    phases = _Phases(*_SEAL_PHASES)
    size = len(model_bytes)
    if mode is CipherMode.RAW_ECB_PKCS7:
        sealed, digest = _seal_raw(model_bytes, key, phases)
    else:
        head_len = header_len(chunk_count_for(size, chunk_size))
        sealed = bytearray(head_len + size)
        payload, source = memoryview(sealed)[head_len:], memoryview(model_bytes)
        sealed[:head_len], digest = _seal_chunks(size, key, chunk_size, phases,
                                                 lambda span: (source[span], payload[span]))
    return sealed, SealReport(size, len(sealed), mode, plaintext_digest=digest, **phases)


def _seal_raw(model, key: KeyMaterial, phases: _Phases, size: int | None = None
              ) -> tuple[bytearray | memoryview, bytes]:
    """Seal ``model`` as a raw ``.dat``; returns the artifact and the plaintext digest.

    Given ``size``, ``model`` holds the plaintext in its first ``size``
    bytes and ``_ECB_ROOM`` more behind them; it is padded and encrypted
    there, and the artifact is a view of it. Otherwise the artifact is a
    new buffer.
    """
    with phases("hash_ms"):
        digest = sha256(model if size is None else memoryview(model)[:size])
    with phases("encrypt_ms"):
        if size is None:
            return ecb_encrypt(model, key), digest
        return _ecb_encrypt_into(model, size, key), digest


def _seal_chunks(size: int, key: KeyMaterial, chunk_size: int, phases: _Phases, next_window,
                 emit=None, window: int | None = None) -> tuple[bytes, bytes]:
    """The one container seal loop, shared by seal and seal_file.

    Each span of ``chunk_slices(size, chunk_size)`` is walked in windows
    of ``window`` bytes (the last one of a chunk may be shorter), by
    default one window per chunk. A ``window`` shorter than a chunk must
    be a multiple of 16. For each window's span of the model,
    ``next_window(span)`` returns ``(plaintext, out)``: that window's
    plaintext and a writable buffer of the same length, which may be the
    plaintext's own. The loop hashes the plaintext, encrypts it into
    ``out`` at its offset in the chunk, and calls ``emit(out)``, if given,
    before asking for the next window.

    Returns the packed header and chunk table, and the plaintext digest.
    """
    nonce = secrets.token_bytes(NONCE_BYTES)
    hasher = hashlib.sha256()
    window = window or chunk_size
    for index, chunk in enumerate(chunk_slices(size, chunk_size)):
        # An empty model has one empty chunk, sealed as one empty window.
        for start in range(chunk.start, chunk.stop, window) or (0,):
            plaintext, out = next_window(slice(start, min(start + window, chunk.stop)))
            with phases("hash_ms"):
                hasher.update(plaintext)
            with phases("encrypt_ms"):
                ctr_crypt(plaintext, key, nonce, index, out=out, offset=start - chunk.start)
            if emit is not None:
                emit(out)
    digest = hasher.digest()
    header = ContainerHeader(
        mode=CipherMode.CHUNKED_CTR,
        key_fingerprint=key.fingerprint,
        file_nonce=nonce,
        plaintext_len=size,
        chunk_size=chunk_size,
        plaintext_digest=digest,
    )
    return encode_header(header), digest


def seal_file(
    input_path,
    output_path,
    key: KeyMaterial,
    mode: CipherMode = CipherMode.CHUNKED_CTR,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    write_manifest: bool = True,
) -> SealReport:
    """Seal a model file to disk and write its manifest.

    A new or regular output_path is replaced via a temp file and rename,
    so a crash never leaves a truncated artifact; anything else is written
    through. The manifest goes to ``<output_path>.manifest.json``. A
    regular model file is sealed in container mode 256 KiB at a time,
    through one buffer whatever ``chunk_size`` is. Any other model is
    sealed whole in the one buffer it was read into, which this function
    allocates and wipes, also when it raises. See the module docstring,
    also for the outputs a manifest rules out.
    """
    _check_chunk_size(mode, chunk_size)
    input_path = Path(input_path)
    output_path = Path(output_path)
    if write_manifest:
        with contextlib.suppress(OSError):  # a new path, or a dangling link to one
            if not stat.S_ISREG(os.stat(output_path).st_mode):
                raise IoError(f"cannot write a manifest beside {output_path}: it is not "
                              "a regular file; seal to it without a manifest",
                              path=str(output_path))
    with _open_input(input_path) as (source, info, size):
        with contextlib.suppress(OSError):  # a dangling link is not the model
            if output_path.is_symlink() and os.path.samestat(os.stat(output_path), info):
                raise IoError(f"cannot write {output_path}: it is a link to the model "
                              f"file {input_path}", path=str(output_path))
        phases = _Phases(*_SEAL_PHASES)
        with _atomic_output(output_path, phases) as out:
            if mode is CipherMode.CHUNKED_CTR and size and out.seekable():
                output_len, digest = _stream_container(source, size, input_path, out, key,
                                                       chunk_size, phases)
            else:
                # A raw model is padded and encrypted in place, in room left behind it.
                room = _ECB_ROOM if mode is CipherMode.RAW_ECB_PKCS7 else 0
                model = bytearray(size + room) if size else _growing_buffer(_PIPE_READ)
                try:
                    if size:
                        _read_exactly(source, memoryview(model)[:size], input_path, "sealed")
                        _check_ended(source, input_path, "sealed")
                    else:
                        model = _read_whole(source, model, input_path, room)
                        size = len(model) - room
                    if mode is CipherMode.RAW_ECB_PKCS7:
                        head = b""
                        body, digest = _seal_raw(model, key, phases, size)
                    else:
                        body = memoryview(model)
                        head, digest = _seal_chunks(size, key, chunk_size, phases,
                                                    lambda span: (body[span], body[span]))
                    with phases("storage_ms"):
                        out.write(head)
                        out.write(body)
                        out.flush()
                finally:
                    _wipe(model)
                output_len = len(head) + len(body)
    report = SealReport(size, output_len, mode, plaintext_digest=digest, **phases)

    if write_manifest:
        manifest = json.dumps(report.manifest(), indent=2) + "\n"
        with _atomic_output(Path(f"{output_path}.manifest.json")) as out:
            out.write(manifest.encode())
    return report


def _stream_container(source, size: int, input_path: Path, out, key: KeyMaterial,
                      chunk_size: int, phases: _Phases) -> tuple[int, bytes]:
    """Seal ``size`` bytes from ``source`` into seekable ``out`` through one window buffer.

    Returns the artifact's length and the plaintext digest.
    """
    window = min(size, chunk_size, _SEAL_WINDOW)
    buf = bytearray(window)
    view = memoryview(buf)
    head_len = header_len(chunk_count_for(size, chunk_size))

    def read_window(span: slice) -> tuple[memoryview, memoryview]:
        plaintext = view[: span.stop - span.start]
        _read_exactly(source, plaintext, input_path, "sealed")
        return plaintext, plaintext

    def write_window(sealed: memoryview) -> None:
        with phases("storage_ms"):
            out.write(sealed)

    try:
        out.seek(head_len)
        head, digest = _seal_chunks(size, key, chunk_size, phases, read_window, write_window,
                                    window)
        _check_ended(source, input_path, "sealed")
        with phases("storage_ms"):
            out.seek(0)
            out.write(head)
            out.flush()
    finally:
        _wipe(buf)
    return head_len + size, digest

"""Sealing: encrypt a model into a distributable artifact, with timings.

Raw mode emits the bare ECB/PKCS#7 ciphertext and nothing else, so the
output is byte-identical to the classic one-shot pipeline for the same key
and input. Container mode draws a fresh random file nonce and runs one
per-chunk loop for both entry points: each plaintext chunk is hashed into
the running SHA-256, encrypted in place under its own counter stream, and
handed on; the header, which carries the digest, is packed last.

``seal`` runs that loop over slices of the one artifact buffer it returns.
``seal_file`` streams a regular file through one reused buffer of at most
``chunk_size`` bytes, so it never holds more than one chunk of the model:
it reserves the header's bytes at the start of the output, reads, hashes,
encrypts and writes each chunk, then writes the header at offset 0. A
model file that changes size meanwhile is refused. Raw mode, an input
whose size is not known up front, and an output that cannot seek are
handled whole in memory: an input that is not a regular file (a FIFO,
``/dev/stdin``), or a regular file whose size reads 0 (a procfs
pseudo-file), is read whole; an empty file seals to the same bytes
either way.

Every output (the artifact, its manifest, ``mvc unseal --out``) goes
through ``_atomic_output``: a new or regular path is replaced atomically
and keeps its mode; a FIFO, device or symlink is written through. As
that truncates, ``seal_file`` refuses a symlink to the model itself.

Timing split mirrors the two-column reporting convention this toolkit
benchmarks against, with the digest timed on its own:

* ``hash_ms`` -- SHA-256 of the plaintext.
* ``encrypt_ms`` -- for ``seal``, producing the sealed bytes in memory
  (framing and encryption, not hashing). For a streamed ``seal_file``,
  the CTR work on the chunks.
* ``storage_ms`` -- for ``seal_file``, the writes of the sealed bytes
  (chunk by chunk when streamed, then the header) plus the flush to the
  OS; opening the output and the rename are not counted. 0 for ``seal``.

Reading the model file is in none of the three.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import stat
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .container import (
    ContainerHeader,
    DEFAULT_CHUNK_SIZE,
    MAX_CHUNK_SIZE,
    chunk_count_for,
    chunk_slices,
    encode_header,
    header_len,
)
from .crypto import CipherMode, KeyMaterial, NONCE_BYTES, _wipe, ctr_crypt, ecb_encrypt, sha256
from .errors import IoError, RangeError

MIN_CHUNK_SIZE = 4096


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


def _now_ms() -> float:
    return time.perf_counter_ns() / 1e6


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

    The report's storage_ms is 0; only seal_file touches storage.
    """
    _check_chunk_size(mode, chunk_size)
    size = len(model_bytes)
    start = _now_ms()
    if mode is CipherMode.RAW_ECB_PKCS7:
        digest = sha256(model_bytes)
        hash_ms = _now_ms() - start
        sealed = ecb_encrypt(model_bytes, key)
    else:
        head_len = header_len(chunk_count_for(size, chunk_size))
        sealed = bytearray(head_len + size)
        payload = memoryview(sealed)[head_len:]
        source = memoryview(model_bytes)

        def frame(span: slice) -> memoryview:
            chunk = payload[span]
            chunk[:] = source[span]
            return chunk

        head, digest, hash_ms, _, _ = _seal_chunks(size, key, chunk_size, frame)
        sealed[:head_len] = head
    encrypt_ms = _now_ms() - start - hash_ms

    report = SealReport(
        input_len=size,
        output_len=len(sealed),
        mode=mode,
        encrypt_ms=encrypt_ms,
        storage_ms=0.0,
        plaintext_digest=digest,
        hash_ms=hash_ms,
    )
    return sealed, report


def _seal_chunks(size: int, key: KeyMaterial, chunk_size: int, next_chunk,
                 emit=None) -> tuple[bytes, bytes, float, float, float]:
    """The one container seal loop, shared by seal and seal_file.

    For each span of ``chunk_slices(size, chunk_size)``, ``next_chunk(span)``
    returns that chunk's plaintext in a writable buffer; the loop
    hashes it, encrypts it in place, and passes the ciphertext to
    ``emit``, if given, before asking for the next chunk.

    Returns the packed header and chunk table, the plaintext digest, and
    the milliseconds spent hashing, encrypting and emitting.
    """
    nonce = secrets.token_bytes(NONCE_BYTES)
    hasher = hashlib.sha256()
    hash_ms = crypt_ms = emit_ms = 0.0
    for index, span in enumerate(chunk_slices(size, chunk_size)):
        chunk = next_chunk(span)
        t0 = _now_ms()
        hasher.update(chunk)
        t1 = _now_ms()
        ctr_crypt(chunk, key, nonce, index, out=chunk)
        t2 = _now_ms()
        if emit is not None:
            emit(chunk)
            emit_ms += _now_ms() - t2
        hash_ms += t1 - t0
        crypt_ms += t2 - t1
    digest = hasher.digest()
    header = ContainerHeader(
        mode=CipherMode.CHUNKED_CTR,
        key_fingerprint=key.fingerprint,
        file_nonce=nonce,
        plaintext_len=size,
        chunk_size=chunk_size,
        plaintext_digest=digest,
    )
    return encode_header(header), digest, hash_ms, crypt_ms, emit_ms


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
    regular model file is sealed in container mode one chunk at a time;
    see the module docstring.
    """
    _check_chunk_size(mode, chunk_size)
    input_path = Path(input_path)
    output_path = Path(output_path)
    with _reading(input_path):
        source = open(input_path, "rb", buffering=0)
    with source:
        with _reading(input_path):
            info = os.fstat(source.fileno())
        with contextlib.suppress(OSError):  # a dangling link is not the model
            if output_path.is_symlink() and os.path.samestat(os.stat(output_path), info):
                raise IoError(f"cannot write {output_path}: it is a link to the model "
                              f"file {input_path}", path=str(output_path))
        with _atomic_output(output_path) as out:
            if (mode is CipherMode.CHUNKED_CTR and stat.S_ISREG(info.st_mode)
                    and info.st_size and out.seekable()):
                report = _stream_container(source, info.st_size, input_path, out,
                                           key, chunk_size)
            else:
                with _reading(input_path):
                    model_bytes = source.readall()
                sealed, report = seal(model_bytes, key, mode, chunk_size)
                start = _now_ms()
                out.write(sealed)
                out.flush()
                report = replace(report, storage_ms=_now_ms() - start)

    if write_manifest:
        manifest = json.dumps(report.manifest(), indent=2) + "\n"
        with _atomic_output(output_path.with_name(output_path.name + ".manifest.json")) as out:
            out.write(manifest.encode())
    return report


@contextlib.contextmanager
def _reading(path: Path):
    """Raise an OSError from reading ``path`` as IoError."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}", path=str(path)) from exc


def _changed_error(path: Path) -> IoError:
    return IoError(f"model file {path} changed while it was being sealed", path=str(path))


def _stream_container(source, size: int, input_path: Path, out,
                      key: KeyMaterial, chunk_size: int) -> SealReport:
    """Seal ``size`` bytes from ``source`` into seekable ``out`` through one chunk buffer."""
    buf = bytearray(min(size, chunk_size))
    view = memoryview(buf)

    def read_chunk(span: slice) -> memoryview:
        chunk = view[: span.stop - span.start]
        filled = 0
        with _reading(input_path):
            while filled < len(chunk):
                n = source.readinto(chunk[filled:])
                if not n:
                    raise _changed_error(input_path)
                filled += n
        return chunk

    head_len = header_len(chunk_count_for(size, chunk_size))
    try:
        out.seek(head_len)
        head, digest, hash_ms, encrypt_ms, write_ms = _seal_chunks(
            size, key, chunk_size, read_chunk, out.write)
        with _reading(input_path):
            if source.read(1):
                raise _changed_error(input_path)
        start = _now_ms()
        out.seek(0)
        out.write(head)
        out.flush()
        storage_ms = write_ms + _now_ms() - start
    finally:
        _wipe(buf)
    return SealReport(
        input_len=size,
        output_len=head_len + size,
        mode=CipherMode.CHUNKED_CTR,
        encrypt_ms=encrypt_ms,
        storage_ms=storage_ms,
        plaintext_digest=digest,
        hash_ms=hash_ms,
    )


@contextlib.contextmanager
def _atomic_output(path: Path):
    """Yield a binary file whose contents end up at ``path``.

    A new or regular ``path`` is written through a temp file beside it,
    which takes the permission bits of the file it replaces (a new file
    stays 0600) and is renamed over ``path`` after the block; on any
    exception, interrupts included, the temp file is removed and ``path``
    is left as it was. Anything else, such as a FIFO, a device or a
    symlink, is opened and written through as it stands, since renaming
    over it would replace the node itself. An OSError is raised as IoError.
    """
    tmp_name = None
    try:
        try:
            old = os.lstat(path)
        except FileNotFoundError:
            old = None
        if old is not None and not stat.S_ISREG(old.st_mode):
            with open(path, "wb") as handle:
                yield handle
            return
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            if old is not None:
                os.chmod(tmp_name, stat.S_IMODE(old.st_mode))
            yield handle
        os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc.strerror or exc}", path=str(path)) from exc
        raise

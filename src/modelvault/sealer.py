"""Sealing: encrypt a model into a distributable artifact, with timings.

Raw mode emits the bare ECB/PKCS#7 ciphertext and nothing else, so the
output is byte-identical to the classic one-shot pipeline for the same key
and input. Container mode draws a fresh random file nonce and runs one
per-chunk loop for both entry points: each plaintext chunk is hashed into
the running SHA-256, encrypted under its own counter stream, and handed
on; the header, which carries the digest, is packed last.

``seal`` encrypts each chunk from the model straight into the one
artifact buffer it returns, so no plaintext is staged there.
``seal_file`` streams a regular file through one reused buffer of at
most ``chunk_size`` bytes, so it never holds more than one chunk of the
model: it reserves the header's bytes at the start of the output, reads,
hashes, encrypts in place and writes each chunk, then writes the header
at offset 0. A model file that changes size meanwhile is refused.
Raw mode, an input whose size is not known up front, and an output that
cannot seek are handled whole in memory: an input that is not a regular
file (a FIFO, ``/dev/stdin``), or a regular file whose size reads 0 (a
procfs pseudo-file), is read whole; an empty file seals to the same
bytes either way.

Every output (the artifact, its manifest, ``mvc unseal --out``) goes
through ``_atomic_output``: a new or regular path is replaced atomically
and keeps its mode; a FIFO, device or symlink is written through. As
that truncates, ``seal_file`` refuses a symlink to the model itself. With
a manifest, it refuses, before opening anything, an output that is
neither new nor, links followed, a regular file, such as a FIFO.

When the rename will replace a regular file, the temp file's writeback
is started early: ``seal_file`` starts it for each window of
``_WRITEBACK_WINDOW`` bytes as soon as the window is written, so the disk
takes it while the next chunk is hashed and encrypted, and
``_atomic_output`` starts it for the whole file just before the rename.
ext4 (``auto_da_alloc``) starts the same writeback inside a rename that
replaces a file, and the rename waits while it is submitted; started
early, it leaves the rename nothing to flush. Nothing waits for the disk
and nothing is fsynced, so what a crash can leave is unchanged. A new
path gets no early writeback, as its rename never forced one; nor does
anything written through.

Timing split mirrors the two-column reporting convention this toolkit
benchmarks against, with the digest and the commit timed on their own:

* ``hash_ms`` -- SHA-256 of the plaintext.
* ``encrypt_ms`` -- the cipher work: the CTR calls on the chunks of a
  container, or the ECB/PKCS#7 encryption of a raw seal.
* ``storage_ms`` -- for ``seal_file``, the writes of the sealed bytes
  (chunk by chunk when streamed, then the header) plus the flush to the
  OS. 0 for ``seal``.
* ``commit_ms`` -- for ``seal_file``, the rest of the artifact's output:
  creating the temp file (or opening a written-through output), the
  writeback starts, the close and the rename. 0 for ``seal``. It is not
  in the manifest.

Reading the model file and writing the manifest are in none of them.
"""

from __future__ import annotations

import contextlib
import ctypes
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

# Writeback of a replacing temp file is started in windows of this many
# bytes; 1, 4 and 8 MiB sealed the paper's six sizes equally fast.
_WRITEBACK_WINDOW = 1 << 20
_SYNC_FILE_RANGE_WRITE = 2  # start writeback of dirty pages; do not wait

try:
    _sync_file_range = ctypes.CDLL(None).sync_file_range
except (AttributeError, OSError, TypeError):  # not Linux: no early writeback
    _sync_file_range = None
else:
    _sync_file_range.argtypes = [ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint]
    _sync_file_range.restype = ctypes.c_int


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

    The report's storage_ms and commit_ms are 0; only seal_file touches
    storage.
    """
    _check_chunk_size(mode, chunk_size)
    size = len(model_bytes)
    if mode is CipherMode.RAW_ECB_PKCS7:
        start = _now_ms()
        digest = sha256(model_bytes)
        hash_ms = _now_ms() - start
        sealed = ecb_encrypt(model_bytes, key)
        encrypt_ms = _now_ms() - start - hash_ms
    else:
        head_len = header_len(chunk_count_for(size, chunk_size))
        sealed = bytearray(head_len + size)
        payload = memoryview(sealed)[head_len:]
        source = memoryview(model_bytes)
        head, digest, hash_ms, encrypt_ms = _seal_chunks(
            size, key, chunk_size, lambda span: (source[span], payload[span]))
        sealed[:head_len] = head

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
                 emit=None) -> tuple[bytes, bytes, float, float]:
    """The one container seal loop, shared by seal and seal_file.

    For each span of ``chunk_slices(size, chunk_size)``, ``next_chunk(span)``
    returns ``(plaintext, out)``: that chunk's plaintext and a writable
    buffer of the same length, which may be the plaintext's own. The loop
    hashes the plaintext, encrypts it into ``out``, and calls
    ``emit(out, span)``, if given, before asking for the next chunk.

    Returns the packed header and chunk table, the plaintext digest, and
    the milliseconds spent hashing and encrypting.
    """
    nonce = secrets.token_bytes(NONCE_BYTES)
    hasher = hashlib.sha256()
    hash_ms = crypt_ms = 0.0
    for index, span in enumerate(chunk_slices(size, chunk_size)):
        plaintext, out = next_chunk(span)
        t0 = _now_ms()
        hasher.update(plaintext)
        t1 = _now_ms()
        ctr_crypt(plaintext, key, nonce, index, out=out)
        t2 = _now_ms()
        if emit is not None:
            emit(out, span)
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
    return encode_header(header), digest, hash_ms, crypt_ms


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
    see the module docstring, also for the outputs a manifest rules out.
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
    with _reading(input_path):
        source = open(input_path, "rb", buffering=0)
    with source:
        with _reading(input_path):
            info = os.fstat(source.fileno())
        with contextlib.suppress(OSError):  # a dangling link is not the model
            if output_path.is_symlink() and os.path.samestat(os.stat(output_path), info):
                raise IoError(f"cannot write {output_path}: it is a link to the model "
                              f"file {input_path}", path=str(output_path))
        commit = _Commit()
        with _atomic_output(output_path, commit) as out:
            if (mode is CipherMode.CHUNKED_CTR and stat.S_ISREG(info.st_mode)
                    and info.st_size and out.seekable()):
                report = _stream_container(source, info.st_size, input_path, out,
                                           key, chunk_size, commit)
            else:
                with _reading(input_path):
                    model_bytes = source.readall()
                sealed, report = seal(model_bytes, key, mode, chunk_size)
                start = _now_ms()
                out.write(sealed)
                out.flush()
                report = replace(report, storage_ms=_now_ms() - start)
        report = replace(report, commit_ms=commit.ms)

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


def _changed_error(path: Path, action: str) -> IoError:
    return IoError(f"file {path} changed while it was being {action}", path=str(path))


def _read_exactly(source, buf, path: Path, action: str) -> None:
    """Fill ``buf`` from ``source``; IoError if ``path`` ends first, as when it shrank."""
    with memoryview(buf) as view, _reading(path):
        filled = 0
        while filled < len(view):
            n = source.readinto(view[filled:])
            if not n:
                raise _changed_error(path, action)
            filled += n


def _stream_container(source, size: int, input_path: Path, out,
                      key: KeyMaterial, chunk_size: int, commit: _Commit) -> SealReport:
    """Seal ``size`` bytes from ``source`` into seekable ``out`` through one chunk buffer.

    ``out`` is ``commit``'s output; each chunk written is reported to it.
    """
    buf = bytearray(min(size, chunk_size))
    view = memoryview(buf)
    head_len = header_len(chunk_count_for(size, chunk_size))
    write_ms = 0.0

    def read_chunk(span: slice) -> tuple[memoryview, memoryview]:
        chunk = view[: span.stop - span.start]
        _read_exactly(source, chunk, input_path, "sealed")
        return chunk, chunk

    def write_chunk(chunk: memoryview, span: slice) -> None:
        nonlocal write_ms
        start = _now_ms()
        out.write(chunk)
        write_ms += _now_ms() - start
        commit.written(out, head_len + span.stop)

    try:
        out.seek(head_len)
        head, digest, hash_ms, encrypt_ms = _seal_chunks(
            size, key, chunk_size, read_chunk, write_chunk)
        with _reading(input_path):
            if source.read(1):
                raise _changed_error(input_path, "sealed")
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


def _start_writeback(fd: int, offset: int, length: int) -> None:
    """Start writeback of ``length`` bytes of ``fd`` from ``offset``; 0 runs to the end.

    Waits for no disk write. Best effort: where libc lacks
    ``sync_file_range`` it does nothing, and its errors are ignored.
    """
    if _sync_file_range is not None:
        _sync_file_range(fd, offset, length, _SYNC_FILE_RANGE_WRITE)


class _Commit:
    """One ``_atomic_output``'s commit: its time, and its early writeback.

    ``ms`` adds up the time spent creating the temp file or opening the
    output, starting writeback, closing and renaming. ``_atomic_output``
    sets ``replacing`` once the output is a temp file that will be renamed
    over a regular file; only then is writeback started early.
    """

    def __init__(self):
        self.ms = 0.0
        self.replacing = False
        self._started = 0  # writeback was started below this offset

    def written(self, handle, end: int) -> None:
        """``handle`` holds its first ``end`` bytes: start their writeback by whole windows."""
        if self.replacing and end - self._started >= _WRITEBACK_WINDOW:
            start = _now_ms()
            _start_writeback(handle.fileno(), self._started, end - self._started)
            self._started = end
            self.ms += _now_ms() - start


@contextlib.contextmanager
def _atomic_output(path: Path, commit: _Commit | None = None):
    """Yield a binary file whose contents end up at ``path``.

    A new or regular ``path`` is written through a temp file beside it,
    which takes the permission bits of the file it replaces (a new file
    stays 0600) and is renamed over ``path`` after the block; on any
    exception, interrupts included, the temp file is removed and ``path``
    is left as it was. Anything else, such as a FIFO, a device or a
    symlink, is opened and written through as it stands, since renaming
    over it would replace the node itself. An OSError is raised as IoError.

    A temp file that replaces a regular file has its whole writeback
    started just before the rename. ``commit``, if given, learns whether
    the output replaces a regular file and records the time spent here;
    see ``_Commit``.
    """
    commit = _Commit() if commit is None else commit
    tmp_name = None
    start = _now_ms()
    try:
        try:
            old = os.lstat(path)
        except FileNotFoundError:
            old = None
        if old is not None and not stat.S_ISREG(old.st_mode):
            handle = open(path, "wb")
        else:
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                            suffix=".tmp")
            handle = os.fdopen(fd, "wb")
        with handle:
            if tmp_name is not None and old is not None:
                os.chmod(tmp_name, stat.S_IMODE(old.st_mode))
                commit.replacing = True
            commit.ms += _now_ms() - start
            yield handle
            start = _now_ms()
            if commit.replacing:
                handle.flush()
                _start_writeback(handle.fileno(), 0, 0)
        if tmp_name is not None:
            os.replace(tmp_name, path)
        commit.ms += _now_ms() - start
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc.strerror or exc}", path=str(path)) from exc
        raise

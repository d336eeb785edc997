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
cannot seek are handled whole in memory, through the same code as
``seal``: the model is read into one ``bytearray``, which is wiped once
it is sealed. A regular file is read into a buffer of its size (and
refused if it changes size meanwhile); an input that is not a regular
file (a FIFO, ``/dev/stdin``), or a regular file whose size reads 0 (a
procfs pseudo-file), grows the buffer until it ends. An empty file seals
to the same bytes either way.

Every output (the artifact, its manifest, ``mvc unseal --out``) goes
through ``_atomic_output``: a new or regular path is replaced atomically
and keeps its mode; a FIFO, device or symlink is written through. As
that truncates, ``seal_file`` refuses a symlink to the model itself. With
a manifest, it refuses, before opening anything, an output that is
neither new nor, links followed, a regular file, such as a FIFO.

When the rename will replace a regular file, the temp file's writeback
is started early. ``_atomic_output`` yields a ``written(end)`` callback
with the file: ``seal_file`` calls it as each chunk is written, and it
starts the writeback of every whole window of ``_WRITEBACK_WINDOW``
bytes written since the last start, so the disk takes it while the next
chunk is hashed and encrypted; ``_atomic_output`` then starts it for the
whole file just before the rename. ext4 (``auto_da_alloc``) starts the
same writeback inside a rename that replaces a file, and the rename
waits while it is submitted; started early, it leaves the rename nothing
to flush. Nothing waits for the disk and nothing is fsynced, so what a
crash can leave is unchanged. A new path gets no early writeback, as its
rename never forced one; nor does anything written through, for which
``written`` does nothing.

Timing split mirrors the two-column reporting convention this toolkit
benchmarks against, with the digest and the commit timed on their own.
Each phase is timed into one ``_Phases`` record, keyed by the
``SealReport`` field it fills, and the report is built from it:

* ``hash_ms`` -- SHA-256 of the plaintext.
* ``encrypt_ms`` -- the cipher work: the CTR calls on the chunks of a
  container, or the ECB/PKCS#7 encryption of a raw seal.
* ``storage_ms`` -- for ``seal_file``, the writes of the sealed bytes
  (chunk by chunk when streamed, then the header) plus the flush to the
  OS. 0 for ``seal``.
* ``commit_ms`` -- for ``seal_file``, the rest of the artifact's output:
  creating the temp file (or opening a written-through output), setting
  its mode, the writeback starts, the close and the rename. 0 for
  ``seal``. It is not in the manifest.

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
from dataclasses import dataclass
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

# A pipe holds 64 KiB by default, so a larger read from one gains nothing,
# and the bytes of one read are a small transient beside the growing buffer.
_PIPE_READ = 64 * 1024

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


class _Phases(dict):
    """Milliseconds spent in each timed phase of one seal, by SealReport field name.

    ``with phases("hash_ms"):`` adds the block's wall time to that phase.
    """

    def __init__(self):
        super().__init__(hash_ms=0.0, encrypt_ms=0.0, storage_ms=0.0, commit_ms=0.0)

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = _now_ms()
        yield
        self[name] += _now_ms() - start

    def report(self, input_len, output_len, mode, digest) -> SealReport:
        """The report of a seal with these outcomes and these phase times."""
        return SealReport(input_len, output_len, mode, plaintext_digest=digest, **self)


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
    phases = _Phases()
    sealed, digest = _seal(model_bytes, key, mode, chunk_size, phases)
    return sealed, phases.report(len(model_bytes), len(sealed), mode, digest)


def _seal(model, key: KeyMaterial, mode: CipherMode, chunk_size: int,
          phases: _Phases) -> tuple[bytearray, bytes]:
    """Seal the whole of ``model`` in memory; returns the artifact and the plaintext digest."""
    if mode is CipherMode.RAW_ECB_PKCS7:
        with phases("hash_ms"):
            digest = sha256(model)
        with phases("encrypt_ms"):
            return ecb_encrypt(model, key), digest
    size = len(model)
    head_len = header_len(chunk_count_for(size, chunk_size))
    sealed = bytearray(head_len + size)
    payload = memoryview(sealed)[head_len:]
    source = memoryview(model)
    head, digest = _seal_chunks(size, key, chunk_size, phases,
                                lambda span: (source[span], payload[span]))
    sealed[:head_len] = head
    return sealed, digest


def _seal_chunks(size: int, key: KeyMaterial, chunk_size: int, phases: _Phases, next_chunk,
                 emit=None) -> tuple[bytes, bytes]:
    """The one container seal loop, shared by seal and seal_file.

    For each span of ``chunk_slices(size, chunk_size)``, ``next_chunk(span)``
    returns ``(plaintext, out)``: that chunk's plaintext and a writable
    buffer of the same length, which may be the plaintext's own. The loop
    hashes the plaintext, encrypts it into ``out``, and calls
    ``emit(out, span)``, if given, before asking for the next chunk.

    Returns the packed header and chunk table, and the plaintext digest.
    """
    nonce = secrets.token_bytes(NONCE_BYTES)
    hasher = hashlib.sha256()
    for index, span in enumerate(chunk_slices(size, chunk_size)):
        plaintext, out = next_chunk(span)
        with phases("hash_ms"):
            hasher.update(plaintext)
        with phases("encrypt_ms"):
            ctr_crypt(plaintext, key, nonce, index, out=out)
        if emit is not None:
            emit(out, span)
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
        size = info.st_size if stat.S_ISREG(info.st_mode) else 0
        with contextlib.suppress(OSError):  # a dangling link is not the model
            if output_path.is_symlink() and os.path.samestat(os.stat(output_path), info):
                raise IoError(f"cannot write {output_path}: it is a link to the model "
                              f"file {input_path}", path=str(output_path))
        phases = _Phases()
        with _atomic_output(output_path, phases) as (out, written):
            if mode is CipherMode.CHUNKED_CTR and size and out.seekable():
                output_len, digest = _stream_container(source, size, input_path, out, written,
                                                       key, chunk_size, phases)
            else:
                model = _read_whole(source, size, input_path, "sealed")
                try:
                    sealed, digest = _seal(model, key, mode, chunk_size, phases)
                    with phases("storage_ms"):
                        out.write(sealed)
                        out.flush()
                finally:
                    _wipe(model)
                size, output_len = len(model), len(sealed)
    report = phases.report(size, output_len, mode, digest)

    if write_manifest:
        manifest = json.dumps(report.manifest(), indent=2) + "\n"
        with _atomic_output(Path(f"{output_path}.manifest.json")) as (out, _):
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


def _check_ended(source, path: Path, action: str) -> None:
    """IoError unless ``source`` is at its end, as it is not when ``path`` grew."""
    with _reading(path):
        if source.read(1):
            raise _changed_error(path, action)


def _read_whole(source, size: int, path: Path, action: str) -> bytearray:
    """Read all of ``source`` into one bytearray, which the caller can wipe.

    A nonzero ``size``, a regular file's, is read into a buffer of exactly
    that size, and IoError is raised if ``path`` shrank or grew. Otherwise,
    as for a FIFO, one buffer grows in place by pipe-sized reads until the
    input ends.
    """
    if size:
        buf = bytearray(size)
        _read_exactly(source, buf, path, action)
        _check_ended(source, path, action)
        return buf
    buf = bytearray()
    with _reading(path):
        while chunk := source.read(_PIPE_READ):
            buf += chunk  # grown in place: the input is held once
    return buf


def _stream_container(source, size: int, input_path: Path, out, written,
                      key: KeyMaterial, chunk_size: int, phases: _Phases) -> tuple[int, bytes]:
    """Seal ``size`` bytes from ``source`` into seekable ``out`` through one chunk buffer.

    ``written`` is ``out``'s callback from ``_atomic_output``; each chunk
    written is reported to it. Returns the artifact's length and the
    plaintext digest.
    """
    buf = bytearray(min(size, chunk_size))
    view = memoryview(buf)
    head_len = header_len(chunk_count_for(size, chunk_size))

    def read_chunk(span: slice) -> tuple[memoryview, memoryview]:
        chunk = view[: span.stop - span.start]
        _read_exactly(source, chunk, input_path, "sealed")
        return chunk, chunk

    def write_chunk(chunk: memoryview, span: slice) -> None:
        with phases("storage_ms"):
            out.write(chunk)
        written(head_len + span.stop)

    try:
        out.seek(head_len)
        head, digest = _seal_chunks(size, key, chunk_size, phases, read_chunk, write_chunk)
        _check_ended(source, input_path, "sealed")
        with phases("storage_ms"):
            out.seek(0)
            out.write(head)
            out.flush()
    finally:
        _wipe(buf)
    return head_len + size, digest


def _start_writeback(fd: int, offset: int, length: int) -> None:
    """Start writeback of ``length`` bytes of ``fd`` from ``offset``; 0 runs to the end.

    Waits for no disk write. Best effort: where libc lacks
    ``sync_file_range`` it does nothing, and its errors are ignored.
    """
    if _sync_file_range is not None:
        _sync_file_range(fd, offset, length, _SYNC_FILE_RANGE_WRITE)


@contextlib.contextmanager
def _atomic_output(path: Path, phases: _Phases | None = None):
    """Yield ``(handle, written)``: a binary file whose contents end up at ``path``.

    A new or regular ``path`` is written through a temp file beside it,
    which takes the permission bits of the file it replaces (a new file
    stays 0600) and is renamed over ``path`` after the block; on any
    exception, interrupts included, the temp file is removed and ``path``
    is left as it was. Anything else, such as a FIFO, a device or a
    symlink, is opened and written through as it stands, since renaming
    over it would replace the node itself. An OSError is raised as IoError.

    A temp file that replaces a regular file has its whole writeback
    started just before the rename; ``written(end)``, called once the
    handle holds its first ``end`` bytes, starts the writeback of each
    whole ``_WRITEBACK_WINDOW`` of them sooner. For any other output it
    does nothing. Everything here but the block is timed into
    ``phases["commit_ms"]``, if given.
    """
    phases = _Phases() if phases is None else phases
    tmp_name = None
    try:
        with phases("commit_ms"):
            old = None
            with contextlib.suppress(FileNotFoundError):
                old = os.lstat(path)
            if old is not None and not stat.S_ISREG(old.st_mode):
                handle = open(path, "wb")
            else:
                fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                                suffix=".tmp")
                handle = os.fdopen(fd, "wb")
        replacing = tmp_name is not None and old is not None
        started = 0  # writeback was started below this offset

        def written(end: int) -> None:
            nonlocal started
            if replacing and end - started >= _WRITEBACK_WINDOW:
                with phases("commit_ms"):
                    _start_writeback(handle.fileno(), started, end - started)
                started = end

        with handle:
            if replacing:
                with phases("commit_ms"):
                    os.chmod(tmp_name, stat.S_IMODE(old.st_mode))
            yield handle, written
            with phases("commit_ms"):
                if replacing:
                    handle.flush()
                    _start_writeback(handle.fileno(), 0, 0)
                handle.close()
                if tmp_name is not None:
                    os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc.strerror or exc}", path=str(path)) from exc
        raise

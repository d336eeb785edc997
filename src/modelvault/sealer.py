"""Sealing: encrypt a model into a distributable artifact, with timings.

Raw mode emits the bare ECB/PKCS#7 ciphertext and nothing else, so the
output is byte-identical to the classic one-shot pipeline for the same key
and input. Container mode draws a fresh random file nonce and builds the
MVC1 artifact in one buffer: the plaintext is framed, then each chunk of
the payload region is encrypted in place under its own counter stream.

Timing split mirrors the two-column reporting convention this toolkit
benchmarks against: encrypt_ms is the time to produce the final sealed
byte sequence in memory, storage_ms the time from ciphertext-ready to the
flush of the output file (buffered write plus flush to the OS; the atomic
rename that follows is not counted).
"""

from __future__ import annotations

import json
import os
import secrets
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .container import (
    ContainerHeader,
    DEFAULT_CHUNK_SIZE,
    SealedContainer,
    build_chunk_table,
    encode,
)
from .crypto import CipherMode, KeyMaterial, NONCE_BYTES, ctr_crypt, ecb_encrypt, sha256
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
    if mode is CipherMode.CHUNKED_CTR and chunk_size < MIN_CHUNK_SIZE:
        raise RangeError(f"chunk_size must be at least {MIN_CHUNK_SIZE}, got {chunk_size}")

    digest = sha256(model_bytes)
    start = _now_ms()
    if mode is CipherMode.RAW_ECB_PKCS7:
        sealed = ecb_encrypt(model_bytes, key)
    else:
        sealed = _seal_container(model_bytes, key, chunk_size, digest)
    encrypt_ms = _now_ms() - start

    report = SealReport(
        input_len=len(model_bytes),
        output_len=len(sealed),
        mode=mode,
        encrypt_ms=encrypt_ms,
        storage_ms=0.0,
        plaintext_digest=digest,
    )
    return sealed, report


def _seal_container(model_bytes: bytes, key: KeyMaterial, chunk_size: int,
                    digest: bytes) -> bytearray:
    nonce = secrets.token_bytes(NONCE_BYTES)
    table = build_chunk_table(len(model_bytes), chunk_size)
    header = ContainerHeader(
        mode=CipherMode.CHUNKED_CTR,
        key_fingerprint=key.fingerprint,
        file_nonce=nonce,
        plaintext_len=len(model_bytes),
        chunk_size=chunk_size,
        chunk_count=len(table),
        plaintext_digest=digest,
    )
    # Frame the plaintext, then encrypt the payload region in place, so the
    # artifact is the only buffer of its size that sealing allocates.
    sealed = encode(SealedContainer(header=header, chunk_table=table, payload=model_bytes))
    payload = memoryview(sealed)[len(sealed) - len(model_bytes):]
    for index, e in enumerate(table):
        span = slice(e.ciphertext_offset, e.ciphertext_offset + e.plaintext_len)
        ctr_crypt(payload[span], key, nonce, index, out=payload[span])
    return sealed


def seal_file(
    input_path,
    output_path,
    key: KeyMaterial,
    mode: CipherMode = CipherMode.CHUNKED_CTR,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    write_manifest: bool = True,
) -> SealReport:
    """Seal a model file to disk, atomically, and write its manifest.

    The sealed bytes land at output_path via a temp file and rename, so a
    crash never leaves a truncated artifact. The manifest goes to
    ``<output_path>.manifest.json``.
    """
    input_path = Path(input_path)
    output_path = Path(output_path)
    try:
        model_bytes = input_path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read model file {input_path}: {exc.strerror or exc}",
                      path=str(input_path)) from exc

    sealed, report = seal(model_bytes, key, mode, chunk_size)

    storage_ms = _atomic_write(output_path, sealed)
    report = replace(report, storage_ms=storage_ms)
    if write_manifest:
        manifest = json.dumps(report.manifest(), indent=2) + "\n"
        _atomic_write(output_path.with_name(output_path.name + ".manifest.json"),
                      manifest.encode())
    return report


def _atomic_write(path: Path, data: bytes | bytearray | memoryview) -> float:
    """Write-to-temp, flush, rename. Never leaves a partial file at path.

    Returns the milliseconds spent in write+flush (the storage phase);
    temp-file creation and the rename are outside that window.
    """
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as exc:
        raise IoError(f"cannot create output in {path.parent}: {exc.strerror or exc}",
                      path=str(path)) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            start = _now_ms()
            handle.write(data)
            handle.flush()
            storage_ms = _now_ms() - start
        os.replace(tmp_name, path)
        return storage_ms
    except OSError as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise IoError(f"cannot write {path}: {exc.strerror or exc}", path=str(path)) from exc

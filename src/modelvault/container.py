"""The sealed-model container format ("MVC1") and raw-format detection.

A sealed model is distributed either as a bare AES-256-ECB/PKCS#7
ciphertext (the raw ``.dat`` layout, no framing at all) or as a versioned
container that adds a key fingerprint, a plaintext digest, and a chunk
table so the payload can be decrypted chunk by chunk.

Container layout, all integers little-endian:

    header, 72 bytes
        magic             4s   b"MVC1"
        version           u16  currently 1
        mode              u8   CipherMode wire byte (v1 payloads are CTR)
        flags             u8   reserved, must be 0
        key_fingerprint   4s   first 4 bytes of SHA-256(key)
        file_nonce        8s   random per file, prefixes every counter block
        plaintext_len     u64
        chunk_size        u32
        chunk_count       u32
        plaintext_digest  32s  SHA-256 of the plaintext
        header_crc        u32  CRC-32 of the preceding 68 header bytes
    chunk table, 12 bytes per entry, chunk_count entries
        ciphertext_offset u64  from the start of the payload
        plaintext_len     u32
    payload
        ciphertext, CTR-encrypted per chunk (length-preserving)

Chunks tile the plaintext contiguously; every chunk is chunk_size bytes
except the last. An empty plaintext still carries one (empty) chunk. So
plaintext_len and chunk_size alone fix chunk_count and every table entry:
``chunk_slices`` is the one definition of that layout, the sealer and the
unsealer both walk it, and ``decode`` rejects a stored count or table that
differs from it. The mode byte keeps a slot for the raw layout, but a raw
seal is by definition headerless, so a v1 container always says
CHUNKED_CTR.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .crypto import CipherMode, FINGERPRINT_BYTES, NONCE_BYTES
from .errors import (
    CrcError,
    InvariantError,
    MagicError,
    TruncationError,
    VersionError,
)

MAGIC = b"MVC1"
VERSION = 1
DEFAULT_CHUNK_SIZE = 1 << 20

_HEADER_BODY = struct.Struct("<4sHBB4s8sQII32s")  # everything the CRC covers
_HEADER_CRC = struct.Struct("<I")
_CHUNK_ENTRY = struct.Struct("<QI")

HEADER_SIZE = _HEADER_BODY.size + _HEADER_CRC.size  # 72
CHUNK_ENTRY_SIZE = _CHUNK_ENTRY.size  # 12

_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1
MAX_CHUNK_SIZE = _U32_MAX  # chunk_size is a u32 on the wire


class SealedFormat(Enum):
    """Outer layout of a sealed artifact."""

    RAW_DAT = "raw-dat"
    CONTAINER = "container"


@dataclass(frozen=True)
class ContainerHeader:
    mode: CipherMode
    key_fingerprint: bytes
    file_nonce: bytes
    plaintext_len: int
    chunk_size: int
    plaintext_digest: bytes
    version: int = VERSION
    flags: int = 0

    @property
    def chunk_count(self) -> int:
        return chunk_count_for(self.plaintext_len, self.chunk_size)


@dataclass(frozen=True)
class SealedContainer:
    header: ContainerHeader
    payload: bytes | memoryview  # decode() hands back a view over its input


def chunk_count_for(plaintext_len: int, chunk_size: int) -> int:
    """Ceiling division, with a minimum of one (possibly empty) chunk."""
    if chunk_size <= 0:
        raise InvariantError(f"chunk_size must be positive, got {chunk_size}")
    return max(1, -(-plaintext_len // chunk_size))


def chunk_slices(plaintext_len: int, chunk_size: int) -> Iterator[slice]:
    """Yield each chunk's span of the plaintext, and of the payload, in order.

    Contiguous chunk_size slices with a short tail; an empty plaintext
    yields one empty slice. Chunk ``i`` is encrypted under counter stream
    ``i``.
    """
    for start in range(0, chunk_count_for(plaintext_len, chunk_size) * chunk_size, chunk_size):
        yield slice(start, min(start + chunk_size, plaintext_len))


def _pack_table(plaintext_len: int, chunk_size: int) -> bytes:
    return b"".join(_CHUNK_ENTRY.pack(span.start, span.stop - span.start)
                    for span in chunk_slices(plaintext_len, chunk_size))


def _validate(h: ContainerHeader) -> None:
    """Check a header's fields against the format."""
    if h.version != VERSION:
        raise InvariantError(f"version must be {VERSION}, got {h.version}")
    if h.mode is not CipherMode.CHUNKED_CTR:
        raise InvariantError("v1 containers carry CTR payloads only")
    if h.flags != 0:
        raise InvariantError(f"flags must be 0, got {h.flags}")
    if len(h.key_fingerprint) != FINGERPRINT_BYTES:
        raise InvariantError("key_fingerprint must be 4 bytes")
    if len(h.file_nonce) != NONCE_BYTES:
        raise InvariantError("file_nonce must be 8 bytes")
    if len(h.plaintext_digest) != 32:
        raise InvariantError("plaintext_digest must be 32 bytes")
    if not 0 <= h.plaintext_len <= _U64_MAX:
        raise InvariantError("plaintext_len out of range")
    if not 0 < h.chunk_size <= MAX_CHUNK_SIZE:
        raise InvariantError("chunk_size out of range")
    if h.chunk_count > _U32_MAX:
        raise InvariantError("chunk_count out of range")


def _check_payload(container: SealedContainer) -> None:
    size, expected = len(container.payload), container.header.plaintext_len
    if size != expected:
        raise InvariantError(f"payload is {size} bytes, expected {expected}")


def header_len(chunk_count: int) -> int:
    """Bytes from the start of a container to its payload."""
    return HEADER_SIZE + chunk_count * CHUNK_ENTRY_SIZE


def encode_header(header: ContainerHeader) -> bytes:
    """The bit-exact wire form of everything before the payload.

    That is the header, its CRC and the chunk table, header_len(chunk_count)
    bytes. A streaming sealer writes the payload first and this last.
    """
    _validate(header)
    h = header
    body = _HEADER_BODY.pack(
        MAGIC,
        h.version,
        h.mode.value,
        h.flags,
        h.key_fingerprint,
        h.file_nonce,
        h.plaintext_len,
        h.chunk_size,
        h.chunk_count,
        h.plaintext_digest,
    )
    return b"".join((body, _HEADER_CRC.pack(zlib.crc32(body)),
                     _pack_table(h.plaintext_len, h.chunk_size)))


def encode(container: SealedContainer) -> bytearray:
    """Serialize a container to its bit-exact wire form, in one new buffer."""
    head = encode_header(container.header)
    _check_payload(container)
    return bytearray().join((head, container.payload))


def decode(data: bytes) -> SealedContainer:
    """Parse and fully validate a serialized container.

    The payload is a memoryview over ``data``, not a copy of the
    ciphertext. Raised errors name the failing region: MagicError,
    VersionError, CrcError, TruncationError, or InvariantError. The
    stored chunk_count and chunk table must be exactly the ones the
    header's plaintext_len and chunk_size imply.
    """
    if len(data) < HEADER_SIZE:
        raise TruncationError(f"header needs {HEADER_SIZE} bytes, got {len(data)}")
    body = data[: _HEADER_BODY.size]
    (magic, version, mode_byte, flags, fingerprint, nonce,
     plaintext_len, chunk_size, chunk_count, digest) = _HEADER_BODY.unpack(body)
    if magic != MAGIC:
        raise MagicError(f"magic is {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionError(f"version {version} unsupported, expected {VERSION}")
    (stored_crc,) = _HEADER_CRC.unpack_from(data, _HEADER_BODY.size)
    if zlib.crc32(body) != stored_crc:
        raise CrcError("header_crc does not validate")
    try:
        mode = CipherMode.from_wire(mode_byte)
    except ValueError as exc:
        raise InvariantError(str(exc)) from exc

    table_end = header_len(chunk_count)
    if len(data) < table_end:
        raise TruncationError(
            f"chunk table needs {table_end - HEADER_SIZE} bytes, "
            f"got {len(data) - HEADER_SIZE}"
        )
    payload = memoryview(data)[table_end:]
    if len(payload) < plaintext_len:
        raise TruncationError(f"payload is {len(payload)} bytes, header declares {plaintext_len}")

    header = ContainerHeader(
        mode=mode,
        key_fingerprint=fingerprint,
        file_nonce=nonce,
        plaintext_len=plaintext_len,
        chunk_size=chunk_size,
        plaintext_digest=digest,
        version=version,
        flags=flags,
    )
    _validate(header)
    # The stored count already fits in data, and the implied count must
    # equal it, so the table packed here is no longer than data.
    if chunk_count != header.chunk_count:
        raise InvariantError(
            f"chunk_count {chunk_count} does not match "
            f"ceil({plaintext_len} / {chunk_size})"
        )
    if data[HEADER_SIZE:table_end] != _pack_table(plaintext_len, chunk_size):
        raise InvariantError(
            f"chunk table is not the contiguous {chunk_size}-byte tiling of {plaintext_len} bytes"
        )
    container = SealedContainer(header=header, payload=payload)
    _check_payload(container)  # rejects trailing bytes
    return container


def detect_format(data: bytes) -> SealedFormat:
    """Best-effort classification of a sealed artifact.

    CONTAINER only when the magic matches and the header CRC validates;
    anything else is presumed to be a raw ``.dat``. Callers that know the
    format out of band should say so instead of relying on this heuristic.
    """
    if len(data) >= HEADER_SIZE and data[:4] == MAGIC:
        if zlib.crc32(data[: _HEADER_BODY.size]) == _HEADER_CRC.unpack_from(data, _HEADER_BODY.size)[0]:
            return SealedFormat.CONTAINER
    return SealedFormat.RAW_DAT

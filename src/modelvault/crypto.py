"""Stateless AES-256 primitives.

Two cipher modes are offered. RAW_ECB_PKCS7 reproduces the classic
"encrypt the whole file in one doFinal" pipeline bit for bit: AES-256-ECB
with PKCS#7 padding and no framing. CHUNKED_CTR is the mode the sealed
container uses; every chunk gets its own counter stream so each chunk
decrypts independently of the others, and ``ctr_crypt``'s ``offset``
lets a chunk be processed in pieces, each from its own 16-byte block.

ECB leaks equal-block patterns and should only be used where byte-level
compatibility with the raw ``.dat`` layout matters; see the README's
security notes.

No function holds hidden randomness or shared state, so all are safe to
call concurrently; ctr_crypt with ``out`` writes only to that buffer. Each
ECB function works in one buffer, cut only once it holds ciphertext, so a
raw seal or unseal holds one copy of the plaintext, which ``_wipe`` zeroes;
``_ecb_encrypt_into`` and ``_ecb_decrypt_into`` work in a buffer the
caller read the input into.

``_secret_buffer`` allocates a container's plaintext buffer; from one huge
page on, it is a mapping of its own, advised to use huge pages, so the
writes that fill it fault it in a huge page at a time, not per 4 KiB.
"""

from __future__ import annotations

import ctypes
import hashlib
import mmap
import secrets
from dataclasses import dataclass, field
from enum import Enum

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import EncodingError, HexError, LengthError, PaddingError, RangeError

BLOCK_SIZE = 16
KEY_BYTES = 32
FINGERPRINT_BYTES = 4
NONCE_BYTES = 8
PASSPHRASE_CHARS = 16

_MAX_CHUNK_INDEX = 1 << 32
_MAX_CTR_LEN = 1 << 36  # 2^32 blocks of 16 bytes; the block counter is 32-bit


def sha256(data) -> bytes:
    """SHA-256 digest (32 bytes) of a bytes-like object."""
    return hashlib.sha256(data).digest()


class CipherMode(Enum):
    """How a model was sealed. Serialized as one byte in the container."""

    RAW_ECB_PKCS7 = 0
    CHUNKED_CTR = 1

    @property
    def token(self) -> str:
        """Short name used by the CLI and seal manifests."""
        return "raw" if self is CipherMode.RAW_ECB_PKCS7 else "ctr"

    @classmethod
    def from_token(cls, token: str) -> "CipherMode":
        for mode in cls:
            if mode.token == token:
                return mode
        raise ValueError(f"unknown cipher mode {token!r}")


@dataclass(frozen=True)
class KeyMaterial:
    """A 256-bit symmetric key plus its 4-byte fingerprint.

    The fingerprint (first 4 bytes of SHA-256 of the key) identifies a key
    without revealing it; repr and str never expose the secret bytes.
    """

    secret: bytes = field(repr=False)

    def __post_init__(self):
        if len(self.secret) != KEY_BYTES:
            raise LengthError(f"key must be {KEY_BYTES} bytes, got {len(self.secret)}")
        object.__setattr__(self, "secret", bytes(self.secret))

    @property
    def fingerprint(self) -> bytes:
        return sha256(self.secret)[:FINGERPRINT_BYTES]

    def __repr__(self) -> str:
        return f"KeyMaterial(fingerprint={self.fingerprint.hex()})"

    __str__ = __repr__

    @classmethod
    def generate(cls) -> "KeyMaterial":
        """Fresh random key from the OS CSPRNG."""
        return cls(secrets.token_bytes(KEY_BYTES))


def derive_key(passphrase: str) -> KeyMaterial:
    """Turn a 16-character passphrase into 32 key bytes.

    Each character is encoded as exactly two bytes (UTF-16 big-endian), so
    16 characters yield a full 256-bit key. Characters outside the Basic
    Multilingual Plane would need four bytes and are rejected.
    """
    if len(passphrase) != PASSPHRASE_CHARS:
        raise LengthError(
            f"passphrase must be exactly {PASSPHRASE_CHARS} characters, got {len(passphrase)}"
        )
    if any(ord(ch) > 0xFFFF for ch in passphrase):
        raise EncodingError("passphrase contains a character outside the Basic Multilingual Plane")
    try:
        encoded = passphrase.encode("utf-16-be")
    except UnicodeEncodeError as exc:  # lone surrogates
        raise EncodingError("passphrase contains an unencodable character") from exc
    return KeyMaterial(encoded)


def load_key_hex(hex_string: str) -> KeyMaterial:
    """Load a raw 32-byte key from its 64-character hex form."""
    cleaned = hex_string.strip()
    if len(cleaned) != 2 * KEY_BYTES:
        raise LengthError(f"key hex must be {2 * KEY_BYTES} characters, got {len(cleaned)}")
    try:
        raw = bytes.fromhex(cleaned)
    except ValueError as exc:
        raise HexError("key hex contains non-hexadecimal characters") from exc
    if len(raw) != KEY_BYTES:
        raise LengthError(f"key hex must decode to {KEY_BYTES} bytes, got {len(raw)}")
    return KeyMaterial(raw)


def _aes(key: KeyMaterial) -> algorithms.AES:
    return algorithms.AES(key.secret)


def encrypt_block(key: KeyMaterial, block: bytes) -> bytes:
    """Raw AES-256 forward transform of exactly one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise LengthError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    enc = Cipher(_aes(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def decrypt_block(key: KeyMaterial, block: bytes) -> bytes:
    """Raw AES-256 inverse transform of exactly one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise LengthError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    dec = Cipher(_aes(key), modes.ECB()).decryptor()
    return dec.update(block) + dec.finalize()


_ZEROS = memoryview(bytes(64 * 1024))
# ECB update_into wants room for one more (partial) block than it writes.
_ECB_SLACK = BLOCK_SIZE - 1
# What a plaintext needs behind it to be padded and encrypted in place.
_ECB_ROOM = BLOCK_SIZE + _ECB_SLACK


# x86-64's PMD page. A smaller buffer cannot get a huge page, and glibc's
# reused heap block is cheaper than a fresh mapping for it.
_HUGE_PAGE = 2 << 20
# tracemalloc domain of the mappings, so a snapshot can filter them.
_TRACE_DOMAIN = 0x6D7663  # "mvc"

try:
    # The default for fd -1 is MAP_SHARED, which is shmem and gets no huge pages.
    _MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    _MADV_HUGEPAGE = mmap.MADV_HUGEPAGE
    _trace_track = ctypes.pythonapi.PyTraceMalloc_Track
    _trace_untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
except AttributeError:  # not Linux, or no CPython C API
    _MAP_FLAGS = None
else:
    _trace_track.argtypes = [ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t]
    _trace_track.restype = ctypes.c_int
    _trace_untrack.argtypes = [ctypes.c_uint, ctypes.c_size_t]
    _trace_untrack.restype = ctypes.c_int


class _TracedMapping(mmap.mmap):
    """An anonymous mapping that tracemalloc counts from creation to unmapping."""

    def _track(self, n: int) -> None:
        self.address = ctypes.addressof(ctypes.c_char.from_buffer(self))
        _trace_track(_TRACE_DOMAIN, self.address, n)  # -2, ignored, when tracemalloc is off

    def resize(self, n: int) -> None:
        """Resize through ``mremap``, which may move the pages but copies no byte."""
        super().resize(n)
        _trace_untrack(_TRACE_DOMAIN, self.address)
        self._track(n)

    def __del__(self):
        # Runs before the base type unmaps, so no new mapping at the same
        # address can be untracked by mistake.
        _trace_untrack(_TRACE_DOMAIN, self.address)


def _mapping(n: int) -> _TracedMapping:
    mapping = _TracedMapping(-1, n, flags=_MAP_FLAGS)
    mapping._track(n)
    return mapping


def _secret_buffer(n: int) -> bytearray | mmap.mmap:
    """A zeroed, writable buffer of ``n`` bytes to decrypt a plaintext into.

    Under ``_HUGE_PAGE`` bytes, or off Linux, it is a ``bytearray``. From
    ``_HUGE_PAGE`` bytes on it is a mapping of its own, advised to use huge
    pages, best effort; the writes that fill it fault its pages in. Like a
    heap buffer, the mapping shows in tracemalloc's counts (as numpy's data
    buffers do) and is freed, here unmapped, when the last reference to it
    goes.
    """
    if n < _HUGE_PAGE or _MAP_FLAGS is None:
        return bytearray(n)
    mapping = _mapping(n)
    try:
        mapping.madvise(_MADV_HUGEPAGE)
    except OSError:
        pass
    return mapping


class _HeapBuffer(bytearray):
    """A ``bytearray`` with a mapping's ``resize``, which may copy it."""

    def resize(self, n: int) -> None:
        self[n:] = bytes(max(0, n - len(self)))


def _growing_buffer(n: int) -> _TracedMapping | _HeapBuffer:
    """A zeroed buffer of ``n`` (> 0) bytes for an input of unknown size.

    ``resize`` grows or cuts it. On Linux it is a mapping counted by
    tracemalloc, as ``_secret_buffer``'s are, and a resize leaves no copy
    of its bytes behind. Off Linux it is on the heap, where a resize that
    moves it leaves the old bytes in the freed block.
    """
    return _HeapBuffer(n) if _MAP_FLAGS is None else _mapping(n)


def _wipe(buf: bytearray | mmap.mmap | memoryview) -> None:
    """Zero-fill ``buf`` in place, block by block, allocating nothing its size."""
    view = memoryview(buf)
    for start in range(0, len(view), len(_ZEROS)):
        piece = view[start : start + len(_ZEROS)]
        piece[:] = _ZEROS[: len(piece)]


def ecb_encrypt(plaintext: bytes, key: KeyMaterial) -> bytearray:
    """AES-256-ECB with PKCS#7 padding.

    Output length is always ((len(plaintext) // 16) + 1) * 16: a full
    padding block is appended when the input is already block-aligned.
    The plaintext is padded and encrypted in place in the returned buffer.
    """
    size = len(plaintext)
    buf = bytearray(size - size % BLOCK_SIZE + _ECB_ROOM)
    # Through a memoryview: bytearray slice assignment copies its source.
    with memoryview(buf) as view:
        view[:size] = plaintext
    with _ecb_encrypt_into(buf, size, key) as sealed:
        padded = len(sealed)
    del buf[padded:]
    return buf


def _ecb_encrypt_into(buf, size: int, key: KeyMaterial) -> memoryview:
    """ecb_encrypt in place: ``buf`` holds the plaintext in its first ``size`` bytes.

    Behind the plaintext, ``buf`` needs room for the padding and for the
    slack ``update_into`` wants; ``_ECB_ROOM`` bytes always suffice.
    Returns a view of the ciphertext at the start of ``buf``.
    """
    n = BLOCK_SIZE - size % BLOCK_SIZE
    padded = size + n
    enc = Cipher(_aes(key), modes.ECB()).encryptor()
    with memoryview(buf) as view:
        view[size:padded] = bytes([n]) * n
        enc.update_into(view[:padded], buf)
    enc.finalize()
    return memoryview(buf)[:padded]


def _ecb_buffer(size: int, ciphertext: _HeapBuffer | _TracedMapping | None = None
                ) -> bytearray | mmap.mmap:
    """A buffer to decrypt ``size`` bytes of ciphertext in, with the slack it needs.

    Given ``ciphertext``, a ``_growing_buffer`` that holds exactly those
    bytes, the buffer is that one, grown by the slack; otherwise it is a
    fresh ``bytearray``.
    """
    if size == 0 or size % BLOCK_SIZE:
        raise LengthError(
            f"ciphertext length must be a positive multiple of {BLOCK_SIZE}, got {size}"
        )
    if ciphertext is None:
        return bytearray(size + _ECB_SLACK)
    ciphertext.resize(size + _ECB_SLACK)
    return ciphertext


def _ecb_decrypt_into(ciphertext, buf: bytearray, key: KeyMaterial) -> memoryview:
    """ecb_decrypt into ``buf`` from ``_ecb_buffer``, which may hold ``ciphertext`` at its start."""
    size = len(ciphertext)
    dec = Cipher(_aes(key), modes.ECB()).decryptor()
    dec.update_into(ciphertext, buf)
    dec.finalize()
    # One uniform error for every failure shape; no padding-oracle detail.
    n = buf[size - 1]
    if not (1 <= n <= BLOCK_SIZE and buf[size - n : size] == bytes([n]) * n):
        _wipe(buf)
        raise PaddingError("invalid padding")
    return memoryview(buf)[: size - n]


def ecb_decrypt(ciphertext: bytes, key: KeyMaterial) -> memoryview:
    """Invert ecb_encrypt, verifying the PKCS#7 padding.

    Returns a view of the plaintext at the start of one fresh buffer, which
    is never resized; on a padding failure the buffer is zeroed first.
    """
    return _ecb_decrypt_into(ciphertext, _ecb_buffer(len(ciphertext)), key)


def ctr_crypt(data: bytes, key: KeyMaterial, file_nonce: bytes, chunk_index: int,
              out: bytearray | memoryview | None = None, *, offset: int = 0) -> bytes | None:
    """XOR ``data`` with the AES-256 counter stream for one chunk.

    The counter block is ``file_nonce || chunk_index (4 bytes BE) ||
    block_counter (4 bytes BE)``, so each (nonce, index) pair names an
    independent keystream and the function is its own inverse.

    ``data`` sits ``offset`` bytes into its chunk, so the block counter
    starts at ``offset // 16``: a chunk may be processed in pieces, each
    at its own offset, and gives the same bytes as in one call.
    ``offset`` must be a non-negative multiple of 16, and ``offset +
    len(data)`` below 2**36, the end of the 32-bit block counter.

    Given ``out``, a writable buffer exactly as long as ``data`` (it may be
    ``data`` itself, to work in place), the result is written there with
    no intermediate copy and None is returned.
    """
    if len(file_nonce) != NONCE_BYTES:
        raise LengthError(f"file nonce must be {NONCE_BYTES} bytes, got {len(file_nonce)}")
    if not 0 <= chunk_index < _MAX_CHUNK_INDEX:
        raise RangeError(f"chunk index must be below 2**32, got {chunk_index}")
    if offset < 0 or offset % BLOCK_SIZE:
        raise RangeError(f"offset must be a non-negative multiple of {BLOCK_SIZE}, got {offset}")
    if offset + len(data) >= _MAX_CTR_LEN:
        raise RangeError("chunk data must end below 2**36 bytes")
    if out is not None and len(out) != len(data):
        raise LengthError(f"output must be {len(data)} bytes, got {len(out)}")
    counter0 = (file_nonce + chunk_index.to_bytes(4, "big")
                + (offset // BLOCK_SIZE).to_bytes(4, "big"))
    enc = Cipher(_aes(key), modes.CTR(counter0)).encryptor()
    if out is None:
        return enc.update(data) + enc.finalize()
    enc.update_into(data, out)
    enc.finalize()
    return None

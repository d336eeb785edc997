"""Unit tests for the sealed container wire format."""

import dataclasses
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelvault.container import (CHUNK_ENTRY_SIZE, DEFAULT_CHUNK_SIZE,
                                  HEADER_SIZE, MAGIC, MAX_CHUNK_SIZE, VERSION,
                                  ContainerHeader, SealedFormat,
                                  chunk_count_for, chunk_slices, decode,
                                  detect_format, encode_header)
import modelvault.container as container_mod
from modelvault.crypto import CipherMode, sha256
from modelvault.errors import (ContainerError, CrcError, InvariantError,
                               MagicError, TruncationError, VersionError)

MIB = 1024 * 1024


def make_header(payload_len=100, chunk_size=64, nonce=b"\x01" * 8,
                fingerprint=b"\xaa\xbb\xcc\xdd") -> ContainerHeader:
    return ContainerHeader(
        mode=CipherMode.CHUNKED_CTR,
        key_fingerprint=fingerprint,
        file_nonce=nonce,
        plaintext_len=payload_len,
        chunk_size=chunk_size,
        plaintext_digest=sha256(payload_of(payload_len)),
    )


def payload_of(length: int) -> bytes:
    return bytes(i % 251 for i in range(length))


def encode(header: ContainerHeader) -> bytearray:
    """A whole container: the packed header and table, then the payload."""
    return bytearray(encode_header(header) + payload_of(header.plaintext_len))


def parse(data) -> ContainerHeader:
    return decode(data, len(data))


def refix_crc(encoded: bytearray) -> bytearray:
    """Re-seal the header CRC over an edited header, as a forger would."""
    encoded[68:72] = zlib.crc32(encoded[:68]).to_bytes(4, "little")
    return encoded


def set_u(encoded: bytearray, offset: int, width: int, value: int) -> bytearray:
    encoded[offset:offset + width] = value.to_bytes(width, "little")
    return encoded


class TestChunkMath:
    @pytest.mark.parametrize("length,size,count", [
        (0, 64, 1),        # empty still gets one (empty) chunk
        (1, 64, 1),
        (64, 64, 1),
        (65, 64, 2),
        (128, 64, 2),
        (129, 64, 3),
        (2_621_440, MIB, 3),
    ])
    def test_chunk_count(self, length, size, count):
        assert chunk_count_for(length, size) == count

    @pytest.mark.parametrize("size", [0, -64])
    def test_chunk_size_must_be_positive(self, size):
        with pytest.raises(InvariantError, match="chunk_size must be positive"):
            chunk_count_for(100, size)

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(min_value=0, max_value=500_000),
           size=st.integers(min_value=1, max_value=70_000))
    def test_table_tiles_exactly(self, length, size):
        # One pass, no list: the worst example yields 500 000 spans.
        count = offset = 0
        width = size  # of the span before; every chunk but the last is full
        for span in chunk_slices(length, size):
            assert width == size
            assert span.start == offset
            width, offset = span.stop - span.start, span.stop
            count += 1
        assert count == chunk_count_for(length, size)
        assert offset == length
        assert 0 <= width <= size


class TestEncode:
    def test_layout_sizes(self):
        # header + 12 bytes per chunk + length-preserving payload
        c = make_header(payload_len=100, chunk_size=64)
        assert len(encode(c)) == HEADER_SIZE + 2 * CHUNK_ENTRY_SIZE + 100

    def test_one_byte_container_is_85_bytes(self):
        c = make_header(payload_len=1, chunk_size=DEFAULT_CHUNK_SIZE)
        assert len(encode(c)) == 72 + 12 + 1 == 85

    def test_default_chunking_of_2_5_mb(self):
        c = make_header(payload_len=2_621_440, chunk_size=MIB)
        assert c.chunk_count == 3
        assert len(encode(c)) == 72 + 3 * 12 + 2_621_440 == 2_621_548

    def test_header_starts_with_magic_and_version(self):
        encoded = encode(make_header())
        assert encoded[:4] == MAGIC == b"MVC1"
        assert int.from_bytes(encoded[4:6], "little") == VERSION

    def test_crc_covers_first_68_bytes(self):
        encoded = encode(make_header())
        stored = int.from_bytes(encoded[68:72], "little")
        assert stored == zlib.crc32(encoded[:68])

    def test_encode_validates(self):
        for field, value in (("version", VERSION + 1), ("mode", CipherMode.RAW_ECB_PKCS7),
                             ("flags", 1), ("key_fingerprint", b"\xaa" * 3),
                             ("file_nonce", b"\x01" * 7), ("plaintext_digest", b"short"),
                             ("plaintext_len", -1), ("plaintext_len", 1 << 64),
                             ("chunk_size", 0), ("chunk_size", MAX_CHUNK_SIZE + 1)):
            with pytest.raises(InvariantError):
                encode_header(dataclasses.replace(make_header(), **{field: value}))

    def test_encode_rejects_more_chunks_than_a_u32_counts(self):
        huge = dataclasses.replace(make_header(), plaintext_len=1 << 40, chunk_size=1)
        with pytest.raises(InvariantError, match="chunk_count"):
            encode_header(huge)


class TestDecode:
    def test_round_trip(self):
        c = make_header(payload_len=1000, chunk_size=256)
        assert parse(encode(c)) == c

    def test_round_trip_empty_payload(self):
        c = make_header(payload_len=0, chunk_size=64)
        encoded = encode(c)
        assert parse(encoded).chunk_count == 1
        assert len(encoded) == HEADER_SIZE + CHUNK_ENTRY_SIZE  # no payload bytes

    def test_decodes_from_the_header_and_table_alone(self):
        c = make_header(payload_len=1000, chunk_size=256)
        head = encode_header(c)
        assert decode(head, len(head) + 1000) == c
        with pytest.raises(TruncationError):
            decode(head, len(head) + 999)

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(min_value=0, max_value=10_000),
           size=st.integers(min_value=1, max_value=4_096))
    def test_round_trip_property(self, length, size):
        c = make_header(payload_len=length, chunk_size=size)
        assert parse(encode(c)) == c

    def test_fields_survive(self):
        c = make_header(nonce=b"\x11" * 8, fingerprint=b"\x01\x02\x03\x04")
        h = parse(encode(c))
        assert h.file_nonce == b"\x11" * 8
        assert h.key_fingerprint == b"\x01\x02\x03\x04"
        assert h.plaintext_digest == c.plaintext_digest
        assert h.mode is CipherMode.CHUNKED_CTR

    @pytest.mark.parametrize("n", [0, 10, 71])
    def test_short_input_rejected(self, n):
        with pytest.raises(TruncationError):
            decode(bytes(n), n)

    def test_bad_magic_rejected(self):
        encoded = bytearray(encode(make_header()))
        encoded[:4] = b"XXXX"
        with pytest.raises(MagicError):
            parse(encoded)

    def test_unknown_version_rejected(self):
        encoded = bytearray(encode(make_header()))
        encoded[4] = 2  # version is checked before the CRC
        with pytest.raises(VersionError):
            parse(encoded)

    @pytest.mark.parametrize("offset", [12, 20, 30, 40, 67])
    def test_corrupted_header_rejected_by_crc(self, offset):
        # Bit flips beyond magic and version land on the CRC check.
        encoded = bytearray(encode(make_header()))
        encoded[offset] ^= 0x40
        with pytest.raises(CrcError):
            parse(encoded)

    def test_any_header_bit_flip_rejected(self):
        encoded = encode(make_header())
        rng = random.Random(2024)
        for _ in range(100):
            bit = rng.randrange(HEADER_SIZE * 8)
            mutated = bytearray(encoded)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((MagicError, VersionError, CrcError)):
                parse(mutated)

    def test_crc_flip_itself_rejected(self):
        encoded = bytearray(encode(make_header()))
        encoded[70] ^= 0x01  # inside the stored CRC field
        with pytest.raises(CrcError):
            parse(encoded)

    def test_truncated_chunk_table_rejected(self):
        encoded = encode(make_header(payload_len=100, chunk_size=64))
        with pytest.raises(TruncationError):
            parse(encoded[:HEADER_SIZE + CHUNK_ENTRY_SIZE])

    def test_truncated_payload_rejected(self):
        encoded = encode(make_header(payload_len=100, chunk_size=64))
        with pytest.raises(TruncationError):
            parse(encoded[:-1])

    def test_trailing_bytes_rejected(self):
        encoded = encode(make_header(payload_len=100, chunk_size=64))
        with pytest.raises(InvariantError):
            parse(encoded + b"\x00")

    # The chunk table lies outside the header CRC; it is checked against
    # the layout that plaintext_len and chunk_size imply.
    @pytest.mark.parametrize("field_offset,width,value", [
        (0, 8, 65),  # second entry's offset
        (8, 4, 35),  # second entry's length
    ], ids=["offset", "length"])
    def test_edited_table_entry_rejected(self, field_offset, width, value):
        encoded = bytearray(encode(make_header(payload_len=100, chunk_size=64)))
        set_u(encoded, HEADER_SIZE + CHUNK_ENTRY_SIZE + field_offset, width, value)
        with pytest.raises(InvariantError, match="chunk table"):
            parse(encoded)

    def test_consistent_but_uneven_table_rejected(self):
        # Contiguous and summing to plaintext_len, but not chunk_size tiles.
        encoded = bytearray(encode(make_header(payload_len=100, chunk_size=64)))
        set_u(encoded, HEADER_SIZE + 8, 4, 60)
        set_u(encoded, HEADER_SIZE + CHUNK_ENTRY_SIZE, 8, 60)
        set_u(encoded, HEADER_SIZE + CHUNK_ENTRY_SIZE + 8, 4, 40)
        with pytest.raises(InvariantError, match="chunk table"):
            parse(encoded)

    @pytest.mark.parametrize("count,extra_entries", [(1, 0), (3, 1)])
    def test_crc_refixed_chunk_count_mismatch_rejected(self, count, extra_entries):
        encoded = bytearray(encode(make_header(payload_len=100, chunk_size=64)))
        encoded[HEADER_SIZE:HEADER_SIZE] = bytes(CHUNK_ENTRY_SIZE * extra_entries)
        refix_crc(set_u(encoded, 32, 4, count))
        with pytest.raises(InvariantError, match="chunk_count"):
            parse(encoded)

    @pytest.mark.parametrize("mode_byte", [0, 255], ids=["raw", "unknown"])
    def test_crc_refixed_mode_byte_rejected(self, mode_byte):
        # A v1 container is CTR only; raw (0) has no header, 255 is no mode.
        encoded = bytearray(encode(make_header()))
        encoded[6] = mode_byte
        with pytest.raises(InvariantError):
            parse(refix_crc(encoded))

    @pytest.mark.parametrize("count", [2, (1 << 32) - 1])
    def test_huge_claimed_length_is_truncation_without_a_table(self, monkeypatch,
                                                               count):
        encoded = bytearray(encode(make_header(payload_len=100, chunk_size=64)))
        set_u(encoded, 20, 8, (1 << 64) - 1)  # plaintext_len
        set_u(encoded, 28, 4, 1)  # chunk_size
        refix_crc(set_u(encoded, 32, 4, count))

        def no_table(*args):
            raise AssertionError("a chunk table was built for an unchecked count")

        monkeypatch.setattr(container_mod, "chunk_slices", no_table)
        with pytest.raises(TruncationError):
            parse(encoded)

    def test_all_rejections_share_a_base_class(self):
        for mutate in (lambda b: b[:10],
                       lambda b: b"XXXX" + b[4:],
                       lambda b: b + b"junk"):
            with pytest.raises(ContainerError):
                parse(mutate(bytes(encode(make_header()))))


class TestDetectFormat:
    def test_container_detected(self):
        assert detect_format(encode(make_header())) is SealedFormat.CONTAINER

    def test_empty_and_short_are_raw(self):
        assert detect_format(b"") is SealedFormat.RAW_DAT
        assert detect_format(b"MVC1") is SealedFormat.CONTAINER

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_bytes_are_raw(self, seed):
        data = random.Random(seed).randbytes(1000)
        assert detect_format(data) is SealedFormat.RAW_DAT

    def test_magic_with_bad_crc_is_container(self):
        # decode, not detection, judges the CRC and names the failure.
        encoded = bytearray(encode(make_header()))
        encoded[30] ^= 0x01
        assert detect_format(bytes(encoded)) is SealedFormat.CONTAINER
        with pytest.raises(CrcError):
            parse(encoded)

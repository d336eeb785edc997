"""Unit tests for the sealed container wire format."""

import dataclasses
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelvault.container import (CHUNK_ENTRY_SIZE, DEFAULT_CHUNK_SIZE,
                                  HEADER_SIZE, MAGIC, VERSION,
                                  ContainerHeader, SealedContainer,
                                  SealedFormat, chunk_count_for, chunk_slices,
                                  decode, detect_format, encode)
import modelvault.container as container_mod
from modelvault.crypto import CipherMode, sha256
from modelvault.errors import (ContainerError, CrcError, InvariantError,
                               MagicError, TruncationError, VersionError)

MIB = 1024 * 1024


def make_container(payload_len=100, chunk_size=64, nonce=b"\x01" * 8,
                   fingerprint=b"\xaa\xbb\xcc\xdd") -> SealedContainer:
    payload = bytes(i % 251 for i in range(payload_len))
    header = ContainerHeader(
        mode=CipherMode.CHUNKED_CTR,
        key_fingerprint=fingerprint,
        file_nonce=nonce,
        plaintext_len=payload_len,
        chunk_size=chunk_size,
        plaintext_digest=sha256(payload),
    )
    return SealedContainer(header=header, payload=payload)


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

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(min_value=0, max_value=500_000),
           size=st.integers(min_value=1, max_value=70_000))
    def test_table_tiles_exactly(self, length, size):
        spans = list(chunk_slices(length, size))
        assert len(spans) == chunk_count_for(length, size)
        offset = 0
        for span in spans:
            assert span.start == offset
            offset = span.stop
        assert offset == length
        # every chunk but the last is full
        for span in spans[:-1]:
            assert span.stop - span.start == size
        assert 0 <= spans[-1].stop - spans[-1].start <= size


class TestEncode:
    def test_layout_sizes(self):
        # header + 12 bytes per chunk + length-preserving payload
        c = make_container(payload_len=100, chunk_size=64)
        assert len(encode(c)) == HEADER_SIZE + 2 * CHUNK_ENTRY_SIZE + 100

    def test_one_byte_container_is_85_bytes(self):
        c = make_container(payload_len=1, chunk_size=DEFAULT_CHUNK_SIZE)
        assert len(encode(c)) == 72 + 12 + 1 == 85

    def test_default_chunking_of_2_5_mb(self):
        c = make_container(payload_len=2_621_440, chunk_size=MIB)
        assert c.header.chunk_count == 3
        assert len(encode(c)) == 72 + 3 * 12 + 2_621_440 == 2_621_548

    def test_header_starts_with_magic_and_version(self):
        encoded = encode(make_container())
        assert encoded[:4] == MAGIC == b"MVC1"
        assert int.from_bytes(encoded[4:6], "little") == VERSION

    def test_crc_covers_first_68_bytes(self):
        encoded = encode(make_container())
        stored = int.from_bytes(encoded[68:72], "little")
        assert stored == zlib.crc32(encoded[:68])

    def test_encode_validates(self):
        c = make_container()
        bad = SealedContainer(header=c.header, payload=c.payload + b"extra")
        with pytest.raises(InvariantError):
            encode(bad)

    def test_encode_rejects_more_chunks_than_a_u32_counts(self):
        c = make_container()
        huge = dataclasses.replace(c.header, plaintext_len=1 << 40, chunk_size=1)
        with pytest.raises(InvariantError, match="chunk_count"):
            encode(SealedContainer(header=huge, payload=b""))


class TestDecode:
    def test_round_trip(self):
        c = make_container(payload_len=1000, chunk_size=256)
        out = decode(encode(c))
        assert out == c

    def test_round_trip_empty_payload(self):
        c = make_container(payload_len=0, chunk_size=64)
        out = decode(encode(c))
        assert out.header.chunk_count == 1
        assert out.payload == b""

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(min_value=0, max_value=10_000),
           size=st.integers(min_value=1, max_value=4_096))
    def test_round_trip_property(self, length, size):
        c = make_container(payload_len=length, chunk_size=size)
        assert decode(encode(c)) == c

    def test_fields_survive(self):
        c = make_container(nonce=b"\x11" * 8, fingerprint=b"\x01\x02\x03\x04")
        h = decode(encode(c)).header
        assert h.file_nonce == b"\x11" * 8
        assert h.key_fingerprint == b"\x01\x02\x03\x04"
        assert h.plaintext_digest == c.header.plaintext_digest
        assert h.mode is CipherMode.CHUNKED_CTR

    @pytest.mark.parametrize("n", [0, 10, 71])
    def test_short_input_rejected(self, n):
        with pytest.raises(TruncationError):
            decode(bytes(n))

    def test_bad_magic_rejected(self):
        encoded = bytearray(encode(make_container()))
        encoded[:4] = b"XXXX"
        with pytest.raises(MagicError):
            decode(bytes(encoded))

    def test_unknown_version_rejected(self):
        encoded = bytearray(encode(make_container()))
        encoded[4] = 2  # version is checked before the CRC
        with pytest.raises(VersionError):
            decode(bytes(encoded))

    @pytest.mark.parametrize("offset", [12, 20, 30, 40, 67])
    def test_corrupted_header_rejected_by_crc(self, offset):
        # Bit flips beyond magic and version land on the CRC check.
        encoded = bytearray(encode(make_container()))
        encoded[offset] ^= 0x40
        with pytest.raises(CrcError):
            decode(bytes(encoded))

    def test_any_header_bit_flip_rejected(self):
        encoded = encode(make_container())
        rng = random.Random(2024)
        for _ in range(100):
            bit = rng.randrange(HEADER_SIZE * 8)
            mutated = bytearray(encoded)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((MagicError, VersionError, CrcError)):
                decode(bytes(mutated))

    def test_crc_flip_itself_rejected(self):
        encoded = bytearray(encode(make_container()))
        encoded[70] ^= 0x01  # inside the stored CRC field
        with pytest.raises(CrcError):
            decode(bytes(encoded))

    def test_truncated_chunk_table_rejected(self):
        encoded = encode(make_container(payload_len=100, chunk_size=64))
        with pytest.raises(TruncationError):
            decode(encoded[:HEADER_SIZE + CHUNK_ENTRY_SIZE])

    def test_truncated_payload_rejected(self):
        encoded = encode(make_container(payload_len=100, chunk_size=64))
        with pytest.raises(TruncationError):
            decode(encoded[:-1])

    def test_trailing_bytes_rejected(self):
        encoded = encode(make_container(payload_len=100, chunk_size=64))
        with pytest.raises(InvariantError):
            decode(encoded + b"\x00")

    # The chunk table lies outside the header CRC; it is checked against
    # the layout that plaintext_len and chunk_size imply.
    @pytest.mark.parametrize("field_offset,width,value", [
        (0, 8, 65),  # second entry's offset
        (8, 4, 35),  # second entry's length
    ], ids=["offset", "length"])
    def test_edited_table_entry_rejected(self, field_offset, width, value):
        encoded = bytearray(encode(make_container(payload_len=100, chunk_size=64)))
        set_u(encoded, HEADER_SIZE + CHUNK_ENTRY_SIZE + field_offset, width, value)
        with pytest.raises(InvariantError, match="chunk table"):
            decode(bytes(encoded))

    def test_consistent_but_uneven_table_rejected(self):
        # Contiguous and summing to plaintext_len, but not chunk_size tiles.
        encoded = bytearray(encode(make_container(payload_len=100, chunk_size=64)))
        set_u(encoded, HEADER_SIZE + 8, 4, 60)
        set_u(encoded, HEADER_SIZE + CHUNK_ENTRY_SIZE, 8, 60)
        set_u(encoded, HEADER_SIZE + CHUNK_ENTRY_SIZE + 8, 4, 40)
        with pytest.raises(InvariantError, match="chunk table"):
            decode(bytes(encoded))

    @pytest.mark.parametrize("count,extra_entries", [(1, 0), (3, 1)])
    def test_crc_refixed_chunk_count_mismatch_rejected(self, count, extra_entries):
        encoded = bytearray(encode(make_container(payload_len=100, chunk_size=64)))
        encoded[HEADER_SIZE:HEADER_SIZE] = bytes(CHUNK_ENTRY_SIZE * extra_entries)
        refix_crc(set_u(encoded, 32, 4, count))
        with pytest.raises(InvariantError, match="chunk_count"):
            decode(bytes(encoded))

    @pytest.mark.parametrize("count", [2, (1 << 32) - 1])
    def test_huge_claimed_length_is_truncation_without_a_table(self, monkeypatch,
                                                               count):
        encoded = bytearray(encode(make_container(payload_len=100, chunk_size=64)))
        set_u(encoded, 20, 8, (1 << 64) - 1)  # plaintext_len
        set_u(encoded, 28, 4, 1)  # chunk_size
        refix_crc(set_u(encoded, 32, 4, count))

        def no_table(*args):
            raise AssertionError("a chunk table was built for an unchecked count")

        monkeypatch.setattr(container_mod, "chunk_slices", no_table)
        with pytest.raises(TruncationError):
            decode(bytes(encoded))

    def test_all_rejections_share_a_base_class(self):
        for mutate in (lambda b: b[:10],
                       lambda b: b"XXXX" + b[4:],
                       lambda b: b + b"junk"):
            with pytest.raises(ContainerError):
                decode(mutate(encode(make_container())))


class TestDetectFormat:
    def test_container_detected(self):
        assert detect_format(encode(make_container())) is SealedFormat.CONTAINER

    def test_empty_and_short_are_raw(self):
        assert detect_format(b"") is SealedFormat.RAW_DAT
        assert detect_format(b"MVC1") is SealedFormat.RAW_DAT

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_bytes_are_raw(self, seed):
        data = random.Random(seed).randbytes(1000)
        assert detect_format(data) is SealedFormat.RAW_DAT

    def test_magic_with_bad_crc_is_raw(self):
        encoded = bytearray(encode(make_container()))
        encoded[30] ^= 0x01
        assert detect_format(bytes(encoded)) is SealedFormat.RAW_DAT

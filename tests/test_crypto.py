"""Unit tests for the AES-256 primitives and key handling.

Known-answer values come from FIPS-197 appendix C.3 and from an
independent table-driven AES implementation (tests/aes_reference.py)
that shares no code with the package.
"""

import mmap
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aes_reference as ref
from modelvault import crypto as crypto_mod
from modelvault import unsealer as unsealer_mod
from modelvault.crypto import (BLOCK_SIZE, KEY_BYTES, PASSPHRASE_CHARS,
                               CipherMode, KeyMaterial, ctr_crypt,
                               decrypt_block, derive_key, ecb_decrypt,
                               ecb_encrypt, encrypt_block, load_key_hex,
                               sha256)
from modelvault.errors import (EncodingError, HexError, LengthError,
                               PaddingError, RangeError)
from modelvault.unsealer import ModelBlob
from conftest import FIPS_KEY_BYTES

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")

# SHA-256 known answers (FIPS 180-4 test vectors).
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


class TestSha256:
    def test_empty(self):
        assert sha256(b"").hex() == SHA256_EMPTY

    def test_abc(self):
        assert sha256(b"abc").hex() == SHA256_ABC


class TestBlockCipher:
    def test_fips197_c3_forward(self, fips_key):
        assert encrypt_block(fips_key, FIPS_PLAINTEXT) == FIPS_CIPHERTEXT

    def test_fips197_c3_inverse(self, fips_key):
        assert decrypt_block(fips_key, FIPS_CIPHERTEXT) == FIPS_PLAINTEXT

    @pytest.mark.parametrize("bad_len", [0, 1, 15, 17, 32])
    def test_block_length_enforced(self, fips_key, bad_len):
        with pytest.raises(LengthError):
            encrypt_block(fips_key, bytes(bad_len))
        with pytest.raises(LengthError):
            decrypt_block(fips_key, bytes(bad_len))

    def test_matches_independent_reference(self):
        rng = random.Random(7)
        for _ in range(10):
            key_bytes = rng.randbytes(KEY_BYTES)
            block = rng.randbytes(BLOCK_SIZE)
            mine = encrypt_block(KeyMaterial(key_bytes), block)
            assert mine == ref.encrypt_block(key_bytes, block)
            assert decrypt_block(KeyMaterial(key_bytes), mine) == block

    def test_key_sensitivity(self, fips_key):
        # Flipping any single key bit must change the ciphertext.
        base = encrypt_block(fips_key, FIPS_PLAINTEXT)
        rng = random.Random(11)
        for _ in range(10):
            bit = rng.randrange(KEY_BYTES * 8)
            flipped = bytearray(FIPS_KEY_BYTES)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert encrypt_block(KeyMaterial(bytes(flipped)),
                                 FIPS_PLAINTEXT) != base


class TestKeyMaterial:
    def test_wrong_length_rejected(self):
        for n in (0, 16, 31, 33):
            with pytest.raises(LengthError):
                KeyMaterial(bytes(n))

    def test_fingerprint_is_sha256_prefix(self, fips_key):
        assert fips_key.fingerprint == sha256(FIPS_KEY_BYTES)[:4]

    def test_repr_hides_secret(self, fips_key):
        shown = repr(fips_key) + str(fips_key)
        assert FIPS_KEY_BYTES.hex() not in shown
        assert fips_key.fingerprint.hex() in repr(fips_key)

    def test_generate_is_well_formed_and_fresh(self):
        a, b = KeyMaterial.generate(), KeyMaterial.generate()
        assert len(a.secret) == KEY_BYTES
        assert a.secret != b.secret


class TestDeriveKey:
    def test_known_passphrase_bytes(self):
        # "0123456789abcdef" in UTF-16BE: 0030 0031 ... 0066.
        expected = "0123456789abcdef".encode("utf-16-be")
        assert expected.hex() == ("00300031003200330034003500360037"
                                  "00380039006100620063006400650066")
        assert derive_key("0123456789abcdef").secret == expected

    def test_two_bytes_per_character(self):
        key = derive_key("A" * PASSPHRASE_CHARS)
        assert key.secret == b"\x00A" * PASSPHRASE_CHARS

    def test_bmp_non_ascii_accepted(self):
        key = derive_key("é" * PASSPHRASE_CHARS)  # e-acute, U+00E9
        assert key.secret == b"\x00\xe9" * PASSPHRASE_CHARS

    @pytest.mark.parametrize("length", [0, 1, 15, 17, 32])
    def test_wrong_length_rejected(self, length):
        with pytest.raises(LengthError):
            derive_key("x" * length)

    def test_non_bmp_rejected(self):
        with pytest.raises(EncodingError):
            derive_key("\U0001f600" + "x" * 15)  # emoji needs 4 UTF-16 bytes

    def test_lone_surrogate_rejected(self):
        with pytest.raises(EncodingError):
            derive_key("\ud800" + "x" * 15)

    def test_distinct_passphrases_distinct_keys(self):
        assert derive_key("0123456789abcdef").secret != \
            derive_key("0123456789abcdeF").secret


class TestLoadKeyHex:
    def test_round_trip(self, fips_key):
        assert load_key_hex(FIPS_KEY_BYTES.hex()).secret == FIPS_KEY_BYTES

    def test_whitespace_stripped(self):
        assert load_key_hex("  " + FIPS_KEY_BYTES.hex() + "\n").secret \
            == FIPS_KEY_BYTES

    def test_uppercase_accepted(self):
        assert load_key_hex(FIPS_KEY_BYTES.hex().upper()).secret \
            == FIPS_KEY_BYTES

    # The last: 64 characters, but the spaces inside make it decode to 31 bytes.
    @pytest.mark.parametrize("bad", ["", "ab", "0" * 63, "0" * 65, "00" * 30 + "  00"])
    def test_wrong_length_rejected(self, bad):
        with pytest.raises(LengthError):
            load_key_hex(bad)

    def test_non_hex_rejected(self):
        with pytest.raises(HexError):
            load_key_hex("zz" * 32)


class TestEcb:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 31, 32, 33, 48])
    def test_length_law(self, fips_key, n):
        # Always ((n // 16) + 1) * 16: full padding block when aligned.
        assert len(ecb_encrypt(bytes(n), fips_key)) == ((n // 16) + 1) * 16

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=600))
    def test_round_trip(self, data):
        key = KeyMaterial(FIPS_KEY_BYTES)
        assert ecb_decrypt(ecb_encrypt(data, key), key) == data

    @pytest.mark.parametrize("n", [0, 15, 16])
    def test_matches_independent_reference(self, fips_key, n):
        # One case per padding class: full pad, 1-byte pad, full pad again
        # on an aligned non-empty input.
        data = bytes(range(n)) if n else b""
        assert ecb_encrypt(data, fips_key) == \
            ref.ecb_pkcs7_encrypt(FIPS_KEY_BYTES, data)

    def test_reference_decrypts_our_output(self, fips_key):
        data = b"interop check, both directions"
        assert ref.ecb_pkcs7_decrypt(FIPS_KEY_BYTES,
                                     ecb_encrypt(data, fips_key)) == data
        assert ecb_decrypt(ref.ecb_pkcs7_encrypt(FIPS_KEY_BYTES, data),
                           fips_key) == data

    def test_deterministic_and_leaky(self, fips_key):
        # ECB is deterministic and equal plaintext blocks collide. The mode
        # exists for byte compatibility, not confidentiality of structure.
        block = b"0123456789abcdef"
        ct = ecb_encrypt(block * 2, fips_key)
        assert ct == ecb_encrypt(block * 2, fips_key)
        assert ct[0:16] == ct[16:32]

    @pytest.mark.parametrize("n", [0, 15, 17])
    def test_decrypt_length_validation(self, fips_key, n):
        with pytest.raises(LengthError):
            ecb_decrypt(bytes(n), fips_key)

    def test_corrupted_padding_rejected(self, fips_key):
        sealed = bytearray(ecb_encrypt(b"x" * 20, fips_key))
        sealed[-1] ^= 0x01  # garbles the final block after decryption
        with pytest.raises(PaddingError) as exc_info:
            ecb_decrypt(bytes(sealed), fips_key)
        assert str(exc_info.value) == "invalid padding"

    def test_random_block_fails_padding(self):
        # Pinned case: under seed 0 the decrypted junk has invalid padding.
        rng = random.Random(0)
        key = KeyMaterial(rng.randbytes(32))
        junk = rng.randbytes(16)
        with pytest.raises(PaddingError):
            ecb_decrypt(junk, key)

    @pytest.mark.parametrize("n", range(32))
    def test_short_plaintext_leaves_no_unwiped_buffer(self, fips_key,
                                                      monkeypatch, n):
        # The plaintext is a view of the start of the one buffer it was
        # decrypted in, which is never resized, so no move can leave an
        # unwiped copy behind, and release() zeroes it in place.
        wiped = []
        real = crypto_mod._wipe

        def recording_wipe(buf):
            real(buf)
            wiped.append(buf)

        monkeypatch.setattr(crypto_mod, "_wipe", recording_wipe)
        monkeypatch.setattr(unsealer_mod, "_wipe", recording_wipe)
        data = bytes(range(1, n + 1))
        sealed = bytes(ecb_encrypt(data, fips_key))
        plain = ecb_decrypt(sealed, fips_key)
        assert isinstance(plain, memoryview) and plain == data
        buf = plain.obj
        assert type(buf) is bytearray and len(buf) == len(sealed) + BLOCK_SIZE - 1
        assert wiped == []  # no second buffer held the plaintext
        blob = ModelBlob(plain, CipherMode.RAW_ECB_PKCS7)
        assert blob.data.obj is buf
        blob.release()
        assert wiped == [plain]
        pad = len(sealed) - n
        # Only the padding, which ecb_encrypt derives from the length alone, is left.
        assert buf == bytes(n) + bytes([pad]) * pad + bytes(BLOCK_SIZE - 1)

    def test_wrong_key_never_returns_plaintext(self, fips_key, other_key):
        data = b"secret weights"
        sealed = ecb_encrypt(data, fips_key)
        try:
            recovered = ecb_decrypt(sealed, other_key)
        except PaddingError:
            return  # the usual outcome
        assert recovered != data  # padding fluke, still not the plaintext


class TestCtr:
    # ctr_crypt(zeros) at indexes 0 and 1 under the FIPS key and an
    # all-zero nonce, cross-checked against the independent reference.
    KEYSTREAM_IDX0 = "f29000b62a499fd0a9f39a6add2e7780"
    KEYSTREAM_IDX1 = "641d1a3a80becff6f0f38f9764fdcf96"

    def test_known_keystream(self, fips_key):
        zeros = bytes(16)
        nonce = bytes(8)
        assert ctr_crypt(zeros, fips_key, nonce, 0).hex() == self.KEYSTREAM_IDX0
        assert ctr_crypt(zeros, fips_key, nonce, 1).hex() == self.KEYSTREAM_IDX1

    def test_counter_block_layout(self, fips_key):
        # The first keystream block is AES(nonce || index_be32 || zero_be32),
        # and at offset k, AES(nonce || index_be32 || (k / 16)_be32).
        nonce = bytes.fromhex("0011223344556677")
        for index in (0, 1, 7, 2**32 - 1):
            counter0 = nonce + index.to_bytes(4, "big") + bytes(4)
            assert ctr_crypt(bytes(16), fips_key, nonce, index) == \
                encrypt_block(fips_key, counter0)
            for offset in (16, 4096, 2**36 - 32):
                counter = nonce + index.to_bytes(4, "big") + (offset // 16).to_bytes(4, "big")
                assert ctr_crypt(bytes(16), fips_key, nonce, index, offset=offset) == \
                    encrypt_block(fips_key, counter)

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 1000])
    def test_length_preserved(self, fips_key, n):
        assert len(ctr_crypt(bytes(n), fips_key, bytes(8), 0)) == n

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=600),
           index=st.integers(min_value=0, max_value=2**32 - 1))
    def test_self_inverse(self, data, index):
        key = KeyMaterial(FIPS_KEY_BYTES)
        nonce = b"\x01\x02\x03\x04\x05\x06\x07\x08"
        once = ctr_crypt(data, key, nonce, index)
        assert ctr_crypt(once, key, nonce, index) == data

    def test_xor_structure(self, fips_key):
        data = bytes(range(64))
        nonce = bytes(8)
        stream = ctr_crypt(bytes(64), fips_key, nonce, 3)
        assert ctr_crypt(data, fips_key, nonce, 3) == \
            bytes(a ^ b for a, b in zip(data, stream))

    def test_distinct_indexes_distinct_streams(self, fips_key):
        nonce = bytes(8)
        streams = {ctr_crypt(bytes(16), fips_key, nonce, i) for i in range(32)}
        assert len(streams) == 32

    def test_matches_independent_reference(self):
        rng = random.Random(13)
        for _ in range(5):
            key_bytes = rng.randbytes(32)
            nonce = rng.randbytes(8)
            index = rng.randrange(2**32)
            data = rng.randbytes(rng.randrange(1, 100))
            assert ctr_crypt(data, KeyMaterial(key_bytes), nonce, index) == \
                ref.ctr_keystream_xor(key_bytes, nonce, index, data)

    def test_nonce_length_enforced(self, fips_key):
        for n in (0, 7, 9, 16):
            with pytest.raises(LengthError):
                ctr_crypt(b"x", fips_key, bytes(n), 0)

    @pytest.mark.parametrize("index", [-1, 2**32, 2**40])
    def test_chunk_index_range_enforced(self, fips_key, index):
        with pytest.raises(RangeError):
            ctr_crypt(b"x", fips_key, bytes(8), index)

    def test_data_length_range_enforced(self, fips_key):
        class Huge:  # claims 2**36 bytes and holds none
            def __len__(self):
                return 2**36

        with pytest.raises(RangeError, match="below 2\\*\\*36"):
            ctr_crypt(Huge(), fips_key, bytes(8), 0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=600), blocks=st.integers(min_value=0, max_value=40),
           index=st.integers(min_value=0, max_value=2**32 - 1))
    def test_a_chunk_in_pieces_matches_it_whole(self, data, blocks, index):
        # Any 16-byte boundary k splits a chunk's stream: the piece from k
        # on, encrypted at offset k, is the tail of the whole chunk's stream.
        key = KeyMaterial(FIPS_KEY_BYTES)
        nonce = b"\x01\x02\x03\x04\x05\x06\x07\x08"
        k = min(16 * blocks, len(data) - len(data) % 16)
        whole = ctr_crypt(data, key, nonce, index)
        assert ctr_crypt(data[k:], key, nonce, index, offset=k) == whole[k:]
        out = bytearray(len(data) - k)
        ctr_crypt(data[k:], key, nonce, index, out=out, offset=k)
        assert out == whole[k:]

    @pytest.mark.parametrize("offset", [-16, -1, 1, 8, 15, 17, 4097],
                             ids=lambda offset: f"offset={offset}")
    def test_offset_must_be_a_non_negative_block_multiple(self, fips_key, offset):
        with pytest.raises(RangeError, match="multiple of 16"):
            ctr_crypt(bytes(16), fips_key, bytes(8), 0, offset=offset)

    @pytest.mark.parametrize("offset,n", [(2**36 - 16, 16), (2**36 - 16, 17), (2**36, 0),
                                          (2**36 - 32, 32), (2**40, 1)])
    def test_offset_and_data_must_end_below_2_36(self, fips_key, offset, n):
        class Sized:  # claims n bytes and holds none
            def __len__(self):
                return n

        with pytest.raises(RangeError, match="below 2\\*\\*36"):
            ctr_crypt(Sized(), fips_key, bytes(8), 0, offset=offset)

    def test_data_may_end_just_below_2_36(self, fips_key):
        assert len(ctr_crypt(bytes(31), fips_key, bytes(8), 0, offset=2**36 - 32)) == 31

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 1000])
    def test_out_receives_exactly_its_slice(self, fips_key, n):
        # Written into a slice of a larger buffer: exactly n bytes change,
        # including an empty and a short tail chunk.
        data = (bytes(range(256)) * 4)[:n]
        buf = bytearray(b"\xee" * (n + 32))
        assert ctr_crypt(data, fips_key, bytes(8), 5,
                         out=memoryview(buf)[16:16 + n]) is None
        assert buf[16:16 + n] == ctr_crypt(data, fips_key, bytes(8), 5)
        assert buf[:16] == buf[16 + n:] == b"\xee" * 16

    def test_out_may_be_the_input(self, fips_key):
        data = bytes(range(256)) * 5
        buf = bytearray(data)
        ctr_crypt(buf, fips_key, bytes(8), 2, out=buf)
        assert buf == ctr_crypt(data, fips_key, bytes(8), 2)

    def test_out_length_enforced(self, fips_key):
        for n in (0, 15, 17):
            with pytest.raises(LengthError):
                ctr_crypt(bytes(16), fips_key, bytes(8), 0, out=bytearray(n))


class TestCipherMode:
    def test_tokens(self):
        assert CipherMode.RAW_ECB_PKCS7.token == "raw"
        assert CipherMode.CHUNKED_CTR.token == "ctr"

    def test_from_token_round_trip(self):
        for mode in CipherMode:
            assert CipherMode.from_token(mode.token) is mode

    def test_from_token_rejects_unknown(self):
        with pytest.raises(ValueError):
            CipherMode.from_token("cbc")


class TestSecretBuffer:
    def test_below_one_huge_page_is_a_bytearray(self):
        buf = crypto_mod._secret_buffer(crypto_mod._HUGE_PAGE - 1)
        assert type(buf) is bytearray and len(buf) == crypto_mod._HUGE_PAGE - 1

    def test_from_one_huge_page_is_a_zeroed_writable_mapping(self):
        buf = crypto_mod._secret_buffer(crypto_mod._HUGE_PAGE)
        assert isinstance(buf, mmap.mmap) and len(buf) == crypto_mod._HUGE_PAGE
        assert not any(buf)
        buf[-1] = 1
        crypto_mod._wipe(buf)
        assert not any(buf)


class TestGrowingBuffer:
    @pytest.mark.parametrize("mapped", [True, False], ids=["mapping", "heap"])
    def test_resize_grows_and_cuts_it_keeping_its_bytes(self, monkeypatch, mapped):
        if not mapped:
            monkeypatch.setattr(crypto_mod, "_MAP_FLAGS", None)  # as off Linux
        elif crypto_mod._MAP_FLAGS is None:
            pytest.skip("needs anonymous mappings")
        buf = crypto_mod._growing_buffer(4096)
        assert isinstance(buf, mmap.mmap) is mapped
        assert len(buf) == 4096 and buf[:] == bytes(4096)
        buf[:5] = b"model"
        buf.resize(3 << 20)
        assert len(buf) == 3 << 20 and buf[:5] == b"model"
        assert buf[5:] == bytes((3 << 20) - 5)
        buf.resize(5)
        assert buf[:] == b"model"

    @pytest.mark.skipif(crypto_mod._MAP_FLAGS is None, reason="needs anonymous mappings")
    def test_a_mapping_is_traced_at_its_size_through_every_resize(self):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            buf = crypto_mod._growing_buffer(4 << 20)
            buf.resize(8 << 20)
            grown, peak = (n - base for n in tracemalloc.get_traced_memory())
            buf.resize(1 << 20)
            cut = tracemalloc.get_traced_memory()[0] - base
            del buf
            gone = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert 8 << 20 <= grown <= peak < 9 << 20  # never the old and the new size at once
        assert 1 << 20 <= cut < 2 << 20
        assert gone < 1 << 20

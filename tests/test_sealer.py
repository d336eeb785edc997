"""Unit tests for sealing: outputs, manifests, atomicity, hygiene."""

import json
import os
import tracemalloc

import pytest

import aes_reference as ref
import modelvault.sealer as sealer_mod
from modelvault.container import HEADER_SIZE, decode
from modelvault.crypto import CipherMode, ecb_decrypt, sha256
from modelvault.errors import IoError, RangeError
from modelvault.sealer import MIN_CHUNK_SIZE, seal, seal_file
from conftest import FIPS_KEY_BYTES

MODEL = bytes(range(256)) * 40  # 10240 bytes, spans several small chunks


class TestSealRaw:
    def test_output_is_plain_ecb(self, fips_key):
        sealed, report = seal(MODEL, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert sealed == ref.ecb_pkcs7_encrypt(FIPS_KEY_BYTES, MODEL)
        assert report.mode is CipherMode.RAW_ECB_PKCS7

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 4096])
    def test_length_law(self, fips_key, n):
        sealed, report = seal(bytes(n), fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert len(sealed) == ((n // 16) + 1) * 16
        assert report.output_len == len(sealed)
        assert report.input_len == n

    def test_deterministic(self, fips_key):
        a, _ = seal(MODEL, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        b, _ = seal(MODEL, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert a == b

    def test_round_trip(self, fips_key):
        sealed, _ = seal(MODEL, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert ecb_decrypt(sealed, fips_key) == MODEL

    def test_one_output_buffer(self, fips_key):
        model = bytes(8 * 1024 * 1024)
        tracemalloc.start()
        try:
            sealed, _ = seal(model, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(sealed, bytearray)
        assert len(sealed) == len(model) + 16
        assert peak < 1.1 * len(model)


class TestSealContainer:
    def test_well_formed(self, fips_key):
        sealed, report = seal(MODEL, fips_key, chunk_size=4096)
        parsed = decode(sealed)
        assert parsed.header.plaintext_len == len(MODEL)
        assert parsed.header.chunk_size == 4096
        assert parsed.header.chunk_count == 3
        assert parsed.header.key_fingerprint == fips_key.fingerprint
        assert report.output_len == len(sealed) == HEADER_SIZE + 3 * 12 + len(MODEL)

    def test_payload_is_ctr_of_each_chunk(self, fips_key):
        sealed, _ = seal(MODEL, fips_key, chunk_size=4096)
        parsed = decode(sealed)
        nonce = parsed.header.file_nonce
        recovered = b"".join(
            ref.ctr_keystream_xor(
                FIPS_KEY_BYTES, nonce, index,
                parsed.payload[e.ciphertext_offset:e.ciphertext_offset + e.plaintext_len])
            for index, e in enumerate(parsed.chunk_table))
        assert recovered == MODEL

    @pytest.mark.parametrize("model,digest_hex", [
        (MODEL, "9ee942d2b5f732b5b6e5209e57b4b81b8ff82ca5b6a6a87eec72457250e346d6"),
        (b"", "a02e1bf2ec6d710f021af47cb037908d4ffff658c6962f03d1be8a9ed032d6f5"),
    ])
    def test_bit_exact_for_a_fixed_nonce(self, fips_key, monkeypatch, model,
                                         digest_hex):
        # Pinned from the earlier construction (encrypt each chunk, then
        # frame the ciphertext): sealing in place must match it bit for bit.
        monkeypatch.setattr(sealer_mod.secrets, "token_bytes",
                            lambda n: bytes(range(1, n + 1)))
        sealed, _ = seal(model, fips_key, chunk_size=4096)
        assert sha256(sealed).hex() == digest_hex

    def test_nonce_is_fresh_per_seal(self, fips_key):
        # Same input, same key: the payloads must still differ.
        a, _ = seal(MODEL, fips_key)
        b, _ = seal(MODEL, fips_key)
        assert decode(a).header.file_nonce != decode(b).header.file_nonce
        assert a != b

    def test_digest_recorded(self, fips_key):
        sealed, report = seal(MODEL, fips_key)
        parsed = decode(sealed)
        assert parsed.header.plaintext_digest == report.plaintext_digest

    def test_empty_model(self, fips_key):
        sealed, report = seal(b"", fips_key)
        parsed = decode(sealed)
        assert parsed.header.plaintext_len == 0
        assert parsed.header.chunk_count == 1
        assert report.input_len == 0

    def test_small_chunk_size_rejected(self, fips_key):
        with pytest.raises(RangeError):
            seal(MODEL, fips_key, chunk_size=MIN_CHUNK_SIZE - 1)

    def test_min_chunk_size_only_binds_ctr(self, fips_key):
        # Raw mode has no chunks, so the bound does not apply.
        sealed, _ = seal(MODEL, fips_key, mode=CipherMode.RAW_ECB_PKCS7,
                         chunk_size=1)
        assert sealed


class TestSealReport:
    def test_manifest_schema(self, fips_key):
        _, report = seal(MODEL, fips_key)
        manifest = report.manifest()
        assert set(manifest) == {"input_len", "output_len", "mode",
                                 "encrypt_ms", "storage_ms", "sha256_hex"}
        assert manifest["mode"] == "ctr"
        assert manifest["input_len"] == len(MODEL)
        assert len(manifest["sha256_hex"]) == 64
        json.dumps(manifest)  # must be JSON-ready as-is

    def test_in_memory_seal_has_no_storage_time(self, fips_key):
        _, report = seal(MODEL, fips_key)
        assert report.storage_ms == 0.0
        assert report.encrypt_ms > 0.0


class TestSealFile:
    def test_writes_artifact_and_manifest(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.mvc"
        report = seal_file(src, out, fips_key)
        parsed = decode(out.read_bytes())
        assert parsed.header.plaintext_len == len(MODEL)
        manifest = json.loads((tmp_path / "model.mvc.manifest.json").read_text())
        assert manifest["sha256_hex"] == report.plaintext_digest.hex()
        assert manifest["storage_ms"] == report.storage_ms > 0.0

    def test_manifest_can_be_skipped(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.mvc"
        seal_file(src, out, fips_key, write_manifest=False)
        assert out.exists()
        assert not (tmp_path / "model.mvc.manifest.json").exists()

    def test_missing_input_raises_io_error(self, tmp_path, fips_key):
        with pytest.raises(IoError) as exc_info:
            seal_file(tmp_path / "nope.bin", tmp_path / "out.mvc", fips_key)
        assert exc_info.value.path == str(tmp_path / "nope.bin")

    def test_unwritable_output_raises_io_error(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        missing_dir = tmp_path / "no" / "such" / "dir"
        with pytest.raises(IoError):
            seal_file(src, missing_dir / "out.mvc", fips_key)

    def test_failed_write_leaves_no_output(self, tmp_path, fips_key, monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.mvc"

        real_replace = os.replace

        def failing_replace(a, b):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(IoError):
            seal_file(src, out, fips_key)
        monkeypatch.setattr(os, "replace", real_replace)
        assert not out.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "model.bin"]
        assert leftovers == []  # temp file cleaned up too

    def test_plaintext_never_in_output_dir(self, tmp_path, fips_key):
        # No file in the output tree may contain the plaintext's first
        # bytes once sealing is done (the manifest holds only its hash).
        src = tmp_path / "in" / "model.bin"
        src.parent.mkdir()
        src.write_bytes(MODEL)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        seal_file(src, out_dir / "model.mvc", fips_key)
        marker = MODEL[:16]
        for path in out_dir.rglob("*"):
            if path.is_file():
                assert marker not in path.read_bytes()

    def test_raw_mode_file(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.dat"
        report = seal_file(src, out, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert out.read_bytes() == ref.ecb_pkcs7_encrypt(FIPS_KEY_BYTES, MODEL)
        assert report.mode is CipherMode.RAW_ECB_PKCS7

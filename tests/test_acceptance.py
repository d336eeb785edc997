"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. Tolerances are part of the contract and are pinned
in the asserts, not tuned to the machine:

  1. round-trip identity for the six reference sizes, both modes, < 30 s
  2. cipher known-answer vectors, bit-exact
  3. parallel/sequential equivalence over randomized containers, bit-exact
  4. raw-mode interop with an independent AES implementation, bit-exact
  5. timing linearity r^2 >= 0.9 and exact reference-table row sums
  6. end-to-end key flow on localhost < 5 s, tampered token refused
  7. background unseal scheduling latency median < 10 ms over 20 runs
  8. negative-path error taxonomy via targeted bit flips
"""

import random
import statistics
import subprocess
import sys
import time

import pytest

import aes_reference as ref
import modelvault.unsealer as unsealer_mod
from modelvault.bench import (BenchRecord, DEFAULT_SIZES_MB, MIB, emit_table,
                              fit_linear, generate_synthetic_model,
                              mb_to_bytes)
from modelvault.container import SealedFormat, decode
from modelvault.crypto import (CipherMode, KeyMaterial, decrypt_block,
                               derive_key, encrypt_block, sha256)
from modelvault.errors import (AuthError, CrcError, DigestError,
                               KeyMismatchError, PaddingError)
from modelvault.key_client import fetch_key
from modelvault.key_service import KeyService, ServiceConfig, issue_token
from modelvault.sealer import seal
from modelvault.unsealer import unseal, unseal_background, unseal_parallel

SIZES_MB = (2.5, 4.2, 11.3, 16.0, 17.5, 23.9)


def test_ac1_round_trip_identity_at_reference_scale(fips_key):
    started = time.perf_counter()
    for index, size_mb in enumerate(SIZES_MB):
        model = generate_synthetic_model(mb_to_bytes(size_mb), seed=100 + index)

        sealed, _ = seal(model, fips_key, mode=CipherMode.CHUNKED_CTR)
        blob = unseal_parallel(sealed, fips_key)
        assert blob.to_bytes() == model, f"CTR round trip differs at {size_mb} MB"
        blob.release()

        sealed_raw, _ = seal(model, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        blob_raw = unseal(sealed_raw, fips_key, SealedFormat.RAW_DAT)
        assert blob_raw.to_bytes() == model, f"raw round trip differs at {size_mb} MB"
        blob_raw.release()

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"round trips took {elapsed:.1f} s, budget is 30 s"
    print(f"AC1 PASS: six sizes, both modes, byte-identical in {elapsed:.1f} s")


def test_ac2_known_answer_vectors():
    key = KeyMaterial(bytes(range(32)))
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    ciphertext = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert encrypt_block(key, plaintext) == ciphertext
    assert decrypt_block(key, ciphertext) == plaintext

    assert sha256(b"").hex() == ("e3b0c44298fc1c149afbf4c8996fb924"
                                 "27ae41e4649b934ca495991b7852b855")
    assert sha256(b"abc").hex() == ("ba7816bf8f01cfea414140de5dae2223"
                                    "b00361a396177a9cb410ff61f20015ad")
    print("AC2 PASS: AES-256 and SHA-256 known answers bit-exact")


def test_ac3_parallel_equivalence(fips_key):
    rng = random.Random(303)
    cases = [(8192, 4096), (40960, 4096)]  # exact-dividing cases first
    while len(cases) < 50:
        cases.append((rng.randrange(0, 120_000), rng.randrange(4096, 20_000)))

    for size, chunk_size in cases:
        model = rng.randbytes(size)
        sealed, _ = seal(model, fips_key, chunk_size=chunk_size)
        sequential = unseal(sealed, fips_key, SealedFormat.CONTAINER)
        for workers in (1, 2, 4, 8):
            parallel = unseal_parallel(sealed, fips_key, workers=workers)
            assert parallel.digest == sequential.digest
            assert parallel.to_bytes() == sequential.to_bytes() == model
    print("AC3 PASS: 50 randomized containers x workers {1,2,4,8} bit-exact")


def test_ac4_cross_implementation_interop(fips_key):
    key_bytes = fips_key.secret
    # One size per padding class: block-aligned, one-under, mid-block.
    for size in (4096, 4095, 2000):
        model = generate_synthetic_model(size, seed=400 + size)

        ours = seal(model, fips_key, mode=CipherMode.RAW_ECB_PKCS7)[0]
        assert ref.ecb_pkcs7_decrypt(key_bytes, ours) == model

        theirs = ref.ecb_pkcs7_encrypt(key_bytes, model)
        blob = unseal(theirs, fips_key, SealedFormat.RAW_DAT)
        assert blob.to_bytes() == model
        assert theirs == ours  # ECB is deterministic: full byte agreement
    print("AC4 PASS: raw .dat interop with independent AES, both directions")


def test_ac5_timing_linearity_and_reference_table(tmp_path):
    # The benchmark runs the shipped CLI in a fresh interpreter, exactly
    # as a user would invoke it. A long-lived test process accumulates
    # heap state that skews large-buffer placement (and with it the
    # timing medians), which is measurement pollution, not a property of
    # the tool. Five repetitions is the contract minimum.
    proc = subprocess.run(
        [sys.executable, "-m", "modelvault.cli", "bench", "--reps", "5",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    csv_lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert csv_lines[0] == "label,size_mb,encrypt_ms,storage_ms,total_ms,decrypt_ms"
    records = []
    for line in csv_lines[1:]:
        label, size_mb, enc, sto, _total, dec = line.split(",")
        records.append(BenchRecord(label=label,
                                   size_bytes=round(float(size_mb) * MIB),
                                   encrypt_ms=float(enc),
                                   storage_ms=float(sto),
                                   decrypt_ms=float(dec)))
    assert len(records) == 6
    assert [r.label for r in records] == \
        [f"{mb:g}MB" for mb in DEFAULT_SIZES_MB]

    total_fit = fit_linear(records, metric="total_seal_ms")
    decrypt_fit = fit_linear(records, metric="decrypt_ms")
    assert total_fit.r_squared >= 0.9, \
        f"total_seal_ms r^2 {total_fit.r_squared:.4f} below 0.9"
    assert decrypt_fit.r_squared >= 0.9, \
        f"decrypt_ms r^2 {decrypt_fit.r_squared:.4f} below 0.9"

    # Rendering the reference measurements must reproduce their recorded
    # totals as exact row sums.
    from test_bench import reference_records
    csv_rows = emit_table(reference_records(), "csv").splitlines()
    assert csv_rows[0] == "label,size_mb,encrypt_ms,storage_ms,total_ms,decrypt_ms"
    totals = [row.split(",")[4] for row in csv_rows[1:]]
    assert totals == ["244.000", "343.000", "786.000",
                      "1152.000", "1207.000", "2079.000"]
    print(f"AC5 PASS: r^2 total={total_fit.r_squared:.4f} "
          f"decrypt={decrypt_fit.r_squared:.4f}; reference totals exact")


def test_ac6_end_to_end_key_flow(monkeypatch):
    started = time.perf_counter()
    passphrase = "kf-0123456789ab"
    assert len(passphrase) == 15
    passphrase += "c"
    secret = b"acceptance-jwt-secret"
    model = generate_synthetic_model(262_144, seed=600)
    sealed, _ = seal(model, derive_key(passphrase))

    constructed = []
    real_blob = unsealer_mod.ModelBlob

    class CountingBlob(real_blob):
        def __init__(self, *args, **kwargs):
            constructed.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(unsealer_mod, "ModelBlob", CountingBlob)

    config = ServiceConfig(listen_port=0, jwt_secret=secret,
                           passphrase=passphrase)
    with KeyService(config) as service:
        token = issue_token(secret, ttl=60)
        key = fetch_key(service.url, token)
        blob = unseal_parallel(sealed, key)
        assert blob.digest == sha256(model)
        assert constructed == [1]

        head, payload, sig = token.split(".")
        tampered = f"{head}.{payload}.{'A' if sig[0] != 'A' else 'B'}{sig[1:]}"
        with pytest.raises(AuthError):
            fetch_key(service.url, tampered)
        assert constructed == [1]  # no ModelBlob came out of the failure

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"key flow took {elapsed:.1f} s, budget is 5 s"
    print(f"AC6 PASS: localhost key flow in {elapsed:.2f} s, tamper refused")


def test_ac7_background_scheduling_latency(fips_key):
    model = generate_synthetic_model(mb_to_bytes(23.9), seed=700)
    sealed, _ = seal(model, fips_key)
    expected_chunks = decode(sealed, len(sealed)).chunk_count

    latencies_ms = []
    for _ in range(20):
        events = []
        done = []
        started = time.perf_counter_ns()
        handle = unseal_background(sealed, fips_key,
                                   on_progress=events.append,
                                   on_done=lambda b, e: done.append((b, e)))
        latencies_ms.append((time.perf_counter_ns() - started) / 1e6)
        assert handle.wait(30)
        assert handle.state() == "done"
        blob, error = done[0]
        assert error is None
        # progress kept flowing after the call returned, to completion
        assert [e.chunks_done for e in events] == \
            list(range(1, expected_chunks + 1))
        assert events[-1].chunks_done == events[-1].chunks_total
        blob.release()

    median_ms = statistics.median(latencies_ms)
    assert median_ms < 10.0, \
        f"median scheduling latency {median_ms:.2f} ms, budget is 10 ms"
    print(f"AC7 PASS: median latency {median_ms:.3f} ms over 20 runs, "
          f"progress ran to {expected_chunks}/{expected_chunks}")


def test_ac8_negative_path_taxonomy(fips_key, other_key, monkeypatch):
    model = generate_synthetic_model(65_536, seed=800)
    sealed, _ = seal(model, fips_key, chunk_size=4096)

    # wrong key on a container: fingerprint gate, zero chunks decrypted
    calls = []
    real = unsealer_mod._decrypt_chunk
    monkeypatch.setattr(
        unsealer_mod, "_decrypt_chunk",
        lambda *args: calls.append(1) or real(*args))
    with pytest.raises(KeyMismatchError):
        unseal(sealed, other_key, SealedFormat.CONTAINER)
    assert calls == []
    monkeypatch.setattr(unsealer_mod, "_decrypt_chunk", real)

    # corrupted header bit (inside the CRC-protected region, past the
    # magic and version fields): CrcError exactly
    mutated = bytearray(sealed)
    mutated[14] ^= 0x20  # file_nonce region
    with pytest.raises(CrcError):
        unseal(bytes(mutated), fips_key, SealedFormat.CONTAINER)

    # corrupted payload bit: DigestError after decryption
    mutated = bytearray(sealed)
    mutated[-10] ^= 0x04
    with pytest.raises(DigestError):
        unseal(bytes(mutated), fips_key, SealedFormat.CONTAINER)

    # wrong key on raw .dat: padding failure is the only signal
    raw, _ = seal(model, fips_key, mode=CipherMode.RAW_ECB_PKCS7)
    with pytest.raises(PaddingError):
        unseal(raw, other_key, SealedFormat.RAW_DAT)

    print("AC8 PASS: KeyMismatch/Crc/Digest/Padding errors each hit "
          "their own lane")

"""Unit tests for sealing: outputs, manifests, atomicity, hygiene."""

import errno
import json
import os
import random
import threading
import time
import tracemalloc
import types

import pytest

import aes_reference as ref
import modelvault.sealer as sealer_mod
from modelvault.container import (DEFAULT_CHUNK_SIZE, HEADER_SIZE, SealedFormat,
                                  chunk_slices, decode)
from modelvault.crypto import CipherMode, ecb_decrypt, sha256
from modelvault.errors import IoError, RangeError
from modelvault.sealer import MIN_CHUNK_SIZE, seal, seal_file
from modelvault.unsealer import unseal
from conftest import FIPS_KEY_BYTES

MODEL = bytes(range(256)) * 40  # 10240 bytes, spans several small chunks


@pytest.fixture
def fixed_nonce(monkeypatch):
    monkeypatch.setattr(sealer_mod.secrets, "token_bytes",
                        lambda n: bytes(range(1, n + 1)))


def _leftovers(directory, *keep):
    return sorted(p.name for p in directory.iterdir() if p.name not in keep)


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
        h = decode(sealed, len(sealed))
        assert h.plaintext_len == len(MODEL)
        assert h.chunk_size == 4096
        assert h.chunk_count == 3
        assert h.key_fingerprint == fips_key.fingerprint
        assert report.output_len == len(sealed) == HEADER_SIZE + 3 * 12 + len(MODEL)

    def test_payload_is_ctr_of_each_chunk(self, fips_key):
        sealed, _ = seal(MODEL, fips_key, chunk_size=4096)
        h = decode(sealed, len(sealed))
        payload = sealed[len(sealed) - h.plaintext_len:]
        recovered = b"".join(
            ref.ctr_keystream_xor(FIPS_KEY_BYTES, h.file_nonce, index, payload[span])
            for index, span in enumerate(chunk_slices(h.plaintext_len, h.chunk_size)))
        assert recovered == MODEL

    @pytest.mark.parametrize("model,digest_hex", [
        (MODEL, "9ee942d2b5f732b5b6e5209e57b4b81b8ff82ca5b6a6a87eec72457250e346d6"),
        (b"", "a02e1bf2ec6d710f021af47cb037908d4ffff658c6962f03d1be8a9ed032d6f5"),
    ])
    def test_bit_exact_for_a_fixed_nonce(self, fips_key, fixed_nonce, model,
                                         digest_hex):
        # Pinned from the earlier construction (encrypt each chunk, then
        # frame the ciphertext): sealing in place must match it bit for bit.
        sealed, _ = seal(model, fips_key, chunk_size=4096)
        assert sha256(sealed).hex() == digest_hex

    def test_artifact_never_holds_the_plaintext(self, fips_key, monkeypatch):
        # Each chunk is encrypted from the model straight into the artifact;
        # no copy of the plaintext is staged in the output first.
        real_ctr_crypt = sealer_mod.ctr_crypt
        seen = []

        def checked(data, key, nonce, index, out=None):
            assert bytes(out) != bytes(data), f"chunk {index} was staged in the artifact"
            seen.append(index)
            return real_ctr_crypt(data, key, nonce, index, out=out)

        monkeypatch.setattr(sealer_mod, "ctr_crypt", checked)
        sealed, _ = seal(MODEL, fips_key, chunk_size=4096)
        assert seen == [0, 1, 2]
        assert bytes(unseal(sealed, fips_key, SealedFormat.CONTAINER).data) == MODEL

    def test_nonce_is_fresh_per_seal(self, fips_key):
        # Same input, same key: the payloads must still differ.
        a, _ = seal(MODEL, fips_key)
        b, _ = seal(MODEL, fips_key)
        assert decode(a, len(a)).file_nonce != decode(b, len(b)).file_nonce
        assert a != b

    def test_digest_recorded(self, fips_key):
        sealed, report = seal(MODEL, fips_key)
        assert decode(sealed, len(sealed)).plaintext_digest == report.plaintext_digest

    def test_empty_model(self, fips_key):
        sealed, report = seal(b"", fips_key)
        h = decode(sealed, len(sealed))
        assert h.plaintext_len == 0
        assert h.chunk_count == 1
        assert report.input_len == 0

    def test_small_chunk_size_rejected(self, fips_key):
        with pytest.raises(RangeError):
            seal(MODEL, fips_key, chunk_size=MIN_CHUNK_SIZE - 1)

    def test_chunk_size_beyond_u32_rejected_up_front(self, tmp_path, fips_key):
        # Checked before the input is opened, let alone read and encrypted.
        with pytest.raises(RangeError):
            seal_file(tmp_path / "absent.bin", tmp_path / "out.mvc", fips_key,
                      chunk_size=2**32)
        with pytest.raises(RangeError):
            seal(MODEL, fips_key, chunk_size=2**32)

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
        assert report.storage_ms == report.commit_ms == 0.0
        assert report.encrypt_ms > 0.0

    @pytest.mark.parametrize("mode", list(CipherMode))
    @pytest.mark.parametrize("to_file", [False, True], ids=["seal", "seal_file"])
    def test_hash_time_is_its_own_phase(self, fips_key, monkeypatch, tmp_path,
                                        mode, to_file):
        # A 50 ms delay in each hash update, cipher call, write of the artifact
        # or its rename must show in its own phase, every time, and in no other.
        # seal_file streams a container and seals a raw model whole in memory.
        delayed = []

        def slow(fn):
            def wrapped(*args, **kwargs):
                delayed.append(fn)
                time.sleep(0.05)
                return fn(*args, **kwargs)
            return wrapped

        class SlowSha256:
            def __init__(self):
                self._hasher = real_sha256()
                self.update = slow(self._hasher.update)
                self.digest = self._hasher.digest

        class SlowWrites:
            def __init__(self, handle):
                self._handle = handle
                self.write = slow(handle.write)

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._handle.__exit__(*exc)

        real_sha256 = sealer_mod.hashlib.sha256
        real_fdopen = os.fdopen
        delays = {
            "hash_ms": {(sealer_mod, "hashlib"): types.SimpleNamespace(sha256=SlowSha256),
                        (sealer_mod, "sha256"): slow(sealer_mod.sha256)},
            "encrypt_ms": {(sealer_mod, "ctr_crypt"): slow(sealer_mod.ctr_crypt),
                           (sealer_mod, "ecb_encrypt"): slow(sealer_mod.ecb_encrypt)},
            "storage_ms": {(os, "fdopen"): lambda fd, mode: SlowWrites(real_fdopen(fd, mode))},
            "commit_ms": {(os, "replace"): slow(os.replace)},
        }
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL[:4096])
        for phase, patches in delays.items():
            if not to_file and phase in ("storage_ms", "commit_ms"):
                continue  # seal touches no storage
            delayed.clear()
            with monkeypatch.context() as patched:
                for (target, name), value in patches.items():
                    patched.setattr(target, name, value)
                if to_file:
                    report = seal_file(src, tmp_path / "model.out", fips_key, mode=mode,
                                       write_manifest=False)
                else:
                    _, report = seal(MODEL[:4096], fips_key, mode=mode)
            assert report.plaintext_digest == sha256(MODEL[:4096])
            timed = {field: getattr(report, field) for field in delays}
            assert delayed and timed[phase] >= 50.0 * len(delayed), (phase, timed)
            assert all(ms < 50.0 for field, ms in timed.items() if field != phase), (phase, timed)
            if not to_file:
                assert report.storage_ms == report.commit_ms == 0.0


class TestSealFile:
    def test_writes_artifact_and_manifest(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.mvc"
        report = seal_file(src, out, fips_key)
        sealed = out.read_bytes()
        assert decode(sealed, len(sealed)).plaintext_len == len(MODEL)
        manifest = json.loads((tmp_path / "model.mvc.manifest.json").read_text())
        assert manifest["sha256_hex"] == report.plaintext_digest.hex()
        assert manifest["storage_ms"] == report.storage_ms > 0.0
        assert report.commit_ms > 0.0 and "commit_ms" not in manifest

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
        assert _leftovers(tmp_path, "model.bin") == []  # temp file cleaned up too

    def test_interrupt_leaves_no_temp_file(self, tmp_path, fips_key, monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)

        def interrupted_replace(a, b):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            seal_file(src, tmp_path / "model.mvc", fips_key)
        assert _leftovers(tmp_path, "model.bin") == []

    def test_disk_full_mid_stream_leaves_no_output(self, tmp_path, fips_key,
                                                   monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        real_fdopen = os.fdopen
        written = []

        class FillsAfterOneChunk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                if sum(written) + len(data) > MIN_CHUNK_SIZE:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(len(data))
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: FillsAfterOneChunk(real_fdopen(fd, mode)))
        with pytest.raises(IoError, match="No space left"):
            seal_file(src, tmp_path / "model.mvc", fips_key, chunk_size=MIN_CHUNK_SIZE)
        assert written == [MIN_CHUNK_SIZE]  # the first chunk went out
        assert _leftovers(tmp_path, "model.bin") == []

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


class TestSealFileStreaming:
    @pytest.mark.parametrize("chunk_size", [MIN_CHUNK_SIZE, DEFAULT_CHUNK_SIZE])
    @pytest.mark.parametrize("chunks", [0, "1 byte", -1, 1, +1, 3.5],
                             ids=["empty", "one-byte", "chunk-1", "chunk", "chunk+1",
                                  "3.5-chunks"])
    def test_matches_in_memory_seal(self, tmp_path, fips_key, fixed_nonce,
                                    chunk_size, chunks):
        if chunks == "1 byte":
            size = 1
        elif chunks in (-1, +1):
            size = chunk_size + chunks
        else:
            size = int(chunks * chunk_size)
        model = random.Random(size).randbytes(size)
        src = tmp_path / "model.bin"
        src.write_bytes(model)
        out = tmp_path / "model.mvc"
        report = seal_file(src, out, fips_key, chunk_size=chunk_size)
        sealed, expected = seal(model, fips_key, chunk_size=chunk_size)
        assert out.read_bytes() == sealed
        assert report.output_len == expected.output_len == len(sealed)
        assert report.plaintext_digest == expected.plaintext_digest
        assert report.input_len == size

    def test_holds_one_chunk_in_memory(self, tmp_path, fips_key):
        size = 16 * 1024 * 1024
        src = tmp_path / "model.bin"
        with open(src, "wb") as handle:
            for i in range(16):
                handle.write(bytes([i]) * (1024 * 1024))
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            report = seal_file(src, tmp_path / "model.mvc", fips_key,
                               chunk_size=1024 * 1024)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert report.input_len == size
        assert peak < 0.1 * size

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_input_seals_like_a_regular_file(self, tmp_path, fips_key,
                                                  fixed_nonce):
        regular = tmp_path / "model.bin"
        regular.write_bytes(MODEL)
        seal_file(regular, tmp_path / "from-file.mvc", fips_key, chunk_size=4096)
        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(MODEL,), daemon=True)
        writer.start()
        report = seal_file(fifo, tmp_path / "from-fifo.mvc", fips_key, chunk_size=4096)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert report.input_len == len(MODEL)
        assert ((tmp_path / "from-fifo.mvc").read_bytes()
                == (tmp_path / "from-file.mvc").read_bytes())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("mode", list(CipherMode))
    def test_fifo_input_is_read_into_a_buffer_that_is_wiped(self, tmp_path, fips_key,
                                                            fixed_nonce, monkeypatch, mode):
        read = []
        real_read_whole = sealer_mod._read_whole

        def recording_read_whole(*args):
            read.append(real_read_whole(*args))
            return read[-1]

        monkeypatch.setattr(sealer_mod, "_read_whole", recording_read_whole)
        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(MODEL,), daemon=True)
        writer.start()
        report = seal_file(fifo, tmp_path / "model.out", fips_key, mode=mode, chunk_size=4096)
        writer.join(timeout=10)
        assert not writer.is_alive()
        expected, _ = seal(MODEL, fips_key, mode=mode, chunk_size=4096)
        assert (tmp_path / "model.out").read_bytes() == expected
        assert report.input_len == len(MODEL)
        [buf] = read
        assert type(buf) is bytearray and buf == bytes(len(MODEL))

    def test_size_reading_zero_is_read_whole(self, tmp_path, fips_key, fixed_nonce,
                                             monkeypatch):
        # A pseudo-file reports st_size 0 yet has content; it is sealed whole.
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        expected, _ = seal(MODEL, fips_key, chunk_size=4096)
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
            st_mode=real_fstat(fd).st_mode, st_size=0))
        report = seal_file(src, tmp_path / "model.mvc", fips_key, chunk_size=4096)
        assert report.input_len == len(MODEL)
        assert (tmp_path / "model.mvc").read_bytes() == expected

    @pytest.mark.skipif(not os.path.isfile("/proc/version"), reason="needs procfs")
    def test_procfs_file_seals(self, tmp_path, fips_key):
        src = "/proc/version"
        assert os.stat(src).st_size == 0
        seal_file(src, tmp_path / "version.mvc", fips_key, write_manifest=False)
        blob = unseal((tmp_path / "version.mvc").read_bytes(), fips_key,
                      SealedFormat.CONTAINER)
        with open(src, "rb") as handle:
            assert bytes(blob.data) == handle.read() != b""

    def test_seal_onto_its_own_path(self, tmp_path, fips_key):
        path = tmp_path / "model.bin"
        path.write_bytes(MODEL)
        seal_file(path, path, fips_key, chunk_size=4096, write_manifest=False)
        blob = unseal(path.read_bytes(), fips_key, SealedFormat.CONTAINER)
        assert bytes(blob.data) == MODEL
        assert _leftovers(tmp_path) == ["model.bin"]

    @pytest.mark.parametrize("new_size", [MIN_CHUNK_SIZE, len(MODEL) + 1],
                             ids=["shrinks", "grows"])
    def test_model_changing_size_is_refused(self, tmp_path, fips_key, monkeypatch,
                                            new_size):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        buffers = []
        real_ctr = sealer_mod.ctr_crypt

        def ctr_then_resize(data, *args, **kwargs):
            if not buffers:
                buffers.append(data.obj)
                with open(src, "r+b") as handle:
                    handle.truncate(new_size)
            return real_ctr(data, *args, **kwargs)

        monkeypatch.setattr(sealer_mod, "ctr_crypt", ctr_then_resize)
        with pytest.raises(IoError, match="changed while it was being sealed") as info:
            seal_file(src, tmp_path / "model.mvc", fips_key, chunk_size=MIN_CHUNK_SIZE)
        assert info.value.path == str(src)
        assert _leftovers(tmp_path, "model.bin") == []
        assert buffers[0] == bytearray(MIN_CHUNK_SIZE)  # the chunk buffer is wiped

    @pytest.mark.parametrize("change", [-16, +1], ids=["shrinks", "grows"])
    def test_raw_model_changing_size_is_refused(self, tmp_path, fips_key, monkeypatch,
                                                change):
        # A raw model is read whole into a buffer of the size fstat gave.
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        real_read_exactly = sealer_mod._read_exactly

        def resize_then_read(source, buf, *args):
            os.truncate(src, len(MODEL) + change)
            return real_read_exactly(source, buf, *args)

        monkeypatch.setattr(sealer_mod, "_read_exactly", resize_then_read)
        with pytest.raises(IoError, match="changed while it was being sealed") as info:
            seal_file(src, tmp_path / "model.dat", fips_key, mode=CipherMode.RAW_ECB_PKCS7)
        assert info.value.path == str(src)
        assert _leftovers(tmp_path, "model.bin") == []


_FORMAT_OF = {CipherMode.CHUNKED_CTR: SealedFormat.CONTAINER,
              CipherMode.RAW_ECB_PKCS7: SealedFormat.RAW_DAT}


class TestSealFileOutputs:
    """A regular output is replaced atomically; any other node is written through."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("mode", list(CipherMode))
    def test_fifo_output_receives_the_artifact(self, tmp_path, fips_key, mode):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        report = seal_file(src, fifo, fips_key, mode=mode, chunk_size=4096,
                           write_manifest=False)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert fifo.is_fifo()
        assert len(received[0]) == report.output_len
        blob = unseal(received[0], fips_key, _FORMAT_OF[mode])
        assert bytes(blob.data) == MODEL

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link-to-fifo"])
    def test_manifest_beside_a_fifo_is_refused_up_front(self, tmp_path, fips_key,
                                                        monkeypatch, via_link):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        out = fifo
        if via_link:
            out = tmp_path / "model.mvc"
            out.symlink_to(fifo)

        def no_open(path, *args, **kwargs):
            # Opening the FIFO for writing would block with no reader.
            raise AssertionError(f"{path} was opened before the output was refused")

        monkeypatch.setattr(sealer_mod, "open", no_open, raising=False)
        with pytest.raises(IoError, match="manifest") as info:
            seal_file(src, out, fips_key, chunk_size=4096)
        assert info.value.path == str(out)
        assert fifo.is_fifo()
        assert not list(tmp_path.glob("*.manifest.json"))
        # Nothing was written into the FIFO: a non-blocking read finds it empty.
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert os.read(fd, 1) == b""
        finally:
            os.close(fd)

    @pytest.mark.parametrize("mode", list(CipherMode))
    def test_symlink_output_writes_its_target(self, tmp_path, fips_key, mode):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        target = tmp_path / "elsewhere" / "model.mvc"
        target.parent.mkdir()
        target.write_bytes(b"stale" * 10000)
        link = tmp_path / "model.mvc"
        link.symlink_to(target)
        seal_file(src, link, fips_key, mode=mode, chunk_size=4096)
        assert link.is_symlink()
        blob = unseal(target.read_bytes(), fips_key, _FORMAT_OF[mode])
        assert bytes(blob.data) == MODEL
        assert _leftovers(target.parent) == ["model.mvc"]

    @pytest.mark.parametrize("mode", list(CipherMode))
    def test_replaced_artifact_keeps_its_mode(self, tmp_path, fips_key, mode):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.mvc"
        out.write_bytes(b"stale")
        out.chmod(0o644)
        seal_file(src, out, fips_key, mode=mode)
        assert out.stat().st_mode & 0o7777 == 0o644
        assert bytes(unseal(out.read_bytes(), fips_key, _FORMAT_OF[mode]).data) == MODEL

    def test_new_artifact_is_private(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        src.chmod(0o644)
        out = tmp_path / "model.mvc"
        seal_file(src, out, fips_key)
        assert out.stat().st_mode & 0o7777 == 0o600
        assert (tmp_path / "model.mvc.manifest.json").stat().st_mode & 0o7777 == 0o600

    @pytest.mark.parametrize("mode", list(CipherMode))
    def test_symlink_to_the_model_is_refused(self, tmp_path, fips_key, mode):
        # Writing through the link would truncate the model before it is read.
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        link = tmp_path / "model.mvc"
        link.symlink_to(src)
        with pytest.raises(IoError, match="link to the model") as info:
            seal_file(src, link, fips_key, mode=mode, chunk_size=4096)
        assert info.value.path == str(link)
        assert src.read_bytes() == MODEL
        assert link.is_symlink()
        assert _leftovers(tmp_path, "model.bin", "model.mvc") == []

    def test_dangling_symlink_output_creates_its_target(self, tmp_path, fips_key):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        target = tmp_path / "model.real"
        link = tmp_path / "model.mvc"
        link.symlink_to(target)
        seal_file(src, link, fips_key, chunk_size=4096, write_manifest=False)
        assert link.is_symlink()
        assert bytes(unseal(target.read_bytes(), fips_key, SealedFormat.CONTAINER).data) == MODEL


def _record_kicks(monkeypatch, result=0):
    """Replace sync_file_range with a recorder; returns its (offset, length) calls."""
    kicks = []

    def recording(fd, offset, length, flags):
        assert flags == sealer_mod._SYNC_FILE_RANGE_WRITE
        kicks.append((offset, length))
        return result

    monkeypatch.setattr(sealer_mod, "_sync_file_range", recording)
    return kicks


def _covered(kicks, size):
    """Whether the kicked ranges, a length of 0 running to the end, cover [0, size)."""
    reached = 0
    for offset, length in sorted(kicks):
        if offset > reached:
            return False
        reached = max(reached, offset + length if length else size)
    return reached >= size


class TestEarlyWriteback:
    """Replacing a regular file starts the temp file's writeback before the rename."""

    SIZE = 3 * sealer_mod._WRITEBACK_WINDOW + 12345

    @pytest.mark.parametrize("chunk_size", [MIN_CHUNK_SIZE, DEFAULT_CHUNK_SIZE])
    def test_a_reseal_starts_writeback_of_every_byte_before_the_rename(
            self, tmp_path, fips_key, monkeypatch, chunk_size):
        model = random.Random(1).randbytes(self.SIZE)
        src = tmp_path / "model.bin"
        src.write_bytes(model)
        out = tmp_path / "model.mvc"
        out.write_bytes(b"old artifact")
        kicks = _record_kicks(monkeypatch)
        at_rename = []
        real_replace = os.replace

        def recording_replace(tmp, dst):
            if dst == out:
                at_rename.append((list(kicks), os.stat(tmp).st_size))
            return real_replace(tmp, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        report = seal_file(src, out, fips_key, chunk_size=chunk_size)
        [(before, tmp_size)] = at_rename
        assert tmp_size == report.output_len
        assert _covered(before, tmp_size)
        windows = -(-self.SIZE // sealer_mod._WRITEBACK_WINDOW)
        assert 1 < len(before) <= windows + 1  # windows while sealing, then the whole file
        assert before[-1] == (0, 0)
        assert bytes(unseal(out.read_bytes(), fips_key, SealedFormat.CONTAINER).data) == model
        assert report.commit_ms > 0.0

    def test_a_new_path_gets_none(self, tmp_path, fips_key, monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(bytes(self.SIZE))
        kicks = _record_kicks(monkeypatch)
        seal_file(src, tmp_path / "model.mvc", fips_key, chunk_size=MIN_CHUNK_SIZE)
        assert (tmp_path / "model.mvc").stat().st_size > self.SIZE
        assert kicks == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_gets_none(self, tmp_path, fips_key, monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        kicks = _record_kicks(monkeypatch)
        seal_file(src, fifo, fips_key, chunk_size=MIN_CHUNK_SIZE, write_manifest=False)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert bytes(unseal(received[0], fips_key, SealedFormat.CONTAINER).data) == MODEL
        assert kicks == []

    def test_a_replaced_manifest_gets_one(self, tmp_path, fips_key, monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(MODEL)
        out = tmp_path / "model.mvc"
        seal_file(src, out, fips_key)
        kicks = _record_kicks(monkeypatch)
        seal_file(src, out, fips_key)
        assert kicks == [(0, 0), (0, 0)]  # the artifact, then its manifest

    def test_a_slow_kick_counts_in_commit_ms_not_storage_ms(self, tmp_path, fips_key,
                                                            monkeypatch):
        src = tmp_path / "model.bin"
        src.write_bytes(bytes(2 * sealer_mod._WRITEBACK_WINDOW))
        out = tmp_path / "model.mvc"
        out.write_bytes(b"old artifact")

        def slow(fd, offset, length, flags):
            time.sleep(0.05)
            return 0

        monkeypatch.setattr(sealer_mod, "_sync_file_range", slow)
        report = seal_file(src, out, fips_key, write_manifest=False)
        assert report.commit_ms >= 150.0  # two windows and the whole file
        assert report.storage_ms < 50.0


class TestCommitCrashPoints:
    """Each step of replacing an artifact fails in turn; the old one survives whole."""

    SIZE = sealer_mod._WRITEBACK_WINDOW + 54321  # one window, then the whole file

    @pytest.fixture
    def paths(self, tmp_path, fixed_nonce):
        src = tmp_path / "model.bin"
        src.write_bytes(random.Random(2).randbytes(self.SIZE))
        out = tmp_path / "model.mvc"
        out.write_bytes(b"the whole old artifact")
        return src, out

    def _fail_write(self, monkeypatch):
        real_fdopen = os.fdopen

        class FailingWrite:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                raise OSError(errno.EIO, "Input/output error")

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: FailingWrite(real_fdopen(fd, mode)))

    def _fail_kick(self, monkeypatch, nth):
        calls = []

        def failing(fd, offset, length, flags):
            calls.append(offset)
            if len(calls) == nth:
                raise KeyboardInterrupt
            return 0

        monkeypatch.setattr(sealer_mod, "_sync_file_range", failing)

    def _raise(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    @pytest.mark.parametrize("step", ["mkstemp", "chmod", "write", "window-kick",
                                      "final-kick", "replace"])
    def test_a_failed_step_leaves_the_old_artifact(self, paths, fips_key, monkeypatch,
                                                   step):
        src, out = paths
        if step == "mkstemp":
            monkeypatch.setattr(sealer_mod.tempfile, "mkstemp", self._raise)
        elif step == "chmod":
            monkeypatch.setattr(os, "chmod", self._raise)
        elif step == "write":
            self._fail_write(monkeypatch)
        elif step == "window-kick":
            self._fail_kick(monkeypatch, 1)
        elif step == "final-kick":
            self._fail_kick(monkeypatch, 2)
        else:
            monkeypatch.setattr(os, "replace", self._raise)
        expected = KeyboardInterrupt if step.endswith("kick") else IoError
        with pytest.raises(expected):
            seal_file(src, out, fips_key, chunk_size=MIN_CHUNK_SIZE, write_manifest=False)
        assert out.read_bytes() == b"the whole old artifact"
        assert _leftovers(out.parent, "model.bin", "model.mvc") == []

    @pytest.mark.parametrize("kick", ["failing", "missing"])
    def test_a_failing_or_missing_kick_seals_the_same_bytes(self, paths, fips_key,
                                                            monkeypatch, kick):
        src, out = paths
        if kick == "failing":
            kicks = _record_kicks(monkeypatch, result=-1)
        else:
            monkeypatch.setattr(sealer_mod, "_sync_file_range", None)
        report = seal_file(src, out, fips_key, chunk_size=MIN_CHUNK_SIZE,
                           write_manifest=False)
        sealed, _ = seal(src.read_bytes(), fips_key, chunk_size=MIN_CHUNK_SIZE)
        assert out.read_bytes() == sealed
        assert report.output_len == len(sealed)
        if kick == "failing":
            assert len(kicks) == 2
        assert _leftovers(out.parent, "model.bin", "model.mvc") == []

"""End-to-end tests for the mvc command line.

Exit code contract: 0 success, 1 usage or I/O trouble, 2 cryptographic
or authentication refusal. Secrets never land on stdout except from
keygen itself and from an explicit --print-key.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import urllib.parse

import pytest

from modelvault.cli import main
from modelvault.container import MAGIC, decode
from modelvault.crypto import CipherMode, decrypt_block, derive_key, load_key_hex
from modelvault.key_service import KeyService, ServiceConfig, issue_token
from modelvault.sealer import seal
from modelvault.unsealer import ModelBlob

PASSPHRASE = "0123456789abcdef"
KEY_HEX = bytes(range(32)).hex()
MODEL = bytes((i * 7 + 3) % 256 for i in range(50000))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("MVC_KEY", "MVC_KEY_HEX", "MVC_TOKEN", "MVC_JWT_SECRET"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(MODEL)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitTaxonomy:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "seal" in out and "unseal" in out

    def test_unknown_flag_is_usage_error(self, capsys, model_file):
        code, _, _ = run(capsys, "seal", str(model_file), "--bogus")
        assert code == 1


class TestKeyResolution:
    def test_no_key_anywhere(self, capsys, model_file):
        code, _, err = run(capsys, "seal", str(model_file))
        assert code == 1
        assert "key" in err.lower()

    def test_two_flag_sources_rejected(self, capsys, model_file):
        code, _, err = run(capsys, "seal", str(model_file),
                           "--passphrase", PASSPHRASE, "--key-hex", KEY_HEX)
        assert code == 1
        assert "one key source" in err

    def test_both_env_sources_rejected(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("MVC_KEY", PASSPHRASE)
        monkeypatch.setenv("MVC_KEY_HEX", KEY_HEX)
        code, _, err = run(capsys, "seal", str(model_file))
        assert code == 1
        assert "MVC_KEY" in err

    def test_flag_overrides_env(self, capsys, model_file, monkeypatch):
        # The env value is invalid; success proves the flag won.
        monkeypatch.setenv("MVC_KEY", "way too short")
        code, out, _ = run(capsys, "seal", str(model_file),
                           "--passphrase", PASSPHRASE)
        assert code == 0

    def test_env_passphrase_works(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("MVC_KEY", PASSPHRASE)
        code, _, _ = run(capsys, "seal", str(model_file))
        assert code == 0

    def test_env_hex_works(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("MVC_KEY_HEX", KEY_HEX)
        code, _, _ = run(capsys, "seal", str(model_file))
        assert code == 0

    def test_token_without_key_url_rejected(self, capsys, model_file):
        code, _, err = run(capsys, "seal", str(model_file), "--token", "t")
        assert code == 1

    def test_key_url_without_token_rejected(self, capsys, model_file):
        code, _, err = run(capsys, "seal", str(model_file),
                           "--key-url", "http://127.0.0.1:1/v1/model-key")
        assert code == 1
        assert "token" in err.lower()

    def test_bad_passphrase_is_usage_error(self, capsys, model_file):
        code, _, _ = run(capsys, "seal", str(model_file), "--passphrase", "short")
        assert code == 1

    def test_bad_hex_is_usage_error(self, capsys, model_file):
        code, _, _ = run(capsys, "seal", str(model_file), "--key-hex", "zz")
        assert code == 1


class TestSealCli:
    def test_seal_reports_manifest_json(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "sealed.mvc"
        code, out, _ = run(capsys, "seal", str(model_file),
                           "--out", str(out_path), "--passphrase", PASSPHRASE)
        assert code == 0
        manifest = json.loads(out)
        assert manifest["input_len"] == len(MODEL)
        assert manifest["mode"] == "ctr"
        assert manifest["out"] == str(out_path)
        assert manifest["commit_ms"] > 0.0
        assert out_path.exists()
        sidecar = json.loads((tmp_path / "sealed.mvc.manifest.json").read_text())
        assert set(manifest) - set(sidecar) == {"commit_ms", "out"}

    def test_default_output_suffix(self, capsys, model_file):
        code, out, _ = run(capsys, "seal", str(model_file),
                           "--passphrase", PASSPHRASE)
        assert code == 0
        assert json.loads(out)["out"] == str(model_file) + ".mvc"

    def test_raw_mode_default_suffix(self, capsys, model_file):
        code, out, _ = run(capsys, "seal", str(model_file), "--mode", "raw",
                           "--passphrase", PASSPHRASE)
        assert code == 0
        assert json.loads(out)["out"] == str(model_file) + ".dat"

    def test_no_manifest_flag(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "sealed.mvc"
        code, _, _ = run(capsys, "seal", str(model_file), "--out",
                         str(out_path), "--no-manifest", "--passphrase", PASSPHRASE)
        assert code == 0
        assert not (tmp_path / "sealed.mvc.manifest.json").exists()

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "seal", str(tmp_path / "absent.bin"),
                           "--passphrase", PASSPHRASE)
        assert code == 1

    def test_tiny_chunk_size_rejected(self, capsys, model_file):
        code, _, _ = run(capsys, "seal", str(model_file),
                         "--chunk-size", "1024", "--passphrase", PASSPHRASE)
        assert code == 1


class TestUnsealCli:
    @pytest.fixture
    def sealed_file(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "sealed.mvc"
        assert main(["seal", str(model_file), "--out", str(out_path),
                     "--passphrase", PASSPHRASE]) == 0
        capsys.readouterr()
        return out_path

    def test_verify_only_by_default(self, capsys, sealed_file, tmp_path):
        code, out, _ = run(capsys, "unseal", str(sealed_file),
                           "--passphrase", PASSPHRASE)
        assert code == 0
        result = json.loads(out)
        assert result["format"] == "container"
        assert result["plaintext_len"] == len(MODEL)
        assert len(result["sha256_hex"]) == 64
        written = [p for p in tmp_path.iterdir()
                   if p.suffix not in (".mvc", ".json", ".bin")]
        assert written == []  # nothing new on disk

    def test_out_requires_explicit_opt_in(self, capsys, sealed_file,
                                          tmp_path):
        target = tmp_path / "plain.bin"
        code, _, err = run(capsys, "unseal", str(sealed_file),
                           "--out", str(target), "--passphrase", PASSPHRASE)
        assert code == 1
        assert "allow-plaintext-output" in err
        assert not target.exists()

    def test_out_with_opt_in(self, capsys, sealed_file, tmp_path):
        target = tmp_path / "plain.bin"
        code, out, _ = run(capsys, "unseal", str(sealed_file),
                           "--out", str(target), "--allow-plaintext-output",
                           "--passphrase", PASSPHRASE)
        assert code == 0
        assert target.read_bytes() == MODEL
        assert json.loads(out)["out"] == str(target)

    def test_out_is_atomic_and_copy_free(self, capsys, sealed_file, tmp_path,
                                         monkeypatch):
        def no_copy(blob):
            raise AssertionError("--out must write from the blob's own buffer")

        monkeypatch.setattr(ModelBlob, "to_bytes", no_copy)
        target = tmp_path / "plain.bin"
        code, _, _ = run(capsys, "unseal", str(sealed_file),
                         "--out", str(target), "--allow-plaintext-output",
                         "--passphrase", PASSPHRASE)
        assert code == 0
        assert target.read_bytes() == MODEL
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_out_keeps_the_mode_of_the_file_it_replaces(self, capsys, sealed_file,
                                                         tmp_path):
        target = tmp_path / "plain.bin"
        target.write_bytes(b"stale")
        target.chmod(0o640)
        code, _, _ = run(capsys, "unseal", str(sealed_file),
                         "--out", str(target), "--allow-plaintext-output",
                         "--passphrase", PASSPHRASE)
        assert code == 0
        assert target.read_bytes() == MODEL
        assert target.stat().st_mode & 0o777 == 0o640

    def test_out_writes_through_a_symlink(self, capsys, sealed_file, tmp_path):
        real = tmp_path / "elsewhere" / "plain.bin"
        real.parent.mkdir()
        real.write_bytes(b"stale")
        link = tmp_path / "plain.bin"
        link.symlink_to(real)
        code, _, _ = run(capsys, "unseal", str(sealed_file),
                         "--out", str(link), "--allow-plaintext-output",
                         "--passphrase", PASSPHRASE)
        assert code == 0
        assert link.is_symlink()
        assert real.read_bytes() == MODEL

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_writes_into_a_fifo(self, capsys, sealed_file, tmp_path):
        fifo = tmp_path / "plain.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code, _, _ = run(capsys, "unseal", str(sealed_file),
                         "--out", str(fifo), "--allow-plaintext-output",
                         "--passphrase", PASSPHRASE)
        reader.join(timeout=10)
        assert code == 0
        assert received == [MODEL]
        assert fifo.is_fifo()

    def test_wrong_key_is_crypto_error(self, capsys, sealed_file):
        code, _, err = run(capsys, "unseal", str(sealed_file),
                           "--passphrase", "fedcba9876543210")
        assert code == 2

    def test_raw_round_trip(self, capsys, model_file, tmp_path):
        raw_path = tmp_path / "sealed.dat"
        assert main(["seal", str(model_file), "--out", str(raw_path),
                     "--mode", "raw", "--passphrase", PASSPHRASE]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "unseal", str(raw_path),
                           "--passphrase", PASSPHRASE)
        assert code == 0
        result = json.loads(out)
        assert result["format"] == "raw"
        assert result["plaintext_len"] == len(MODEL)

    def test_raw_wrong_key_is_crypto_error(self, capsys, model_file,
                                           tmp_path):
        raw_path = tmp_path / "sealed.dat"
        assert main(["seal", str(model_file), "--out", str(raw_path),
                     "--mode", "raw", "--passphrase", PASSPHRASE]) == 0
        capsys.readouterr()
        code, _, _ = run(capsys, "unseal", str(raw_path),
                         "--passphrase", "fedcba9876543210")
        assert code == 2

    def test_corrupted_container_is_crypto_error(self, capsys, sealed_file):
        data = bytearray(sealed_file.read_bytes())
        data[-1] ^= 0x01
        sealed_file.write_bytes(bytes(data))
        code, _, _ = run(capsys, "unseal", str(sealed_file),
                         "--passphrase", PASSPHRASE)
        assert code == 2

    @pytest.mark.parametrize("model_len", [1004, 1000],
                             ids=["multiple-of-16", "not-multiple-of-16"])
    def test_damaged_header_is_named_by_the_default_format(self, capsys, tmp_path,
                                                           model_len):
        # A container stays a container when its header is damaged: the
        # default --format reports the CRC failure, not a raw padding or
        # length failure.
        model = tmp_path / "small.bin"
        model.write_bytes(MODEL[:model_len])
        sealed = tmp_path / "small.mvc"
        assert main(["seal", str(model), "--out", str(sealed), "--no-manifest",
                     "--passphrase", PASSPHRASE]) == 0
        capsys.readouterr()
        data = bytearray(sealed.read_bytes())
        assert (len(data) % 16 == 0) == (model_len == 1004)
        data[30] ^= 0x01  # inside chunk_size, which the header CRC covers
        sealed.write_bytes(bytes(data))
        code, _, err = run(capsys, "unseal", str(sealed), "--passphrase", PASSPHRASE)
        assert code == 1
        assert "header_crc" in err
        assert "padding" not in err

    def test_format_raw_reads_a_raw_that_starts_with_the_magic(self, capsys, tmp_path):
        key = derive_key(PASSPHRASE)
        model = decrypt_block(key, MAGIC + bytes(12)) + MODEL  # seals to MVC1...
        raw_path = tmp_path / "magic.dat"
        raw_path.write_bytes(seal(model, key, mode=CipherMode.RAW_ECB_PKCS7)[0])
        code, out, _ = run(capsys, "unseal", str(raw_path), "--format", "raw",
                           "--passphrase", PASSPHRASE)
        assert code == 0
        result = json.loads(out)
        assert result["format"] == "raw"
        assert result["plaintext_len"] == len(model)
        code, out, _ = run(capsys, "unseal", str(raw_path), "--passphrase", PASSPHRASE)
        assert code == 1 and out == ""  # auto reads it as a damaged container

    def test_explicit_format_container(self, capsys, sealed_file):
        code, _, _ = run(capsys, "unseal", str(sealed_file),
                         "--format", "container", "--passphrase", PASSPHRASE)
        assert code == 0

    def test_workers_flag(self, capsys, sealed_file):
        code, _, _ = run(capsys, "unseal", str(sealed_file), "--workers", "2",
                         "--passphrase", PASSPHRASE)
        assert code == 0

    def test_workers_below_one_rejected_on_raw(self, capsys, model_file,
                                               tmp_path):
        raw_path = tmp_path / "sealed.dat"
        assert main(["seal", str(model_file), "--out", str(raw_path),
                     "--mode", "raw", "--passphrase", PASSPHRASE]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "unseal", str(raw_path), "--workers", "0",
                             "--passphrase", PASSPHRASE)
        assert code == 1
        assert out == ""
        assert "at least 1" in err

    def test_non_integer_workers_is_usage_error(self, capsys, sealed_file):
        code, _, err = run(capsys, "unseal", str(sealed_file), "--workers", "two",
                           "--passphrase", PASSPHRASE)
        assert code == 1
        assert "invalid int value: 'two'" in err

    def test_explicit_verify_only_flag(self, capsys, sealed_file):
        code, out, _ = run(capsys, "unseal", str(sealed_file),
                           "--verify-only", "--passphrase", PASSPHRASE)
        assert code == 0
        assert json.loads(out)["plaintext_len"] == len(MODEL)

    def test_verify_only_conflicts_with_out(self, capsys, sealed_file,
                                            tmp_path):
        target = tmp_path / "plain.bin"
        code, _, err = run(capsys, "unseal", str(sealed_file),
                           "--verify-only", "--out", str(target),
                           "--allow-plaintext-output",
                           "--passphrase", PASSPHRASE)
        assert code == 1
        assert not target.exists()

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "unseal", str(tmp_path / "absent.mvc"),
                         "--passphrase", PASSPHRASE)
        assert code == 1


class TestKeygenCli:
    def test_passphrase_format(self, capsys):
        code, out, _ = run(capsys, "keygen")
        assert code == 0
        secret = out.strip()
        assert len(secret) == 16
        derive_key(secret)  # must be acceptable everywhere

    def test_hex_format(self, capsys):
        code, out, _ = run(capsys, "keygen", "--format", "hex")
        assert code == 0
        secret = out.strip()
        assert len(secret) == 64
        load_key_hex(secret)

    def test_outputs_are_unique(self, capsys):
        seen = set()
        for _ in range(100):
            main(["keygen"])
            seen.add(capsys.readouterr().out.strip())
        assert len(seen) == 100

    def test_generated_key_round_trips(self, capsys, model_file, tmp_path,
                                       monkeypatch):
        main(["keygen"])
        secret = capsys.readouterr().out.strip()
        monkeypatch.setenv("MVC_KEY", secret)
        out_path = tmp_path / "m.mvc"
        assert main(["seal", str(model_file), "--out", str(out_path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "unseal", str(out_path))
        assert code == 0
        assert json.loads(out)["plaintext_len"] == len(MODEL)


class TestKeyServiceCli:
    @pytest.fixture
    def service(self):
        cfg = ServiceConfig(listen_port=0, jwt_secret=b"cli-secret",
                            passphrase=PASSPHRASE)
        with KeyService(cfg) as svc:
            yield svc

    def test_fetch_key_prints_fingerprint(self, capsys, service):
        token = issue_token(b"cli-secret", 60)
        code, out, _ = run(capsys, "fetch-key", service.url,
                           "--token", token)
        assert code == 0
        assert out.strip() == derive_key(PASSPHRASE).fingerprint.hex()

    def test_fetch_key_print_key_round_trips(self, capsys, service):
        token = issue_token(b"cli-secret", 60)
        code, out, _ = run(capsys, "fetch-key", service.url,
                           "--token", token, "--print-key")
        assert code == 0
        assert load_key_hex(out.strip()).secret == \
            derive_key(PASSPHRASE).secret

    def test_fetch_key_bad_token_exits_2(self, capsys, service):
        code, _, _ = run(capsys, "fetch-key", service.url, "--token", "bad")
        assert code == 2

    def test_fetch_key_needs_token(self, capsys, service):
        code, _, err = run(capsys, "fetch-key", service.url)
        assert code == 1
        assert "token" in err.lower()

    def test_fetch_key_token_from_env(self, capsys, service, monkeypatch):
        monkeypatch.setenv("MVC_TOKEN", issue_token(b"cli-secret", 60))
        code, out, _ = run(capsys, "fetch-key", service.url)
        assert code == 0

    def test_fetch_key_unreachable_exits_1(self, capsys):
        code, _, _ = run(capsys, "fetch-key",
                         "http://127.0.0.1:9/v1/model-key", "--token", "t")
        assert code == 1

    def test_seal_with_key_url(self, capsys, service, model_file, tmp_path):
        token = issue_token(b"cli-secret", 60)
        out_path = tmp_path / "m.mvc"
        code, _, _ = run(capsys, "seal", str(model_file),
                         "--out", str(out_path),
                         "--key-url", service.url, "--token", token)
        assert code == 0
        sealed = out_path.read_bytes()
        assert decode(sealed, len(sealed)).key_fingerprint == \
            derive_key(PASSPHRASE).fingerprint

    def test_serve_key_requires_env(self, capsys, monkeypatch):
        code, _, err = run(capsys, "serve-key")
        assert code == 1
        assert "MVC_KEY" in err
        monkeypatch.setenv("MVC_KEY", PASSPHRASE)
        code, _, err = run(capsys, "serve-key")
        assert code == 1
        assert "MVC_JWT_SECRET" in err

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_serve_key_port_out_of_range_is_usage_error(self, capsys, monkeypatch, port):
        monkeypatch.setenv("MVC_KEY", PASSPHRASE)
        monkeypatch.setenv("MVC_JWT_SECRET", "cli-secret")
        code, out, err = run(capsys, "serve-key", "--port", port)
        assert code == 1
        assert out == ""
        assert err.startswith("mvc: error:") and "65535" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("skew", ["inf", "nan", "-1"])
    def test_serve_key_bad_clock_skew_is_usage_error(self, capsys, monkeypatch, skew):
        monkeypatch.setenv("MVC_KEY", PASSPHRASE)
        monkeypatch.setenv("MVC_JWT_SECRET", "cli-secret")
        monkeypatch.setattr(KeyService, "serve_forever",
                            lambda self: pytest.fail("serve-key started serving"))
        code, out, err = run(capsys, "serve-key", "--port", "0", "--clock-skew", skew)
        assert code == 1
        assert out == ""
        assert err.startswith("mvc: error:") and "token_clock_skew" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ttl", ["inf", "nan", "0"])
    def test_serve_key_bad_token_ttl_stops_the_service(self, capsys, monkeypatch, ttl):
        monkeypatch.setenv("MVC_KEY", PASSPHRASE)
        monkeypatch.setenv("MVC_JWT_SECRET", "cli-secret")
        code, out, err = run(capsys, "serve-key", "--port", "0", "--print-token",
                             "--token-ttl", ttl)
        assert code == 1
        assert err.startswith("mvc: error:") and "ttl" in err
        assert "Traceback" not in err
        port = urllib.parse.urlparse(out.split()[-1]).port
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_serve_key_subprocess_round_trip(self, capsys, tmp_path):
        env = dict(os.environ, MVC_KEY=PASSPHRASE,
                   MVC_JWT_SECRET="subprocess-secret")
        proc = subprocess.Popen(
            [sys.executable, "-m", "modelvault.cli", "serve-key",
             "--port", "0", "--print-token"],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            url = proc.stdout.readline().split()[-1]
            token = proc.stdout.readline().strip()
            code, out, _ = run(capsys, "fetch-key", url, "--token", token)
            assert code == 0
            assert out.strip() == derive_key(PASSPHRASE).fingerprint.hex()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
class TestOutToStdout:
    """With --out naming stdout itself, the JSON report goes to stderr."""

    def mvc(self, *argv):
        return subprocess.run([sys.executable, "-m", "modelvault.cli", *argv,
                               "--passphrase", PASSPHRASE],
                              capture_output=True, timeout=60, check=True)

    def test_piped_artifact_and_plaintext_are_clean(self, model_file, tmp_path):
        sealed = self.mvc("seal", str(model_file), "--out", "/dev/stdout", "--no-manifest")
        assert json.loads(sealed.stderr)["out"] == "/dev/stdout"
        artifact = tmp_path / "piped.mvc"
        artifact.write_bytes(sealed.stdout)
        unsealed = self.mvc("unseal", str(artifact), "--out", "/dev/stdout",
                            "--allow-plaintext-output")
        assert unsealed.stdout == MODEL
        assert json.loads(unsealed.stderr)["plaintext_len"] == len(MODEL)

    def test_report_stays_on_stdout_for_another_output(self, model_file, tmp_path):
        out = tmp_path / "model.mvc"
        sealed = self.mvc("seal", str(model_file), "--out", str(out), "--no-manifest")
        assert json.loads(sealed.stdout)["out"] == str(out)
        assert sealed.stderr == b""


class TestStdoutHygiene:
    """Key bytes must never reach stdout/stderr from key-consuming verbs."""

    def secret_markers(self):
        key = derive_key(PASSPHRASE)
        return [PASSPHRASE, key.secret.hex(), KEY_HEX]

    def assert_clean(self, *streams):
        for stream in streams:
            for marker in self.secret_markers():
                assert marker not in stream

    def test_seal_and_unseal_outputs_clean(self, capsys, model_file,
                                           tmp_path):
        out_path = tmp_path / "m.mvc"
        code, out, err = run(capsys, "seal", str(model_file),
                             "--out", str(out_path), "--passphrase", PASSPHRASE)
        assert code == 0
        self.assert_clean(out, err)
        code, out, err = run(capsys, "unseal", str(out_path),
                             "--passphrase", PASSPHRASE)
        assert code == 0
        self.assert_clean(out, err)

    def test_hex_key_not_echoed(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "m.mvc"
        code, out, err = run(capsys, "seal", str(model_file),
                             "--out", str(out_path), "--key-hex", KEY_HEX)
        assert code == 0
        self.assert_clean(out, err)

    def test_error_paths_clean(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "m.mvc"
        main(["seal", str(model_file), "--out", str(out_path),
              "--passphrase", PASSPHRASE])
        capsys.readouterr()
        code, out, err = run(capsys, "unseal", str(out_path),
                             "--passphrase", "fedcba9876543210")
        assert code == 2
        self.assert_clean(out, err)
        assert "fedcba9876543210" not in out + err

    def test_usage_errors_clean(self, capsys, model_file):
        code, out, err = run(capsys, "seal", str(model_file),
                             "--passphrase", PASSPHRASE, "--key-hex", KEY_HEX)
        assert code == 1
        self.assert_clean(out, err)


class TestBenchCli:
    def test_small_bench_run(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--sizes", "0.01,0.02,0.03",
                           "--reps", "3", "--out-dir", str(tmp_path))
        assert code == 0
        assert out.startswith("| Model |")
        assert "r^2" in out
        csv = (tmp_path / "bench.csv").read_text()
        assert csv.splitlines()[0] == \
            "label,size_mb,encrypt_ms,storage_ms,total_ms,decrypt_ms"
        assert len(csv.splitlines()) == 4
        assert (tmp_path / "bench.md").exists()

    def test_two_sizes_skip_fit(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--sizes", "0.01,0.02",
                           "--reps", "3", "--out-dir", str(tmp_path))
        assert code == 0
        assert "r^2" not in out

    def test_default_out_dir_is_cwd(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "bench", "--sizes", "0.01,0.02,0.03",
                         "--reps", "3")
        assert code == 0
        assert (tmp_path / "bench.md").exists()
        assert (tmp_path / "bench.csv").exists()

    def test_bad_sizes_rejected(self, capsys):
        code, _, _ = run(capsys, "bench", "--sizes", "abc")
        assert code == 1

    def test_bad_reps_rejected(self, capsys):
        code, _, _ = run(capsys, "bench", "--sizes", "0.01", "--reps", "1")
        assert code == 1

    def test_workers_below_one_rejected_on_raw(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--mode", "raw", "--workers", "0",
                           "--sizes", "0.01,0.02,0.03", "--reps", "3",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert not (tmp_path / "bench.md").exists()

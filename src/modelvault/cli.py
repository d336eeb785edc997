"""Command line front end.

Subcommands::

    mvc seal       encrypt a model file into a sealed artifact
    mvc unseal     decrypt a sealed artifact in memory (verify by default)
    mvc keygen     generate a fresh passphrase or hex key
    mvc serve-key  run the JWT-gated key endpoint
    mvc fetch-key  fetch a key from the endpoint, print its fingerprint
    mvc bench      run the timing benchmark

Exit codes: 0 success, 1 usage or I/O problems, 2 cryptographic or
authentication failures (wrong key, bad padding, digest mismatch,
rejected token).

Key sources for seal/unseal, exactly one of: ``--passphrase``
(16 characters), ``--key-hex`` (64 hex chars), ``--key-url`` plus
``--token``, or the environment variables ``MVC_KEY`` / ``MVC_KEY_HEX``.
Flags take precedence over the environment. Key bytes are never echoed
back; only ``keygen`` and an explicit ``--print-key`` ever write
secrets to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import secrets
import string
import sys
from pathlib import Path

from .bench import (DEFAULT_REPS, DEFAULT_SEED, DEFAULT_SIZES_MB, emit_table,
                    fit_linear, format_fit, run_bench)
from .container import DEFAULT_CHUNK_SIZE, SealedFormat
from .crypto import (PASSPHRASE_CHARS, CipherMode, KeyMaterial, derive_key,
                     load_key_hex)
from .errors import (AuthError, DegenerateError, DigestError, KeyMismatchError,
                     ModelVaultError, PaddingError)
from .key_client import fetch_key
from .key_service import KeyService, ServiceConfig, issue_token
from .sealer import _atomic_output, _now_ms, seal_file
from .unsealer import unseal_file

# Errors that mean "the cryptography said no", not "you held it wrong".
_CRYPTO_ERRORS = (KeyMismatchError, PaddingError, DigestError, AuthError)

_KEYGEN_ALPHABET = string.ascii_letters + string.digits
_FORMATS = {"raw": SealedFormat.RAW_DAT, "container": SealedFormat.CONTAINER}
_WORKERS_HELP = ("kept for compatibility: must be at least 1, and is otherwise "
                 "ignored, as chunks always decrypt on one thread")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for crypto."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_key_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("key source (exactly one)")
    group.add_argument("--passphrase", metavar="TEXT",
                       help=f"{PASSPHRASE_CHARS}-character passphrase")
    group.add_argument("--key-hex", metavar="HEX", help="64 hex character key")
    group.add_argument("--key-url", metavar="URL",
                       help="fetch the key from this endpoint")
    group.add_argument("--token", metavar="JWT",
                       help="bearer token for --key-url (or set MVC_TOKEN)")


def _workers(text: str) -> int:
    """Check --workers: at least 1 whatever the format; the value is not used."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


def _resolve_key(args) -> KeyMaterial:
    chosen = [flag for flag, value in (("--passphrase", args.passphrase),
                                       ("--key-hex", args.key_hex),
                                       ("--key-url", args.key_url)) if value]
    if len(chosen) > 1:
        raise _UsageError("give exactly one key source, not "
                          + " and ".join(chosen))
    if args.token and not args.key_url:
        raise _UsageError("--token only makes sense with --key-url")
    if args.passphrase:
        return derive_key(args.passphrase)
    if args.key_hex:
        return load_key_hex(args.key_hex)
    if args.key_url:
        token = args.token or os.environ.get("MVC_TOKEN")
        if not token:
            raise _UsageError("--key-url needs --token or MVC_TOKEN")
        return fetch_key(args.key_url, token)
    env_key = os.environ.get("MVC_KEY")
    env_hex = os.environ.get("MVC_KEY_HEX")
    if env_key and env_hex:
        raise _UsageError("set only one of MVC_KEY and MVC_KEY_HEX")
    if env_key:
        return derive_key(env_key)
    if env_hex:
        return load_key_hex(env_hex)
    raise _UsageError("no key given: use --passphrase, --key-hex, --key-url, "
                      "or set MVC_KEY / MVC_KEY_HEX")


def _print_report(result: dict, out) -> None:
    """Print a command's JSON report; to stderr if ``out`` is stdout itself.

    So ``--out /dev/stdout`` carries the artifact or plaintext alone.
    """
    to_stdout = True
    if out:
        with contextlib.suppress(OSError):  # no such path, or no fd 1
            to_stdout = not os.path.samestat(os.stat(out), os.fstat(1))
    print(json.dumps(result), file=sys.stdout if to_stdout else sys.stderr)


def cmd_seal(args) -> int:
    key = _resolve_key(args)
    mode = CipherMode.from_token(args.mode)
    out = Path(args.out) if args.out else Path(
        str(args.input) + (".mvc" if mode is CipherMode.CHUNKED_CTR else ".dat"))
    report = seal_file(Path(args.input), out, key, mode=mode,
                       chunk_size=args.chunk_size,
                       write_manifest=not args.no_manifest)
    _print_report({**report.manifest(), "commit_ms": report.commit_ms, "out": str(out)}, out)
    return 0


def cmd_unseal(args) -> int:
    if args.out and args.verify_only:
        raise _UsageError("--verify-only and --out are mutually exclusive")
    if args.out and not args.allow_plaintext_output:
        raise _UsageError("--out writes plaintext to disk; confirm with "
                          "--allow-plaintext-output")
    key = _resolve_key(args)
    start = _now_ms()
    blob = unseal_file(args.input, key, _FORMATS.get(args.format))
    unseal_ms = _now_ms() - start

    result = {
        "format": "container" if blob.source_mode is CipherMode.CHUNKED_CTR else "raw",
        "plaintext_len": len(blob),
        "sha256_hex": blob.digest.hex(),
        "unseal_ms": round(unseal_ms, 3),
    }
    try:
        if args.out:
            out = Path(args.out)
            with _atomic_output(out) as handle:
                handle.write(blob.data)
            result["out"] = str(out)
    finally:
        blob.release()
    _print_report(result, args.out)
    return 0


def cmd_keygen(args) -> int:
    if args.format == "passphrase":
        secret = "".join(secrets.choice(_KEYGEN_ALPHABET)
                         for _ in range(PASSPHRASE_CHARS))
        derive_key(secret)  # self-check: must be accepted everywhere
    else:
        secret = KeyMaterial.generate().secret.hex()
        load_key_hex(secret)
    print(secret)
    return 0


def cmd_serve_key(args) -> int:
    passphrase = os.environ.get("MVC_KEY")
    if not passphrase:
        raise _UsageError("serve-key reads the passphrase from MVC_KEY")
    jwt_secret = os.environ.get("MVC_JWT_SECRET")
    if not jwt_secret:
        raise _UsageError("serve-key reads the signing secret from MVC_JWT_SECRET")
    config = ServiceConfig(listen_port=args.port,
                           jwt_secret=jwt_secret.encode("utf-8"),
                           passphrase=passphrase,
                           token_clock_skew=args.clock_skew)
    service = KeyService(config, host=args.host)
    try:
        print(f"serving key on {service.url}", flush=True)
        if args.print_token:
            print(issue_token(config.jwt_secret, args.token_ttl), flush=True)
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def cmd_fetch_key(args) -> int:
    token = args.token or os.environ.get("MVC_TOKEN")
    if not token:
        raise _UsageError("fetch-key needs --token or MVC_TOKEN")
    key = fetch_key(args.url, token)
    if args.print_key:
        print(key.secret.hex())
    else:
        print(key.fingerprint.hex())
    return 0


def _parse_sizes(text: str) -> tuple[float, ...]:
    try:
        sizes = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated numbers, got {text!r}")
    if not sizes:
        raise _UsageError("--sizes must name at least one size")
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes) if args.sizes else DEFAULT_SIZES_MB
    records = run_bench(sizes_mb=sizes, mode=CipherMode.from_token(args.mode),
                        chunk_size=args.chunk_size, repetitions=args.reps,
                        seed=args.seed)
    markdown = emit_table(records, "markdown")
    try:
        fit_line = format_fit(fit_linear(records))
    except DegenerateError:
        fit_line = None

    output = markdown if fit_line is None else f"{markdown}\n{fit_line}\n"
    print(output, end="")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bench.md").write_text(output)
    (out_dir / "bench.csv").write_text(emit_table(records, "csv"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seal", help="encrypt a model file")
    p.add_argument("input", help="plaintext model file")
    p.add_argument("--out", help="sealed output path (default: input + suffix)")
    p.add_argument("--mode", choices=["ctr", "raw"], default="ctr")
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--no-manifest", action="store_true",
                   help="skip the .manifest.json sidecar")
    _add_key_options(p)
    p.set_defaults(func=cmd_seal)

    p = sub.add_parser("unseal", help="decrypt a sealed artifact in memory")
    p.add_argument("input", help="sealed artifact")
    p.add_argument("--format", choices=["auto", "raw", "container"],
                   default="auto",
                   help="auto reads anything that starts with MVC1 as a "
                   "container; use raw for a .dat that begins with those bytes")
    p.add_argument("--workers", type=_workers, default=None, help=_WORKERS_HELP)
    p.add_argument("--verify-only", action="store_true",
                   help="decrypt in memory and print the digest only "
                   "(this is already the default)")
    p.add_argument("--out", help="write recovered plaintext here (gated)")
    p.add_argument("--allow-plaintext-output", action="store_true",
                   help="confirm that writing plaintext to disk is intended")
    _add_key_options(p)
    p.set_defaults(func=cmd_unseal)

    p = sub.add_parser("keygen", help="generate a fresh key")
    p.add_argument("--format", choices=["passphrase", "hex"],
                   default="passphrase")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("serve-key", help="run the key endpoint "
                       "(reads MVC_KEY and MVC_JWT_SECRET)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port and prints it")
    p.add_argument("--clock-skew", type=float, default=0.0,
                   help="seconds of expiry slack for slightly stale tokens "
                   "(finite, at least 0)")
    p.add_argument("--print-token", action="store_true",
                   help="also mint and print one bearer token")
    p.add_argument("--token-ttl", type=float, default=3600.0)
    p.set_defaults(func=cmd_serve_key)

    p = sub.add_parser("fetch-key", help="fetch the key, print its fingerprint")
    p.add_argument("url")
    p.add_argument("--token", help="bearer token (or set MVC_TOKEN)")
    p.add_argument("--print-key", action="store_true",
                   help="print the key itself as hex instead of the fingerprint")
    p.set_defaults(func=cmd_fetch_key)

    p = sub.add_parser("bench", help="run the timing benchmark")
    p.add_argument("--sizes", help="comma separated sizes in MB "
                   "(default: %s)" % ",".join(f"{s:g}" for s in DEFAULT_SIZES_MB))
    p.add_argument("--mode", choices=["ctr", "raw"], default="ctr")
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--workers", type=_workers, default=None, help=_WORKERS_HELP)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default=".",
                   help="directory for bench.md and bench.csv (default: .)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"mvc: error: {exc}", file=sys.stderr)
        return 1
    except _CRYPTO_ERRORS as exc:
        print(f"mvc: error: {exc}", file=sys.stderr)
        return 2
    except (ModelVaultError, OSError, ValueError) as exc:
        print(f"mvc: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

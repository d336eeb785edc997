"""The three workloads: seeded inputs, the timed op, and its oracle.

Each workload drives modelvault's public API the way a real caller does,
one op at a time (a closed loop with one client). An op times only what
the caller waits for; the oracle that checks its output runs outside the
timed region and never trusts a value the program computed about itself.

* cold-start -- a serving host's start path, as ``mvc unseal --key-url``
  does it: fetch the key over HTTP, read the sealed file, unseal it in
  parallel, check the digest, release the blob. One 23.9 MiB model.
* key-storm  -- the same path over 16 small single-chunk models, where
  fixed costs (HTTP round trip, JWT check, pool set-up) dominate. Every
  16th op presents an expired token and must be refused.
* seal-sweep -- the operator's write path: one op seals the paper's six
  sizes to disk, with manifests, under a passphrase-derived key.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import string
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import modelvault
from modelvault.errors import AuthError

MIB = 1 << 20
PAPER_SIZES_MB = (2.5, 4.2, 11.3, 16.0, 17.5, 23.9)
COLD_START_MB = 23.9
STORM_MODELS = 16
STORM_MIN_BYTES = 16 * 1024
STORM_MAX_BYTES = MIB
TOKEN_TTL_S = 24 * 3600

# The MVC1 header as documented in modelvault.container; the seal-sweep
# oracle parses it itself rather than asking the code under test.
_HEADER = struct.Struct("<4sHBB4s8sQII32sI")
_CHUNK_ENTRY_BYTES = 12


def mb_bytes(size_mb: float) -> int:
    return round(size_mb * MIB)


def size_label(size_mb: float) -> str:
    return f"{size_mb}MB"


def storm_sizes() -> tuple[int, ...]:
    """16 sizes spaced evenly in log scale from 16 KiB to 1 MiB."""
    ratio = STORM_MAX_BYTES / STORM_MIN_BYTES
    last = STORM_MODELS - 1
    return tuple(round(STORM_MIN_BYTES * ratio ** (k / last)) for k in range(STORM_MODELS))


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, derived from one seed."""

    models: tuple[bytes, ...]
    passphrase: str
    jwt_secret: bytes
    plan: tuple[tuple[int, bool], ...]  # (model index, refused?) per op


def _storm_plan(rng: random.Random) -> tuple[tuple[int, bool], ...]:
    # 16 cycles of 16 ops. Cycle c refuses model c in its last op and
    # unseals the other 15 in shuffled order, so every 256 ops unseal each
    # model exactly 15 times whatever the seed.
    plan = []
    for refused in range(STORM_MODELS):
        others = [m for m in range(STORM_MODELS) if m != refused]
        rng.shuffle(others)
        plan += [(m, False) for m in others]
        plan.append((refused, True))
    return tuple(plan)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Seeded inputs: the same (workload, seed) always gives the same bytes."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    alphabet = string.ascii_letters + string.digits
    passphrase = "".join(rng.choice(alphabet) for _ in range(16))
    jwt_secret = rng.randbytes(32)
    if workload == "cold-start":
        sizes = (mb_bytes(COLD_START_MB),)
        plan = ((0, False),)
    elif workload == "key-storm":
        sizes = storm_sizes()
        plan = _storm_plan(rng)
    elif workload == "seal-sweep":
        sizes = tuple(mb_bytes(s) for s in PAPER_SIZES_MB)
        plan = ()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    models = tuple(rng.randbytes(n) for n in sizes)
    return Inputs(models, passphrase, jwt_secret, plan)


@dataclass
class Outcome:
    """One op: its timed wall time, the plaintext it completed, and any fault."""

    ns: int
    plaintext_bytes: int
    error: str | None = None
    reports: tuple = ()


class _NoTrace:
    """Stands in for a Tracer on untraced runs."""

    class _Span:
        @property
        def attrs(self) -> dict:
            return {}

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _span = _Span()

    def span(self, name):
        return self._span


NO_TRACE = _NoTrace()


class Counter:
    """Runs ops through their oracle; tallies the attempted and the faulty."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def run(self, workload, index: int, tracer=NO_TRACE) -> Outcome:
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            outcome = workload.op(index, tracer)
        except Exception as exc:  # any exception is a failed op, not a crash
            outcome = Outcome(time.perf_counter_ns() - start, 0, f"{type(exc).__name__}: {exc}")
        if outcome.error:
            self.fail(f"op {index}: {outcome.error}")
        return outcome

    def fail(self, fault: str) -> None:
        self.failed += 1
        if len(self.faults) < 10:
            self.faults.append(fault)


def _sha256(data) -> bytes:
    return hashlib.sha256(data).digest()


class _KeyFlowWorkload:
    """Shared by cold-start and key-storm: key service plus sealed files."""

    name = ""

    def __init__(self, inputs: Inputs, work_dir: Path):
        self.inputs = inputs
        self.work_dir = work_dir
        self.digests = tuple(_sha256(m) for m in inputs.models)
        self.sizes = tuple(len(m) for m in inputs.models)
        self.service = None
        self.paths: tuple[Path, ...] = ()

    def setup(self) -> None:
        """Seal every model to disk and start the key service on port 0."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        key = modelvault.derive_key(self.inputs.passphrase)
        paths = []
        for i, model in enumerate(self.inputs.models):
            sealed, _ = modelvault.seal(model, key)
            path = self.work_dir / f"model-{i}.mvc"
            path.write_bytes(sealed)
            paths.append(path)
        self.paths = tuple(paths)
        config = modelvault.ServiceConfig(listen_port=0, jwt_secret=self.inputs.jwt_secret,
                                          passphrase=self.inputs.passphrase)
        self.service = modelvault.KeyService(config).start()
        now = time.time()
        self.token = modelvault.issue_token(self.inputs.jwt_secret, TOKEN_TTL_S, now=now)
        self.expired_token = modelvault.issue_token(self.inputs.jwt_secret, 60, now=now - 3600)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def step(self, index: int) -> tuple[int, bool]:
        return self.inputs.plan[index % len(self.inputs.plan)]

    def op_largest(self, index: int) -> int:
        return self.sizes[self.step(index)[0]]

    def op(self, index: int, tracer=NO_TRACE) -> Outcome:
        model, refused = self.step(index)
        if refused:
            return self._refused_op(tracer)
        expected = self.digests[model]
        start = time.perf_counter_ns()
        with tracer.span("harness.fetch_key"):
            key = modelvault.fetch_key(self.service.url, self.token)
        with tracer.span("harness.read"):
            sealed = self.paths[model].read_bytes()
        with tracer.span("harness.unseal_parallel"):
            blob = modelvault.unseal_parallel(sealed, key)
        del sealed
        claimed_ok = blob.digest == expected
        paused = time.perf_counter_ns()
        actual_ok = len(blob) == self.sizes[model] and _sha256(blob.data) == expected
        resumed = time.perf_counter_ns()
        with tracer.span("harness.release"):
            blob.release()
        ns = time.perf_counter_ns() - resumed + paused - start
        if not claimed_ok:
            return Outcome(ns, 0, "blob digest differs from the digest recorded at set-up")
        if not actual_ok:
            return Outcome(ns, 0, "plaintext differs from the model sealed at set-up")
        return Outcome(ns, self.sizes[model])

    def _refused_op(self, tracer) -> Outcome:
        start = time.perf_counter_ns()
        error = "expired token was accepted"
        with tracer.span("harness.fetch_key") as span:
            try:
                modelvault.fetch_key(self.service.url, self.expired_token)
            except AuthError as exc:
                span.attrs["refused"] = True
                error = None if exc.status == 401 else f"refused with status {exc.status}"
        return Outcome(time.perf_counter_ns() - start, 0, error)

    def after_first_op(self) -> None:
        pass


class ColdStart(_KeyFlowWorkload):
    name = "cold-start"


class KeyStorm(_KeyFlowWorkload):
    name = "key-storm"


class SealSweep:
    """Seal the paper's six sizes to disk in one op, under a derived key."""

    name = "seal-sweep"

    def __init__(self, inputs: Inputs, work_dir: Path):
        self.inputs = inputs
        self.work_dir = work_dir
        self.digests = tuple(_sha256(m) for m in inputs.models)
        self.sizes = tuple(len(m) for m in inputs.models)
        self.largest = max(self.sizes)
        self.fingerprint = _sha256(modelvault.derive_key(inputs.passphrase).secret)[:4]
        self.labels = tuple(size_label(s) for s in PAPER_SIZES_MB[: len(self.sizes)])
        self.in_paths: tuple[Path, ...] = ()
        self.out_paths: tuple[Path, ...] = ()

    def setup(self) -> None:
        """Write the six plaintext models to disk."""
        inputs_dir = self.work_dir / "inputs"
        out_dir = self.work_dir / "sealed"
        inputs_dir.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        in_paths = []
        for label, model in zip(self.labels, self.inputs.models):
            path = inputs_dir / f"model-{label}.bin"
            path.write_bytes(model)
            in_paths.append(path)
        self.in_paths = tuple(in_paths)
        self.out_paths = tuple(out_dir / f"model-{label}.mvc" for label in self.labels)

    def teardown(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def op_largest(self, index: int) -> int:
        return self.largest

    def op(self, index: int, tracer=NO_TRACE) -> Outcome:
        start = time.perf_counter_ns()
        with tracer.span("harness.derive_key"):
            key = modelvault.derive_key(self.inputs.passphrase)
        reports = []
        for in_path, out_path in zip(self.in_paths, self.out_paths):
            with tracer.span("harness.seal_file"):
                reports.append(modelvault.seal_file(in_path, out_path, key))
        ns = time.perf_counter_ns() - start
        error = self.check(reports)
        return Outcome(ns, 0 if error else sum(self.sizes), error, tuple(reports))

    def check(self, reports) -> str | None:
        """Check every artifact's header, length and manifest; None if all hold."""
        for i, report in enumerate(reports):
            label, size, digest = self.labels[i], self.sizes[i], self.digests[i]
            if report.input_len != size or report.plaintext_digest != digest:
                return f"{label}: seal report does not describe the input"
            path = self.out_paths[i]
            with open(path, "rb") as handle:
                head = handle.read(_HEADER.size)
            if len(head) < _HEADER.size:
                return f"{label}: artifact shorter than a header"
            (magic, _version, _mode, _flags, fingerprint, _nonce, plaintext_len,
             _chunk_size, chunk_count, header_digest, crc) = _HEADER.unpack(head)
            if magic != b"MVC1" or zlib.crc32(head[:-4]) != crc:
                return f"{label}: artifact header is not a valid MVC1 header"
            if plaintext_len != size or header_digest != digest:
                return f"{label}: header length or digest does not match the input"
            if fingerprint != self.fingerprint:
                return f"{label}: header names the wrong key"
            expected_len = _HEADER.size + _CHUNK_ENTRY_BYTES * chunk_count + size
            if path.stat().st_size != expected_len or report.output_len != expected_len:
                return f"{label}: artifact is not {expected_len} bytes"
            manifest_path = path.with_name(path.name + ".manifest.json")
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("sha256_hex") != digest.hex() or manifest.get("input_len") != size:
                return f"{label}: manifest does not describe the input"
        return None

    def after_first_op(self) -> str | None:
        """Unseal every artifact in full and compare it with its model."""
        key = modelvault.derive_key(self.inputs.passphrase)
        for label, path, model in zip(self.labels, self.out_paths, self.inputs.models):
            blob = modelvault.unseal_parallel(path.read_bytes(), key)
            try:
                if blob.data != model:
                    return f"{label}: unsealed artifact differs from its model"
            finally:
                blob.release()
        return None


WORKLOADS = {w.name: w for w in (ColdStart, KeyStorm, SealSweep)}

"""Benchmark harness for the seal/unseal pipeline.

Measures the three phases separately on synthetic models:

* ``encrypt_ms`` -- the cipher time of ``seal_file``'s report: the CTR
  calls on a container's chunks, or the ECB encryption of a raw seal
* ``storage_ms`` -- writing the sealed bytes to disk (writes + flush)
* ``decrypt_ms`` -- unseal() of the sealed bytes into a fresh plaintext buffer

Repetitions are interleaved round-robin across sizes (warm-up round
first, then the measured rounds) so a transient load spike costs
every size one sample instead of poisoning a single size's whole
series; the reported record holds the median of each phase, which
drops those outliers. ``fit_linear`` then checks how close the
size/time relationship is to a straight line.

Synthetic inputs come from a seeded PRNG so runs are reproducible and
results can be compared across machines.
"""

from __future__ import annotations

import random
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .container import DEFAULT_CHUNK_SIZE, SealedFormat
from .crypto import KeyMaterial, CipherMode
from .errors import DegenerateError, RangeError
from .sealer import _now_ms, seal_file
from .unsealer import unseal

MIB = 1024 * 1024

# The model sizes (MiB) exercised by default, small enough to run in
# seconds yet spread widely enough for a meaningful linear fit.
DEFAULT_SIZES_MB = (2.5, 4.2, 11.3, 16.0, 17.5, 23.9)

DEFAULT_REPS = 5
DEFAULT_SEED = 42

_METRICS = ("encrypt_ms", "storage_ms", "total_seal_ms", "total_ms",
            "decrypt_ms")


def mb_to_bytes(size_mb: float) -> int:
    """MiB to bytes, rounded to the nearest byte."""
    if size_mb <= 0:
        raise RangeError(f"size_mb must be positive, got {size_mb}")
    return round(size_mb * MIB)


def generate_synthetic_model(size_bytes: int, seed: int) -> bytes:
    """Deterministic pseudo-random model blob of exactly ``size_bytes``."""
    if size_bytes < 0:
        raise RangeError(f"size_bytes must be non-negative, got {size_bytes}")
    return random.Random(seed).randbytes(size_bytes)


@dataclass(frozen=True)
class BenchRecord:
    """Median timings for one model size.

    ``repetitions`` records how many measured rounds the medians come
    from; it stays ``None`` for records rebuilt from an external table.
    """

    label: str
    size_bytes: int
    encrypt_ms: float
    storage_ms: float
    decrypt_ms: float
    repetitions: int | None = None

    @property
    def size_mb(self) -> float:
        return self.size_bytes / MIB

    @property
    def total_seal_ms(self) -> float:
        """Full seal cost: encryption plus storage."""
        return self.encrypt_ms + self.storage_ms

    @property
    def total_ms(self) -> float:
        """Alias of ``total_seal_ms`` (the table column name)."""
        return self.total_seal_ms


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line through (size_mb, metric) points."""

    slope: float
    intercept: float
    r_squared: float


def _time_decrypt(sealed: bytes, key: KeyMaterial, fmt: SealedFormat) -> float:
    start = _now_ms()
    blob = unseal(sealed, key, fmt)
    elapsed = _now_ms() - start
    blob.release()
    return elapsed


def run_bench(sizes_mb=DEFAULT_SIZES_MB, key: KeyMaterial | None = None,
              mode: CipherMode = CipherMode.CHUNKED_CTR,
              chunk_size: int = DEFAULT_CHUNK_SIZE,
              repetitions: int = DEFAULT_REPS,
              seed: int = DEFAULT_SEED, work_dir=None) -> list[BenchRecord]:
    """Benchmark every size and return one median record per size.

    ``repetitions`` must be at least 3 so the median means something.
    Sealed files land in ``work_dir`` (a fresh temp directory when
    omitted). Decryption is timed through unseal() on the calling thread.
    """
    if repetitions < 3:
        raise RangeError(f"repetitions must be at least 3, got {repetitions}")
    if not sizes_mb:
        raise RangeError("sizes_mb must be non-empty")
    if key is None:
        key = KeyMaterial.generate()
    fmt = (SealedFormat.RAW_DAT if mode is CipherMode.RAW_ECB_PKCS7
           else SealedFormat.CONTAINER)

    with tempfile.TemporaryDirectory(prefix="mvc-bench-") as tmp:
        base = Path(work_dir) if work_dir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        cases = []
        for index, size_mb in enumerate(sizes_mb):
            size_bytes = mb_to_bytes(size_mb)
            in_path = base / f"model-{index}.bin"
            in_path.write_bytes(generate_synthetic_model(size_bytes, seed + index))
            cases.append({
                "size_mb": size_mb, "size_bytes": size_bytes,
                "in_path": in_path, "out_path": base / f"model-{index}.mvc",
                "encrypt": [], "storage": [], "decrypt": [],
            })

        # Round-robin the repetitions; round 0 warms caches and is dropped.
        for rep in range(repetitions + 1):
            for case in cases:
                report = seal_file(case["in_path"], case["out_path"], key,
                                   mode=mode, chunk_size=chunk_size,
                                   write_manifest=False)
                sealed = case["out_path"].read_bytes()
                decrypt_ms = _time_decrypt(sealed, key, fmt)
                del sealed
                if rep == 0:
                    continue
                case["encrypt"].append(report.encrypt_ms)
                case["storage"].append(report.storage_ms)
                case["decrypt"].append(decrypt_ms)

    return [BenchRecord(
        label=f"{case['size_mb']:g}MB",
        size_bytes=case["size_bytes"],
        encrypt_ms=statistics.median(case["encrypt"]),
        storage_ms=statistics.median(case["storage"]),
        decrypt_ms=statistics.median(case["decrypt"]),
        repetitions=repetitions,
    ) for case in cases]


def fit_linear(records, metric: str = "total_ms") -> LinearFit:
    """Ordinary least squares of ``metric`` against size in MiB."""
    if metric not in _METRICS:
        raise RangeError(f"metric must be one of {_METRICS}, got {metric!r}")
    if len(records) < 3:
        raise DegenerateError(
            f"need at least 3 records to fit a line, got {len(records)}")
    xs = [r.size_mb for r in records]
    ys = [getattr(r, metric) for r in records]
    if max(xs) == min(xs):
        raise DegenerateError("cannot fit a line when every size is equal")

    slope, intercept = statistics.linear_regression(xs, ys)
    mean_y = statistics.fmean(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    if ss_tot == 0.0:
        r_squared = 1.0  # flat data, perfectly reproduced by a flat line
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept,
                     r_squared=min(1.0, max(0.0, r_squared)))


def emit_table(records, fmt: str = "markdown") -> str:
    """Render records as a markdown or CSV table (stable output)."""
    if fmt == "csv":
        lines = ["label,size_mb,encrypt_ms,storage_ms,total_ms,decrypt_ms"]
        for r in records:
            lines.append(f"{r.label},{r.size_mb:.3f},{r.encrypt_ms:.3f},"
                         f"{r.storage_ms:.3f},{r.total_ms:.3f},{r.decrypt_ms:.3f}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [
            "| Model | Size (MB) | Encrypt (ms) | Store (ms) | Total (ms) | Decrypt (ms) |",
            "| --- | ---: | ---: | ---: | ---: | ---: |",
        ]
        for r in records:
            lines.append(f"| {r.label} | {r.size_mb:.3f} | {r.encrypt_ms:.3f} "
                         f"| {r.storage_ms:.3f} | {r.total_ms:.3f} "
                         f"| {r.decrypt_ms:.3f} |")
        return "\n".join(lines) + "\n"
    raise RangeError(f"fmt must be 'markdown' or 'csv', got {fmt!r}")


def format_fit(fit: LinearFit, metric: str = "total_ms") -> str:
    """One-line human summary of a linear fit."""
    return (f"{metric} ~= {fit.slope:.3f} * size_mb + {fit.intercept:.3f} "
            f"(r^2 = {fit.r_squared:.4f})")

"""modelvault's benchmark: one workload, one closed-loop client, one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
the benchmark refuses to run without it. A run sets up its inputs
several times (the median is ``setup_s``) and warms up. With ``--trace 0``
it measures peak memory in its own untimed pass, then runs ops for
``--seconds`` and at least MIN_OPS ops, checking each one. With
``--trace 1`` it runs the same untraced loop, follows it with a fixed
number of traced ops and reports per-layer metrics instead. The metric
names and units come from ``BENCHMARK.json``. The last line of standard
output is the result object; a fuller record, with the machine it ran
on, goes to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_OPS = 100          # so that at least 10 samples lie beyond p90
MAX_LOOP_SECONDS = 120  # stop extending the loop for MIN_OPS past this
SETUP_REPEATS = 11      # set up at least this many times
SETUP_SECONDS = 5       # and until this long has passed
WARMUP_OPS = {"cold-start": 2, "key-storm": 16, "seal-sweep": 1}
PEAK_OPS = {"cold-start": 1, "key-storm": 16, "seal-sweep": 1}
TRACED_OPS = {"cold-start": 30, "key-storm": 512, "seal-sweep": 10}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Cold-start stands for a serving host's first unseal, in a process that has
# just started. Key-storm and seal-sweep stand for long-lived processes and
# keep glibc's allocator as it comes.
FRESH_PROCESS_WORKLOADS = {"cold-start"}
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
GLIBC_MMAP_THRESHOLD = 128 << 10  # glibc's initial value


def map_large_buffers_fresh() -> None:
    """Hold glibc's mmap threshold at its initial 128 KiB.

    By default glibc raises the threshold after each large free, so from
    the second op on, a 24 MiB buffer is reused from the heap and its page
    faults no longer show. In a process that has just started every large
    buffer is fresh memory. Setting the threshold once turns the
    adjustment off: every buffer of 128 KiB or more is mapped fresh and
    unmapped on free, so each op pays the page faults a cold start pays.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt(M_MMAP_THRESHOLD, GLIBC_MMAP_THRESHOLD)


def import_program():
    """Import modelvault from this checkout's src/, or exit non-zero."""
    if not (SRC / "modelvault" / "__init__.py").is_file():
        sys.exit(f"perfbench: no modelvault sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modelvault
    if SRC.resolve() not in Path(modelvault.__file__).resolve().parents:
        sys.exit(f"perfbench: modelvault imported from {modelvault.__file__}, not {SRC}")


def timed_setups(factory) -> tuple[object, list[float]]:
    """Generate inputs and set up repeatedly; keep the last workload."""
    times = []
    workload = None
    begin = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        if workload is not None:
            workload.teardown()
        start = time.perf_counter()
        workload = factory()
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, times


def peak_mem_ratio(workload, counter, ops) -> float:
    """Peak traced bytes above each op's baseline, over the largest plaintext."""
    tracemalloc.start()
    try:
        peak = 0
        for index in range(ops):
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            counter.run(workload, index)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - baseline)
    finally:
        tracemalloc.stop()
    largest = max(workload.op_largest(i) for i in range(ops))
    return peak / largest


def loop(workload, counter, seconds):
    """Closed loop for ``seconds`` and at least MIN_OPS ops; the measured phase."""
    samples, outcomes = [], []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and index >= MIN_OPS or elapsed >= MAX_LOOP_SECONDS:
            break
        outcome = counter.run(workload, index)
        if index == 0:
            try:
                fault = workload.after_first_op()
            except Exception as exc:  # a full unseal that raises is a fault too
                fault = f"{type(exc).__name__}: {exc}"
            if fault:
                counter.fail(f"full unseal check: {fault}")
        samples.append(outcome.ns / 1e6)
        outcomes.append(outcome)
        index += 1
    return samples, outcomes


def traced_ops(workload, counter, ops):
    """Run ``ops`` ops under a Tracer; return it, their times and plaintext bytes."""
    tracer = spans.Tracer()
    tracer.install()
    times, plaintext = [], 0
    try:
        for index in range(ops):
            tracer.op_id = index
            outcome = counter.run(workload, index, tracer)
            tracer.op_id = None
            times.append(outcome.ns / 1e6)
            plaintext += outcome.plaintext_bytes
    finally:
        tracer.op_id = None
        tracer.uninstall()
    return tracer, times, plaintext


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount_point = fields[1].replace("\\040", " ")
                inside = str(path).startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) > len(best):
                    best, fstype = mount_point, fields[2]
    except OSError:
        pass
    return fstype


def machine_record() -> dict:
    import cryptography
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
        "work_fs": filesystem_type(WORK),
        "commit": git_commit(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import PAPER_SIZES_MB, WORKLOADS, Counter, make_inputs, size_label

    work_dir = WORK / f"{workload_name}-{os.getpid()}"
    counter = Counter()
    workload, setup_times = timed_setups(
        lambda: WORKLOADS[workload_name](make_inputs(workload_name, seed), work_dir))
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_s_samples": setup_times}
    try:
        for index in range(WARMUP_OPS[workload_name]):
            counter.run(workload, index)
        if not trace:
            peak = peak_mem_ratio(workload, counter, PEAK_OPS[workload_name])
        loop_start = time.perf_counter()
        samples, outcomes = loop(workload, counter, seconds)
        loop_s = time.perf_counter() - loop_start
        if trace:
            tracer, traced, plaintext = traced_ops(workload, counter, TRACED_OPS[workload_name])
            tracer.write(WORK / f"spans-{workload_name}-seed{seed}.jsonl")
    finally:
        workload.teardown()

    done_bytes = sum(o.plaintext_bytes for o in outcomes)
    if trace:
        metrics = spans.layer_metrics(tracer.spans, len(traced), plaintext)
        labels = getattr(workload, "labels", ())
        for label in map(size_label, PAPER_SIZES_MB):  # 0 where no sweep ran
            metrics[f"sealer.encrypt_ms-{label}"] = metrics[f"sealer.storage_ms-{label}"] = 0.0
        for i, label in enumerate(labels):
            reports = [o.reports[i] for o in outcomes if len(o.reports) > i]
            metrics[f"sealer.encrypt_ms-{label}"] = statistics.median(r.encrypt_ms for r in reports)
            metrics[f"sealer.storage_ms-{label}"] = statistics.median(r.storage_ms for r in reports)
        metrics["trace.overhead_ms"] = statistics.median(traced) - statistics.median(samples)
        metrics["trace.ops"] = len(traced)
        metrics["trace.missing"] = len(tracer.missing)
        record["missing_layers"] = tracer.missing
    else:
        metrics = {
            "op_ms_p50": statistics.median(samples),
            "op_ms_p90": p90(samples),
            "mib_per_s": done_bytes / (1 << 20) / loop_s,
            "peak_mem_ratio": peak,
            "success_rate": 1 - counter.failed / counter.attempted,
            "setup_s": statistics.median(setup_times),
        }
    record.update({
        "samples": len(samples),
        "attempted": counter.attempted,
        "failed": counter.failed,
        "error_rate": counter.failed / counter.attempted,
        "faults": counter.faults,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if trace else "end_to_end"]},
    })
    return record


def report(record: dict) -> None:
    """Human-readable lines; the result object follows on the last line."""
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"  {'samples':<34} {record['samples']} measured ops, "
          f"{record['attempted']} checked")
    print(f"  {'error_rate':<34} {record['error_rate']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    for fault in record["faults"]:
        print(f"  fault: {fault}")
    for name in record.get("missing_layers", ()):
        print(f"  missing layer: {name} (not wrapped; its metrics read 0)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-start", "key-storm", "seal-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    if args.workload in FRESH_PROCESS_WORKLOADS:
        map_large_buffers_fresh()
    WORK.mkdir(parents=True, exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["machine"] = machine_record()
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

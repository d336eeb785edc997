"""Tests for the benchmark itself: seeded inputs, the oracles, the tracer,
and the result format that BENCHMARK.json promises.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter as Tally
from pathlib import Path

import pytest

import modelvault
import run
import spans
import workloads
from workloads import Inputs

ROOT = Path(__file__).resolve().parents[2]


def small_inputs(sizes, plan=((0, False),)):
    base = workloads.make_inputs("key-storm", 7)
    models = tuple(random.Random(n).randbytes(n) for n in sizes)
    return Inputs(models, base.passphrase, base.jwt_secret, plan)


@pytest.fixture
def cold(tmp_path):
    workload = workloads.ColdStart(small_inputs([3 * (1 << 20) + 5]), tmp_path / "cold")
    workload.setup()
    yield workload
    workload.teardown()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    first, again = workloads.make_inputs(name, 11), workloads.make_inputs(name, 11)
    assert first == again
    other = workloads.make_inputs(name, 12)
    assert other.models != first.models and other.passphrase != first.passphrase


def test_input_sizes_follow_the_workload_definitions():
    mib = 1 << 20
    assert [len(m) for m in workloads.make_inputs("cold-start", 1).models] == [round(23.9 * mib)]
    sweep = workloads.make_inputs("seal-sweep", 1).models
    assert [len(m) for m in sweep] == [round(s * mib) for s in workloads.PAPER_SIZES_MB]
    storm = [len(m) for m in workloads.make_inputs("key-storm", 1).models]
    assert storm[0] == 16 * 1024 and storm[-1] == mib and storm == sorted(storm)


def test_storm_plan_refuses_every_16th_op_and_balances_models():
    plan = workloads.make_inputs("key-storm", 3).plan
    assert len(plan) == 256
    assert [i for i, (_, refused) in enumerate(plan) if refused] == list(range(15, 256, 16))
    unsealed = Tally(m for m, refused in plan if not refused)
    assert set(unsealed.values()) == {15} and len(unsealed) == 16


def test_cold_start_op_passes_its_oracle(cold):
    outcome = cold.op(0)
    assert outcome.error is None and outcome.plaintext_bytes == cold.sizes[0]


def test_flipped_sealed_byte_counts_as_a_failure(cold):
    sealed = bytearray(cold.paths[0].read_bytes())
    sealed[-100] ^= 0x01
    cold.paths[0].write_bytes(bytes(sealed))
    counter = workloads.Counter()
    outcome = counter.run(cold, 0)
    assert counter.failed == 1 and counter.attempted == 1
    assert "DigestError" in outcome.error


def test_wrong_plaintext_with_a_matching_digest_claim_is_caught(cold, monkeypatch):
    real = modelvault.unseal_parallel

    def lying_unseal(sealed, key, workers=None):
        blob = real(sealed, key, workers)
        blob._buf[0] ^= 0xFF  # plaintext wrong, blob.digest still the header's
        return blob

    monkeypatch.setattr(modelvault, "unseal_parallel", lying_unseal)
    counter = workloads.Counter()
    counter.run(cold, 0)
    assert counter.failed == 1
    assert "plaintext differs" in counter.faults[0]


def test_refused_op_must_end_in_auth_error(tmp_path):
    storm = workloads.KeyStorm(small_inputs([4096], plan=((0, True),)), tmp_path / "storm")
    storm.setup()
    try:
        assert storm.op(0).error is None
        storm.expired_token = storm.token  # a refusal that does not happen
        assert storm.op(0).error == "expired token was accepted"
    finally:
        storm.teardown()


def test_seal_sweep_oracle_catches_a_corrupt_artifact(tmp_path):
    sweep = workloads.SealSweep(small_inputs([5000, 9000]), tmp_path / "sweep")
    sweep.setup()
    try:
        outcome = sweep.op(0)
        assert outcome.error is None and outcome.plaintext_bytes == 14000
        assert sweep.after_first_op() is None
        path = sweep.out_paths[1]
        good = path.read_bytes()
        header_flip = bytearray(good)
        header_flip[40] ^= 0x01  # inside the header's plaintext digest
        path.write_bytes(bytes(header_flip))
        assert "not a valid MVC1 header" in sweep.check(outcome.reports)
        payload_flip = bytearray(good)
        payload_flip[-1] ^= 0x01
        path.write_bytes(bytes(payload_flip))
        assert sweep.check(outcome.reports) is None  # the header still holds
        with pytest.raises(modelvault.errors.DigestError):
            sweep.after_first_op()
    finally:
        sweep.teardown()


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0, "end": 100}
    children = [{"start": 10, "end": 40}, {"start": 30, "end": 50}, {"start": 90, "end": 120}]
    assert spans.self_ns(parent, children) == 100 - 40 - 10


def test_tracer_records_nested_and_cross_thread_spans(cold):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        outcome = cold.op(0, tracer)
    finally:
        tracer.op_id = None
        tracer.uninstall()
    assert outcome.error is None and tracer.missing == []
    names = Tally(s["name"] for s in tracer.spans)
    assert names["unsealer._decrypt_chunk"] == 4 and names["unsealer.sha256"] == 2
    assert names["key_service.handle_key_request"] == 1
    by_id = {s["id"]: s for s in tracer.spans}
    for span in tracer.spans:
        if span["name"].startswith("unsealer."):
            assert by_id[span["parent"]]["name"] == "harness.unseal_parallel"
        if span["name"] == "key_service.handle_key_request":
            assert by_id[span["parent"]]["name"] == "harness.fetch_key"
            assert span["status"] == 200
    metrics = spans.layer_metrics(tracer.spans, 1, outcome.plaintext_bytes)
    assert metrics["crypto.sha256_bytes_ratio"] == 2.0
    assert metrics["key_service.status_200"] == 1


def test_a_vanished_layer_is_reported_missing_not_fatal(cold, monkeypatch):
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS + (("modelvault.unsealer", "gone", None),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["unsealer.gone"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_benchmark_metric_is_reported(name, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    monkeypatch.setattr(run, "TRACED_OPS", {k: 2 for k in run.TRACED_OPS})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run.run(name, 5, 0.0, trace)
    expected = spec["per_layer" if trace else "end_to_end"]
    assert record["failed"] == 0
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in record["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in record["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-start", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

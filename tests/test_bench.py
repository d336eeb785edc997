"""Tests for the benchmark harness: generators, stats, and rendering.

The reference-measurement fixtures pin the harness's arithmetic to an
independently computed least-squares result, so a regression in the fit
or the table mathematics cannot slip through.
"""

import math

import pytest

from modelvault.bench import (BenchRecord, DEFAULT_SIZES_MB, LinearFit,
                              emit_table, fit_linear, format_fit,
                              generate_synthetic_model, mb_to_bytes,
                              run_bench)
from modelvault.crypto import CipherMode, sha256
from modelvault.errors import DegenerateError, RangeError

# Reference timing table used to pin the fit math: six sizes with their
# encrypt/storage/decrypt milliseconds.
REFERENCE_ROWS = [
    (2.5, 227.0, 17.0, 203.0),
    (4.2, 306.0, 37.0, 279.0),
    (11.3, 720.0, 66.0, 643.0),
    (16.0, 1054.0, 98.0, 894.0),
    (17.5, 1106.0, 101.0, 933.0),
    (23.9, 1960.0, 119.0, 1766.0),
]

# Least squares of total_ms against size_mb over REFERENCE_ROWS, computed
# independently with exact rational arithmetic and frozen. The x values
# are the byte-quantized sizes (round(mb * 2**20) / 2**20), matching what
# BenchRecord.size_mb reports.
GOLDEN_SLOPE = 80.44156321296677
GOLDEN_INTERCEPT = -42.38230592861229
GOLDEN_R2 = 0.9607495169777764


def reference_records() -> list[BenchRecord]:
    return [BenchRecord(label=f"{mb:g}MB", size_bytes=mb_to_bytes(mb),
                        encrypt_ms=enc, storage_ms=sto, decrypt_ms=dec)
            for mb, enc, sto, dec in REFERENCE_ROWS]


class TestSizeMath:
    def test_mb_to_bytes(self):
        assert mb_to_bytes(2.5) == 2_621_440
        assert mb_to_bytes(16.0) == 16_777_216
        assert mb_to_bytes(17.5) == 18_350_080

    @pytest.mark.parametrize("bad", [0, -1, -2.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(RangeError):
            mb_to_bytes(bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_not_finite_rejected(self, bad):
        with pytest.raises(RangeError, match="finite"):
            mb_to_bytes(bad)

    def test_default_sizes(self):
        assert DEFAULT_SIZES_MB == (2.5, 4.2, 11.3, 16.0, 17.5, 23.9)


class TestSyntheticModels:
    def test_pinned_digests(self):
        # Frozen outputs of the seeded generator; any change to the
        # generator breaks reproducibility of recorded runs.
        assert sha256(generate_synthetic_model(4096, seed=1)).hex() == \
            "ee69854cf5ff35ee6ed0a071341aad1bbc0ffdd510aaaa9b0d691065a33dacde"
        assert sha256(generate_synthetic_model(4096, seed=2)).hex() == \
            "0951a97402d9294f2ca5757dd1189f4e93344dc5291f235d189f7cc40b0e1f7d"

    def test_pinned_digest_large(self):
        model = generate_synthetic_model(2_621_440, seed=42)
        assert sha256(model).hex() == \
            "ab55369c4903d468fa2c55f52235dc884388772b6a36fdeca6d830fb9b129d52"

    def test_exact_length(self):
        assert len(generate_synthetic_model(12345, seed=0)) == 12345

    def test_deterministic(self):
        assert generate_synthetic_model(1000, 7) == \
            generate_synthetic_model(1000, 7)

    def test_seed_matters(self):
        assert generate_synthetic_model(1000, 1) != \
            generate_synthetic_model(1000, 2)

    def test_negative_size_rejected(self):
        with pytest.raises(RangeError):
            generate_synthetic_model(-1, seed=0)

    def test_size_past_one_draw_rejected(self):
        assert len(generate_synthetic_model(0, seed=0)) == 0
        with pytest.raises(RangeError, match="268435455"):
            generate_synthetic_model(256 * 1024 * 1024, seed=0)


class TestBenchRecord:
    def test_total_is_encrypt_plus_storage(self):
        for record, (mb, enc, sto, dec) in zip(reference_records(),
                                               REFERENCE_ROWS):
            assert record.total_ms == enc + sto
            assert record.decrypt_ms == dec

    def test_reference_totals(self):
        # Row-by-row: 227+17=244 ... 1960+119=2079.
        totals = [r.total_ms for r in reference_records()]
        assert totals == [244.0, 343.0, 786.0, 1152.0, 1207.0, 2079.0]

    def test_size_mb_round_trips_through_bytes(self):
        for record, (mb, *_rest) in zip(reference_records(), REFERENCE_ROWS):
            assert record.size_mb == pytest.approx(mb, abs=1e-6)

    def test_total_seal_ms_and_alias_agree(self):
        record = reference_records()[0]
        assert record.total_seal_ms == 244.0
        assert record.total_ms == record.total_seal_ms

    def test_run_context_defaults_to_unknown(self):
        # Records rebuilt from an external table carry no run context.
        record = reference_records()[0]
        assert record.repetitions is None


class TestFitLinear:
    def test_golden_fit(self):
        fit = fit_linear(reference_records(), metric="total_ms")
        assert fit.slope == pytest.approx(GOLDEN_SLOPE, rel=1e-12)
        assert fit.intercept == pytest.approx(GOLDEN_INTERCEPT, rel=1e-12)
        assert fit.r_squared == pytest.approx(GOLDEN_R2, rel=1e-12)

    def test_exact_linear_data(self):
        records = [BenchRecord(label=f"{mb}MB", size_bytes=mb_to_bytes(mb),
                               encrypt_ms=10.0 * record_mb + 5.0,
                               storage_ms=0.0, decrypt_ms=1.0)
                   for mb in (1.0, 2.0, 4.0, 8.0)
                   for record_mb in [mb_to_bytes(mb) / (1024 * 1024)]]
        fit = fit_linear(records, metric="total_ms")
        assert fit.slope == pytest.approx(10.0, rel=1e-9)
        assert fit.intercept == pytest.approx(5.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_r_squared_clamped_to_unit_interval(self):
        fit = fit_linear(reference_records())
        assert 0.0 <= fit.r_squared <= 1.0

    def test_flat_data_fits_perfectly(self):
        records = [BenchRecord(label=f"{mb}MB", size_bytes=mb_to_bytes(mb),
                               encrypt_ms=50.0, storage_ms=0.0,
                               decrypt_ms=1.0)
                   for mb in (1.0, 2.0, 3.0)]
        fit = fit_linear(records)
        assert fit.slope == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == 1.0

    def test_too_few_records_degenerate(self):
        with pytest.raises(DegenerateError):
            fit_linear(reference_records()[:2])

    def test_equal_sizes_degenerate(self):
        same = [BenchRecord(label="1MB", size_bytes=mb_to_bytes(1.0),
                            encrypt_ms=float(i), storage_ms=0.0,
                            decrypt_ms=1.0) for i in range(3)]
        with pytest.raises(DegenerateError):
            fit_linear(same)

    def test_unknown_metric_rejected(self):
        with pytest.raises(RangeError):
            fit_linear(reference_records(), metric="latency")

    def test_other_metrics_fit(self):
        fit = fit_linear(reference_records(), metric="decrypt_ms")
        assert isinstance(fit, LinearFit)
        assert fit.slope > 0

    def test_total_seal_ms_metric_matches_alias(self):
        records = reference_records()
        assert fit_linear(records, metric="total_seal_ms") == \
            fit_linear(records, metric="total_ms")


class TestEmitTable:
    def test_csv_header_exact(self):
        csv = emit_table(reference_records(), "csv")
        assert csv.splitlines()[0] == \
            "label,size_mb,encrypt_ms,storage_ms,total_ms,decrypt_ms"

    def test_csv_first_row_exact(self):
        csv = emit_table(reference_records(), "csv")
        assert csv.splitlines()[1] == \
            "2.5MB,2.500,227.000,17.000,244.000,203.000"

    def test_csv_totals_column(self):
        rows = emit_table(reference_records(), "csv").splitlines()[1:]
        totals = [row.split(",")[4] for row in rows]
        assert totals == ["244.000", "343.000", "786.000", "1152.000",
                          "1207.000", "2079.000"]

    def test_markdown_shape(self):
        md = emit_table(reference_records(), "markdown")
        lines = md.splitlines()
        assert lines[0].startswith("| Model |")
        assert len(lines) == 2 + len(REFERENCE_ROWS)
        assert "| 2.5MB |" in lines[2]

    def test_output_is_stable(self):
        records = reference_records()
        assert emit_table(records, "csv") == emit_table(records, "csv")
        assert emit_table(records, "markdown") == emit_table(records, "markdown")

    def test_unknown_format_rejected(self):
        with pytest.raises(RangeError):
            emit_table(reference_records(), "yaml")

    def test_format_fit_mentions_r_squared(self):
        line = format_fit(fit_linear(reference_records()))
        assert "r^2" in line
        assert "80.442" in line


class TestRunBench:
    def test_small_live_run(self, fips_key):
        records = run_bench(sizes_mb=(0.01, 0.02), key=fips_key, repetitions=3,
                            seed=5)
        assert [r.label for r in records] == ["0.01MB", "0.02MB"]
        assert records[0].size_bytes == mb_to_bytes(0.01)
        for record in records:
            assert record.encrypt_ms > 0
            assert record.storage_ms > 0
            assert record.decrypt_ms > 0
            assert record.repetitions == 3

    def test_raw_mode_live_run(self, fips_key):
        records = run_bench(sizes_mb=(0.01,), key=fips_key, repetitions=3, seed=5,
                            mode=CipherMode.RAW_ECB_PKCS7)
        assert len(records) == 1
        assert records[0].decrypt_ms > 0

    def test_too_few_reps_rejected(self, fips_key):
        with pytest.raises(RangeError):
            run_bench(sizes_mb=(0.01,), key=fips_key, repetitions=2)

    def test_empty_sizes_rejected(self, fips_key):
        with pytest.raises(RangeError):
            run_bench(sizes_mb=(), key=fips_key)

    def test_work_dir_used(self, tmp_path, fips_key):
        run_bench(sizes_mb=(0.01,), key=fips_key, repetitions=3, seed=5,
                  work_dir=tmp_path)
        assert list(tmp_path.glob("*.mvc"))

"""Unit tests for the benchmark harness and report tables."""

import pytest

from repro.bench import (
    BenchTable,
    bench_points,
    make_operator,
    monotone_non_decreasing,
    prepare_engine,
    roughly_constant,
    timed_query,
)


class TestBenchTable:
    def test_render_contains_everything(self):
        table = BenchTable("demo", ["w", "latency"])
        table.add_row(10, 0.0123)
        table.add_row(100, 0.5)
        text = table.render()
        assert "demo" in text and "latency" in text and "0.0123" in text

    def test_cell_count_enforced(self):
        table = BenchTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown(self):
        table = BenchTable("demo", ["a"])
        table.add_row(5)
        md = table.render_markdown()
        assert md.startswith("### demo")
        assert "| a |" in md and "| 5 |" in md

    def test_column(self):
        table = BenchTable("demo", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_tiny_floats_use_scientific(self):
        table = BenchTable("demo", ["x"])
        table.add_row(0.0000042)
        assert "e-06" in table.render()


class TestShapeHelpers:
    def test_monotone(self):
        assert monotone_non_decreasing([1, 2, 2, 5])
        assert not monotone_non_decreasing([1, 2, 1.5])
        assert monotone_non_decreasing([1, 2, 1.9], tolerance=0.1)

    def test_roughly_constant(self):
        assert roughly_constant([1.0, 1.2, 0.9])
        assert not roughly_constant([1.0, 5.0])
        assert roughly_constant([0, 0, 0])
        assert roughly_constant([])


class TestHarness:
    def test_bench_points_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_POINTS", "1234")
        assert bench_points() == 1234
        monkeypatch.delenv("REPRO_BENCH_POINTS")
        assert bench_points(777) == 777

    def test_prepare_and_time(self, tmp_path):
        with prepare_engine("MF03", n_points=5000, chunk_points=500,
                            overlap_pct=20, delete_pct=20,
                            data_dir=str(tmp_path / "db")) as prepared:
            assert prepared.t_qe > prepared.t_qs
            udf = make_operator(prepared, "m4udf")
            lsm = make_operator(prepared, "m4lsm")
            udf_run = timed_query(udf, prepared, 9, repeats=2)
            lsm_run = timed_query(lsm, prepared, 9, repeats=2)
            assert udf_run.seconds > 0 and lsm_run.seconds > 0
            assert udf_run.result.semantically_equal(lsm_run.result)
            assert udf_run.stats.chunk_loads >= lsm_run.stats.chunk_loads

    def test_timing_row_reports_cache_and_metrics(self, tmp_path):
        with prepare_engine("MF03", n_points=2000, chunk_points=500,
                            data_dir=str(tmp_path / "db")) as prepared:
            lsm = make_operator(prepared, "m4lsm")
            run = timed_query(lsm, prepared, 9)
            row = run.as_row()
            assert row["seconds"] == run.seconds
            assert row["stats"]["metadata_reads"] > 0
            assert set(row) == {"seconds", "stats", "metrics"}
            # The metrics snapshot rides along with every bench row.
            counters = row["metrics"]["counters"]
            assert counters["engine_points_written_total"]["value"] \
                >= 2000

    def test_owned_temp_dir_cleaned_up(self):
        import os
        prepared = prepare_engine("KOB", n_points=2000, chunk_points=500)
        path = prepared.data_dir
        assert os.path.isdir(path)
        prepared.close()
        assert not os.path.exists(path)

    def test_unknown_operator_rejected(self, tmp_path):
        with prepare_engine("MF03", n_points=2000,
                            data_dir=str(tmp_path / "db")) as prepared:
            with pytest.raises(ValueError):
                make_operator(prepared, "turbo")

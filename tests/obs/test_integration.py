"""End-to-end observability: engine spans, persistence, CLI surfaces.

Covers the acceptance criteria of the observability layer: a traced
query produces a span tree spanning read-path and operator spans with
I/O counter deltas attached, and ``repro stats`` reports counters plus
histogram quantiles (text, JSON and valid Prometheus exposition text)
after a load + query session.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.query.executor import Executor
from repro.query.session import Session
from repro.query.sql import parse as parse_sql
from repro.storage import StorageConfig, StorageEngine

from .test_exporters import parse_exposition


@pytest.fixture
def store(tmp_path, capsys):
    """A storage dir loaded through the CLI (separate process-like runs)."""
    csv = tmp_path / "data.csv"
    db = tmp_path / "db"
    assert main(["generate", "--dataset", "KOB", "--points", "3000",
                 "--out", str(csv)]) == 0
    assert main(["load", "--db", str(db), "--series", "root.k",
                 "--csv", str(csv), "--chunk-points", "500"]) == 0
    capsys.readouterr()
    return db


class TestSpanTree:
    def test_m4lsm_query_produces_read_and_operator_spans(self, engine):
        # A contested chunk (the overwrite) forces real solver I/O.
        engine.create_series("s")
        t = np.arange(500, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.write_batch("s", np.array([100], dtype=np.int64),
                           np.array([999.0]))
        engine.flush_all()
        executor = Executor(engine)
        executor.execute(parse_sql(
            "SELECT M4(s) FROM s GROUP BY SPANS(10)"))
        root = engine.tracer.last_root
        assert root.name == "query"
        operator = root.find("operator.m4lsm")
        assert operator is not None
        # Read path: the metadata pass charged metadata reads ...
        metadata = operator.find("read.metadata")
        assert metadata is not None
        assert metadata.counters.get("metadata_reads", 0) > 0
        # ... and the per-span solve loop charged chunk/page I/O.
        solve = operator.find("solve")
        assert solve is not None
        assert solve.attrs["spans"] == 10
        assert solve.counters.get("chunk_loads", 0) > 0
        assert solve.counters.get("pages_decoded", 0) > 0
        # The root rolls up every child's counters.
        assert root.counters.get("metadata_reads", 0) \
            >= metadata.counters["metadata_reads"]

    def test_group_by_aggregate_reads_through_the_m4lsm_preamble(
            self, loaded_engine):
        engine, _t, _v = loaded_engine
        Executor(engine).execute(parse_sql(
            "SELECT COUNT(s), AVG(s) FROM s GROUP BY SPANS(7)"))
        root = engine.tracer.last_root
        assert root.name == "query" and root.attrs["kind"] == "agg"
        metadata = root.find("read.metadata")
        assert metadata is not None
        assert metadata.counters.get("metadata_reads", 0) > 0
        sweep = root.find("sweep")
        assert sweep is not None and sweep.attrs["chunks"] > 0

    def test_query_waits_once_for_the_execution_slot(self, loaded_engine):
        engine, _t, _v = loaded_engine
        waits = engine.metrics.histogram("exec_slot_wait_seconds")
        before = waits.count
        root = engine.tracer.root_span("request", endpoint="test")
        with root:
            engine.execute_sql("SELECT M4(s) FROM s GROUP BY SPANS(10)")
        slot_waits = root.find_all("exec.slot_wait")
        assert len(slot_waits) == 1 and slot_waits[0].parent is root
        assert root.find("query") is not None
        assert waits.count == before + 1

    def test_m4udf_query_produces_scan_and_merge_spans(
            self, loaded_engine):
        engine, _t, _v = loaded_engine
        executor = Executor(engine)
        executor.execute(parse_sql(
            "SELECT M4(s) FROM s GROUP BY SPANS(10) USING M4UDF"))
        root = engine.tracer.last_root
        operator = root.find("operator.m4udf")
        assert operator is not None
        chunks = operator.find("read.chunks")
        assert chunks is not None
        assert chunks.counters.get("chunk_loads", 0) > 0
        assert chunks.counters.get("pages_decoded", 0) > 0
        assert operator.find("merge") is not None
        assert operator.find("aggregate") is not None

    def test_flush_and_seal_spans(self, engine):
        engine.create_series("s")
        # 130 points at a 50-point threshold: write_batch auto-seals
        # two chunks, flush_all seals the 30-point remainder.
        t = np.arange(130, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        assert engine.tracer.last_root.name == "write.batch"
        assert len(engine.tracer.last_root.find_all(
            "flush.seal_chunk")) == 2
        engine.flush_all()
        root = engine.tracer.last_root
        assert root.name == "flush"
        assert root.attrs["points"] == 30
        seal = root.find("flush.seal_chunk")
        assert seal is not None
        assert seal.attrs["points"] == 30

    def test_recovery_spans_on_reopen(self, tmp_path, small_config):
        db = tmp_path / "db"
        t = np.arange(120, dtype=np.int64)
        with StorageEngine(db, small_config) as engine:
            engine.create_series("s")
            engine.write_batch("s", t, t.astype(float))
            engine.flush_all()
        with StorageEngine(db, small_config) as engine:
            root = engine.tracer.last_root
            assert root.name == "recovery"
            for child in ("recovery.catalog", "recovery.tsfiles",
                          "recovery.mods", "recovery.wal"):
                assert root.find(child) is not None
            assert root.find("recovery.catalog").attrs["series"] == 1
            assert engine.metrics.counter(
                "engine_recoveries_total").value >= 1

    def test_explain_returns_table_and_trace(self, loaded_engine):
        engine, _t, _v = loaded_engine
        executor = Executor(engine)
        parsed = parse_sql("SELECT M4(s) FROM s GROUP BY SPANS(10)")
        table, trace = executor.explain(parsed)
        assert len(table) > 0
        assert trace is not None
        assert sum(trace.counts_by_mode().values()) == 10
        # Plain execution returns the identical table.
        assert executor.execute(parsed).rows == table.rows

    def test_explain_on_udf_has_no_solver_trace(self, loaded_engine):
        engine, _t, _v = loaded_engine
        executor = Executor(engine)
        table, trace = executor.explain(parse_sql(
            "SELECT M4(s) FROM s GROUP BY SPANS(10) USING M4UDF"))
        assert len(table) > 0
        assert trace is None


class TestEngineMetrics:
    def test_write_query_counters(self, loaded_engine):
        engine, t, _v = loaded_engine
        executor = Executor(engine)
        executor.execute(parse_sql(
            "SELECT M4(s) FROM s GROUP BY SPANS(10)"))
        metrics = engine.metrics
        assert metrics.counter("engine_points_written_total").value \
            == t.size
        assert metrics.counter("engine_chunks_sealed_total").value > 0
        assert metrics.counter("query_total", kind="m4",
                               operator="m4lsm").value == 1
        assert metrics.histogram("query_seconds", kind="m4").count == 1
        assert metrics.gauge("engine_series").value == 1

    def test_disabled_metrics_record_nothing(self, tmp_path):
        config = StorageConfig(metrics_enabled=False)
        with StorageEngine(tmp_path / "db", config) as engine:
            engine.create_series("s")
            t = np.arange(100, dtype=np.int64)
            engine.write_batch("s", t, t.astype(float))
            engine.flush_all()
            snapshot = engine.metrics.snapshot()
            assert snapshot["counters"] == {}
            assert engine.tracer.last_root is None
        assert not (tmp_path / "db" / "obs.json").exists()


class TestPersistence:
    def test_obs_snapshot_survives_reopen(self, tmp_path, small_config):
        db = tmp_path / "db"
        t = np.arange(300, dtype=np.int64)
        with StorageEngine(db, small_config) as engine:
            engine.create_series("s")
            engine.write_batch("s", t, t.astype(float))
            engine.flush_all()
        assert (db / "obs.json").exists()
        with StorageEngine(db, small_config) as engine:
            counter = engine.metrics.counter("engine_points_written_total")
            assert counter.value == 300
            engine.write_batch("s", t + 1000, t.astype(float))
            engine.flush_all()
            Executor(engine).execute(parse_sql(
                "SELECT M4(s) FROM s GROUP BY SPANS(10)"))
        with StorageEngine(db, small_config) as engine:
            counter = engine.metrics.counter("engine_points_written_total")
            assert counter.value == 600
            # Lifetime io counters accumulate across sessions too.
            snapshot = engine.observability_snapshot()
            assert snapshot["iostats"]["bytes_read"] > 0

    def test_corrupt_obs_file_is_ignored(self, tmp_path, small_config):
        db = tmp_path / "db"
        with StorageEngine(db, small_config) as engine:
            engine.create_series("s")
        (db / "obs.json").write_text("{not json")
        with StorageEngine(db, small_config) as engine:
            assert engine.metrics.snapshot() is not None

    def test_slow_log_persists(self, tmp_path, small_config):
        config = StorageConfig(
            avg_series_point_number_threshold=50, points_per_page=20,
            slow_query_seconds=0.0)  # trace-all mode
        db = tmp_path / "db"
        t = np.arange(100, dtype=np.int64)
        with Session(db, config) as session:
            session.create_series("s")
            session.insert_batch("s", t, t.astype(float))
            session.execute("SELECT M4(s) FROM s GROUP BY SPANS(4)")
            assert len(session.slow_queries()) == 1
            entry = session.slow_queries()[0]
            assert entry["statement"] \
                == "SELECT M4(s) FROM s GROUP BY SPANS(4)"
            assert entry["kind"] == "m4"
        with Session(db, config) as session:
            statements = [e["statement"] for e in session.slow_queries()]
            assert "SELECT M4(s) FROM s GROUP BY SPANS(4)" in statements
            snapshot = session.stats_snapshot()
            assert snapshot["slow_queries"]


class TestStatsCli:
    def test_text_report_after_load_and_query(self, store, capsys):
        assert main(["query", "--db", str(store),
                     "SELECT M4(s) FROM root.k GROUP BY SPANS(4)"]) == 0
        capsys.readouterr()
        assert main(["stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "engine_points_written_total" in out
        assert "query_total" in out
        assert "histograms (seconds):" in out
        assert "p50=" in out and "p99=" in out
        assert "io counters (engine lifetime):" in out

    def test_prometheus_output_is_valid_exposition_text(
            self, store, capsys):
        assert main(["stats", str(store), "--format", "prometheus"]) == 0
        families = parse_exposition(capsys.readouterr().out)
        counter = families["engine_points_written_total"]
        assert counter["type"] == "counter"
        assert counter["samples"][0][2] == 3000.0
        assert families["repro_span_seconds"]["type"] == "histogram"

    def test_json_output_parses(self, store, capsys):
        assert main(["stats", str(store), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["counters"][
            "engine_points_written_total"]["value"] == 3000
        assert "iostats" in data

    def test_probe_runs_a_query(self, store, capsys):
        assert main(["stats", str(store), "--probe", "root.k"]) == 0
        out = capsys.readouterr().out
        # The probe charges read-path io counters in this very session.
        assert "metadata_reads" in out

    def test_probe_of_unknown_series_fails(self, store, capsys):
        assert main(["stats", str(store), "--probe", "nothing"]) == 1
        assert "nothing" in capsys.readouterr().err


class TestExplainCli:
    def test_explain_prints_span_tree_and_trace(self, store, capsys):
        assert main(["query", "--db", str(store), "--explain",
                     "SELECT M4(s) FROM root.k GROUP BY SPANS(4)"]) == 0
        out = capsys.readouterr().out
        assert "FirstTime" in out            # the result table came first
        assert "span tree:" in out
        assert "operator.m4lsm" in out
        assert "read.metadata" in out
        assert "M4-LSM trace" in out         # the per-span solver EXPLAIN
        assert "metadata-only spans" in out

    def test_explain_udf_prints_span_tree_only(self, store, capsys):
        assert main(["query", "--db", str(store), "--explain",
                     "SELECT M4(s) FROM root.k GROUP BY SPANS(4) "
                     "USING M4UDF"]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "operator.m4udf" in out
        assert "M4-LSM trace" not in out

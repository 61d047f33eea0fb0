"""Degraded reads: damaged chunks are quarantined and skipped, queries
answer from the surviving data with the skipped ranges reported, and
strict mode still fails loudly."""

import numpy as np
import pytest

from repro.core import M4LSMOperator, M4UDFOperator
from repro.core.result import merge_time_ranges
from repro.core.spans import all_span_bounds
from repro.errors import CorruptFileError
from repro.storage import StorageConfig, StorageEngine

# W is chosen so span boundaries split the 100-point chunks: the M4-LSM
# solver must then read chunk data (the metadata-only fused fast path
# cannot answer), which is what trips the checksum on the damaged chunk.
W = 13
N = 1000


def build_store(db):
    config = StorageConfig(avg_series_point_number_threshold=100,
                           points_per_page=50)
    engine = StorageEngine(db, config)
    engine.create_series("s")
    t = np.arange(N, dtype=np.int64)
    engine.write_batch("s", t, np.sin(t / 7.0) * 5)
    engine.flush_all()
    return engine, config


def corrupt_chunk(meta):
    """Flip one byte inside the chunk's first page payload on disk."""
    with open(meta.file_path, "r+b") as f:
        f.seek(meta.data_offset + 3)
        byte = f.read(1)
        f.seek(meta.data_offset + 3)
        f.write(bytes([byte[0] ^ 0x40]))


@pytest.fixture
def damaged(tmp_path):
    """A reopened store with one chunk's page payload corrupted, plus
    the healthy query results taken before the damage."""
    db = tmp_path / "db"
    engine, config = build_store(db)
    healthy = M4UDFOperator(engine).query("s", 0, N, W)
    victim = engine.chunks_for("s")[3]
    engine.close()
    corrupt_chunk(victim)
    engine = StorageEngine(db, config)
    yield engine, victim, healthy
    engine.close()


class TestRangeMerging:
    def test_clip_sort_merge(self):
        assert merge_time_ranges([(50, 80), (10, 30), (25, 40)],
                                 0, 60) == ((10, 40), (50, 60))

    def test_adjacent_ranges_fuse(self):
        assert merge_time_ranges([(0, 10), (10, 20)]) == ((0, 20),)

    def test_empty_after_clip(self):
        assert merge_time_ranges([(0, 10)], 20, 30) == ()


class TestM4UDFDegraded:
    def test_skips_damaged_chunk(self, damaged):
        engine, victim, healthy = damaged
        result = M4UDFOperator(engine).query("s", 0, N, W)
        assert result.degraded
        assert result.skipped == ((victim.start_time,
                                   victim.end_time + 1),)
        assert engine.quarantine.contains(victim.file_path,
                                          victim.data_offset)
        # Spans untouched by the damaged range match the healthy answer.
        bounds = all_span_bounds(0, N, W)
        untouched = 0
        for i in range(W):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi <= victim.start_time or lo > victim.end_time:
                assert result.spans[i] == healthy.spans[i]
                untouched += 1
        assert untouched > 0

    def test_second_query_prefilters_quarantined(self, damaged):
        engine, _victim, _healthy = damaged
        first = M4UDFOperator(engine).query("s", 0, N, W)
        before = engine.stats.chunk_loads
        second = M4UDFOperator(engine).query("s", 0, N, W)
        assert second == first  # identical surviving spans
        assert second.skipped == first.skipped
        # The quarantined chunk was never even attempted the second time.
        assert engine.stats.chunk_loads < 2 * before

    def test_strict_raises(self, damaged):
        engine, _victim, _healthy = damaged
        with pytest.raises(CorruptFileError):
            M4UDFOperator(engine, degraded=False).query("s", 0, N, W)

    def test_config_can_disable_degradation(self, damaged):
        engine, _victim, _healthy = damaged
        engine.config.degraded_reads = False
        try:
            with pytest.raises(CorruptFileError):
                M4UDFOperator(engine).query("s", 0, N, W)
        finally:
            engine.config.degraded_reads = True


class TestM4LSMDegraded:
    def test_skips_damaged_chunk(self, damaged):
        engine, victim, _healthy = damaged
        result = M4LSMOperator(engine).query("s", 0, N, W)
        assert result.degraded
        assert result.skipped == ((victim.start_time,
                                   victim.end_time + 1),)
        assert engine.quarantine.contains(victim.file_path,
                                          victim.data_offset)

    def test_agrees_with_degraded_udf(self, damaged):
        engine, _victim, _healthy = damaged
        udf = M4UDFOperator(engine).query("s", 0, N, W)
        lsm = M4LSMOperator(engine).query("s", 0, N, W)
        assert udf.semantically_equal(lsm)
        assert udf.skipped == lsm.skipped

    def test_strict_raises(self, damaged):
        engine, _victim, _healthy = damaged
        with pytest.raises(CorruptFileError):
            M4LSMOperator(engine, degraded=False).query("s", 0, N, W)

    def test_counts_degraded_queries(self, damaged):
        engine, _victim, _healthy = damaged
        M4LSMOperator(engine).query("s", 0, N, W)
        counter = engine.metrics.counter("degraded_queries_total",
                                         operator="M4-LSM")
        assert counter.value >= 1


class TestQuarantinePersistence:
    def test_survives_reopen(self, damaged):
        engine, victim, _healthy = damaged
        M4UDFOperator(engine).query("s", 0, N, W)
        assert len(engine.quarantine) == 1
        db, config = engine._data_dir, engine.config
        engine.close()
        reopened = StorageEngine(db, config)
        try:
            assert len(reopened.quarantine) == 1
            assert reopened.quarantine.contains(victim.file_path,
                                                victim.data_offset)
            result = M4UDFOperator(reopened).query("s", 0, N, W)
            assert result.degraded
        finally:
            reopened.close()

    def test_clear_forgets(self, damaged):
        engine, _victim, _healthy = damaged
        M4UDFOperator(engine).query("s", 0, N, W)
        engine.quarantine.clear()
        assert len(engine.quarantine) == 0


class TestRenderDegraded:
    def test_fully_quarantined_series_renders_blank(self, tmp_path):
        from repro.server.service import render_chart
        engine, _config = build_store(tmp_path / "db")
        try:
            for meta in engine.chunks_for("s"):
                engine.quarantine.add_meta(meta, reason="test")
            matrix, result = render_chart(engine, "s", 20, 10)
            assert result.degraded
            assert not matrix.any()
        finally:
            engine.close()


class TestDamageFoundInsideASpan:
    """A damaged whole chunk that only Algorithm 1's later rounds touch:
    the sweep never opens it, so the chunk load or index probe that the
    failing candidate needs is what trips the checksum."""

    @pytest.fixture(params=["load", "probe"])
    def store(self, request, tmp_path):
        # Ten one-page chunks over t = 0..99; with w = 2 every chunk lies
        # wholly inside one span.  The first chunk holds span 0's TP at
        # t = 5.  Deleting it sends the TP to a chunk load (read type
        # (c)); deleting the FP at t = 0 sends the FP to an index probe
        # (read type (b)).
        config = StorageConfig(avg_series_point_number_threshold=10,
                               points_per_page=10)
        engine = StorageEngine(tmp_path / "db", config)
        engine.create_series("s")
        t = np.arange(100, dtype=np.int64)
        v = np.sin(t / 3.0)
        v[5] = 10.0
        engine.write_batch("s", t, v)
        engine.flush_all()
        victim = engine.chunks_for("s")[0]
        at = 5 if request.param == "load" else 0
        engine.delete("s", at, at)
        engine.close()
        corrupt_chunk(victim)
        engine = StorageEngine(tmp_path / "db", config)
        yield engine
        engine.close()

    def test_degraded_quarantines_and_answers_the_rest(self, store):
        result, trace = M4LSMOperator(store).query_traced("s", 0, 100, 2)
        assert trace.counts_by_mode()["solver"] == 1
        assert result.skipped == ((0, 10),)
        udf = M4UDFOperator(store).query("s", 0, 100, 2)
        assert udf.semantically_equal(result)
        assert udf.skipped == result.skipped

    def test_strict_raises(self, store):
        with pytest.raises(CorruptFileError):
            M4LSMOperator(store, degraded=False).query("s", 0, 100, 2)

"""Edge-case tests for the M4-LSM operator: boundary geometry, heavy
overwrites, ties, and interactions between deletes and span bounds."""

import numpy as np
import pytest

from repro.core import M4LSMOperator, M4UDFOperator, Point
from repro.errors import InvalidQueryRangeError


def equal_queries(engine, series, t_qs, t_qe, w):
    a = M4UDFOperator(engine).query(series, t_qs, t_qe, w)
    b = M4LSMOperator(engine).query(series, t_qs, t_qe, w)
    assert a.semantically_equal(b), "w=%d [%d, %d)" % (w, t_qs, t_qe)
    return b


class TestQueryGeometry:
    def test_invalid_queries_rejected(self, loaded_engine):
        engine, _t, _v = loaded_engine
        lsm = M4LSMOperator(engine)
        with pytest.raises(InvalidQueryRangeError):
            lsm.query("s", 10, 10, 5)
        with pytest.raises(InvalidQueryRangeError):
            lsm.query("s", 0, 10, 0)

    def test_single_unit_range(self, loaded_engine):
        engine, t, v = loaded_engine
        result = equal_queries(engine, "s", int(t[3]), int(t[3]) + 1, 1)
        assert result[0].first == Point(int(t[3]), float(v[3]))

    def test_w_much_larger_than_range(self, loaded_engine):
        engine, t, _v = loaded_engine
        # 50 integer timestamps spread over 500 spans: most spans empty.
        equal_queries(engine, "s", int(t[0]), int(t[0]) + 50, 500)

    def test_range_starting_mid_chunk(self, loaded_engine):
        engine, t, _v = loaded_engine
        equal_queries(engine, "s", int(t[25]), int(t[470]) + 1, 7)

    def test_range_beyond_data_on_both_sides(self, loaded_engine):
        engine, t, _v = loaded_engine
        equal_queries(engine, "s", int(t[0]) - 10_000,
                      int(t[-1]) + 10_000, 9)

    def test_span_boundary_exactly_on_point(self, engine):
        engine.create_series("s")
        t = np.arange(0, 100, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.flush_all()
        # w=10 over [0, 100): boundaries land exactly on points 10,20,...
        result = equal_queries(engine, "s", 0, 100, 10)
        for i, span in enumerate(result.spans):
            assert span.first == Point(i * 10, float(i * 10))
            assert span.last == Point(i * 10 + 9, float(i * 10 + 9))


class TestHeavyOverwrites:
    def test_every_point_overwritten(self, engine):
        engine.create_series("s")
        t = np.arange(200, dtype=np.int64)
        engine.write_batch("s", t, np.zeros(200))
        engine.flush("s")
        engine.write_batch("s", t, np.ones(200))
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 200, 4)
        for span in result.spans:
            assert span.top.v == 1.0 and span.bottom.v == 1.0

    def test_interleaved_overwrites_across_five_generations(self, engine):
        engine.create_series("s")
        t = np.arange(300, dtype=np.int64)
        rng = np.random.default_rng(3)
        engine.write_batch("s", t, rng.normal(size=300))
        engine.flush("s")
        for generation in range(1, 6):
            rows = np.sort(rng.choice(300, size=60, replace=False))
            engine.write_batch("s", t[rows],
                               np.full(60, float(generation)))
            engine.flush("s")
        engine.flush_all()
        equal_queries(engine, "s", 0, 300, 11)

    def test_overwrite_creates_new_top(self, engine):
        """An overwrite can RAISE the span maximum — the stale chunk
        metadata underestimates, which the optimistic-bound invariant
        must still handle via the newer chunk's own metadata."""
        engine.create_series("s")
        engine.write_batch("s", np.array([10, 20, 30], dtype=np.int64),
                           np.array([1.0, 2.0, 3.0]))
        engine.flush("s")
        engine.write_batch("s", np.array([20], dtype=np.int64),
                           np.array([100.0]))
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 100, 1)
        assert result[0].top == Point(20, 100.0)


class TestValueTies:
    def test_identical_values_everywhere(self, engine):
        engine.create_series("s")
        t = np.arange(120, dtype=np.int64)
        engine.write_batch("s", t, np.full(120, 7.0))
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 120, 3)
        for span in result.spans:
            assert span.top.v == 7.0 == span.bottom.v

    def test_tied_extremes_across_overlapping_chunks(self, engine):
        engine.create_series("s")
        engine.write_batch("s", np.array([0, 10], dtype=np.int64),
                           np.array([5.0, 5.0]))
        engine.flush("s")
        engine.write_batch("s", np.array([5, 15], dtype=np.int64),
                           np.array([5.0, 5.0]))
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 20, 1)
        assert result[0].top.v == 5.0

    def test_tied_extremes_are_layout_independent(self, engine):
        # All values equal, split across chunks so the later-time point
        # lives in the newer chunk: the BP/TP value tie must resolve to
        # the earliest timestamp (the UDF's argmin/argmax answer), not
        # to whichever chunk has the larger version — byte-identical
        # `==`, not just semantically_equal.
        engine.create_series("s")
        engine.write_batch("s", np.array([0, 16], dtype=np.int64),
                           np.array([0.0, 0.0]))
        engine.flush("s")
        engine.write_batch("s", np.array([1], dtype=np.int64),
                           np.array([0.0]))
        engine.flush_all()
        lsm = M4LSMOperator(engine).query("s", 0, 17, 16)
        udf = M4UDFOperator(engine).query("s", 0, 17, 16)
        assert lsm == udf
        assert lsm[0].bottom == Point(0, 0.0)
        assert lsm[0].top == Point(0, 0.0)

    def test_tied_extremes_in_fused_spans(self, engine):
        # Disjoint whole chunks inside one span take the metadata-only
        # fused path; its value ties must also break on earliest time.
        engine.create_series("s")
        engine.write_batch("s", np.array([10, 11, 12], dtype=np.int64),
                           np.array([0.0, 9.0, 5.0]))
        engine.flush("s")
        engine.write_batch("s", np.array([0, 1, 2], dtype=np.int64),
                           np.array([9.0, 0.0, 5.0]))
        engine.flush_all()
        lsm = M4LSMOperator(engine).query("s", 0, 20, 1)
        udf = M4UDFOperator(engine).query("s", 0, 20, 1)
        assert lsm == udf
        assert lsm[0].bottom == Point(1, 0.0)
        assert lsm[0].top == Point(0, 9.0)

    def test_negative_and_positive_zero(self, engine):
        engine.create_series("s")
        engine.write_batch("s", np.array([1, 2], dtype=np.int64),
                           np.array([-0.0, 0.0]))
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 10, 1)
        assert result[0].top.v == 0.0


class TestDeleteVirtualInterplay:
    def test_delete_range_exactly_spanning_a_span(self, engine):
        engine.create_series("s")
        t = np.arange(100, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.delete("s", 25, 49)  # exactly span 1 of w=4
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 100, 4)
        assert result[1].is_empty()
        assert not result[0].is_empty() and not result[2].is_empty()

    def test_delete_crossing_span_boundary(self, engine):
        engine.create_series("s")
        t = np.arange(100, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.delete("s", 20, 30)
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 100, 4)
        assert result[0].last == Point(19, 19.0)
        assert result[1].first == Point(31, 31.0)

    def test_many_small_deletes_in_one_span(self, engine):
        engine.create_series("s")
        t = np.arange(200, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        for start in range(0, 40, 4):
            engine.delete("s", start, start + 1)
        engine.flush_all()
        equal_queries(engine, "s", 0, 200, 5)

    def test_delete_everything_but_one_point_per_span(self, engine):
        engine.create_series("s")
        t = np.arange(100, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.delete("s", 1, 49)
        engine.delete("s", 51, 99)
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 100, 2)
        assert result[0].first == result[0].last == Point(0, 0.0)
        assert result[1].first == result[1].last == Point(50, 50.0)

    def test_stacked_deletes_and_reinserts(self, engine):
        engine.create_series("s")
        t = np.arange(60, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.delete("s", 10, 20)
        engine.write_batch("s", np.array([15], dtype=np.int64),
                           np.array([-5.0]))
        engine.delete("s", 15, 15)
        engine.write_batch("s", np.array([15], dtype=np.int64),
                           np.array([99.0]))
        engine.flush_all()
        result = equal_queries(engine, "s", 0, 60, 1)
        assert result[0].top == Point(15, 99.0)


class TestMultiplePagesPerChunk:
    def test_partial_page_loads_stay_correct(self, tmp_path):
        from repro.storage import StorageConfig, StorageEngine
        config = StorageConfig(avg_series_point_number_threshold=300,
                               points_per_page=17)  # ragged page tails
        with StorageEngine(tmp_path / "db", config) as engine:
            engine.create_series("s")
            rng = np.random.default_rng(8)
            t = np.cumsum(rng.integers(1, 4, 900)).astype(np.int64)
            engine.write_batch("s", t, rng.normal(size=900))
            engine.delete("s", int(t[100]), int(t[130]))
            engine.flush_all()
            for w in (1, 13, 200):
                equal_queries(engine, "s", int(t[0]), int(t[-1]) + 1, w)

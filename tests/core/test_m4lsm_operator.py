"""Integration-grade tests for the M4-LSM operator: equivalence with the
M4-UDF baseline on targeted scenarios, lazy-load behaviour and the I/O
savings the paper claims."""

import numpy as np
import pytest

from repro.core import M4LSMOperator, M4UDFOperator, Point


def write_sorted(engine, name, t, v):
    engine.create_series(name)
    engine.write_batch(name, np.asarray(t, dtype=np.int64),
                       np.asarray(v, dtype=np.float64))
    engine.flush_all()


class TestBasicEquivalence:
    def test_sequential_data(self, loaded_engine):
        engine, t, _v = loaded_engine
        udf = M4UDFOperator(engine)
        lsm = M4LSMOperator(engine)
        for w in (1, 3, 10, 100):
            a = udf.query("s", int(t[0]), int(t[-1]) + 1, w)
            b = lsm.query("s", int(t[0]), int(t[-1]) + 1, w)
            assert a.semantically_equal(b)

    def test_query_subrange(self, loaded_engine):
        engine, t, _v = loaded_engine
        udf = M4UDFOperator(engine)
        lsm = M4LSMOperator(engine)
        t_qs = int(t[100])
        t_qe = int(t[400])
        assert udf.query("s", t_qs, t_qe, 7).semantically_equal(
            lsm.query("s", t_qs, t_qe, 7))

    def test_empty_range(self, loaded_engine):
        engine, t, _v = loaded_engine
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", int(t[-1]) + 100, int(t[-1]) + 200, 5)
        assert all(span.is_empty() for span in result)

    def test_span_boundaries_partition_points(self, loaded_engine):
        """Each point is assigned to exactly one span: span FP/LP chains
        must cover the series without overlap."""
        engine, t, _v = loaded_engine
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", int(t[0]), int(t[-1]) + 1, 9)
        covered = 0
        for span in result.spans:
            if span.is_empty():
                continue
            assert span.first.t <= span.last.t
            covered += 1
        assert covered == 9


class TestOverwriteScenarios:
    def test_top_candidate_overwritten_by_lower_value(self, engine):
        """The paper's Example 3.4 shape: the metadata TP is stale because
        a newer chunk overwrote that timestamp with a smaller value."""
        write_sorted(engine, "s", [10, 20, 30], [1.0, 99.0, 2.0])
        engine.write_batch("s", np.array([20], dtype=np.int64),
                           np.array([0.0]))
        engine.flush_all()
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", 0, 100, 1)
        assert result[0].top.v == 2.0
        assert result[0].bottom == Point(20, 0.0)
        udf = M4UDFOperator(engine)
        assert udf.query("s", 0, 100, 1).semantically_equal(result)

    def test_first_point_overwritten_value(self, engine):
        """FP time survives an overwrite but its value must come from the
        newest chunk (the version tie-break of Section 3.2)."""
        write_sorted(engine, "s", [10, 20], [1.0, 2.0])
        engine.write_batch("s", np.array([10], dtype=np.int64),
                           np.array([42.0]))
        engine.flush_all()
        lsm = M4LSMOperator(engine)
        assert lsm.query("s", 0, 100, 1)[0].first == Point(10, 42.0)

    def test_chain_of_overwrites(self, engine):
        write_sorted(engine, "s", [10, 20, 30], [5.0, 50.0, 5.0])
        for value in (40.0, 30.0, 20.0):
            engine.write_batch("s", np.array([20], dtype=np.int64),
                               np.array([value]))
            engine.flush_all()
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", 0, 100, 1)
        assert result[0].top == Point(20, 20.0)


class TestDeleteScenarios:
    def test_first_point_deleted(self, engine):
        write_sorted(engine, "s", [10, 20, 30], [1.0, 2.0, 3.0])
        engine.delete("s", 5, 15)
        engine.flush_all()
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", 0, 100, 1)
        assert result[0].first == Point(20, 2.0)

    def test_delete_then_reinsert(self, engine):
        write_sorted(engine, "s", [10, 20, 30], [1.0, 2.0, 3.0])
        engine.delete("s", 10, 10)
        engine.write_batch("s", np.array([10], dtype=np.int64),
                           np.array([7.0]))
        engine.flush_all()
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", 0, 100, 1)
        assert result[0].first == Point(10, 7.0)
        assert result[0].top == Point(10, 7.0)

    def test_whole_span_deleted(self, engine):
        write_sorted(engine, "s", list(range(0, 100, 10)),
                     [float(x) for x in range(10)])
        engine.delete("s", 0, 45)
        engine.flush_all()
        lsm = M4LSMOperator(engine)
        result = lsm.query("s", 0, 100, 2)
        assert result[0].is_empty()
        assert result[1].first == Point(50, 5.0)

    def test_everything_deleted(self, engine):
        write_sorted(engine, "s", [10, 20], [1.0, 2.0])
        engine.delete("s", 0, 100)
        engine.flush_all()
        result = M4LSMOperator(engine).query("s", 0, 100, 3)
        assert all(span.is_empty() for span in result)

    def test_delete_everything_then_reinsert_one(self, engine):
        write_sorted(engine, "s", [10, 20, 30], [1.0, 2.0, 3.0])
        engine.delete("s", 0, 100)
        engine.write_batch("s", np.array([20], dtype=np.int64),
                           np.array([9.0]))
        engine.flush_all()
        result = M4LSMOperator(engine).query("s", 0, 100, 1)
        assert result[0].first == result[0].last == Point(20, 9.0)


class TestMergeFreeClaim:
    def test_no_chunk_loads_for_aligned_sequential_data(self, engine):
        """Chunks fully inside spans, no overlap, no deletes: M4-LSM must
        answer from metadata alone (Figure 2(c))."""
        engine.create_series("s")
        # 10 chunks of 50 points; spans exactly cover 5 chunks each.
        t = np.arange(500, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.flush_all()
        before = engine.stats.snapshot()
        result = M4LSMOperator(engine).query("s", 0, 500, 2)
        diff = engine.stats.diff(before)
        assert diff.chunk_loads == 0
        assert diff.pages_decoded == 0
        assert not result[0].is_empty() and not result[1].is_empty()

    def test_split_chunks_loaded_but_not_others(self, engine):
        engine.create_series("s")
        t = np.arange(500, dtype=np.int64)  # 10 chunks of 50
        engine.write_batch("s", t, t.astype(float))
        engine.flush_all()
        before = engine.stats.snapshot()
        M4LSMOperator(engine).query("s", 0, 500, 4)  # spans of 125 points
        diff = engine.stats.diff(before)
        # Only the chunks straddling span boundaries 125 and 375 are read,
        # once per adjoining span (a partial, in-span load each time).
        assert 0 < diff.chunk_loads <= 4
        assert diff.points_decoded < t.size

    def test_udf_loads_everything(self, engine):
        engine.create_series("s")
        t = np.arange(500, dtype=np.int64)
        engine.write_batch("s", t, t.astype(float))
        engine.flush_all()
        before = engine.stats.snapshot()
        M4UDFOperator(engine).query("s", 0, 500, 2)
        diff = engine.stats.diff(before)
        assert diff.chunk_loads == 10
        assert diff.points_merged == 500


class TestOperatorVariants:
    @pytest.fixture
    def adversarial_engine(self, engine):
        rng = np.random.default_rng(77)
        n = 800
        t = np.sort(rng.choice(8000, size=n, replace=False))
        v = np.round(rng.normal(0, 5, n), 2)
        engine.create_series("s")
        for part in np.array_split(rng.permutation(n), 5):
            part = np.sort(part)
            engine.write_batch("s", t[part], v[part])
            engine.flush("s")
        engine.delete("s", 1000, 1500)
        engine.delete("s", 4000, 4100)
        engine.write_batch("s", t[200:300], v[200:300] + 1)
        engine.flush_all()
        return engine

    @pytest.mark.parametrize("kwargs", [
        {"lazy": False},
        {"use_regression": False},
        {},
        {"lazy": False, "use_regression": False},
    ])
    def test_variants_agree_with_udf(self, adversarial_engine, kwargs):
        udf = M4UDFOperator(adversarial_engine)
        lsm = M4LSMOperator(adversarial_engine, **kwargs)
        for w in (1, 17, 111):
            a = udf.query("s", 0, 8000, w)
            b = lsm.query("s", 0, 8000, w)
            assert a.semantically_equal(b), "w=%d kwargs=%r" % (w, kwargs)

    def test_streaming_udf_agrees_with_vectorized(self, adversarial_engine):
        fast = M4UDFOperator(adversarial_engine)
        slow = M4UDFOperator(adversarial_engine, streaming=True)
        a = fast.query("s", 0, 8000, 23)
        b = slow.query("s", 0, 8000, 23)
        assert a.semantically_equal(b)

    def test_eager_loads_more_than_lazy(self, adversarial_engine):
        engine = adversarial_engine
        before = engine.stats.snapshot()
        M4LSMOperator(engine, lazy=True).query("s", 0, 8000, 40)
        lazy_loads = engine.stats.diff(before).points_decoded
        before = engine.stats.snapshot()
        M4LSMOperator(engine, lazy=False).query("s", 0, 8000, 40)
        eager_loads = engine.stats.diff(before).points_decoded
        assert eager_loads >= lazy_loads

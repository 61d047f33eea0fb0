"""Tests for metadata-accelerated span aggregation."""

import numpy as np
import pytest

from repro.core.aggregation import (
    AGGREGATE_NAMES,
    aggregate_lsm,
    aggregate_udf,
)
from repro.errors import QueryError


def brute_force(t, v, t_qs, t_qe, w, function):
    """Per-span reference for one aggregate."""
    from repro.core.spans import span_bounds
    out = []
    for i in range(w):
        start, end = span_bounds(i, t_qs, t_qe, w)
        rows = [j for j in range(len(t)) if start <= t[j] < end]
        if not rows:
            out.append(None)
            continue
        seg = [v[j] for j in rows]
        value = {
            "count": len(rows),
            "sum": sum(seg),
            "avg": sum(seg) / len(rows),
            "min_value": min(seg),
            "max_value": max(seg),
            "min_time": int(t[rows[0]]),
            "max_time": int(t[rows[-1]]),
            "first_value": float(v[rows[0]]),
            "last_value": float(v[rows[-1]]),
        }[function]
        out.append(value)
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("function", AGGREGATE_NAMES)
    def test_sequential_data(self, loaded_engine, function):
        engine, t, v = loaded_engine
        t_qs, t_qe = int(t[0]), int(t[-1]) + 1
        result = aggregate_lsm(engine, "s", t_qs, t_qe, 7, (function,))
        expected = brute_force(t, v, t_qs, t_qe, 7, function)
        for got, want in zip(result.column(function), expected):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want)

    def test_multiple_functions_at_once(self, loaded_engine):
        engine, t, _v = loaded_engine
        t_qs, t_qe = int(t[0]), int(t[-1]) + 1
        result = aggregate_lsm(engine, "s", t_qs, t_qe, 4,
                               ("count", "avg", "max_value"))
        assert sum(result.column("count")) == t.size
        assert len(result.rows[0]) == 3


class TestLsmEqualsUdf:
    @pytest.mark.parametrize("seed", range(6))
    def test_adversarial_workloads(self, engine, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 600))
        t = np.sort(rng.choice(n * 7, size=n, replace=False))
        v = np.round(rng.normal(0, 10, n), 2)
        engine.create_series("x")
        for part in np.array_split(rng.permutation(n), rng.integers(1, 5)):
            part = np.sort(part)
            engine.write_batch("x", t[part], v[part])
            engine.flush("x")
        if rng.random() < 0.8:
            lo = int(rng.integers(0, n * 6))
            engine.delete("x", lo, lo + int(rng.integers(1, n)))
        engine.write_batch("x", t[:n // 5], v[:n // 5] + 1)
        engine.flush_all()
        t_qs, t_qe = int(t[0]), int(t[-1]) + 1
        overlapping = engine.metadata_reader("x").chunks_overlapping(
            t_qs, t_qe)
        for w in (1, 9, 53):
            a = aggregate_udf(engine, "x", t_qs, t_qe, w, AGGREGATE_NAMES)
            before = engine.stats.snapshot()
            b = aggregate_lsm(engine, "x", t_qs, t_qe, w, AGGREGATE_NAMES)
            # Each chunk is opened at most once per query.
            assert engine.stats.diff(before).chunk_loads \
                <= len(overlapping), (seed, w)
            for function in AGGREGATE_NAMES:
                got = b.column(function)
                want = a.column(function)
                for g, x in zip(got, want):
                    if x is None:
                        assert g is None, (seed, w, function)
                    else:
                        assert g == pytest.approx(x), (seed, w, function)

    def test_metadata_path_avoids_reads(self, loaded_engine):
        engine, t, _v = loaded_engine
        before = engine.stats.snapshot()
        aggregate_lsm(engine, "s", int(t[0]), int(t[-1]) + 1, 2,
                      ("count", "avg"))
        assert engine.stats.diff(before).chunk_loads == 0

    def test_split_chunks_are_opened_once(self, loaded_engine):
        engine, t, _v = loaded_engine
        t_qs, t_qe = int(t[0]), int(t[-1]) + 1
        for w in (7, 30, 200):   # 10 chunks, split ever more finely
            before = engine.stats.snapshot()
            aggregate_lsm(engine, "s", t_qs, t_qe, w, ("count",))
            assert engine.stats.diff(before).chunk_loads <= 10, w

    def test_udf_always_reads(self, loaded_engine):
        engine, t, _v = loaded_engine
        before = engine.stats.snapshot()
        aggregate_udf(engine, "s", int(t[0]), int(t[-1]) + 1, 2,
                      ("count",))
        assert engine.stats.diff(before).chunk_loads == 10


class TestValidation:
    def test_unknown_function_rejected(self, loaded_engine):
        engine, t, _v = loaded_engine
        with pytest.raises(QueryError):
            aggregate_lsm(engine, "s", int(t[0]), int(t[-1]) + 1, 2,
                          ("median",))

    def test_column_of_uncomputed_function(self, loaded_engine):
        engine, t, _v = loaded_engine
        result = aggregate_lsm(engine, "s", int(t[0]), int(t[-1]) + 1, 2,
                               ("count",))
        with pytest.raises(QueryError):
            result.column("avg")

    def test_case_insensitive_names(self, loaded_engine):
        engine, t, _v = loaded_engine
        result = aggregate_lsm(engine, "s", int(t[0]), int(t[-1]) + 1, 2,
                               ("COUNT", "Avg"))
        assert result.functions == ("count", "avg")


class TestSqlIntegration:
    def test_span_aggregates_via_sql(self, loaded_engine):
        from repro.query import Executor, parse
        engine, t, _v = loaded_engine
        executor = Executor(engine)
        table = executor.execute(parse(
            "SELECT COUNT(s), AVG(s), MIN_VALUE(s) FROM s "
            "WHERE time >= %d AND time < %d GROUP BY SPANS(5)"
            % (t[0], int(t[-1]) + 1)))
        assert table.columns == ("span", "COUNT", "AVG", "MIN_VALUE")
        assert sum(table.column("COUNT")) == t.size

    def test_lsm_and_udf_sql_agree(self, loaded_engine):
        from repro.query import Executor, parse
        engine, t, _v = loaded_engine
        executor = Executor(engine)
        base = ("SELECT SUM(s), LAST_VALUE(s) FROM s WHERE time >= %d "
                "AND time < %d GROUP BY SPANS(3)" % (t[0], int(t[-1]) + 1))
        a = executor.execute(parse(base + " USING M4LSM"))
        b = executor.execute(parse(base + " USING M4UDF"))
        assert a.columns == b.columns
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a == pytest.approx(row_b)

    def test_mixed_aggregates_rejected(self):
        from repro.errors import SqlSyntaxError
        from repro.query import parse
        with pytest.raises(SqlSyntaxError):
            parse("SELECT COUNT(s), TopValue(s) FROM x GROUP BY SPANS(2)")

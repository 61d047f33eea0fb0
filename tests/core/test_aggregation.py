"""Tests for metadata-accelerated span aggregation."""

import numpy as np
import pytest

from repro.core.aggregation import (
    AGGREGATE_NAMES,
    aggregate_lsm,
    aggregate_udf,
)
from repro.core.m4lsm.lazyload import contested_whole
from repro.core.m4lsm.operator import read_members
from repro.core.spans import all_span_bounds
from repro.errors import QueryError
from repro.storage import StorageEngine


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
        assert all(result.column(f)[0] is not None
                   for f in ("count", "avg", "max_value"))


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


def contested_chunks(engine, ops):
    """Write ``ops`` — ``(start, end)`` two-point chunks and ``("delete",
    start, end)`` deletes, in order — then return the write-order indices
    of the chunks :func:`contested_whole` marks.  The query has ``w = 1``
    and covers every chunk, so every chunk is a whole member."""
    engine.create_series("s")
    for op in ops:
        if op[0] == "delete":
            engine.delete("s", op[1], op[2])
        else:
            t = np.unique(np.array(op, dtype=np.int64))
            engine.write_batch("s", t, np.zeros(t.size))
            engine.flush("s")
    _chunks, members, deletes, _reader = read_members(
        engine, "s", all_span_bounds(0, 1000, 1), False, [])
    assert members.n_fragments == 0
    order = sorted(members.version.tolist())
    marked = members.version[contested_whole(members, deletes)]
    return sorted(order.index(v) for v in marked.tolist())


def pairwise_contested(ops):
    """The quadratic reference of :func:`contested_chunks`."""
    chunks = [(i, op) for i, op in enumerate(ops) if op[0] != "delete"]
    index = {i: k for k, (i, _op) in enumerate(chunks)}
    contested = set()
    for i, (lo, hi) in chunks:
        for j, (lo2, hi2) in chunks:
            if i != j and lo <= hi2 and lo2 <= hi:
                contested.add(index[i])
        if any(op[0] == "delete" and j > i and op[1] <= hi and lo <= op[2]
               for j, op in enumerate(ops)):
            contested.add(index[i])
    return sorted(contested)


class TestContestedWhole:
    @pytest.mark.parametrize("ops, expected", [
        pytest.param([(0, 9), (10, 19), (20, 29)], [], id="disjoint"),
        pytest.param([(0, 10), (10, 20)], [0, 1], id="touching_endpoints"),
        pytest.param([(40, 60), (0, 100)], [0, 1], id="nested"),
        # Chunk 0 meets chunk 2, but chunk 1 sorts between them.
        pytest.param([(0, 100), (5, 8), (10, 50)], [0, 1, 2],
                     id="pair_separated_in_start_order"),
        pytest.param([(0, 10), (5, 50), (40, 60), (70, 80)], [0, 1, 2],
                     id="three_chain_with_escaping_tail"),
        pytest.param([(0, 10), ("delete", 5, 25), (20, 30)], [0],
                     id="newer_delete_contests_older_chunk_only"),
        pytest.param([(0, 10), ("delete", 50, 60)], [],
                     id="delete_outside_all_chunks"),
        pytest.param([], [], id="empty"),
        pytest.param([(0, 10)], [], id="single_chunk"),
    ])
    def test_contested_whole(self, engine, ops, expected):
        assert contested_chunks(engine, ops) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pairwise_reference(self, tmp_path, small_config,
                                        seed):
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(int(rng.integers(2, 10))):
            start = int(rng.integers(0, 100))
            end = start + int(rng.integers(0, 30))
            ops.append(("delete", start, end) if rng.random() < 0.2
                       else (start, end))
        with StorageEngine(tmp_path / "db", small_config) as engine:
            assert contested_chunks(engine, ops) == pairwise_contested(ops)

    def test_uncontested_neighbour_is_never_loaded(self, engine):
        """Chunk 0 is contested by a newer delete; chunk 1 shares its
        span but meets nothing, so only chunk 0 is loaded."""
        engine.create_series("s")
        for t in ((0, 4, 10), (50, 55, 60)):
            engine.write_batch("s", np.array(t, dtype=np.int64),
                               np.array([1.0, -2.0, 3.0]))
            engine.flush("s")
        engine.delete("s", 3, 5)
        before = engine.stats.snapshot()
        got = aggregate_lsm(engine, "s", 0, 100, 1, AGGREGATE_NAMES)
        assert engine.stats.diff(before).chunk_loads == 1
        want = aggregate_udf(engine, "s", 0, 100, 1, AGGREGATE_NAMES)
        for function in AGGREGATE_NAMES:
            assert got.column(function) == want.column(function)
        assert got.column("count") == [5]


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

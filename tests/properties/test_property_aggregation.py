"""Property-based tests: metadata-accelerated aggregation equals the
merge-everything baseline on arbitrary LSM states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AGGREGATE_NAMES, aggregate_lsm, aggregate_udf
from repro.storage import StorageConfig, StorageEngine


@st.composite
def lsm_workload(draw):
    domain = draw(st.integers(60, 300))
    n = draw(st.integers(2, min(60, domain // 2)))
    times = sorted(draw(st.lists(st.integers(0, domain - 1), min_size=n,
                                 max_size=n, unique=True)))
    # A narrow value range ties extremes across chunks.
    high = draw(st.sampled_from([1, 9]))
    values = draw(st.lists(st.integers(-high, high), min_size=n, max_size=n))
    batches = draw(st.integers(1, 3))
    delete = draw(st.one_of(
        st.none(),
        st.tuples(st.integers(0, domain - 1), st.integers(0, 60))))
    overwrite = draw(st.integers(0, n - 1))
    # Edits aimed at one existing chunk's FP/LP/BP/TP point after a
    # batch: a rewrite of that timestamp, or a delete from it on, which
    # is older than the chunks of any later batch.
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["rewrite", "delete"]), st.integers(0, 99),
        st.integers(0, 3), st.integers(-high, high),
        st.integers(0, batches - 1)), max_size=3))
    # Few spans over small chunks: whole chunks overlap inside one span.
    w = draw(st.sampled_from([1, 2, 3, 11]))
    chunk = draw(st.sampled_from([3, 7, 25]))
    return (np.array(times, dtype=np.int64),
            np.array(values, dtype=np.float64),
            batches, delete, overwrite, edits, w, chunk, domain)


def _apply_edits(engine, edits):
    for kind, pick, which, number, _after in edits:
        chunks = engine.chunks_for("s")
        stats = chunks[pick % len(chunks)].statistics
        point = (stats.first, stats.last, stats.bottom, stats.top)[which]
        if kind == "rewrite":
            engine.write_batch("s", np.array([point.t]),
                               np.array([float(number)]))
            engine.flush("s")
        else:
            engine.delete("s", point.t, point.t + abs(number))


@given(lsm_workload())
@settings(max_examples=40, deadline=None)
def test_lsm_aggregation_equals_udf(tmp_path_factory, workload):
    t, v, batches, delete, overwrite, edits, w, chunk, domain = workload
    tmp = tmp_path_factory.mktemp("agg")
    config = StorageConfig(avg_series_point_number_threshold=chunk,
                           points_per_page=max(chunk // 2, 1))
    engine = StorageEngine(tmp, config)
    try:
        engine.create_series("s")
        rng = np.random.default_rng(0)
        for batch, part in enumerate(
                np.array_split(rng.permutation(t.size), batches)):
            part = np.sort(part)
            if part.size:
                engine.write_batch("s", t[part], v[part])
                engine.flush("s")
            if engine.chunks_for("s"):
                _apply_edits(engine, [e for e in edits if e[4] == batch])
        if delete is not None:
            engine.delete("s", delete[0], delete[0] + delete[1])
        engine.write_batch("s", t[overwrite:overwrite + 1],
                           np.array([99.0]))
        engine.flush_all()
        a = aggregate_udf(engine, "s", 0, domain, w, AGGREGATE_NAMES)
        before = engine.stats.snapshot()
        b = aggregate_lsm(engine, "s", 0, domain, w, AGGREGATE_NAMES)
        # Each chunk is opened at most once per query.
        assert engine.stats.diff(before).chunk_loads <= len(
            engine.metadata_reader("s").chunks_overlapping(0, domain))
        for function in AGGREGATE_NAMES:
            for got, want in zip(b.column(function), a.column(function)):
                if want is None:
                    assert got is None, function
                else:
                    assert got == pytest.approx(want), function
    finally:
        engine.close()

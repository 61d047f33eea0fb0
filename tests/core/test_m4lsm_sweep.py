"""The chunk-major sweep of M4-LSM: every split chunk is opened at most
once per query, its fragments carry exact statistics, and nothing about
the answer changes — span for span, M4-LSM stays identical to M4-UDF
under deletes, overwrites, value ties, damage and deadlines."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import M4LSMOperator, M4UDFOperator, Point
from repro.core.m4lsm import FUSED, SOLVER
from repro.core.m4lsm.lazyload import sweep_spans
from repro.core.spans import all_span_bounds
from repro.errors import CorruptFileError, DeadlineExceededError
from repro.obs import tracer_of
from repro.storage import StorageConfig, StorageEngine
from repro.storage.deadline import Deadline, deadline_scope

SWITCHES = [dict(zip(("lazy", "use_regression"), bits))
            for bits in itertools.product((True, False), repeat=2)]


def assert_identical(engine, series, t_qs, t_qe, w, **switches):
    """M4-LSM ≡ M4-UDF, every span compared point for point."""
    udf = M4UDFOperator(engine).query(series, t_qs, t_qe, w)
    lsm = M4LSMOperator(engine, **switches).query(series, t_qs, t_qe, w)
    for i, (expected, got) in enumerate(zip(udf.spans, lsm.spans)):
        assert got == expected, "span %d of w=%d [%d, %d) %r" % (
            i, w, t_qs, t_qe, switches)
    return lsm


@pytest.fixture
def busy_store(tmp_path):
    """2000 points in 50-point chunks, six newer chunks straddling chunk
    boundaries (rewriting their timestamps), eight deletes."""
    config = StorageConfig(avg_series_point_number_threshold=50,
                           points_per_page=20)
    rng = np.random.default_rng(7)
    with StorageEngine(tmp_path / "db", config) as engine:
        engine.create_series("s")
        t = np.cumsum(rng.integers(1, 20, 2000)).astype(np.int64)
        v = np.round(rng.normal(0.0, 5.0, t.size), 1)
        engine.write_batch("s", t, v)
        engine.flush("s")
        for c in rng.choice(38, size=6, replace=False):
            lo = int(c) * 50 + 30
            engine.write_batch("s", t[lo:lo + 40], v[lo:lo + 40] + 1.0)
            engine.flush("s")
        for _ in range(8):
            lo = int(rng.integers(0, t.size - 30))
            engine.delete("s", int(t[lo]),
                          int(t[lo + int(rng.integers(1, 25))]))
        engine.flush_all()
        yield engine, t


class TestEachChunkOpenedAtMostOnce:
    @pytest.mark.parametrize("switches", SWITCHES, ids=lambda s: "-".join(
        "%s=%d" % (k[:4], v) for k, v in s.items()))
    def test_random_unaligned_viewports(self, busy_store, switches):
        engine, t = busy_store
        rng = np.random.default_rng(11)
        lo_t, hi_t = int(t[0]), int(t[-1])
        for _ in range(12):
            length = int(rng.integers(40, (hi_t - lo_t) // 2))
            t_qs = int(rng.integers(lo_t - 50, hi_t - length))
            w = int(rng.choice([3, 17, 64, 200]))
            n_chunks = len(engine.metadata_reader("s")
                           .chunks_overlapping(t_qs, t_qs + length))
            before = engine.stats.snapshot()
            M4LSMOperator(engine, **switches).query(
                "s", t_qs, t_qs + length, w)
            assert engine.stats.diff(before).chunk_loads <= n_chunks
            assert_identical(engine, "s", t_qs, t_qs + length, w,
                             **switches)

    def test_clean_split_chunks_are_loaded_exactly_once(self, tmp_path):
        config = StorageConfig(avg_series_point_number_threshold=100,
                               points_per_page=100)
        with StorageEngine(tmp_path / "db", config) as engine:
            engine.create_series("s")
            t = np.arange(1000, dtype=np.int64)
            engine.write_batch("s", t, np.cos(t / 5.0))
            engine.flush_all()
            # [155, 845) touches chunks 1..8; 69 ten-tick spans split
            # them all, and 7 spans straddle a chunk boundary.
            before = engine.stats.snapshot()
            _result, trace = M4LSMOperator(engine).query_traced(
                "s", 155, 845, 69)
            assert engine.stats.diff(before).chunk_loads == 8
            assert trace.swept_chunks == 8
            assert trace.sweep_chunk_loads == 8
            assert trace.total("fragments") == 69 + 7
            # Disjoint exact intervals: every span fuses, none iterates.
            assert trace.counts_by_mode()[FUSED] == 69
            assert trace.total("iterations") == 0
            assert trace.total("chunk_loads") == 0  # none after the sweep


class TestSweepObservability:
    def test_fragment_fed_spans_are_not_metadata_only(self, busy_store):
        engine, t = busy_store
        _result, trace = M4LSMOperator(engine).query_traced(
            "s", int(t[100]) + 1, int(t[700]), 37)
        fed = [s for s in trace.spans if s.fragments]
        assert fed and not any(s.was_metadata_only() for s in fed)
        whole = [s for s in trace.spans
                 if s.mode == FUSED and not s.fragments]
        assert all(s.was_metadata_only() for s in whole)
        non_empty = [s for s in trace.spans if s.n_chunks]
        assert trace.metadata_only_fraction() == pytest.approx(
            sum(s.was_metadata_only() for s in non_empty) / len(non_empty))
        assert ("sweep: %d chunks, %d fragments, %d chunk loads"
                % (trace.swept_chunks, trace.total("fragments"),
                   trace.sweep_chunk_loads)) in trace.render()

    def test_tracer_records_one_sweep_span(self, busy_store):
        engine, t = busy_store
        _result, trace = M4LSMOperator(engine).query_traced(
            "s", int(t[100]) + 1, int(t[700]), 37)
        root = tracer_of(engine).last_root
        assert [child.name for child in root.children
                if child.name in ("read.metadata", "sweep", "solve")] == [
                    "read.metadata", "sweep", "solve"]
        sweep = root.find("sweep")
        assert sweep.attrs == {"chunks": trace.swept_chunks,
                               "fragments": trace.total("fragments")}
        assert sweep.counters["chunk_loads"] == trace.sweep_chunk_loads

    def test_solver_still_runs_on_real_overlaps(self, busy_store):
        # At w=30 most chunks lie wholly inside a span, and the spans
        # holding a rewritten (contested) whole chunk need the solver.
        engine, t = busy_store
        _result, trace = M4LSMOperator(engine).query_traced(
            "s", int(t[0]), int(t[-1]) + 1, 30)
        modes = trace.counts_by_mode()
        assert modes[SOLVER] > 0 and modes[FUSED] > modes[SOLVER]

    def test_overlapping_split_chunks_fuse(self, busy_store):
        # At w=150 every chunk is split: the sweep drops the points the
        # rewrites overwrite, so the overlaps need no solver at all.
        engine, t = busy_store
        t_qs, t_qe = int(t[0]), int(t[-1]) + 1
        assert_identical(engine, "s", t_qs, t_qe, 150)
        _result, trace = M4LSMOperator(engine).query_traced(
            "s", t_qs, t_qe, 150)
        assert trace.counts_by_mode()[SOLVER] == 0
        assert trace.total("iterations") == 0


# -- the property: what the sweep changed ----------------------------------------

@st.composite
def split_history(draw):
    """A store whose chunks are split by span bounds, with deletes placed
    at span bounds and on fragment extremes, value ties across fragments
    and a newer chunk rewriting part of an older one."""
    n = draw(st.integers(12, 90))
    gaps = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    t = np.cumsum(gaps).astype(np.int64)
    # Few distinct values: equal extremes in neighbouring fragments.
    v = np.array(draw(st.lists(st.integers(-2, 2), min_size=n,
                               max_size=n)), dtype=np.float64)
    chunk_size = draw(st.sampled_from([5, 11, 30]))
    t_qs = int(t[0]) + draw(st.integers(-3, 4))    # may cut the first
    t_qe = int(t[-1]) + 1 + draw(st.integers(-4, 3))  # and last chunk
    ticks = t_qe - t_qs
    w = draw(st.one_of(st.integers(2, 25),
                       st.integers(ticks + 1, ticks + 40)))
    bounds = all_span_bounds(t_qs, t_qe, w)

    deletes = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["bound", "extreme", "fragment"]))
        if kind == "bound":      # a span bound falls inside the range
            b = int(bounds[draw(st.integers(0, w))])
            deletes.append((b - draw(st.integers(0, 4)),
                            b + draw(st.integers(0, 4))))
        elif kind == "extreme":  # exactly one point, often an FP/LP/BP/TP
            at = int(t[draw(st.integers(0, n - 1))])
            deletes.append((at, at))
        else:                    # a whole span's worth of some chunk
            i = draw(st.integers(0, w - 1))
            if bounds[i] < bounds[i + 1]:
                deletes.append((int(bounds[i]), int(bounds[i + 1]) - 1))
    rewrite = None
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - 1))
        hi = min(n, lo + draw(st.integers(1, 12)))
        rewrite = (lo, hi, draw(st.lists(st.integers(-2, 2),
                                         min_size=hi - lo,
                                         max_size=hi - lo)))
    delete_first = draw(st.booleans())
    return t, v, chunk_size, t_qs, t_qe, w, deletes, rewrite, delete_first


def build_split_store(path, history):
    t, v, chunk_size, _qs, _qe, _w, deletes, rewrite, delete_first = history
    config = StorageConfig(avg_series_point_number_threshold=chunk_size,
                           points_per_page=max(chunk_size // 2, 1))
    engine = StorageEngine(path, config)
    engine.create_series("s")
    engine.write_batch("s", t, v)
    engine.flush("s")

    def apply_deletes():
        for start, end in deletes:
            engine.delete("s", start, end)

    if delete_first:
        apply_deletes()   # older than the rewrite: must not touch it
    if rewrite is not None:
        lo, hi, values = rewrite
        engine.write_batch("s", t[lo:hi],
                           np.array(values, dtype=np.float64))
        engine.flush("s")
    if not delete_first:
        apply_deletes()
    engine.flush_all()
    return engine


@given(split_history(), st.sampled_from(SWITCHES))
@settings(max_examples=60, deadline=None)
def test_sweep_keeps_lsm_identical_to_udf(tmp_path_factory, history,
                                          switches):
    engine = build_split_store(tmp_path_factory.mktemp("sweep"), history)
    try:
        t_qs, t_qe, w = history[3:6]
        assert_identical(engine, "s", t_qs, t_qe, w, **switches)
    finally:
        engine.close()


@given(split_history())
@settings(max_examples=40, deadline=None)
def test_sweep_fragments_never_share_a_timestamp(tmp_path_factory, history):
    """The sweep is overwrite-free: after it, no point of one fragment
    can be rewritten by another, which is what lets them fold."""
    engine = build_split_store(tmp_path_factory.mktemp("free"), history)
    try:
        t_qs, t_qe, w = history[3:6]
        chunks = engine.metadata_reader("s").chunks_overlapping(t_qs, t_qe)
        members = sweep_spans(chunks, all_span_bounds(t_qs, t_qe, w),
                              engine.deletes_for("s"), engine.data_reader())
        if members.n_fragments:
            assert np.unique(members.data_t).size == members.data_t.size
            assert members.count[:members.n_fragments].sum() \
                == members.data_t.size
    finally:
        engine.close()


class TestFragmentExtremes:
    def test_value_tie_across_fragments_takes_earliest_time(self, tmp_path):
        config = StorageConfig(avg_series_point_number_threshold=4,
                               points_per_page=4)
        with StorageEngine(tmp_path / "db", config) as engine:
            engine.create_series("s")
            # Chunks [0..3] [4..7] [8..11]; w=2 over [2, 10) puts the
            # tail of chunk 0 and the head of chunk 1 into span 0, both
            # topping out at 9.0 and bottoming at 1.0.
            t = np.arange(12, dtype=np.int64)
            v = np.array([5, 5, 1, 9, 9, 1, 5, 5, 5, 5, 5, 5], dtype=float)
            engine.write_batch("s", t, v)
            engine.flush_all()
            result = assert_identical(engine, "s", 2, 10, 2)
            assert result[0].top == Point(3, 9.0)
            assert result[0].bottom == Point(2, 1.0)

    def test_newer_chunk_overwrites_point_of_split_older_chunk(
            self, tmp_path):
        config = StorageConfig(avg_series_point_number_threshold=10,
                               points_per_page=5)
        with StorageEngine(tmp_path / "db", config) as engine:
            engine.create_series("s")
            t = np.arange(0, 300, 10, dtype=np.int64)
            v = np.zeros(t.size)
            v[7] = 50.0                      # the old chunk's top, t=70
            engine.write_batch("s", t, v)
            engine.flush("s")
            engine.write_batch("s", np.array([70], dtype=np.int64),
                               np.array([-3.0]))   # ...overwritten
            engine.flush_all()
            result = assert_identical(engine, "s", 5, 295, 7)
            span = next(s for s in result.spans
                        if not s.is_empty() and s.first.t <= 70 <= s.last.t)
            assert span.bottom == Point(70, -3.0)
            assert span.top.v == 0.0


# -- damage and deadlines inside the sweep ---------------------------------------

N, W = 1000, 13   # 100-point chunks, every one split by a span bound


@pytest.fixture
def damaged_split_chunk(tmp_path):
    config = StorageConfig(avg_series_point_number_threshold=100,
                           points_per_page=50)
    db = tmp_path / "db"
    with StorageEngine(db, config) as engine:
        engine.create_series("s")
        t = np.arange(N, dtype=np.int64)
        engine.write_batch("s", t, np.sin(t / 7.0) * 5)
        engine.flush_all()
        healthy = M4UDFOperator(engine).query("s", 0, N, W)
        victim = engine.chunks_for("s")[4]
    with open(victim.file_path, "r+b") as f:   # flip one payload byte
        f.seek(victim.data_offset + 3)
        byte = f.read(1)
        f.seek(victim.data_offset + 3)
        f.write(bytes([byte[0] ^ 0x40]))
    with StorageEngine(db, config) as engine:
        yield engine, victim, healthy


class TestDamageDuringSweep:
    def test_degraded_skips_the_chunk_and_answers_the_rest(
            self, damaged_split_chunk):
        engine, victim, healthy = damaged_split_chunk
        result = M4LSMOperator(engine).query("s", 0, N, W)
        assert result.skipped == ((victim.start_time,
                                   victim.end_time + 1),)
        assert engine.quarantine.contains(victim.file_path,
                                          victim.data_offset)
        bounds = all_span_bounds(0, N, W)
        for i in range(W):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi <= victim.start_time or lo > victim.end_time:
                assert result.spans[i] == healthy.spans[i]
            else:   # the survivors of a touched span still answer
                assert not result.spans[i].is_empty()
        degraded_udf = M4UDFOperator(engine).query("s", 0, N, W)
        assert result.spans == degraded_udf.spans

    def test_damage_is_found_by_the_sweep_not_a_solver(
            self, damaged_split_chunk):
        engine, _victim, _healthy = damaged_split_chunk
        _result, trace = M4LSMOperator(engine).query_traced("s", 0, N, W)
        assert trace.swept_chunks == 9      # ten split chunks, one dead
        assert trace.total("chunk_loads") == 0

    def test_strict_raises(self, damaged_split_chunk):
        engine, _victim, _healthy = damaged_split_chunk
        with pytest.raises(CorruptFileError) as info:
            M4LSMOperator(engine, degraded=False).query("s", 0, N, W)
        assert any(entry.name == "sweep_spans" for entry in info.traceback)


class TestDeadlineDuringSweep:
    def test_expired_deadline_raises_from_inside_the_sweep(
            self, busy_store):
        engine, t = busy_store
        operator = M4LSMOperator(engine)
        before = engine.stats.snapshot()
        with deadline_scope(Deadline(-1.0)):
            with pytest.raises(DeadlineExceededError) as info:
                operator.query("s", int(t[3]), int(t[-3]), 50)
        assert any(entry.name == "sweep_spans" for entry in info.traceback)
        assert engine.stats.diff(before).chunk_loads == 0

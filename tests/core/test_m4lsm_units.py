"""Algorithm 1's rules, one tiny store each.

Every case runs M4-LSM on a handful of hand-made chunks, asserts that it
answers exactly like M4-UDF, and pins what the answer cost: the chunk
loads (read type (c)) and index lookups (read types (a) and (b)) of the
rounds that settle the contested spans.  The class names follow the
parts of Algorithm 1 they exercise: span bounds (Section 3.1), the
per-row state, candidate generation (Section 3.2), FP/LP verification
(Section 3.3), BP/TP verification (Section 3.4) and bound tightening.
"""

import numpy as np
import pytest

from repro.core import M4LSMOperator, M4UDFOperator, Point
from repro.core.m4lsm import FUSED, SOLVER
from repro.storage import StorageConfig, StorageEngine


@pytest.fixture
def make_store(tmp_path):
    """``make_store(*chunks, deletes=(), deletes_after=None)``: each
    ``(times, values)`` is flushed as its own chunk, oldest first;
    ``deletes`` are ``(lo, hi)`` ranges applied after the first
    ``deletes_after`` chunks (default: after all of them)."""
    engines = []

    def make(*chunks, deletes=(), deletes_after=None):
        engine = StorageEngine(tmp_path / ("db%d" % len(engines)),
                               StorageConfig(
                                   avg_series_point_number_threshold=1000,
                                   points_per_page=2))
        engines.append(engine)
        engine.create_series("s")
        split = len(chunks) if deletes_after is None else deletes_after
        for k, (t, v) in enumerate(chunks):
            if k == split:
                for lo, hi in deletes:
                    engine.delete("s", lo, hi)
            engine.write_batch("s", np.array(t, dtype=np.int64),
                               np.array(v, dtype=np.float64))
            engine.flush("s")
        if split == len(chunks):
            for lo, hi in deletes:
                engine.delete("s", lo, hi)
        engine.flush_all()
        return engine

    yield make
    for engine in engines:
        engine.close()


def run(engine, t_qs=0, t_qe=100, w=1):
    """M4-LSM's answer (asserted equal to M4-UDF's, span for span), its
    trace, and the chunk loads and index lookups it cost."""
    before = engine.stats.snapshot()
    result, trace = M4LSMOperator(engine).query_traced("s", t_qs, t_qe, w)
    spent = engine.stats.diff(before)
    udf = M4UDFOperator(engine).query("s", t_qs, t_qe, w)
    assert list(result.spans) == list(udf.spans)
    return result, trace, (spent.chunk_loads, spent.index_lookups)


class TestVirtualDeletes:
    """Span bounds hold by the sweep's clipping: a chunk that crosses a
    bound is cut there, and no point outside a span reaches it."""

    def test_complement_of_span(self, make_store):
        engine = make_store((range(10), range(10)))
        result, _trace, cost = run(engine, 3, 7)
        span = result.spans[0]
        assert (span.first.t, span.last.t) == (3, 6)
        assert cost == (1, 0)   # the sweep's one load; no round reads

    def test_infinite_version(self, make_store):
        # The newest chunk crosses the bound at 10: its points beyond the
        # bound stay out of span 0 although no chunk is newer.
        engine = make_store((range(10), [1.0] * 10),
                            ([8, 9, 10, 11, 12], [5.0, 6.0, 7.0, 8.0, 9.0]))
        result, _trace, cost = run(engine, 0, 20, 2)
        assert result.spans[0].top == Point(9, 6.0)
        assert result.spans[1].first == Point(10, 7.0)
        assert cost == (1, 0)

    def test_deletes_with_span_appends_two(self, make_store):
        # A real delete across the bound acts on both sides of it.
        engine = make_store((range(20), range(20)), deletes=[(8, 12)])
        result, _trace, cost = run(engine, 0, 20, 2)
        assert result.spans[0].last.t == 7
        assert result.spans[1].first.t == 13
        assert cost == (1, 0)


class TestChunkView:
    """The per-row state: stored statistics until a candidate fails,
    then pending, recomputed or dead."""

    def test_initial_state_is_whole_chunk_metadata(self, make_store):
        engine = make_store(([10, 20, 30], [5.0, -1.0, 7.0]))
        result, trace, cost = run(engine)
        span = result.spans[0]
        assert (span.first, span.last, span.bottom, span.top) == (
            Point(10, 5.0), Point(30, 7.0), Point(20, -1.0), Point(30, 7.0))
        assert trace.counts_by_mode()[FUSED] == 1
        assert cost == (0, 0)

    def test_invalidate_and_dead_lifecycle(self, make_store):
        # The FP dies, its bound moves past the delete, the index walk
        # finds nothing after it: the row is dead and the span empty.
        engine = make_store(([10], [1.0]), deletes=[(10, 10)])
        result, trace, cost = run(engine)
        assert not result.occupied[0]
        assert trace.counts_by_mode()[SOLVER] == 1
        assert cost == (0, 1)

    def test_interval_covers_uses_whole_chunk(self, make_store):
        # Only the newer chunk whose interval [15, 25] covers the TP at
        # t = 20 is probed; the one at [31, 40] is dismissed for free.
        engine = make_store(([10, 20, 30], [1.0, 9.0, 2.0]),
                            ([15, 25], [0.0, 0.0]),
                            ([31, 40], [0.5, 0.5]))
        result, _trace, cost = run(engine)
        assert result.spans[0].top == Point(20, 9.0)
        assert cost == (0, 1)

    def test_surviving_data_applies_exclusions(self, make_store):
        # The TP at t = 3 is rewritten: the old chunk is loaded once and
        # its TP recomputed without t = 3.
        engine = make_store(([1, 2, 3], [1.0, 2.0, 3.0]), ([3], [0.0]))
        result, _trace, cost = run(engine)
        assert result.spans[0].top == Point(2, 2.0)
        assert cost == (1, 1)


class TestCandidateGeneration:
    """Section 3.2: the extreme metadata point, a value tie going to the
    earliest time and a time tie to the newest version."""

    @pytest.fixture
    def two_chunks(self, make_store):
        return make_store(([10, 20], [1.0, 9.0]), ([15, 25], [0.0, 9.0]))

    def test_fp_picks_min_time(self, two_chunks):
        result, _trace, _cost = run(two_chunks)
        assert result.spans[0].first == Point(10, 1.0)

    def test_lp_picks_max_time(self, two_chunks):
        result, _trace, _cost = run(two_chunks)
        assert result.spans[0].last == Point(25, 9.0)

    def test_bp_picks_min_value(self, two_chunks):
        result, _trace, _cost = run(two_chunks)
        assert result.spans[0].bottom == Point(15, 0.0)

    def test_tp_value_tie_broken_by_earliest_time(self, two_chunks):
        # 9.0 at t = 20 (older) and t = 25 (newer): the earliest wins
        # once one probe shows the newer chunk holds no point at 20.
        result, _trace, cost = run(two_chunks)
        assert result.spans[0].top == Point(20, 9.0)
        assert cost == (0, 1)

    def test_timestamp_tie_broken_by_version(self, make_store):
        # The same TP time in two chunks: the newer one's is the
        # candidate, so nothing is probed or loaded.
        engine = make_store(([10, 20], [1.0, 9.0]), ([20, 25], [9.0, 2.0]))
        result, _trace, cost = run(engine)
        assert result.spans[0].top == Point(20, 9.0)
        assert cost == (0, 0)

    def test_pending_views_excluded_from_pool(self, make_store):
        # The old chunk's FP at 10 is deleted; its bound (11) could beat
        # the newer chunk's FP at 12, so it is resolved first (one walk
        # step) and wins.
        engine = make_store(([10, 11, 30], [2.0, 1.0, 3.0]),
                            ([12, 40], [4.0, 5.0]), deletes=[(10, 10)])
        result, _trace, cost = run(engine)
        assert result.spans[0].first == Point(11, 1.0)
        assert cost == (0, 1)

    def test_empty_pool_when_all_dead(self, make_store):
        engine = make_store(([10, 20], [1.0, 2.0]), ([15, 25], [3.0, 4.0]),
                            deletes=[(0, 99)])
        result, trace, cost = run(engine)
        assert not result.occupied[0]
        assert trace.counts_by_mode()[SOLVER] == 1
        assert cost == (0, 2)


class TestVerifyFpLp:
    """Proposition 3.1: only a newer delete can kill an FP/LP."""

    def test_latest_when_no_newer_delete_covers(self, make_store):
        # The delete at t = 10 predates the chunk that rewrote t = 10.
        engine = make_store(([10, 20], [3.0, 2.0]), ([10], [5.0]),
                            deletes=[(10, 10)], deletes_after=1)
        result, trace, cost = run(engine)
        assert result.spans[0].first == Point(10, 5.0)
        assert trace.counts_by_mode()[FUSED] == 1
        assert cost == (0, 0)

    def test_deleted_by_newer_delete(self, make_store):
        engine = make_store(([10, 20, 30], [2.0, 1.0, 3.0]),
                            deletes=[(10, 10)])
        result, _trace, cost = run(engine)
        assert result.spans[0].first == Point(20, 1.0)
        assert cost == (0, 1)

    def test_virtual_delete_kills_out_of_span_candidate(self, make_store):
        # The chunk's interval [10, 200] meets the span [50, 100) but
        # none of its points lies inside: the sweep leaves it no row.
        engine = make_store(([10, 200], [1.0, 2.0]))
        result, _trace, cost = run(engine, 50, 100)
        assert not result.occupied[0]
        assert cost == (1, 0)


class TestVerifyBpTp:
    """Proposition 3.3: a newer delete or a newer point kills a BP/TP."""

    def test_overwrite_detected_via_index(self, make_store):
        engine = make_store(([10, 20, 30], [1.0, 9.0, 2.0]), ([20], [0.0]))
        result, _trace, cost = run(engine)
        span = result.spans[0]
        assert (span.bottom, span.top) == (Point(20, 0.0), Point(30, 2.0))
        assert cost == (1, 1)

    def test_interval_overlap_without_point_is_latest(self, make_store):
        # A newer interval covers the TP's time without a point there:
        # one probe settles it, nothing is loaded.
        engine = make_store(([10, 20, 30], [1.0, 9.0, 2.0]),
                            ([15, 25], [0.0, 0.0]))
        result, _trace, cost = run(engine)
        assert result.spans[0].top == Point(20, 9.0)
        assert cost == (0, 1)

    def test_older_chunks_never_checked(self, make_store):
        # Every candidate comes from the newest chunk; the older chunk's
        # interval covers the TP's time but is never probed.
        engine = make_store(([20], [5.0]), ([10, 20, 30], [1.0, 9.0, 2.0]))
        result, trace, cost = run(engine)
        assert result.spans[0].top == Point(20, 9.0)
        assert trace.counts_by_mode()[FUSED] == 1
        assert cost == (0, 0)

    def test_delete_checked_before_overwrite(self, make_store):
        # The TP at t = 20 lies in the newer chunk's interval but is
        # deleted: it dies without a probe, and both chunks reload.
        engine = make_store(([10, 20, 30], [1.0, 9.0, 2.0]),
                            ([20, 25], [0.0, 0.5]), deletes=[(20, 20)])
        result, _trace, cost = run(engine)
        span = result.spans[0]
        assert (span.bottom, span.top) == (Point(25, 0.5), Point(30, 2.0))
        assert cost == (2, 0)


class TestTightening:
    """The paper's ``FP(C).t = t_de`` / ``LP(C).t = t_ds``: a killed
    FP/LP bound moves past the delete, and only ever forwards."""

    def test_first_bound_moves_past_delete(self, make_store):
        engine = make_store(([10, 15, 20, 50, 60],
                             [2.0, 2.5, 2.2, 1.0, 3.0]), deletes=[(5, 20)])
        result, _trace, cost = run(engine)
        assert result.spans[0].first == Point(50, 1.0)
        assert cost == (0, 1)   # one probe jumps the whole delete

    def test_last_bound_moves_before_delete(self, make_store):
        engine = make_store(([0, 10, 40, 45, 50], [1.0, 4.0, 2.0, 2.5, 3.0]),
                            deletes=[(40, 60)])
        result, _trace, cost = run(engine)
        assert result.spans[0].last == Point(10, 4.0)
        assert cost == (0, 1)

    def test_bounds_only_tighten(self, make_store):
        # Two deletes cover the FP; the bound moves past [5, 30] in one
        # step and never back to the narrower [5, 20].
        engine = make_store(([10, 25, 50, 60], [2.0, 2.5, 1.0, 3.0]),
                            deletes=[(5, 30), (5, 20)])
        result, _trace, cost = run(engine)
        assert result.spans[0].first == Point(50, 1.0)
        assert cost == (0, 1)

"""The verified fold of M4-LSM: every span's FP/LP/BP/TP candidates come
from one array fold over its members, and a span goes on to later rounds
of Algorithm 1 only when a newer member's interval or a newer delete
covers one of them.  Whole chunks that overlap inside one span are where
round 1 and the later rounds meet, so the property here is biased
towards them."""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import M4LSMOperator
from repro.core.m4lsm import FUSED, SOLVER
from repro.storage import StorageConfig, StorageEngine

from .test_m4lsm_sweep import SWITCHES, assert_identical


@st.composite
def whole_chunk_history(draw):
    """Small chunks, few spans (so most chunks are whole), and newer
    writes and deletes aimed at the chunks' own FP/LP/BP/TP rows:
    rewrites on a candidate timestamp or next to it, deletes on a
    candidate, and value ties across chunks (few distinct values).

    Three kinds of event force spans through several rounds: two
    adjacent deletes on a chunk's first rows (the FP's index walk steps
    twice), a BP tied at two rows that are both rewritten (the
    recomputed BP is rewritten too), and a newer chunk around a
    candidate's time without a point there (a probe that finds
    nothing)."""
    chunk_size = draw(st.sampled_from([3, 4, 6]))
    n = chunk_size * draw(st.integers(2, 10))
    t = np.cumsum(draw(st.lists(st.integers(1, 4), min_size=n,
                                max_size=n))).astype(np.int64)
    v = np.array(draw(st.lists(st.integers(-2, 2), min_size=n,
                               max_size=n)), dtype=np.float64)
    events = []

    def rewrite(rows):
        events.append(("rewrite", rows, draw(st.lists(
            st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))))

    for _ in range(draw(st.integers(1, 5))):
        first = chunk_size * draw(st.integers(0, n // chunk_size - 1))
        rows = v[first:first + chunk_size]
        at = first + draw(st.sampled_from([
            0, chunk_size - 1, int(np.argmin(rows)), int(np.argmax(rows)),
            chunk_size // 2]))
        kind = draw(st.sampled_from(["rewrite", "delete", "twin_deletes",
                                     "tied_rewrites", "gap_rewrite"]))
        if kind == "rewrite":
            rewrite(list(range(max(at - draw(st.integers(0, 1)), 0),
                               min(at + 1 + draw(st.integers(0, 1)), n))))
        elif kind == "delete":
            span = draw(st.integers(0, 2))
            events.append(("delete", int(t[at]), int(t[at]) + span))
        elif kind == "twin_deletes":
            events += [("delete", int(t[row]), int(t[row]))
                       for row in (first, first + 1)]
        elif kind == "tied_rewrites":
            tied = sorted(draw(st.lists(
                st.integers(first, first + chunk_size - 1), min_size=2,
                max_size=2, unique=True)))
            v[tied] = rows.min() - 1
            rewrite(tied)
        else:
            rewrite([row for row in (at - 1, at + 1) if 0 <= row < n])
    w = draw(st.integers(1, 4))
    return t, v, chunk_size, events, w


def build_store(path, history):
    t, v, chunk_size, events, _w = history
    engine = StorageEngine(path, StorageConfig(
        avg_series_point_number_threshold=chunk_size,
        points_per_page=max(chunk_size // 2, 1)))
    engine.create_series("s")
    engine.write_batch("s", t, v)
    engine.flush("s")
    for kind, *args in events:
        if kind == "rewrite":
            rows, values = args
            engine.write_batch("s", t[rows],
                               np.array(values, dtype=np.float64))
            engine.flush("s")
        else:
            engine.delete("s", *args)
    engine.flush_all()
    return engine


@given(whole_chunk_history(), st.sampled_from(SWITCHES))
@settings(max_examples=120, deadline=None)
def test_verified_fold_keeps_lsm_identical_to_udf(tmp_path_factory, history,
                                                  switches):
    engine = build_store(tmp_path_factory.mktemp("fold"), history)
    try:
        t, w = history[0], history[4]
        t_qs, t_qe = int(t[0]), int(t[-1]) + 1
        _result, trace = M4LSMOperator(engine, **switches).query_traced(
            "s", t_qs, t_qe, w)
        # --hypothesis-show-statistics reports the share of each.
        event("reaches a SOLVER span" if trace.counts_by_mode()[SOLVER]
              else "round 1 settles every span")
        assert_identical(engine, "s", t_qs, t_qe, w, **switches)
    finally:
        engine.close()


def _overlapped_span(tmp_path, rewrite_t, rewrite_v, delete=None):
    """One span holding a 10-point chunk (FP t=0, BP t=2, TP t=7, LP
    t=9) and a newer chunk rewriting ``rewrite_t``; returns the engine
    and the traced query over the single span."""
    engine = StorageEngine(tmp_path / "db", StorageConfig(
        avg_series_point_number_threshold=10, points_per_page=5))
    engine.create_series("s")
    t = np.arange(10, dtype=np.int64)
    v = np.array([5.0, 4.0, 1.0, 3.0, 4.0, 5.0, 6.0, 9.0, 6.0, 5.0])
    engine.write_batch("s", t, v)
    engine.flush("s")
    engine.write_batch("s", np.array(rewrite_t, dtype=np.int64),
                       np.array(rewrite_v))
    engine.flush("s")
    if delete is not None:
        engine.delete("s", *delete)
    engine.flush_all()
    result, trace = M4LSMOperator(engine).query_traced("s", 0, 10, 1)
    return engine, result, trace


class TestVerifiedFold:
    def test_uncovered_candidates_cost_no_iterations(self, tmp_path):
        # The newer chunk and the delete touch t=4..5 and t=3 only: no
        # candidate of the span lies under them, so the fold answers.
        engine, result, trace = _overlapped_span(
            tmp_path, [4, 5], [2.0, 7.0], delete=(3, 3))
        try:
            assert trace.counts_by_mode()[FUSED] == 1
            assert trace.total("iterations") == 0
            assert_identical(engine, "s", 0, 10, 1)
            span = result.spans[0]
            assert (span.bottom.t, span.top.t) == (2, 7)
        finally:
            engine.close()

    def test_rewrite_on_the_bottom_goes_to_the_solver(self, tmp_path):
        engine, result, trace = _overlapped_span(tmp_path, [2, 3],
                                                 [8.0, 2.0])
        try:
            assert trace.counts_by_mode()[SOLVER] == 1
            assert trace.total("iterations") > 0
            assert_identical(engine, "s", 0, 10, 1)
            assert result.spans[0].bottom.t == 3
        finally:
            engine.close()

    def test_delete_on_a_candidate_goes_to_the_solver(self, tmp_path):
        engine, result, trace = _overlapped_span(
            tmp_path, [4, 5], [2.0, 7.0], delete=(7, 7))
        try:
            assert trace.counts_by_mode()[SOLVER] == 1
            assert_identical(engine, "s", 0, 10, 1)
            assert result.spans[0].top.t == 5
        finally:
            engine.close()

    def test_rewrite_on_the_first_point_is_its_own_candidate(self, tmp_path):
        # Time tie on FP: the newer chunk's point is the candidate and
        # nothing newer covers it, so the rewrite alone needs no later round.
        engine, result, trace = _overlapped_span(tmp_path, [0], [4.5])
        try:
            assert trace.counts_by_mode()[FUSED] == 1
            assert_identical(engine, "s", 0, 10, 1)
            assert result.spans[0].first.v == 4.5
        finally:
            engine.close()

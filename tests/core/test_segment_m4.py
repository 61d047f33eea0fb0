"""The segmented M4 kernel, the columnar M4Result, and the member fold:
every span answered at once must equal the per-span loop it replaced —
value ties to the earliest row, NaN exactly as ``argmin``/``argmax``."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import M4Result, Point, SpanAggregate
from repro.core.m4 import first_extreme, m4_aggregate_arrays, segment_m4
from repro.core.m4lsm.lazyload import fold_members


@st.composite
def segmented(draw):
    """Time-ordered arrays with few distinct values (ties everywhere),
    sometimes NaN, cut into non-empty segments."""
    n = draw(st.integers(1, 60))
    t = np.cumsum(draw(st.lists(st.integers(1, 5), min_size=n,
                                max_size=n))).astype(np.int64)
    pool = [-1.0, 0.0, 2.0, float("inf"), float("-inf")]
    if draw(st.booleans()):
        pool.append(float("nan"))
    v = np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                               max_size=n)), dtype=np.float64)
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=n - 1)) \
        if n > 1 else []
    starts = np.array(sorted({0, *cuts}), dtype=np.int64)
    return t, v, starts


@given(segmented())
@settings(max_examples=300, deadline=None)
def test_segment_m4_equals_per_segment_argmin_argmax(case):
    t, v, starts = case
    times, values = segment_m4(t, v, starts)
    ends = np.append(starts[1:], t.size)
    for k, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        bottom = lo + int(np.argmin(v[lo:hi]))
        top = lo + int(np.argmax(v[lo:hi]))
        expected = [(t[lo], v[lo]), (t[hi - 1], v[hi - 1]),
                    (t[bottom], v[bottom]), (t[top], v[top])]
        for row, (et, ev) in enumerate(expected):
            assert times[row, k] == et
            assert values[row, k] == ev or (np.isnan(ev)
                                            and np.isnan(values[row, k]))


def test_first_extreme_prefers_the_first_tie_and_the_first_nan():
    v = np.array([3.0, 1.0, 1.0, 5.0, np.nan, 0.0, np.nan, 7.0, 7.0])
    starts = np.array([0, 3, 7])
    assert first_extreme(v, starts, np.minimum).tolist() == [1, 4, 7]
    assert first_extreme(v, starts, np.maximum).tolist() == [0, 4, 7]


def test_aggregate_arrays_keeps_empty_spans_empty():
    t = np.array([0, 1, 2, 30, 31], dtype=np.int64)
    v = np.array([1.0, -1.0, 1.0, 4.0, 4.0])
    result = m4_aggregate_arrays(t, v, 0, 40, 4)
    assert result.occupied.tolist() == [True, False, False, True]
    assert result[0].bottom == Point(1, -1.0)
    assert result[3].top == Point(30, 4.0)     # tie: earliest time
    assert result[1].is_empty()


def _span(first, last, bottom, top):
    return SpanAggregate(Point(*first), Point(*last), Point(*bottom),
                         Point(*top))


class TestColumnarResult:
    spans = (_span((0, 1.0), (9, 2.0), (5, -3.0), (7, 8.0)),
             SpanAggregate(),
             _span((20, 4.0), (29, 5.0), (20, 4.0), (29, 5.0)))

    def test_columns_round_trip_through_span_views(self):
        result = M4Result(0, 30, 3, self.spans)
        again = M4Result.from_columns(0, 30, 3, result.occupied,
                                      result.times, result.values)
        assert again.spans == self.spans
        assert again == result
        assert again.times[:, 0].tolist() == [0, 9, 5, 7]

    def test_equality_ignores_empty_columns_and_skipped(self):
        result = M4Result(0, 30, 3, self.spans)
        times = result.times.copy()
        times[:, 1] = 99                 # junk under an empty span
        other = M4Result.from_columns(0, 30, 3, result.occupied, times,
                                      result.values, skipped=((1, 2),))
        assert other == result
        assert other.degraded and not result.degraded
        assert result.with_skipped(((1, 2),)).skipped == ((1, 2),)

    def test_pickles_as_columns(self):
        result = M4Result(0, 30, 3, self.spans, skipped=((3, 4),))
        again = pickle.loads(pickle.dumps(result))
        assert again == result and again.skipped == ((3, 4),)
        assert again.rows() == result.rows()

    def test_rows_are_python_scalars(self):
        rows = M4Result(0, 30, 3, self.spans).rows()
        assert [type(x) for x in rows[0]] == [int] + [int, float] * 4


class TestFoldMembers:
    def test_interleaved_members_fold_to_their_extremes(self):
        # Two members of span 0 interleaved in time (no shared
        # timestamp), one member of span 2; BP tie goes to the earlier.
        span = np.array([0, 2, 0], dtype=np.int64)
        times = np.array([[10, 50, 11], [40, 60, 41],
                          [30, 55, 21], [12, 51, 39]], dtype=np.int64)
        values = np.array([[1.0, 5.0, 2.0], [3.0, 6.0, 4.0],
                           [-2.0, 5.0, -2.0], [9.0, 6.0, 9.0]])
        version = np.array([1, 2, 3], dtype=np.int64)
        spans, rows, t, v = fold_members(span, times, values, version)
        assert spans.tolist() == [0, 2]
        assert t[:, 0].tolist() == [10, 41, 21, 12]
        assert v[:, 0].tolist() == [1.0, 4.0, -2.0, 9.0]
        assert t[:, 1].tolist() == [50, 60, 55, 51]
        assert rows.tolist() == [[0, 1], [2, 1], [2, 1], [0, 1]]

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1], [1, 2, 0],
                                       [2, 1, 0]])
    def test_row_order_does_not_change_the_fold(self, order):
        # Two members of span 0 with a BP value tie at different times.
        span = np.array([0, 0, 1], dtype=np.int64)
        times = np.array([[10, 5, 50], [40, 45, 60],
                          [20, 30, 55], [12, 44, 51]], dtype=np.int64)
        values = np.array([[1.0, 0.0, 5.0], [3.0, 3.0, 6.0],
                           [-2.0, -2.0, 5.0], [9.0, 3.0, 6.0]])
        version = np.array([1, 2, 3], dtype=np.int64)
        spans, _rows, t, v = fold_members(
            span[order], times[:, order], values[:, order], version[order])
        assert spans.tolist() == [0, 1]
        assert t.tolist() == [[5, 50], [45, 60], [20, 55], [12, 51]]
        assert v.tolist() == [[0.0, 5.0], [3.0, 6.0], [-2.0, 5.0],
                              [9.0, 6.0]]

    def test_time_ties_go_to_the_newest_member(self):
        # Both members of span 0 start at 10 and hold their bottom at
        # 20: the newer (row 1) is the candidate for FP and BP.
        span = np.zeros(2, dtype=np.int64)
        times = np.array([[10, 10], [30, 25], [20, 20], [15, 16]],
                         dtype=np.int64)
        values = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [5.0, 3.0]])
        version = np.array([4, 7], dtype=np.int64)
        _spans, rows, t, v = fold_members(span, times, values, version)
        assert rows[:, 0].tolist() == [1, 0, 1, 0]
        assert v[:, 0].tolist() == [2.0, 1.0, 0.0, 5.0]

    @pytest.mark.parametrize("rows", [0, 1])
    def test_small_inputs(self, rows):
        span = np.zeros(rows, dtype=np.int64)
        times = np.ones((4, rows), dtype=np.int64)
        values = np.ones((4, rows))
        version = np.zeros(rows, dtype=np.int64)
        spans, picks, t, v = fold_members(span, times, values, version)
        assert spans.size == rows and t.shape == (4, rows)
        assert picks.shape == (4, rows)

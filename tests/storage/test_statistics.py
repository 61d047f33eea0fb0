"""Unit tests for chunk/page statistics (the Definition 2.4 metadata)."""

import numpy as np
import pytest

from repro.core.m4lsm.lazyload import fold_members
from repro.core.series import Point
from repro.errors import StorageError
from repro.storage import Statistics


@pytest.fixture
def stats():
    t = np.array([10, 20, 30, 40], dtype=np.int64)
    v = np.array([5.0, -1.0, 7.0, 2.0])
    return Statistics.from_arrays(t, v)


class TestFromArrays:
    def test_four_representation_points(self, stats):
        assert stats.first == Point(10, 5.0)
        assert stats.last == Point(40, 2.0)
        assert stats.bottom == Point(20, -1.0)
        assert stats.top == Point(30, 7.0)
        assert stats.count == 4

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            Statistics.from_arrays(np.empty(0, dtype=np.int64),
                                   np.empty(0))

    def test_single_point(self):
        stats = Statistics.from_arrays([7], [3.5])
        assert stats.first == stats.last == stats.bottom == stats.top \
            == Point(7, 3.5)

    def test_tied_extremes_pick_earliest(self):
        stats = Statistics.from_arrays([1, 2, 3], [9.0, 9.0, 9.0])
        assert stats.top == Point(1, 9.0)
        assert stats.bottom == Point(1, 9.0)


class TestIntervalPredicates:
    def test_overlaps_half_open(self, stats):
        assert stats.overlaps(40, 50)
        assert not stats.overlaps(41, 50)
        assert stats.overlaps(0, 11)
        assert not stats.overlaps(0, 10)

    def test_inside(self, stats):
        assert stats.inside(10, 41)
        assert not stats.inside(10, 40)  # end_time == t_end is excluded
        assert not stats.inside(11, 50)


def _merge(*members):
    """Statistics of the union of disjoint members, combined the way the
    GROUP BY fold combines a span's members: one ``fold_members`` row
    each, all in span 0."""
    points = [[s.first, s.last, s.bottom, s.top] for s in members]
    times = np.array([[p.t for p in row] for row in points],
                     dtype=np.int64).T
    values = np.array([[p.v for p in row] for row in points]).T
    span = np.zeros(len(members), dtype=np.int64)
    version = np.arange(len(members), dtype=np.int64)
    _spans, _rows, t, v = fold_members(span, times, values, version)
    first, last, bottom, top = (Point(int(t[i, 0]), float(v[i, 0]))
                                for i in range(4))
    return Statistics(sum(s.count for s in members), first, last, bottom,
                      top, sum(s.value_sum for s in members))


class TestMerge:
    def test_merge_combines_extremes(self, stats):
        other = Statistics.from_arrays([50, 60], [100.0, -100.0])
        merged = _merge(stats, other)
        assert merged.count == 6
        assert merged.first == Point(10, 5.0)
        assert merged.last == Point(60, -100.0)
        assert merged.top == Point(50, 100.0)
        assert merged.bottom == Point(60, -100.0)

    def test_merge_tie_breaks_on_time(self):
        a = Statistics.from_arrays([1], [5.0])
        b = Statistics.from_arrays([2], [5.0])
        assert _merge(a, b).top == Point(1, 5.0)
        assert _merge(b, a).top == Point(1, 5.0)


class TestSerialization:
    def test_roundtrip(self, stats):
        data = stats.to_bytes()
        assert len(data) == Statistics.SERIALIZED_SIZE
        assert Statistics.from_bytes(data) == stats

    def test_roundtrip_with_offset(self, stats):
        data = b"junk" + stats.to_bytes()
        assert Statistics.from_bytes(data, offset=4) == stats

    def test_truncated_raises(self, stats):
        with pytest.raises(StorageError):
            Statistics.from_bytes(stats.to_bytes()[:-1])

    def test_special_floats_roundtrip(self):
        stats = Statistics.from_arrays([1, 2], [np.inf, -np.inf])
        out = Statistics.from_bytes(stats.to_bytes())
        assert out.top.v == np.inf and out.bottom.v == -np.inf

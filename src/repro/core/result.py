"""M4 query results: per-span FP/LP/BP/TP aggregates.

Both operators (M4-UDF and M4-LSM) produce an :class:`M4Result`, so their
outputs compare directly — the equality used throughout the tests to show
the merge-free operator loses no precision.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .series import Point, TimeSeries


@dataclasses.dataclass(frozen=True)
class SpanAggregate:
    """The four representation points of one time span (Formula 1).

    ``None`` everywhere means the span holds no (surviving) points.
    """

    first: Point = None
    last: Point = None
    bottom: Point = None
    top: Point = None

    def is_empty(self):
        """True when the span had no data."""
        return self.first is None

    def points(self):
        """The distinct representation points, in time order."""
        present = [p for p in (self.first, self.last, self.bottom, self.top)
                   if p is not None]
        return sorted(set(present))

    def value_bounds(self):
        """``(bottom value, top value)`` of a non-empty span."""
        return self.bottom.v, self.top.v

    def semantically_equal(self, other):
        """Paper-faithful equivalence: FP/LP must match exactly; BP/TP
        may be any point attaining the same extreme value (the "any one"
        latitude of Definition 2.1)."""
        if self.is_empty() or other.is_empty():
            return self.is_empty() and other.is_empty()
        return (self.first == other.first
                and self.last == other.last
                and self.bottom.v == other.bottom.v
                and self.top.v == other.top.v)


def point_columns(items):
    """``(times, values)``, each of shape ``(4, len(items))`` with rows
    FP, LP, BP, TP, of objects carrying ``first`` / ``last`` / ``bottom``
    / ``top`` points (span aggregates, chunk statistics)."""
    points = [(i.first, i.last, i.bottom, i.top) for i in items]
    times = np.array([[p.t for p in four] for four in points],
                     dtype=np.int64).reshape(-1, 4).T
    values = np.array([[p.v for p in four] for four in points],
                      dtype=np.float64).reshape(-1, 4).T
    return times, values


def merge_time_ranges(ranges, t_qs=None, t_qe=None):
    """Clip half-open ``(start, end)`` ranges to ``[t_qs, t_qe)``, merge
    overlapping/adjacent ones, and return them as a sorted tuple.

    The canonical form of an :attr:`M4Result.skipped` list: operators
    collect one range per damaged chunk and normalize through here, so
    equal damage yields equal metadata regardless of discovery order.
    """
    clipped = []
    for start, end in ranges:
        start, end = int(start), int(end)
        if t_qs is not None:
            start = max(start, int(t_qs))
        if t_qe is not None:
            end = min(end, int(t_qe))
        if start < end:
            clipped.append((start, end))
    clipped.sort()
    merged = []
    for start, end in clipped:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


class M4Result:
    """Aggregates for all ``w`` spans of one M4 query, stored as columns.

    Attributes:
        t_qs: query start time (inclusive).
        t_qe: query end time (exclusive).
        w: number of time spans the range was divided into.
        occupied: bool array of length ``w``; False for an empty span.
        times: int64 array of shape ``(4, w)``, rows FP, LP, BP, TP;
            0 where the span is empty.
        values: float64 array of shape ``(4, w)``, same layout.
        skipped: canonical half-open time ranges of quarantined
            (damaged) chunks a degraded read left out — empty for a
            healthy query (see :func:`merge_time_ranges`).  Excluded
            from equality so a degraded M4-UDF and M4-LSM answer over
            the same surviving data still compare equal span-by-span.

    ``M4Result(t_qs, t_qe, w, spans)`` builds the columns from ``w``
    :class:`SpanAggregate` objects; operators use :meth:`from_columns`.
    :attr:`spans` turns the columns back into :class:`SpanAggregate`
    views on first access, so per-span callers keep working while the
    row, JSON and raster paths read the arrays directly.

    Raises:
        ValueError: when constructed with ``len(spans) != w``.
    """

    __slots__ = ("t_qs", "t_qe", "w", "occupied", "times", "values",
                 "skipped", "_spans")

    def __init__(self, t_qs, t_qe, w, spans, skipped=()):
        if len(spans) != w:
            raise ValueError("expected %d spans, got %d" % (w, len(spans)))
        occupied = np.array([not s.is_empty() for s in spans], dtype=bool)
        index = np.flatnonzero(occupied)
        times = np.zeros((4, w), dtype=np.int64)
        values = np.zeros((4, w), dtype=np.float64)
        times[:, index], values[:, index] = point_columns(
            [spans[i] for i in index.tolist()])
        self._init(t_qs, t_qe, w, occupied, times, values, skipped)
        self._spans = tuple(spans)

    @classmethod
    def from_columns(cls, t_qs, t_qe, w, occupied, times, values,
                     skipped=()):
        """A result over prepared columns (see the class attributes)."""
        result = cls.__new__(cls)
        result._init(t_qs, t_qe, w, occupied, times, values, skipped)
        return result

    def _init(self, t_qs, t_qe, w, occupied, times, values, skipped):
        self.t_qs = int(t_qs)
        self.t_qe = int(t_qe)
        self.w = int(w)
        self.occupied = occupied
        self.times = times
        self.values = values
        self.skipped = tuple(skipped)
        self._spans = None

    def with_skipped(self, skipped):
        """The same spans, flagged with other ``skipped`` ranges."""
        return M4Result.from_columns(self.t_qs, self.t_qe, self.w,
                                     self.occupied, self.times, self.values,
                                     skipped)

    @property
    def spans(self):
        """Exactly ``w`` :class:`SpanAggregate` objects, span order."""
        if self._spans is None:
            spans = [SpanAggregate()] * self.w
            times = self.times.T.tolist()
            values = self.values.T.tolist()
            for i in np.flatnonzero(self.occupied).tolist():
                (ft, lt, bt, tt), (fv, lv, bv, tv) = times[i], values[i]
                spans[i] = SpanAggregate(Point(ft, fv), Point(lt, lv),
                                         Point(bt, bv), Point(tt, tv))
            self._spans = tuple(spans)
        return self._spans

    def __eq__(self, other):
        if not isinstance(other, M4Result):
            return NotImplemented
        if (self.t_qs, self.t_qe, self.w) != (other.t_qs, other.t_qe,
                                              other.w):
            return False
        occupied = self.occupied
        return (np.array_equal(occupied, other.occupied)
                and np.array_equal(self.times[:, occupied],
                                   other.times[:, occupied])
                and np.array_equal(self.values[:, occupied],
                                   other.values[:, occupied]))

    __hash__ = None

    def __getstate__(self):
        return (self.t_qs, self.t_qe, self.w, self.occupied, self.times,
                self.values, self.skipped)

    def __setstate__(self, state):
        self._init(*state)

    def __repr__(self):
        return ("M4Result(t_qs=%d, t_qe=%d, w=%d, occupied=%d, skipped=%r)"
                % (self.t_qs, self.t_qe, self.w, int(self.occupied.sum()),
                   self.skipped))

    @property
    def degraded(self):
        """True when damaged chunks were skipped to produce this result."""
        return bool(self.skipped)

    def __len__(self):
        return self.w

    def __getitem__(self, i):
        return self.spans[i]

    def __iter__(self):
        return iter(self.spans)

    def non_empty_spans(self):
        """Indices of spans that contain data."""
        return np.flatnonzero(self.occupied).tolist()

    def rows(self):
        """The SQL result rows of Appendix A.1, one tuple per non-empty
        span: ``(span, first_t, first_v, last_t, last_v, bottom_t,
        bottom_v, top_t, top_v)``."""
        index = np.flatnonzero(self.occupied)
        times = self.times[:, index].tolist()
        values = self.values[:, index].tolist()
        return list(zip(index.tolist(), times[0], values[0], times[1],
                        values[1], times[2], values[2], times[3],
                        values[3]))

    def to_series(self):
        """The reduced series for rendering: all representation points,
        de-duplicated, in time order (at most ``4w`` points)."""
        occupied = self.occupied
        t = self.times[:, occupied].ravel()
        v = self.values[:, occupied].ravel()
        if not t.size:
            return TimeSeries.empty()
        order = np.lexsort((v, t))
        t, v = t[order], v[order]
        keep = np.ones(t.size, dtype=bool)
        keep[1:] = (t[1:] != t[:-1]) | (v[1:] != v[:-1])
        return TimeSeries(t[keep], v[keep])

    def total_points(self):
        """Distinct representation points across all spans."""
        return len(self.to_series())

    def semantically_equal(self, other):
        """Span-wise :meth:`SpanAggregate.semantically_equal`."""
        if (self.t_qs, self.t_qe, self.w) != (other.t_qs, other.t_qe, other.w):
            return False
        return all(a.semantically_equal(b)
                   for a, b in zip(self.spans, other.spans))

"""Metadata-accelerated GROUP BY aggregation, after IoTDB's
``GroupByExecutor``.

A span's statistics — the M4 points plus ``count`` and the value sum —
carry all nine span aggregates: ``count``, ``sum``, ``avg``,
``min_value``, ``max_value``, ``min_time``, ``max_time``,
``first_value``, ``last_value``.  So an :class:`AggregateResult` is an
:class:`~repro.core.result.M4Result` plus ``count`` and ``sums``
columns, and :func:`aggregate_lsm` is M4-LSM's preamble plus one fold.
:func:`~repro.core.m4lsm.operator.read_members` gives every span its
members as rows: whole chunks and exact fragments.  A whole chunk is
*contested* when its interval meets another member's or a newer delete
(:func:`~repro.core.m4lsm.lazyload.contested_whole`); only then can its
statistics disagree with its surviving points, and fragments never do.
All contested material — the contested whole chunks, each loaded once,
plus the fragments of their spans — is merged by one ``merge_arrays``
call and cut at the span bounds; one
:func:`~repro.core.m4lsm.lazyload.fold_members` plus per-span sums of
counts and values then answers every span from those merged rows and
the other members' statistics.

:func:`aggregate_udf` is the merge-everything baseline (oracle in tests,
baseline in benches): M4-UDF's merged series cut at the span bounds and
reduced by :func:`~repro.core.m4.segment_m4` in one pass.  Both honour
the degraded-read mode like the M4 operators.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError
from ..storage.deadline import check_deadline
from ..storage.merge import merge_arrays
from .m4 import M4UDFOperator, degraded_mode, load_chunks, segment_m4
from .m4lsm.lazyload import contested_whole, fold_members
from .m4lsm.operator import read_members
from .result import M4Result, merge_time_ranges
from .spans import all_span_bounds, span_starts, validate_query

#: Supported aggregate function names.
AGGREGATE_NAMES = ("count", "sum", "avg", "min_value", "max_value",
                   "min_time", "max_time", "first_value", "last_value")

#: ``(column, row)`` of the aggregates an M4 point answers.
_M4_DRAWN = {"min_value": ("values", 2), "max_value": ("values", 3),
             "min_time": ("times", 0), "max_time": ("times", 1),
             "first_value": ("values", 0), "last_value": ("values", 1)}


class AggregateResult(M4Result):
    """The M4 columns of every span plus its ``count`` (int64) and value
    ``sums`` (float64), answering the aggregates named in ``functions``.

    ``skipped`` holds the canonical time ranges of damaged chunks a
    degraded read left out, as for :class:`~repro.core.result.M4Result`.
    """

    __slots__ = ("functions", "count", "sums")

    @classmethod
    def from_columns(cls, t_qs, t_qe, w, occupied, times, values,
                     skipped=(), *, functions, count, sums):
        result = super().from_columns(t_qs, t_qe, w, occupied, times,
                                      values, skipped)
        result.functions, result.count, result.sums = functions, count, sums
        return result

    def array(self, function):
        """All spans' values of one aggregate (arbitrary where empty)."""
        if function not in self.functions:
            raise QueryError("aggregate %r was not computed" % function)
        if function == "count":
            return self.count
        if function == "sum":
            return self.sums
        if function == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                return self.sums / self.count
        column, row = _M4_DRAWN[function]
        return getattr(self, column)[row]

    def column(self, function):
        """All spans' values of one aggregate, ``None`` for an empty
        span."""
        return [value if full else None for value, full in zip(
            self.array(function).tolist(), self.occupied.tolist())]


def _validate_functions(functions):
    functions = tuple(f.lower() for f in functions)
    for function in functions:
        if function not in AGGREGATE_NAMES:
            raise QueryError("unknown aggregate %r (supported: %s)"
                             % (function, ", ".join(AGGREGATE_NAMES)))
    return functions


def _segments(t, v, t_qs, t_qe, w):
    """``(spans, times, values, count, sums)`` of a merged series cut at
    the span bounds, one column per occupied span."""
    spans, starts = span_starts(t, t_qs, t_qe, w)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.add.reduceat(v, starts)
    return (spans, *segment_m4(t, v, starts),
            np.diff(starts, append=t.size), sums)


def _result(t_qs, t_qe, w, functions, skipped, spans, times, values,
            count, sums):
    """The :class:`AggregateResult` of the occupied ``spans``' columns."""
    occupied = np.zeros(w, dtype=bool)
    occupied[spans] = True
    full_times = np.zeros((4, w), dtype=np.int64)
    full_values = np.zeros((4, w), dtype=np.float64)
    full_count = np.zeros(w, dtype=np.int64)
    full_sums = np.zeros(w, dtype=np.float64)
    full_times[:, spans], full_values[:, spans] = times, values
    full_count[spans], full_sums[spans] = count, sums
    return AggregateResult.from_columns(
        t_qs, t_qe, w, occupied, full_times, full_values,
        merge_time_ranges(skipped, t_qs, t_qe), functions=functions,
        count=full_count, sums=full_sums)


def aggregate_udf(engine, series, t_qs, t_qe, w, functions, degraded=None):
    """Baseline: merge every overlapping chunk, then cut the merged
    series at the span bounds and reduce every span in one pass."""
    functions = _validate_functions(functions)
    validate_query(t_qs, t_qe, w)
    skipped = []
    merged = M4UDFOperator(engine, degraded=degraded).merged_series(
        series, t_qs, t_qe, skipped=skipped)
    return _result(t_qs, t_qe, w, functions, skipped,
                   *_segments(merged.timestamps, merged.values, t_qs, t_qe,
                              w))


def aggregate_lsm(engine, series, t_qs, t_qe, w, functions, degraded=None):
    """Metadata-accelerated aggregation: M4-LSM's sweep, then a fold.

    Loads each split chunk once (the sweep) and each contested whole
    chunk once; uncontested members contribute their statistics only.
    """
    functions = _validate_functions(functions)
    validate_query(t_qs, t_qe, w)
    degraded = degraded_mode(engine, degraded)
    skipped = []
    _chunks, members, deletes, reader = read_members(
        engine, series, all_span_bounds(t_qs, t_qe, w), degraded, skipped)
    contested = contested_whole(members, deletes)
    merge = np.zeros(w, dtype=bool)
    merge[members.span[contested]] = True
    fragments = np.arange(members.span.size) < members.n_fragments
    merged = merge[members.span] & (contested | fragments)

    check_deadline()  # cancellation point: before the merge
    arrays = [(*members.points(row), members.version[row])
              for row in np.flatnonzero(merged & fragments).tolist()]
    arrays += load_chunks(engine, reader, [
        members.metas[row] for row in np.flatnonzero(contested).tolist()],
        degraded, skipped)
    t, v = merge_arrays(arrays, deletes)
    m_spans, m_times, m_values, m_count, m_sums = _segments(
        t, v, t_qs, t_qe, w)

    # A merged row meets no kept row in time, so its version (0) never
    # breaks a tie.
    keep = ~merged
    span = np.concatenate((members.span[keep], m_spans))
    spans, _rows, times, values = fold_members(
        span,
        np.concatenate((members.times[:, keep], m_times), axis=1),
        np.concatenate((members.values[:, keep], m_values), axis=1),
        np.concatenate((members.version[keep], np.zeros_like(m_spans))))
    count = np.bincount(span, minlength=w, weights=np.concatenate(
        (members.count[keep], m_count)))
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.bincount(span, minlength=w, weights=np.concatenate(
            (members.value_sums()[keep], m_sums)))
    return _result(t_qs, t_qe, w, functions, skipped, spans, times, values,
                   count[spans], sums[spans])

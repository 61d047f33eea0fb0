"""Metadata-accelerated GROUP BY aggregation, after IoTDB's
``GroupByExecutor``.

A span's statistics — the M4 points plus ``count`` and the value sum —
carry all nine span aggregates: ``count``, ``sum``, ``avg``,
``min_value``, ``max_value``, ``min_time``, ``max_time``,
``first_value``, ``last_value``.  So :func:`aggregate_lsm` is *sweep +
fold*.  M4-LSM's sweep (:func:`~repro.core.m4lsm.lazyload.sweep_spans`,
each split chunk opened once, with the points newer split chunks
rewrite removed) gives every span its members as rows: whole chunks and
exact fragments.  A whole chunk is *contested* when its interval meets
another chunk's or a newer delete
(:func:`~repro.storage.overlap.contested_versions`); only then can its
statistics disagree with its surviving points, and fragments never are.
Every span without a contested member folds its members' statistics for
all spans at once (:func:`~repro.core.m4lsm.lazyload.fold_members` plus
per-span sums of counts and values; no data read).  A span with one
merges its fragments and contested chunks with ``merge_arrays`` — a
contested whole chunk lies in one span, so it too is loaded once — and
folds the result into its uncontested chunks' statistics.

:func:`aggregate_udf` is the merge-everything baseline (oracle in tests,
baseline in benches): M4-UDF's merged series cut at the span bounds and
reduced by :func:`~repro.core.m4.segment_m4` in one pass.  Both honour
the degraded-read mode like the M4 operators.
"""

from __future__ import annotations

import dataclasses
from functools import partial, reduce

import numpy as np

from ..errors import QueryError
from ..storage.deadline import check_deadline
from ..storage.merge import merge_arrays
from ..storage.overlap import contested_versions
from ..storage.statistics import Statistics
from .m4 import (
    M4UDFOperator,
    degraded_mode,
    drop_quarantined,
    load_chunks,
    quarantine_chunk,
    segment_m4,
)
from .m4lsm.lazyload import fold_members, sweep_spans
from .result import merge_time_ranges, point_columns
from .spans import all_span_bounds, span_starts, validate_query

#: Supported aggregate function names.
AGGREGATE_NAMES = ("count", "sum", "avg", "min_value", "max_value",
                   "min_time", "max_time", "first_value", "last_value")


@dataclasses.dataclass(frozen=True)
class AggregateResult:
    """Per-span values for the requested aggregate functions.

    ``skipped`` holds the canonical time ranges of damaged chunks a
    degraded read left out, as for :class:`~repro.core.result.M4Result`.
    """

    t_qs: int
    t_qe: int
    w: int
    functions: tuple
    rows: tuple  # one tuple per span, aligned with `functions`
    skipped: tuple = dataclasses.field(default=(), compare=False)

    def __len__(self):
        return self.w

    def column(self, function):
        """All spans' values of one aggregate."""
        try:
            index = self.functions.index(function)
        except ValueError:
            raise QueryError("aggregate %r was not computed"
                             % function) from None
        return [row[index] for row in self.rows]

    def non_empty(self):
        """Indices of spans holding data."""
        return [i for i, row in enumerate(self.rows)
                if any(cell is not None for cell in row)]


def _validate_functions(functions):
    functions = tuple(f.lower() for f in functions)
    for function in functions:
        if function not in AGGREGATE_NAMES:
            raise QueryError("unknown aggregate %r (supported: %s)"
                             % (function, ", ".join(AGGREGATE_NAMES)))
    return functions


class _Columns:
    """Per-span statistics as arrays: the M4 columns of
    :class:`~repro.core.result.M4Result` plus ``count`` and ``sums``."""

    def __init__(self, w):
        self.occupied = np.zeros(w, dtype=bool)
        self.times = np.zeros((4, w), dtype=np.int64)
        self.values = np.zeros((4, w), dtype=np.float64)
        self.count = np.zeros(w, dtype=np.int64)
        self.sums = np.zeros(w, dtype=np.float64)

    def put(self, spans, times, values, count, sums):
        self.occupied[spans] = True
        self.times[:, spans] = times
        self.values[:, spans] = values
        self.count[spans] = count
        self.sums[spans] = sums

    def put_statistics(self, span, stats):
        self.put([span], *point_columns([stats]), stats.count,
                 stats.value_sum)

    def materialize(self, t_qs, t_qe, w, functions, skipped):
        """The :class:`AggregateResult` of ``functions`` over the spans."""
        with np.errstate(invalid="ignore", divide="ignore"):
            columns = {
                "count": self.count, "sum": self.sums,
                "avg": self.sums / self.count,
                "min_value": self.values[2], "max_value": self.values[3],
                "min_time": self.times[0], "max_time": self.times[1],
                "first_value": self.values[0], "last_value": self.values[1],
            }
        cells = zip(*(columns[f].tolist() for f in functions)) \
            if functions else [()] * w
        empty = (None,) * len(functions)
        rows = tuple(row if full else empty
                     for row, full in zip(cells, self.occupied.tolist()))
        return AggregateResult(int(t_qs), int(t_qe), int(w), functions,
                               rows,
                               skipped=merge_time_ranges(skipped, t_qs, t_qe))


def aggregate_udf(engine, series, t_qs, t_qe, w, functions, degraded=None):
    """Baseline: merge every overlapping chunk, then cut the merged
    series at the span bounds and reduce every span in one pass."""
    functions = _validate_functions(functions)
    validate_query(t_qs, t_qe, w)
    skipped = []
    merged = M4UDFOperator(engine, degraded=degraded).merged_series(
        series, t_qs, t_qe, skipped=skipped)
    t, v = merged.timestamps, merged.values
    columns = _Columns(w)
    if t.size:
        spans, starts = span_starts(t, t_qs, t_qe, w)
        with np.errstate(invalid="ignore", over="ignore"):
            sums = np.add.reduceat(v, starts)
        columns.put(spans, *segment_m4(t, v, starts),
                    np.diff(starts, append=t.size), sums)
    return columns.materialize(t_qs, t_qe, w, functions, skipped)


def aggregate_lsm(engine, series, t_qs, t_qe, w, functions, degraded=None):
    """Metadata-accelerated aggregation: M4-LSM's sweep, then a fold.

    Loads each split chunk once (the sweep) and each contested whole
    chunk once; uncontested members contribute their statistics only.
    """
    functions = _validate_functions(functions)
    validate_query(t_qs, t_qe, w)
    degraded = degraded_mode(engine, degraded)
    skipped = []
    chunks = engine.metadata_reader(series).chunks_overlapping(t_qs, t_qe)
    deletes = engine.deletes_for(series)
    if degraded:
        chunks = drop_quarantined(engine, chunks, skipped)
    reader = engine.data_reader()
    members = sweep_spans(
        chunks, all_span_bounds(t_qs, t_qe, w), deletes, reader,
        partial(quarantine_chunk, engine, skipped) if degraded else None)
    whole = np.arange(members.n_fragments, members.span.size)
    contested = whole[np.isin(members.version[whole],
                              list(contested_versions(chunks, deletes)))]
    merge = np.zeros(w, dtype=bool)
    merge[members.span[contested]] = True

    columns = _Columns(w)
    check_deadline()  # cancellation point: before the fold
    rows = ~merge[members.span]
    span = members.span[rows]
    spans, _rows, times, values = fold_members(
        span, members.times[:, rows], members.values[:, rows],
        members.version[rows])
    count = np.bincount(span, weights=members.count[rows], minlength=w)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.bincount(span, weights=members.value_sums()[rows],
                           minlength=w)
    columns.put(spans, times, values, count[spans], sums[spans])

    contested = set(contested.tolist())
    for i in np.flatnonzero(merge).tolist():
        check_deadline()  # cancellation point: between merged spans
        parts, arrays, load = [], [], []
        for row in members.rows_of(i):
            member = members.member(row)
            if members.is_fragment(row):
                arrays.append((member.data_t, member.data_v, member.version))
            elif row in contested:
                load.append(member)
            else:
                parts.append(member.statistics)
        arrays += load_chunks(engine, reader, load, degraded, skipped)
        t, v = merge_arrays(arrays, deletes)
        if t.size:
            parts.append(Statistics.from_arrays(t, v))
        if parts:
            columns.put_statistics(i, reduce(Statistics.merge, parts))
    return columns.materialize(t_qs, t_qe, w, functions, skipped)

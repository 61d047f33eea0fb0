"""Metadata-accelerated GROUP BY aggregation, after IoTDB's
``GroupByExecutor``.

A :class:`~repro.storage.statistics.Statistics` carries all nine span
aggregates — ``count``, ``sum``, ``avg``, ``min_value``, ``max_value``,
``min_time``, ``max_time``, ``first_value``, ``last_value`` — so
:func:`aggregate_lsm` is *sweep + fold*.  M4-LSM's sweep
(:func:`~repro.core.m4lsm.lazyload.sweep_spans`, each split chunk opened
once) gives every span its members: whole chunks and exact
:class:`~repro.core.m4lsm.candidates.Fragment` s.  A member is
*contested* when its chunk's interval meets another chunk's or a newer
delete (:func:`~repro.storage.overlap.contested_versions`); only then
can its statistics disagree with its surviving points.  Uncontested
members fold their statistics (:meth:`Statistics.merge`, no data read);
a span's contested members are merged with ``merge_arrays`` — a
contested whole chunk lies in one span, so it too is loaded once — and
fold in as one :meth:`Statistics.from_arrays`.

:func:`aggregate_udf` is the merge-everything baseline (oracle in tests,
baseline in benches): M4-UDF's merged series, one ``Statistics`` per
span.  Both honour the degraded-read mode like the M4 operators.
"""

from __future__ import annotations

import dataclasses
from functools import partial, reduce
from operator import attrgetter

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
)
from .m4lsm.candidates import Fragment
from .m4lsm.lazyload import sweep_spans
from .result import merge_time_ranges
from .spans import all_span_bounds, span_indices, validate_query

#: Each aggregate, read off a span's final statistics.
_READERS = {
    "count": attrgetter("count"),
    "sum": attrgetter("value_sum"),
    "avg": attrgetter("mean"),
    "min_value": attrgetter("bottom.v"),
    "max_value": attrgetter("top.v"),
    "min_time": attrgetter("first.t"),
    "max_time": attrgetter("last.t"),
    "first_value": attrgetter("first.v"),
    "last_value": attrgetter("last.v"),
}

#: Supported aggregate function names.
AGGREGATE_NAMES = tuple(_READERS)


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


def aggregate_udf(engine, series, t_qs, t_qe, w, functions, degraded=None):
    """Baseline: merge every overlapping chunk, then one ``Statistics``
    per occupied span."""
    functions = _validate_functions(functions)
    validate_query(t_qs, t_qe, w)
    skipped = []
    merged = M4UDFOperator(engine, degraded=degraded).merged_series(
        series, t_qs, t_qe, skipped=skipped)
    t, v = merged.timestamps, merged.values
    per_span = [None] * w
    if t.size:
        spans = span_indices(t, t_qs, t_qe, w)
        occupied, starts = np.unique(spans, return_index=True)
        ends = np.append(starts[1:], t.size)
        for span, start, end in zip(occupied.tolist(), starts.tolist(),
                                    ends.tolist()):
            per_span[span] = Statistics.from_arrays(t[start:end],
                                                    v[start:end])
    return _materialize(per_span, t_qs, t_qe, w, functions, skipped)


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
    members_per_span, _, _ = sweep_spans(
        chunks, all_span_bounds(t_qs, t_qe, w), deletes, reader,
        partial(quarantine_chunk, engine, skipped) if degraded else None)
    contested = contested_versions(chunks, deletes)

    per_span = []
    for members in members_per_span:
        check_deadline()  # cancellation point: between spans
        parts = [m.statistics for m in members if m.version not in contested]
        loose = [m for m in members if m.version in contested]
        if loose:
            arrays = [(m.data_t, m.data_v, m.version) for m in loose
                      if isinstance(m, Fragment)]
            arrays += load_chunks(engine, reader, [
                m for m in loose if not isinstance(m, Fragment)],
                degraded, skipped)
            t, v = merge_arrays(arrays, deletes)
            if t.size:
                parts.append(Statistics.from_arrays(t, v))
        per_span.append(reduce(Statistics.merge, parts) if parts else None)
    return _materialize(per_span, t_qs, t_qe, w, functions, skipped)


def _materialize(per_span, t_qs, t_qe, w, functions, skipped):
    readers = [_READERS[f] for f in functions]
    rows = tuple((None,) * len(readers) if stats is None
                 else tuple(read(stats) for read in readers)
                 for stats in per_span)
    return AggregateResult(int(t_qs), int(t_qe), int(w), functions, rows,
                           skipped=merge_time_ranges(skipped, t_qs, t_qe))

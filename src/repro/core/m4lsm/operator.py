"""The M4-LSM operator (Section 3, Algorithm 1): chunk-merge-free M4.

A query runs in three steps; the first two are :func:`read_members`,
which the GROUP BY aggregates share.  *Read metadata*: the chunks
overlapping the range and the series' deletes.  *Sweep*: a chunk wholly
inside one span enters it with its stored statistics; every chunk that a
span bound (or the range itself) splits is opened exactly once,
delete-filtered, stripped of the timestamps newer split chunks rewrite,
cut at all the span bounds it reaches, and enters each of those spans as
a fragment with exact statistics of its own — Definition 2.4 applied to
fragments, so a split chunk generates candidates like a whole one.
Every member lies inside its span, so no candidate can fall outside it.
*Solve*: Algorithm 1 runs in rounds over the members' columns.  Round 1
is one fold generating every span's candidates (Section 3.2,
:func:`~.lazyload.fold_members`) and one pass verifying them from
metadata (Sections 3.3/3.4, :func:`~.lazyload.verify_fold`); the
(span, function) pairs it cannot settle go on in
:class:`~.lazyload.SpanRounds`, which reads a whole chunk lazily and
only where a candidate fails.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ...obs import tracer_of
from ...storage.deadline import check_deadline
from ..m4 import (
    _count_degraded,
    degraded_mode,
    drop_quarantined,
    quarantine_chunk,
)
from ..result import M4Result, merge_time_ranges
from ..spans import all_span_bounds, validate_query
from .lazyload import SpanRounds, fold_members, sweep_spans, verify_fold
from .tracing import EMPTY, FUSED, SOLVER, QueryTrace, SpanTrace


def read_members(engine, series, bounds, degraded, skipped):
    """The preamble of every M4-LSM read: the chunks overlapping
    ``[bounds[0], bounds[-1])`` and the series' deletes (traced as
    ``read.metadata``), less the quarantined chunks in degraded mode,
    swept into the spans (traced as ``sweep``).

    Returns ``(chunks, members, real_deletes, data_reader)``; a damaged
    chunk a degraded read leaves out adds its range to ``skipped``.
    """
    tracer = tracer_of(engine)
    with tracer.span("read.metadata"):
        chunks = engine.metadata_reader(series).chunks_overlapping(
            int(bounds[0]), int(bounds[-1]))
        real_deletes = engine.deletes_for(series)
    if degraded:
        chunks = drop_quarantined(engine, chunks, skipped)
    data_reader = engine.data_reader()
    with tracer.span("sweep") as sweep_span:
        members = sweep_spans(
            chunks, bounds, real_deletes, data_reader,
            partial(quarantine_chunk, engine, skipped) if degraded else None)
        sweep_span.attrs["chunks"] = members.n_swept
        sweep_span.attrs["fragments"] = members.n_fragments
    return chunks, members, real_deletes, data_reader


class M4LSMOperator:
    """The database-native, merge-free M4 operator (Figure 2(c)).

    Args:
        engine: a :class:`repro.storage.engine.StorageEngine`.
        lazy: disable to load a whole chunk as soon as one of its FP/LP
            candidates dies, instead of walking its index (the E11
            ablation).
        use_regression: disable to fall back to binary-search chunk
            indexes (the E10 ablation).
        degraded: skip quarantined/corrupt chunks and flag the result
            instead of raising; ``None`` (default) follows
            ``engine.config.degraded_reads``.
    """

    name = "M4-LSM"

    def __init__(self, engine, lazy=True, use_regression=True,
                 degraded=None):
        self._engine = engine
        self._lazy = lazy
        self._use_regression = use_regression
        self._degraded = degraded

    def query(self, series_name, t_qs, t_qe, w):
        """Run the M4 representation query; returns :class:`M4Result`.

        Equivalent to Algorithm 1: chunk metadata and deletes are read
        once, split chunks are opened once by the sweep, and the spans
        are then solved together in rounds from their members.
        """
        result, _trace = self._execute(series_name, t_qs, t_qe, w,
                                       collect_trace=False)
        return result

    def query_traced(self, series_name, t_qs, t_qe, w):
        """Like :meth:`query`, also returning a per-span
        :class:`repro.core.m4lsm.tracing.QueryTrace` (EXPLAIN output)."""
        return self._execute(series_name, t_qs, t_qe, w,
                             collect_trace=True)

    def _execute(self, series_name, t_qs, t_qe, w, collect_trace):
        validate_query(t_qs, t_qe, w)
        tracer = tracer_of(self._engine)
        degraded = degraded_mode(self._engine, self._degraded)
        skipped = []   # (start, end) per damaged chunk left out
        with tracer.span("operator.m4lsm", series=series_name, w=w):
            stats = self._engine.stats
            bounds = all_span_bounds(t_qs, t_qe, w)
            before = stats.snapshot() if collect_trace else None
            chunks, members, real_deletes, data_reader = read_members(
                self._engine, series_name, bounds, degraded, skipped)
            swept = stats.diff(before) if collect_trace else None

            occupied = np.zeros(w, dtype=bool)
            occupied[members.span] = True
            times = np.zeros((4, w), dtype=np.int64)
            values = np.zeros((4, w), dtype=np.float64)
            with tracer.span("solve", spans=w,
                             chunks=len(chunks)) as solve_span:
                check_deadline()  # cancellation point: before the spans
                spans, rows, fold_times, fold_values = fold_members(
                    members.span, members.times, members.values,
                    members.version)
                settled = verify_fold(members, spans, rows, fold_times,
                                      real_deletes)
                times[:, spans] = fold_times
                values[:, spans] = fold_values
                contested = ~settled.all(axis=0)
                rounds = None
                if contested.any():
                    rounds = SpanRounds(
                        members, spans[contested], ~settled[:, contested],
                        fold_times[:, contested], fold_values[:, contested],
                        real_deletes, data_reader, lazy=self._lazy,
                        use_regression=self._use_regression,
                        on_damage=partial(quarantine_chunk, self._engine,
                                          skipped) if degraded else None,
                        stats=stats, trace=collect_trace)
                    rounds.run()
                    stats.add(candidate_iterations=int(
                        rounds.iterations.sum()))
                    solver = spans[contested]
                    times[:, solver] = rounds.span_times
                    values[:, solver] = rounds.span_values
                    occupied[solver[rounds.empty]] = False
                solve_span.attrs["fused"] = int(spans.size
                                                - contested.sum())
                solve_span.attrs["solver"] = int(contested.sum())
            result = M4Result.from_columns(
                t_qs, t_qe, w, occupied, times, values,
                skipped=merge_time_ranges(skipped, t_qs, t_qe))
            if result.degraded:
                _count_degraded(self._engine, self.name)
            trace = None
            if collect_trace:
                trace = QueryTrace(
                    series_name, int(t_qs), int(t_qe), int(w),
                    _span_traces(members, bounds.tolist(),
                                 spans[contested], rounds),
                    swept_chunks=members.n_swept,
                    sweep_chunk_loads=swept.chunk_loads,
                    sweep_pages_decoded=swept.pages_decoded)
            return result, trace


def _span_traces(members, span_bounds, solver, rounds):
    """One :class:`SpanTrace` per span for EXPLAIN: the ``solver`` spans
    went on in ``rounds`` after round 1."""
    w = len(span_bounds) - 1
    n_members = np.bincount(members.span, minlength=w).tolist()
    n_fragments = np.bincount(members.span[:members.n_fragments],
                              minlength=w).tolist()
    solved = {}
    if rounds is not None:
        for k, (left, iterations, loads, pages, lookups) in enumerate(zip(
                rounds.members_left().tolist(), rounds.iterations.tolist(),
                *rounds.costs.tolist())):
            solved[int(solver[k])] = dict(
                n_chunks=left, iterations=iterations, chunk_loads=loads,
                pages_decoded=pages, index_lookups=lookups)
    traces = []
    for i in range(w):
        start, end = span_bounds[i], span_bounds[i + 1]
        if not n_members[i]:
            traces.append(SpanTrace(i, start, end, EMPTY))
        elif i in solved:
            traces.append(SpanTrace(i, start, end, SOLVER,
                                    fragments=n_fragments[i], **solved[i]))
        else:
            traces.append(SpanTrace(i, start, end, FUSED,
                                    n_chunks=n_members[i],
                                    fragments=n_fragments[i]))
    return tuple(traces)

"""The M4-LSM operator (Section 3, Algorithm 1): chunk-merge-free M4.

A query runs in three steps; the first two are :func:`read_members`,
which the GROUP BY aggregates share.  *Read metadata*: the chunks
overlapping the range and the series' deletes.  *Sweep*: a chunk wholly
inside one span enters it with its stored statistics; every chunk that a
span bound (or the range itself) splits is opened exactly once,
delete-filtered, stripped of the timestamps newer split chunks rewrite,
cut at all the span bounds it reaches, and enters each of those spans as
a fragment with exact statistics of its own — Definition 2.4 applied to
fragments, so a split chunk generates candidates like a whole one
instead of failing verification against the span's virtual deletes once
per span.  *Solve*: Algorithm 1's first round runs for all spans at
once, in arrays — one fold generates the candidates (Section 3.2,
:func:`~.lazyload.fold_members`), one pass verifies them (Sections
3.3/3.4, :func:`~.lazyload.verify_fold`) — and only spans with a failing
candidate go to :class:`SpanSolver`, which iterates both steps, lazily
loading a whole chunk only when metadata cannot answer.  The span's
boundaries participate as virtual deletes, so a whole-chunk metadata
point outside the span is invalidated like a deleted one.

Invariant maintained by the solve loops: candidates are generated only
when no view has a pending (invalidated, not yet recomputed) point, and
every known metadata point bounds its view's true surviving extreme from
the optimistic side — so a candidate that survives verification is the
true representation point.  A fragment's statistics are exact, the
tightest such bound; only an overwrite by a newer member can still
invalidate them.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from ...errors import CorruptFileError, StorageError
from ...obs import tracer_of
from ...storage.deadline import check_deadline
from ...storage.deletes import DeleteList
from ..m4 import (
    _count_degraded,
    degraded_mode,
    drop_quarantined,
    quarantine_chunk,
)
from ..result import (
    M4Result,
    SpanAggregate,
    merge_time_ranges,
    point_columns,
)
from ..spans import all_span_bounds, validate_query
from .candidates import (
    BP,
    FP,
    LP,
    TP,
    ChunkView,
    Fragment,
    candidate_pool,
    pending_views,
)
from .lazyload import (
    fold_members,
    load_view_data,
    recalc_bottom_top,
    resolve_first,
    resolve_last,
    sweep_spans,
    tighten_first_bound,
    tighten_last_bound,
    verify_fold,
)
from .tracing import EMPTY, FUSED, SOLVER, QueryTrace, SpanTrace
from .verification import DELETED, verify_bp_tp, verify_fp_lp
from .virtual_deletes import deletes_with_span

#: Safety valve: a span solve that iterates this many times indicates a
#: broken invariant rather than a hard workload.
_MAX_ITERATIONS = 1_000_000


class SpanSolver:
    """Solves the four representation functions for one span."""

    def __init__(self, views, real_deletes, data_reader, stats=None,
                 lazy=True, use_regression=True):
        if not views:
            raise StorageError("SpanSolver needs at least one chunk view")
        self._views = views
        self._span_start = views[0].span_start
        self._span_end = views[0].span_end
        self._real_deletes = real_deletes
        # Only deletes reaching into the span can kill an in-span point;
        # a candidate outside it dies by a virtual delete either way.
        self._deletes = deletes_with_span(
            DeleteList(real_deletes.overlapping(self._span_start,
                                                self._span_end - 1)),
            self._span_start, self._span_end)
        self._reader = data_reader
        self._stats = stats
        self._lazy = lazy
        self._use_regression = use_regression
        self._iterations = 0

    def solve(self):
        """All four representation points as a :class:`SpanAggregate`."""
        try:
            first = self._solve_time_extreme(FP)
            if first is None:
                return SpanAggregate()
            last = self._solve_time_extreme(LP)
            bottom = self._solve_value_extreme(BP)
            top = self._solve_value_extreme(TP)
            return SpanAggregate(first=first, last=last, bottom=bottom,
                                 top=top)
        finally:
            # One locked add per solve, not one per iteration.
            if self._stats is not None:
                self._stats.add(candidate_iterations=self._iterations)

    # -- FP / LP ---------------------------------------------------------------------

    def _solve_time_extreme(self, function):
        views = self._views
        for _ in range(_MAX_ITERATIONS):
            self._iterations += 1
            pool = candidate_pool(views, function)
            pending = pending_views(views, function)
            if not pool:
                if not pending:
                    return None  # every view is dead: the span is empty
                self._resolve_time(self._best_pending(pending, function),
                                   function)
                continue
            view, candidate = pool[0]
            blocker = self._blocking_pending(pending, candidate, function)
            if blocker is not None:
                self._resolve_time(blocker, function)
                continue
            verdict = verify_fp_lp(candidate, view, self._deletes)
            if verdict.is_latest():
                return candidate
            if function == FP:
                tighten_first_bound(view, verdict.delete)
            else:
                tighten_last_bound(view, verdict.delete)
            if not self._lazy:
                self._resolve_time(view, function, eager=True)
        raise StorageError("FP/LP solve did not converge")

    def _best_pending(self, pending, function):
        if function == FP:
            return min(pending, key=lambda u: u.first_bound)
        return max(pending, key=lambda u: u.last_bound)

    def _blocking_pending(self, pending, candidate, function):
        """A pending view whose bound admits a point beating (or tying,
        hence possibly out-versioning) the current candidate."""
        if function == FP:
            blockers = [u for u in pending if u.first_bound <= candidate.t]
            return min(blockers, key=lambda u: u.first_bound) \
                if blockers else None
        blockers = [u for u in pending if u.last_bound >= candidate.t]
        return max(blockers, key=lambda u: u.last_bound) if blockers else None

    def _resolve_time(self, view, function, eager=False):
        if eager or not self._lazy:
            load_view_data(view, self._real_deletes, self._reader)
        if function == FP:
            resolve_first(view, self._deletes, self._reader,
                          self._use_regression)
        else:
            resolve_last(view, self._deletes, self._reader,
                         self._use_regression)

    # -- BP / TP ---------------------------------------------------------------------

    def _solve_value_extreme(self, function):
        views = self._views
        for _ in range(_MAX_ITERATIONS):
            self._iterations += 1
            for view in pending_views(views, function):
                recalc_bottom_top(view, self._real_deletes, self._reader,
                                  functions=(function,))
            pool = candidate_pool(views, function)
            if not pool:
                return None  # every view is dead: the span is empty
            # Only the best (earliest-t) candidate may be verified: a
            # failed view must recompute before a later-t value tie is
            # trusted, or the tie could resolve to the wrong timestamp.
            view, candidate = pool[0]
            verdict = verify_bp_tp(candidate, view, views, self._deletes,
                                   self._reader, self._use_regression)
            if verdict.is_latest():
                return candidate
            if verdict.status != DELETED:
                view.excluded.add(candidate.t)
            view.invalidate(function)
        raise StorageError("BP/TP solve did not converge")


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
        lazy: disable to force eager chunk reloading on every failed
            verification (the E11 ablation).
        use_regression: disable to fall back to binary-search chunk
            indexes (the E10 ablation).
        degraded: skip quarantined/corrupt chunks and flag the result
            instead of raising; ``None`` (default) follows
            ``engine.config.degraded_reads``.
    """

    name = "M4-LSM"

    def __init__(self, engine, lazy=True, use_regression=True,
                 fused_fast_path=True, degraded=None):
        self._engine = engine
        self._lazy = lazy
        self._use_regression = use_regression
        self._fused_fast_path = fused_fast_path
        self._degraded = degraded

    def _quarantine_bad(self, exc, members, skipped):
        """Quarantine the chunk behind a checksum failure; returns the
        surviving span members for a re-solve.

        The failing chunk is identified by the ``(file, data_offset)``
        the :class:`CorruptFileError` carries; when the error cannot be
        attributed, every whole chunk of the span is dropped
        (conservative: the span degrades rather than looping forever).
        Fragments are already loaded, so they are never the culprit.
        """
        whole = [m for m in members if not isinstance(m, Fragment)]
        target = getattr(exc, "chunk", None)
        bad = []
        if target is not None:
            t_file = os.path.basename(str(target[0]))
            t_offset = int(target[1])
            bad = [m for m in whole
                   if os.path.basename(m.file_path) == t_file
                   and m.data_offset == t_offset]
        if not bad:
            bad = whole
        for meta in bad:
            quarantine_chunk(self._engine, skipped, exc, meta)
        return [m for m in members if m not in bad]

    def query(self, series_name, t_qs, t_qe, w):
        """Run the M4 representation query; returns :class:`M4Result`.

        Equivalent to Algorithm 1: chunk metadata and deletes are read
        once, split chunks are opened once by the sweep, and each span
        is then solved independently from its members.
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
            solver = occupied.copy()
            times = np.zeros((4, w), dtype=np.int64)
            values = np.zeros((4, w), dtype=np.float64)
            solved = {}   # span -> SpanTrace fields, traced queries only
            span_bounds = bounds.tolist()
            with tracer.span("solve", spans=w,
                             chunks=len(chunks)) as solve_span:
                check_deadline()  # cancellation point: before the spans
                fused = np.empty(0, dtype=np.int64)
                if self._fused_fast_path:
                    spans, rows, fold_times, fold_values = fold_members(
                        members.span, members.times, members.values,
                        members.version)
                    settled = verify_fold(members, spans, rows, fold_times,
                                          real_deletes)
                    fused = spans[settled]
                    times[:, fused] = fold_times[:, settled]
                    values[:, fused] = fold_values[:, settled]
                    solver[fused] = False
                solver_spans = np.flatnonzero(solver).tolist()
                for i in solver_spans:
                    check_deadline()  # cancellation point: between spans
                    before = stats.snapshot() if collect_trace else None
                    aggregate, n_members = self._solve_span(
                        [members.member(row) for row in members.rows_of(i)],
                        span_bounds[i], span_bounds[i + 1], real_deletes,
                        data_reader, degraded, skipped)
                    if aggregate.is_empty():
                        occupied[i] = False
                    else:
                        times[:, [i]], values[:, [i]] = point_columns(
                            [aggregate])
                    if collect_trace:
                        diff = stats.diff(before)
                        solved[i] = dict(
                            n_chunks=n_members,
                            iterations=diff.candidate_iterations,
                            chunk_loads=diff.chunk_loads,
                            pages_decoded=diff.pages_decoded,
                            index_lookups=diff.index_lookups)
                solve_span.attrs["fused"] = len(fused)
                solve_span.attrs["solver"] = len(solver_spans)
            result = M4Result.from_columns(
                t_qs, t_qe, w, occupied, times, values,
                skipped=merge_time_ranges(skipped, t_qs, t_qe))
            if result.degraded:
                _count_degraded(self._engine, self.name)
            trace = None
            if collect_trace:
                trace = QueryTrace(
                    series_name, int(t_qs), int(t_qe), int(w),
                    _span_traces(members, span_bounds, solver, solved),
                    swept_chunks=members.n_swept,
                    sweep_chunk_loads=swept.chunk_loads,
                    sweep_pages_decoded=swept.pages_decoded)
            return result, trace

    def _solve_span(self, members, start, end, real_deletes, data_reader,
                    degraded, skipped):
        """``(SpanAggregate, members left)`` of one contested span; in
        degraded mode a damaged chunk is quarantined and the span
        re-solved from the survivors."""
        while members:
            views = [ChunkView(member, start, end) for member in members]
            solver = SpanSolver(views, real_deletes, data_reader,
                                stats=self._engine.stats, lazy=self._lazy,
                                use_regression=self._use_regression)
            try:
                return solver.solve(), len(members)
            except CorruptFileError as exc:
                if not degraded:
                    raise
                members = self._quarantine_bad(exc, members, skipped)
        return SpanAggregate(), 0


def _span_traces(members, span_bounds, solver, solved):
    """One :class:`SpanTrace` per span for EXPLAIN."""
    w = len(span_bounds) - 1
    n_members = np.bincount(members.span, minlength=w).tolist()
    n_fragments = np.bincount(members.span[:members.n_fragments],
                              minlength=w).tolist()
    traces = []
    for i in range(w):
        start, end = span_bounds[i], span_bounds[i + 1]
        if not n_members[i]:
            traces.append(SpanTrace(i, start, end, EMPTY))
        elif solver[i]:
            traces.append(SpanTrace(i, start, end, SOLVER,
                                    fragments=n_fragments[i], **solved[i]))
        else:
            traces.append(SpanTrace(i, start, end, FUSED,
                                    n_chunks=n_members[i],
                                    fragments=n_fragments[i]))
    return tuple(traces)

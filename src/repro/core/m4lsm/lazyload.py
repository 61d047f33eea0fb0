"""Chunk loading and metadata recomputation (Sections 3.3 and 3.4).

Two kinds of chunk reach a span.  One that a span bound splits is
loaded up front, once per query, by :func:`sweep_spans` (through
:func:`sweep_chunk`) and handed to each span it reaches as a
:class:`Fragment` with exact statistics; its views start out loaded.
The same sweep feeds the GROUP BY aggregates of
:mod:`repro.core.aggregation`.  One wholly inside the span starts from its
stored metadata and is *not* reloaded eagerly when a candidate fails
verification:

* FP/LP — the killing delete's boundary tightens the view's time bound;
  an actual recomputation, when finally needed, walks the chunk index
  (read type (b): the closest point after/before a timestamp), touching
  one page per probe instead of the whole chunk.
* BP/TP — other tied candidates are tried first; only when the pool is
  exhausted is the chunk's data loaded (read type (c)) and its
  bottom/top recomputed under deletes and known overwrites.

Either way a recomputation on loaded data is an in-memory search.
"""

from __future__ import annotations

import numpy as np

from ...errors import CorruptFileError
from ...storage.deadline import check_deadline
from ...storage.statistics import Statistics
from ..series import Point
from .candidates import BP, FP, LP, TP, Fragment


def sweep_spans(chunks, bounds, real_deletes, data_reader, on_damage=None):
    """Distribute the chunks over the spans, opening every chunk that is
    not wholly inside one span exactly once.

    Returns ``(per_span, n_swept, n_fragments)``; ``per_span[i]`` lists
    span ``i``'s members in chunk order: the :class:`ChunkMetadata` of a
    chunk wholly inside the span, or the :class:`Fragment` of a split
    chunk's surviving points there.  A split chunk that fails its
    checksum goes to ``on_damage(exc, meta)`` and contributes nothing;
    without a callback (strict mode) the error propagates.
    """
    t_qs, t_qe = int(bounds[0]), int(bounds[-1])
    w = len(bounds) - 1
    duration = t_qe - t_qs
    per_span = [[] for _ in range(w)]
    n_swept = n_fragments = 0
    for meta in chunks:
        lo = max(meta.start_time, t_qs)
        hi = min(meta.end_time, t_qe - 1)
        first_span = int((lo - t_qs) * w // duration)
        last_span = int((hi - t_qs) * w // duration)
        if first_span == last_span and lo == meta.start_time \
                and hi == meta.end_time:
            per_span[first_span].append(meta)
            continue
        check_deadline()  # cancellation point: between chunk loads
        try:
            fragments = sweep_chunk(meta, real_deletes, data_reader,
                                    bounds[first_span:last_span + 2])
        except CorruptFileError as exc:
            if on_damage is None:
                raise
            on_damage(exc, meta)
            continue
        n_swept += 1
        for i, fragment in enumerate(fragments, first_span):
            if fragment is not None:
                per_span[i].append(fragment)
                n_fragments += 1
    return per_span, n_swept, n_fragments


def sweep_chunk(meta, real_deletes, data_reader, bounds):
    """Load a split chunk once and cut it at the span bounds it reaches.

    ``bounds`` are consecutive span boundaries; entry ``j`` of the
    returned list is the :class:`Fragment` of the chunk's delete-filtered
    points in ``[bounds[j], bounds[j + 1])``, or ``None`` when none
    survive there.  Bottom/top come from the same ``argmin``/``argmax``
    as stored chunk statistics: value ties go to the earliest time.
    """
    t, v = data_reader.load_chunk(meta, deletes=real_deletes)
    cuts = np.searchsorted(t, bounds, side="left").tolist()
    fragments = [None] * (len(cuts) - 1)
    occupied = [j for j in range(len(cuts) - 1) if cuts[j] < cuts[j + 1]]
    if not occupied:
        return fragments
    los = [cuts[j] for j in occupied]
    his = [cuts[j + 1] for j in occupied]
    bottoms = [lo + int(v[lo:hi].argmin()) for lo, hi in zip(los, his)]
    tops = [lo + int(v[lo:hi].argmax()) for lo, hi in zip(los, his)]
    # Everything but the arg-extremes is taken for all fragments at
    # once (the non-empty ones tile rows [cuts[0], cuts[-1]) in order),
    # and only the 4 statistic rows per fragment become Python objects.
    rows = los + [hi - 1 for hi in his] + bottoms + tops
    points = list(map(Point, t[rows].tolist(), v[rows].tolist()))
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.add.reduceat(v[:his[-1]], los).tolist()
    k = len(occupied)
    for n, j in enumerate(occupied):
        lo, hi = los[n], his[n]
        fragments[j] = Fragment(
            meta,
            Statistics(hi - lo, points[n], points[k + n],
                       points[2 * k + n], points[3 * k + n], sums[n]),
            t[lo:hi], v[lo:hi])
    return fragments


def tighten_first_bound(view, delete):
    """Apply the paper's ``FP(C).t = t_de`` tightening after a delete hit.

    We store the first *admissible* time, one past the delete range.
    """
    view.invalidate(FP)
    view.first_bound = max(view.first_bound, delete.t_end + 1)


def tighten_last_bound(view, delete):
    """Symmetric tightening ``LP(C).t = t_ds`` for LastPoint."""
    view.invalidate(LP)
    view.last_bound = min(view.last_bound, delete.t_start - 1)


def resolve_first(view, deletes, data_reader, use_regression=True):
    """Recompute the view's surviving FirstPoint (read type (b)).

    Walks forward from ``view.first_bound``: the chunk index yields the
    closest data point at or after the bound; if a newer delete covers
    it, the bound jumps past that delete and the walk repeats.  Marks the
    view dead when the walk exhausts the chunk.
    """
    if view.loaded:
        _resolve_first_from_data(view, deletes)
        return
    index = view.chunk_index(data_reader, use_regression)
    bound = view.first_bound
    while True:
        row = index.position_after(bound - 1)
        if row is None:
            view.mark_dead(FP)
            return
        point = data_reader.point_at_row(view.meta, row)
        delete = _covering(point.t, view.version, deletes)
        if delete is None:
            view.set_point(FP, point)
            view.first_bound = point.t
            return
        bound = delete.t_end + 1


def resolve_last(view, deletes, data_reader, use_regression=True):
    """Recompute the view's surviving LastPoint (read type (b))."""
    if view.loaded:
        _resolve_last_from_data(view, deletes)
        return
    index = view.chunk_index(data_reader, use_regression)
    bound = view.last_bound
    while True:
        row = index.position_before(bound + 1)
        if row is None:
            view.mark_dead(LP)
            return
        point = data_reader.point_at_row(view.meta, row)
        delete = _covering(point.t, view.version, deletes)
        if delete is None:
            view.set_point(LP, point)
            view.last_bound = point.t
            return
        bound = delete.t_start - 1


def load_view_data(view, real_deletes, data_reader):
    """Materialize the view's in-span, delete-filtered points (type (c))."""
    if view.loaded:
        return
    t, v = data_reader.load_chunk(
        view.meta, deletes=real_deletes,
        time_range=(view.span_start, view.span_end))
    view.data_t = t
    view.data_v = v
    view.loaded = True


def recalc_bottom_top(view, real_deletes, data_reader, functions=(BP, TP)):
    """Recompute BottomPoint/TopPoint from loaded in-span data,
    excluding timestamps known to be overwritten."""
    load_view_data(view, real_deletes, data_reader)
    t, v = view.surviving_data()
    for function in functions:
        if t.size == 0:
            view.mark_dead(function)
            continue
        pos = int(np.argmin(v)) if function == BP else int(np.argmax(v))
        view.set_point(function, Point(int(t[pos]), float(v[pos])))


def _resolve_first_from_data(view, deletes):
    """FP from already-loaded data (deletes were applied at load; only
    the bound — which encodes virtual deletes — still applies)."""
    t, v = view.data_t, view.data_v
    pos = int(np.searchsorted(t, view.first_bound, side="left"))
    if pos >= t.size:
        view.mark_dead(FP)
        return
    view.set_point(FP, Point(int(t[pos]), float(v[pos])))
    view.first_bound = int(t[pos])


def _resolve_last_from_data(view, deletes):
    """LP from already-loaded data, bounded above by ``last_bound``."""
    t, v = view.data_t, view.data_v
    pos = int(np.searchsorted(t, view.last_bound, side="right")) - 1
    if pos < 0:
        view.mark_dead(LP)
        return
    view.set_point(LP, Point(int(t[pos]), float(v[pos])))
    view.last_bound = int(t[pos])


def _covering(t, version, deletes):
    for delete in deletes:
        if delete.version > version and delete.covers(t):
            return delete
    return None

"""Chunk loading and metadata recomputation (Sections 3.3 and 3.4).

Two kinds of chunk reach a span.  One that a span bound splits is
loaded up front, once per query, by :func:`sweep_spans`, stripped of
the timestamps newer loaded chunks rewrite, and handed to each span it
reaches as a fragment with exact statistics; the sweep returns every
member as a row of :class:`SpanMembers`; :func:`fold_members` and
:func:`verify_fold` settle every span whose candidates survive in one
array pass.  The same sweep feeds :mod:`repro.core.aggregation`.  A
chunk wholly inside the span starts from its stored metadata; in a span
the solver takes, its view is *not* reloaded eagerly when a candidate
fails verification:

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
from ..m4 import segment_m4
from ..result import point_columns
from ..series import Point
from .candidates import BP, FP, LP, TP, Fragment


class SpanMembers:
    """What the sweep hands the spans: one row per member, as columns.

    Rows ``[0, n_fragments)`` are the fragments of the split chunks, rows
    after them the chunks wholly inside one span.  Per row: ``span``,
    ``version``, ``count`` and the FP/LP/BP/TP columns ``times`` /
    ``values`` (shape ``(4, rows)``, the :class:`M4Result` layout) — a
    fragment's computed exactly from its points, a whole chunk's taken
    from its stored statistics.  Fragment ``k``'s points are rows
    ``starts[k]:starts[k + 1]`` of the concatenated ``data_t`` /
    ``data_v``.
    """

    def __init__(self, n_swept, frag_metas, frag_spans, data_t, data_v,
                 starts, whole, whole_spans):
        self.n_swept = n_swept
        self.n_fragments = len(frag_metas)
        self.metas = frag_metas + whole
        self.data_t = data_t
        self.data_v = data_v
        self.starts = starts
        self.span = np.array(frag_spans + whole_spans, dtype=np.int64)
        self.version = np.array([m.version for m in self.metas],
                                dtype=np.int64)
        stats = [m.statistics for m in whole]
        times, values = point_columns(stats)
        counts = np.array([s.count for s in stats], dtype=np.int64)
        if self.n_fragments:
            frag_times, frag_values = segment_m4(data_t, data_v, starts)
            times = np.concatenate((frag_times, times), axis=1)
            values = np.concatenate((frag_values, values), axis=1)
            counts = np.concatenate(
                (np.diff(starts, append=data_t.size), counts))
        self.times = times
        self.values = values
        self.count = counts

    def value_sums(self):
        """Per-row sum of values (fragments summed, whole chunks stored)."""
        sums = [m.statistics.value_sum
                for m in self.metas[self.n_fragments:]]
        if not self.n_fragments:
            return np.array(sums, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            frag_sums = np.add.reduceat(self.data_v, self.starts)
        return np.concatenate((frag_sums, sums))

    def is_fragment(self, row):
        return row < self.n_fragments

    def member(self, row):
        """Row ``row`` as the solver takes it: a whole chunk's
        :class:`ChunkMetadata`, or a :class:`Fragment`."""
        meta = self.metas[row]
        if not self.is_fragment(row):
            return meta
        lo = int(self.starts[row])
        hi = lo + int(self.count[row])
        (ft, lt, bt, tt), (fv, lv, bv, tv) = (self.times[:, row].tolist(),
                                              self.values[:, row].tolist())
        with np.errstate(invalid="ignore", over="ignore"):
            value_sum = float(self.data_v[lo:hi].sum())
        statistics = Statistics(hi - lo, Point(ft, fv), Point(lt, lv),
                                Point(bt, bv), Point(tt, tv), value_sum)
        return Fragment(meta, statistics, self.data_t[lo:hi],
                        self.data_v[lo:hi])

    def rows_of(self, span):
        """Row numbers of span ``span``'s members, in version order."""
        rows = np.flatnonzero(self.span == span)
        return rows[np.argsort(self.version[rows], kind="stable")].tolist()


def sweep_spans(chunks, bounds, real_deletes, data_reader, on_damage=None):
    """Distribute the chunks over the spans, opening every chunk that is
    not wholly inside one span exactly once.

    A split chunk is loaded delete-filtered; where loaded chunks
    overlap, each loses the timestamps a newer one rewrites, so no two
    fragments can overwrite each other.  Each is then cut at every span
    bound it reaches, and all fragments get their statistics from one
    :func:`~repro.core.m4.segment_m4` pass.  Returns a
    :class:`SpanMembers`.  A split chunk that fails its checksum goes to
    ``on_damage(exc, meta)`` and contributes nothing; without a callback
    (strict mode) the error propagates.
    """
    t_qs, t_qe = int(bounds[0]), int(bounds[-1])
    w = len(bounds) - 1
    duration = t_qe - t_qs
    whole, whole_spans, loaded = [], [], []
    for meta in chunks:
        lo = max(meta.start_time, t_qs)
        hi = min(meta.end_time, t_qe - 1)
        first_span = (lo - t_qs) * w // duration
        last_span = (hi - t_qs) * w // duration
        if first_span == last_span and lo == meta.start_time \
                and hi == meta.end_time:
            whole.append(meta)
            whole_spans.append(first_span)
            continue
        check_deadline()  # cancellation point: between chunk loads
        try:
            t, v = data_reader.load_chunk(meta, deletes=real_deletes)
        except CorruptFileError as exc:
            if on_damage is None:
                raise
            on_damage(exc, meta)
            continue
        loaded.append([meta, first_span, last_span, t, v])
    _drop_overwritten(loaded)

    frag_metas, frag_spans, parts_t, parts_v, parts_starts = [], [], [], [], []
    offset = 0
    for meta, first_span, last_span, t, v in loaded:
        cuts = np.searchsorted(t, bounds[first_span:last_span + 2])
        occupied = np.flatnonzero(cuts[1:] > cuts[:-1])
        if not occupied.size:
            continue
        lo, hi = int(cuts[0]), int(cuts[-1])
        parts_t.append(t[lo:hi])
        parts_v.append(v[lo:hi])
        parts_starts.append(cuts[occupied] - lo + offset)
        offset += hi - lo
        frag_metas += [meta] * occupied.size
        frag_spans += (occupied + first_span).tolist()
    if parts_t:
        data_t, data_v = np.concatenate(parts_t), np.concatenate(parts_v)
        starts = np.concatenate(parts_starts)
    else:
        data_t = data_v = starts = None
    return SpanMembers(len(loaded), frag_metas, frag_spans, data_t, data_v,
                       starts, whole, whole_spans)


def _drop_overwritten(loaded):
    """Remove from each loaded chunk the timestamps that a newer loaded
    chunk also holds (last write wins), in place.

    Only chunks whose intervals chain-overlap can share a timestamp, so
    each such group is resolved on its own with one stable sort of its
    timestamps, concatenated newest chunk first: among equal timestamps
    the newest then comes first and every later one is rewritten.  Both
    sides are already delete-filtered: a delete newer than the newer
    chunk removed the older point too, and one in between removed only
    the older point.
    """
    by_start = sorted(loaded, key=lambda item: item[0].start_time)
    groups = []
    end = None
    for item in by_start:
        meta = item[0]
        if end is not None and meta.start_time <= end:
            groups[-1].append(item)
            end = max(end, meta.end_time)
        else:
            groups.append([item])
            end = meta.end_time
    for group in groups:
        if len(group) < 2:
            continue
        group.sort(key=lambda item: -item[0].version)
        t = np.concatenate([item[3] for item in group])
        order = np.argsort(t, kind="stable")
        ordered = t[order]
        rewritten = np.zeros(t.size, dtype=bool)
        rewritten[order[1:]] = ordered[1:] == ordered[:-1]
        cuts = np.cumsum([item[3].size for item in group])[:-1]
        for item, gone in zip(group, np.split(rewritten, cuts)):
            if gone.any():
                item[3], item[4] = item[3][~gone], item[4][~gone]


def fold_members(span, times, values, version):
    """Per-span FP/LP/BP/TP candidates of the member rows: the earliest
    FP, the latest LP and the extreme BP/TP, a value tie going to the
    earliest time as in ``argmin`` and a time tie to the newest version.

    Returns ``(spans, rows, times, values)`` for the distinct spans in
    ascending order: each candidate's source row and its columns, shaped
    ``(4, spans)`` as in :class:`M4Result`.
    """
    newest = -version
    first = _heads(span, times[0], newest)
    last = _heads(span, -times[1], newest)
    bottom = _heads(span, values[2], times[2], newest)
    top = _heads(span, -values[3], times[3], newest)
    rows = np.stack((first, last, bottom, top))
    picks = np.arange(4)[:, None]
    return span[first], rows, times[picks, rows], values[picks, rows]


def verify_fold(members, spans, rows, times, real_deletes):
    """Mask over the folded ``spans`` of those whose four candidates
    survive verification (Sections 3.3 and 3.4, all spans at once).

    A candidate survives when no newer member of its span has an
    interval ``[FP.t, LP.t]`` covering its time and, for a whole chunk's,
    no newer real delete covers it.  Every member's metadata bounds the
    span's surviving extremes, so a surviving candidate is the answer.
    Fragments never contradict each other (delete-filtered and
    overwrite-free), so a query without whole chunks is settled as is,
    and each member is checked against its own span's candidates only
    in pairs with a whole chunk on at least one side.
    """
    settled = np.ones(spans.size, dtype=bool)
    first_whole = members.n_fragments
    if first_whole == members.span.size:
        return settled
    col = np.searchsorted(spans, members.span)
    cand, t = rows[:, col], times[:, col]
    version = members.version
    overwritten = ((version > version[cand])
                   & ((np.arange(col.size) >= first_whole)
                      | (cand >= first_whole))
                   & (members.times[0] <= t) & (t <= members.times[1]))
    settled[col[overwritten.any(axis=0)]] = False

    whole = rows >= first_whole
    t = times[whole]
    deleted = _newer_delete_meets(real_deletes, version[rows[whole]], t, t)
    settled[np.nonzero(whole)[1][deleted]] = False
    return settled


def contested_whole(members, real_deletes):
    """Mask over the member rows of the whole chunks whose statistics may
    disagree with their surviving points: those whose ``[FP.t, LP.t]``
    meets another member's or a newer real delete.

    Every member's interval lies inside its span and spans are disjoint,
    so one sort of all the intervals pairs each row only with its own
    span's.  In start order a row meets another exactly when it starts
    at or before the latest end seen so far or ends at or after the next
    start, which also catches a pair separated by a short interval.
    """
    start, end = members.times[0], members.times[1]
    order = np.argsort(start, kind="stable")
    start_order, end_order = start[order], end[order]
    meets = np.zeros(start.size, dtype=bool)
    meets[1:] = start_order[1:] <= np.maximum.accumulate(end_order)[:-1]
    meets[:-1] |= end_order[:-1] >= start_order[1:]
    contested = np.zeros(start.size, dtype=bool)
    contested[order] = meets
    whole = members.n_fragments
    contested[:whole] = False
    contested[whole:] |= _newer_delete_meets(
        real_deletes, members.version[whole:], start[whole:], end[whole:])
    return contested


def _newer_delete_meets(real_deletes, version, lo, hi):
    """Mask of the rows whose closed interval ``[lo, hi]`` meets a real
    delete newer than the row's ``version``."""
    deletes = real_deletes.overlapping(int(lo.min()), int(hi.max())) \
        if lo.size else None
    if not deletes:
        return np.zeros(lo.size, dtype=bool)
    d_start, d_end, d_version = np.array(
        [(d.t_start, d.t_end, d.version) for d in deletes],
        dtype=np.int64).T
    return ((d_version > version[:, None]) & (d_start <= hi[:, None])
            & (lo[:, None] <= d_end)).any(axis=1)


def _heads(span, *keys):
    """Per distinct span (ascending), the row ordered first by ``keys``."""
    order = np.lexsort(keys[::-1] + (span,))
    ordered = span[order]
    head = np.ones(ordered.size, dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    return order[head]


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

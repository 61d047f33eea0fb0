"""The sweep and Algorithm 1's rounds (Sections 3.2 to 3.4).

Two kinds of chunk reach a span.  One that a span bound splits is
loaded up front, once per query, by :func:`sweep_spans`, stripped of
the timestamps newer loaded chunks rewrite, and handed to each span it
reaches as a fragment with exact statistics.  A chunk wholly inside one
span enters it with its stored statistics.  Every member is a row of
:class:`SpanMembers`, and every row lies inside its span, so the span
bounds need no check of their own.  The same sweep feeds
:mod:`repro.core.aggregation`.

Algorithm 1 then runs in rounds over the rows.  Round 1 is
:func:`fold_members` plus :func:`verify_fold` over every span, from
metadata alone.  :class:`SpanRounds` runs the later rounds on the
(span, function) pairs whose candidate a newer member's interval or a
newer delete covers: it re-folds the live rows, then verifies every
candidate at once.  A whole chunk is corrected lazily, row by row, and
only where a candidate fails:

* FP/LP: the killing delete's boundary tightens the row's time bound.
  An actual recomputation, once the bound could beat the candidate,
  walks the chunk index (read type (b): the closest point after/before
  a timestamp), touching one page per probe.
* BP/TP: an overwrite is checked by a binary search in a loaded row or
  an index probe (``exists``, read type (a)).  A row whose candidate
  dies is loaded once (read type (c)) and recomputed from its surviving
  points, less the timestamps newer rows are known to rewrite.
"""

from __future__ import annotations

import numpy as np

from ...errors import CorruptFileError, StorageError
from ...storage.deadline import check_deadline
from ..m4 import segment_m4
from ..result import point_columns

#: Row of each representation function in the ``(4, n)`` columns.
FP, LP, BP, TP = range(4)

#: Safety valve: this many rounds indicate a broken invariant rather
#: than a hard workload.
_MAX_ROUNDS = 1_000_000


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

    def points(self, row):
        """A fragment row's in-span points ``(t, v)``."""
        lo = int(self.starts[row])
        hi = lo + int(self.count[row])
        return self.data_t[lo:hi], self.data_v[lo:hi]


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
    rows = np.stack([_heads(span, *_order(function, times, values),
                            -version) for function in range(4)])
    picks = np.arange(4)[:, None]
    return span[rows[0]], rows, times[picks, rows], values[picks, rows]


def verify_fold(members, spans, rows, times, real_deletes):
    """``(4, spans)`` mask of the folded candidates that survive
    verification from metadata alone (Sections 3.3 and 3.4, all spans
    at once): round 1 of Algorithm 1.

    A candidate survives when no newer real delete covers it and, for a
    BP/TP, no newer member of its span has an interval ``[FP.t, LP.t]``
    covering its time.  An FP/LP needs no overwrite check
    (Proposition 3.1): a newer point at its time would be the candidate.
    Every member's metadata bounds the span's surviving extremes, so a
    surviving candidate is the answer.  Fragments never contradict each
    other (delete-filtered and overwrite-free), so a query without whole
    chunks is settled as is, and only pairs with a whole chunk on at
    least one side are checked.
    """
    settled = np.ones(rows.shape, dtype=bool)
    whole = np.arange(members.span.size) >= members.n_fragments
    if not whole.any():
        return settled
    col = np.searchsorted(spans, members.span)
    covered = _covers(col, members.version, members.times[0],
                      members.times[1], whole, rows[BP:], times[BP:])
    for function, by_row in zip((BP, TP), covered):
        settled[function, col[by_row]] = False
    settled &= ~_deleted(_delete_columns(real_deletes, times, times),
                         members.version, whole, rows, times)
    return settled


class SpanRounds:
    """Algorithm 1's later rounds over the member rows of the contested
    spans: those with a candidate round 1 could not settle.

    Per row: its original interval ``[start, end]`` and its current
    FP/LP/BP/TP columns ``times``/``values``.  An FP/LP row whose point
    died is ``pending``, with its tightened bound in ``times``: its
    surviving point lies at or after (FP) or at or before (LP) the
    bound.  A row with no surviving point for a function is ``dead``
    for it.  A whole chunk loaded in a round keeps its in-span,
    delete-filtered points in ``data`` and its overwritten timestamps in
    ``excluded``; a fragment's points are loaded from the start.

    Each round takes one open function per span, in Algorithm 1's order
    FP, LP, BP, TP, and folds the span's live rows for it; the spans run
    side by side.  A pending FP/LP head is resolved first, since its
    bound could beat (or, on a time tie, out-version) every known point.
    Every other head is verified at once: the delete check, then for a
    BP/TP the overwrite probes on the newer rows whose interval covers
    it.  A head that survives settles its pair; every known point bounds
    its row's true surviving extreme from the optimistic side, so it is
    the answer.  A head that dies has its row corrected.

    Args:
        members: the query's :class:`SpanMembers`.
        spans: the contested spans, ascending.
        open_pairs: ``(4, spans)`` mask of the pairs round 1 left open.
        times, values: ``(4, spans)`` round 1's candidates.  Once
            :meth:`run` returns, ``span_times``/``span_values`` hold the
            answers and ``empty`` marks the spans left without a
            surviving point.
        on_damage: degraded mode's ``on_damage(exc, meta)``.  A chunk
            that fails its checksum is then left out and its span
            solved again from the rest; ``None`` (strict mode) lets the
            error propagate.
        stats: the engine's :class:`IoStats`.  With ``trace``, the chunk
            loads, pages decoded and index lookups of each span's rows
            accumulate in ``costs`` (shape ``(3, spans)``).
    """

    def __init__(self, members, spans, open_pairs, times, values,
                 real_deletes, data_reader, lazy=True, use_regression=True,
                 on_damage=None, stats=None, trace=False):
        contested = np.zeros(int(members.span.max()) + 1, dtype=bool)
        contested[spans] = True
        rows = np.flatnonzero(contested[members.span])
        self.rows = rows
        self.col = np.searchsorted(spans, members.span[rows])
        self.version = members.version[rows]
        self.whole = rows >= members.n_fragments
        self.start, self.end = members.times[0, rows], members.times[1, rows]
        self._initial = members.times[:, rows], members.values[:, rows]
        self.times = self._initial[0].copy()
        self.values = self._initial[1].copy()
        self.pending = np.zeros(self.times.shape, dtype=bool)
        self.dead = np.zeros(self.times.shape, dtype=bool)
        self.gone = np.zeros(rows.size, dtype=bool)
        self.data = {}
        self.excluded = {}
        self._indexes = {}
        self.open = open_pairs.copy()
        self.span_times, self.span_values = times.copy(), values.copy()
        self.empty = np.zeros(spans.size, dtype=bool)
        self.stale = np.zeros(spans.size, dtype=bool)
        self.iterations = np.zeros(spans.size, dtype=np.int64)
        self.costs = np.zeros((3, spans.size), dtype=np.int64) \
            if trace else None
        self._members = members
        self._deletes = real_deletes
        self._delete_columns = _delete_columns(real_deletes, self.start,
                                               self.end)
        self._reader = data_reader
        self._lazy = lazy
        self._use_regression = use_regression
        self._on_damage = on_damage
        self._stats = stats

    def run(self):
        """Run rounds until every pair is settled."""
        for _ in range(_MAX_ROUNDS):
            if not self.open.any():
                return
            check_deadline()  # cancellation point: between rounds
            self._round()
        raise StorageError("Algorithm 1 did not converge")

    def members_left(self):
        """Per span, its members less the damaged chunks left out."""
        return np.bincount(self.col[~self.gone],
                           minlength=self.empty.size)

    def _round(self):
        # One function per span and round, in Algorithm 1's order FP, LP,
        # BP, TP: an FP walk that proves the span empty spares the rest,
        # and a BP's loads spare the TP's probes.
        cols = np.flatnonzero(self.open.any(axis=0))
        functions = self.open[:, cols].argmax(axis=0)
        self.iterations[cols] += 1
        self.stale[:] = False
        rows = self._fold(functions, cols)
        # A function with no live row left proves the span empty.
        empty = cols[rows < 0]
        self.empty[empty] = True
        self.open[:, empty] = False
        self.span_times[:, empty] = 0
        self.span_values[:, empty] = 0
        functions, cols, rows = (a[rows >= 0] for a in (functions, cols,
                                                        rows))

        pending = self.pending[functions, rows]
        for function, row in zip(functions[pending].tolist(),
                                 rows[pending].tolist()):
            self._io(row, self._resolve, function, row)
        keep = ~pending & ~self.stale[cols]
        functions, cols, rows = functions[keep], cols[keep], rows[keep]
        at = self.times[functions, rows]
        failed = _deleted(self._delete_columns, self.version, self.whole,
                          rows, at)
        failed |= self._rewritten(functions, cols, rows, at, ~failed)
        keep = ~self.stale[cols]
        done = keep & ~failed
        self.span_times[functions[done], cols[done]] = at[done]
        self.span_values[functions[done], cols[done]] = \
            self.values[functions[done], rows[done]]
        self.open[functions[done], cols[done]] = False
        for function, col, row, t in zip(
                *(a[keep & failed].tolist() for a in (functions, cols, rows,
                                                      at))):
            if self.stale[col]:
                continue
            if function < BP:
                self._tighten(function, row)
            else:
                self._io(row, self._recompute, function, row, t)

    def _fold(self, functions, cols):
        """The head row of each span ``cols`` for its function, ``-1``
        where no live row is left.  A pending FP/LP row enters with its
        bound and goes before a known point at the same time."""
        heads = np.full(self.open.shape[1], -1)
        for function in set(functions.tolist()):
            ready = np.zeros(heads.size, dtype=bool)
            ready[cols[functions == function]] = True
            live = np.flatnonzero(ready[self.col] & ~self.dead[function])
            if live.size:
                head = live[_heads(
                    self.col[live],
                    *_order(function, self.times[:, live],
                            self.values[:, live]),
                    ~self.pending[function, live], -self.version[live])]
                heads[self.col[head]] = head
        return heads[cols]

    def _rewritten(self, functions, cols, rows, at, alive):
        """Mask of the BP/TP candidates a newer row rewrites (Section
        3.4): among the newer rows whose interval covers the candidate,
        oldest first, one holds its time.  Only ``alive`` candidates
        are checked."""
        check = alive & (functions >= BP)
        heads = np.full(self.open.shape[1], -1)
        times = np.zeros(heads.size, dtype=np.int64)
        heads[cols[check]] = rows[check]
        times[cols[check]] = at[check]
        covers = (_covers(self.col, self.version, self.start, self.end,
                          self.whole, heads[None], times[None])[0]
                  & (heads[self.col] >= 0) & ~self.gone)
        rewritten = np.zeros(heads.size, dtype=bool)
        probes = np.flatnonzero(covers)
        for row in probes[np.lexsort((self.version[probes],
                                      self.col[probes]))].tolist():
            col = self.col[row]
            if not (rewritten[col] or self.stale[col]):
                rewritten[col] = bool(self._io(
                    row, self._has_time, row, int(times[col])))
        return rewritten[cols] & check

    def _tighten(self, function, row):
        """The paper's ``FP(C).t = t_de`` (``LP(C).t = t_ds``) after a
        delete kills the row's FP (LP): the row turns pending with its
        bound just past the delete.  Without ``lazy`` it is resolved on
        the spot from its loaded points."""
        delete = _covering(int(self.times[function, row]),
                           self.version[row], self._deletes)
        self.times[function, row] = delete.t_end + 1 if function == FP \
            else delete.t_start - 1
        self.pending[function, row] = True
        if not self._lazy:
            self._io(row, self._resolve, function, row)

    def _resolve(self, function, row):
        """The row's surviving FP (LP) at or after (before) its bound:
        a binary search in loaded points, else a walk over the chunk
        index (read type (b)) that jumps past each newer delete."""
        bound = int(self.times[function, row])
        self.pending[function, row] = False
        if not self._lazy or not self.whole[row] or row in self.data:
            t, v = self._points(row)
            pos = int(np.searchsorted(t, bound)) if function == FP \
                else int(np.searchsorted(t, bound, side="right")) - 1
            if not 0 <= pos < t.size:
                self.dead[function, row] = True
                return
            self.times[function, row], self.values[function, row] = \
                t[pos], v[pos]
            return
        index = self._index(row)
        meta = self._meta(row)
        while True:
            pos = index.position_after(bound - 1) if function == FP \
                else index.position_before(bound + 1)
            if pos is None:
                self.dead[function, row] = True
                return
            point = self._reader.point_at_row(meta, pos)
            delete = _covering(point.t, self.version[row], self._deletes)
            if delete is None:
                break
            bound = delete.t_end + 1 if function == FP \
                else delete.t_start - 1
        self.times[function, row], self.values[function, row] = point

    def _has_time(self, row, t):
        """Point existence at ``t``: a binary search in loaded points,
        else an index probe (``exists``, read type (a)).  Deleted points
        are filtered out of loaded points, which cannot hide an
        overwrite: a delete that removed this chunk's point at ``t``
        removes ``t`` from every older chunk too, so a candidate there
        fails the delete check before it gets to ask."""
        if self.whole[row] and row not in self.data:
            return self._index(row).exists(t)
        data_t = self._points(row)[0]
        pos = int(np.searchsorted(data_t, t))
        return pos < data_t.size and int(data_t[pos]) == t

    def _recompute(self, function, row, t):
        """The row's BP (TP) from its surviving points, loading the row
        first (read type (c)).  A dead candidate ``t`` that passed the
        delete check was rewritten by a newer row, so it is excluded
        from now on; every excluded timestamp is a point of the row, so
        one binary search finds it."""
        data_t, data_v = self._points(row)
        excluded = self.excluded.setdefault(row, [])
        pos = int(np.searchsorted(data_t, t))
        if pos < data_t.size and int(data_t[pos]) == t:
            excluded.append(t)
        if excluded:
            keep = np.ones(data_t.size, dtype=bool)
            keep[np.searchsorted(data_t, excluded)] = False
            data_t, data_v = data_t[keep], data_v[keep]
        if not data_t.size:
            self.dead[function, row] = True
            return
        pos = int(np.argmin(data_v) if function == BP
                  else np.argmax(data_v))
        self.times[function, row], self.values[function, row] = \
            data_t[pos], data_v[pos]

    def _points(self, row):
        """The row's in-span, delete-filtered points, loaded once."""
        data = self.data.get(row)
        if data is None:
            data = self.data[row] = \
                self._reader.load_chunk(self._meta(row),
                                        deletes=self._deletes) \
                if self.whole[row] \
                else self._members.points(int(self.rows[row]))
        return data

    def _meta(self, row):
        return self._members.metas[int(self.rows[row])]

    def _index(self, row):
        """The row's chunk index, built once."""
        index = self._indexes.get(row)
        if index is None:
            index = self._indexes[row] = self._reader.chunk_index(
                self._meta(row), self._use_regression)
        return index

    def _io(self, row, read, *args):
        """``read(*args)``, which reads row ``row``'s chunk.  Traced, its
        cost is charged to the row's span.  In degraded mode a checksum
        failure leaves the chunk out instead (returning ``None``)."""
        before = self._stats.snapshot() if self.costs is not None else None
        try:
            return read(*args)
        except CorruptFileError as exc:
            if self._on_damage is None:
                raise
            self._on_damage(exc, self._meta(row))
            self._drop(row)
            return None
        finally:
            if before is not None:
                spent = self._stats.diff(before)
                self.costs[:, self.col[row]] += (
                    spent.chunk_loads, spent.pages_decoded,
                    spent.index_lookups)

    def _drop(self, row):
        """Leave a damaged row out and start its span over: every other
        row goes back to its metadata (keeping its loaded points), every
        pair of the span reopens, and the span sits out this round."""
        col = self.col[row]
        self.gone[row] = True
        rows = self.col == col
        self.times[:, rows] = self._initial[0][:, rows]
        self.values[:, rows] = self._initial[1][:, rows]
        self.pending[:, rows] = False
        self.dead[:, rows] = self.gone[rows]
        for other in np.flatnonzero(rows).tolist():
            self.excluded.pop(other, None)
        self.open[:, col] = True
        self.stale[col] = True


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
    start, end = start[whole:], end[whole:]
    contested[whole:] |= _newer_delete_meets(
        _delete_columns(real_deletes, start, end), members.version[whole:],
        start, end)
    return contested


def _delete_columns(real_deletes, lo, hi):
    """``(t_start, t_end, version)`` columns of the real deletes that
    meet ``[lo.min(), hi.max()]``; none for no rows."""
    deletes = real_deletes.overlapping(int(lo.min()), int(hi.max())) \
        if lo.size else ()
    return np.array([(d.t_start, d.t_end, d.version) for d in deletes],
                    dtype=np.int64).reshape(-1, 3).T


def _newer_delete_meets(deletes, version, lo, hi):
    """Mask of the rows whose closed interval ``[lo, hi]`` meets one of
    the ``deletes`` columns newer than the row's ``version``."""
    d_start, d_end, d_version = deletes
    return ((d_version > version[:, None]) & (d_start <= hi[:, None])
            & (lo[:, None] <= d_end)).any(axis=1)


def _heads(span, *keys):
    """Per distinct span (ascending), the row ordered first by ``keys``."""
    order = np.lexsort(keys[::-1] + (span,))
    ordered = span[order]
    head = np.ones(ordered.size, dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    return order[head]


def _order(function, times, values):
    """Sort keys of one function's candidates, best first: the earliest
    FP, the latest LP, the lowest BP and the highest TP, a value tie
    going to the earliest time."""
    if function == FP:
        return (times[FP],)
    if function == LP:
        return (-times[LP],)
    if function == BP:
        return values[BP], times[BP]
    return -values[TP], times[TP]


def _covers(col, version, start, end, whole, heads, t):
    """``(k, rows)`` mask: row ``r`` is newer than its span's candidate
    ``heads[:, col[r]]``, the pair holds a whole chunk, and ``r``'s
    interval ``[start, end]`` covers the candidate's time
    ``t[:, col[r]]`` (Section 3.4, case (1): no point need exist
    there)."""
    cand, t = heads[:, col], t[:, col]
    return ((version > version[cand]) & (whole | whole[cand])
            & (start <= t) & (t <= end))


def _deleted(deletes, version, whole, rows, t):
    """Mask over candidate ``rows`` (any shape) of those one of the
    ``deletes`` columns newer than their row covers at time ``t``.  Only
    a whole chunk's statistics can hold a deleted point: a fragment's, a
    loaded row's and a walked point survive every delete."""
    deleted = np.zeros(rows.shape, dtype=bool)
    check = whole[rows]
    t = t[check]
    deleted[check] = _newer_delete_meets(deletes, version[rows[check]], t, t)
    return deleted


def _covering(t, version, deletes):
    """The first delete newer than ``version`` that covers ``t``."""
    for delete in deletes:
        if delete.version > version and delete.covers(t):
            return delete
    return None

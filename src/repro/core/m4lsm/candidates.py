"""Chunk views and candidate generation (Section 3.2).

A :class:`ChunkView` is the per-span mutable state of one chunk: it
starts with the chunk's optimistic whole-chunk metadata points and is
progressively corrected as candidates fail verification — time bounds
tighten, representation points are recomputed under deletes, overwritten
timestamps are excluded.  Candidate generation picks, per representation
function, the extreme point among the views' current metadata, breaking
value ties by earliest timestamp (matching the UDF's ``argmin``/
``argmax`` first-occurrence semantics, so results never depend on chunk
layout) and timestamp ties by the largest version (the ``argmax
P.kappa`` of Section 3.2).

A chunk that a span bound splits enters a span as a :class:`Fragment`:
the part of it inside the span, already loaded and delete-filtered by
the operator's sweep, with *exact* statistics — Definition 2.4 applied
to the fragment — so it generates candidates like a whole chunk whose
metadata happens to be right.
"""

from __future__ import annotations

import numpy as np

#: The four representation function tags.
FP, LP, BP, TP = "FP", "LP", "BP", "TP"
ALL_FUNCTIONS = (FP, LP, BP, TP)


class Fragment:
    """The part of a split chunk that falls inside one span.

    ``statistics`` are exact for ``data_t``/``data_v``: the chunk's
    in-span points after every real delete newer than the chunk.
    """

    __slots__ = ("meta", "version", "statistics", "data_t", "data_v")

    def __init__(self, meta, statistics, data_t, data_v):
        self.meta = meta
        self.version = meta.version
        self.statistics = statistics
        self.data_t = data_t
        self.data_v = data_v


class ChunkView:
    """Per-span view of one chunk's metadata and (lazily loaded) data.

    Built from a :class:`~repro.storage.chunk.ChunkMetadata` (a chunk
    wholly inside the span: optimistic statistics, data not loaded) or
    from a :class:`Fragment` (exact statistics, data already loaded).

    Point attributes hold the current best-known representation points:
    a :class:`Point` (possibly optimistic — not yet verified), or ``None``
    when the previous point was invalidated and a recomputation is
    pending, with the ``*_dead`` flag set once the chunk is known to have
    no surviving point for that function inside the span.
    """

    __slots__ = ("meta", "version", "statistics", "span_start", "span_end",
                 "first", "first_bound", "first_dead",
                 "last", "last_bound", "last_dead",
                 "bottom", "bottom_dead", "top", "top_dead",
                 "excluded", "loaded", "data_t", "data_v", "_index")

    def __init__(self, source, span_start, span_end):
        fragment = isinstance(source, Fragment)
        self.meta = source.meta if fragment else source
        self.version = source.version
        self.span_start = span_start
        self.span_end = span_end
        self.statistics = stats = source.statistics
        self.first = stats.first
        self.first_bound = stats.start_time  # surviving first time is >= this
        self.first_dead = False
        self.last = stats.last
        self.last_bound = stats.end_time     # surviving last time is <= this
        self.last_dead = False
        self.bottom = stats.bottom
        self.bottom_dead = False
        self.top = stats.top
        self.top_dead = False
        self.excluded = set()   # timestamps known overwritten by newer chunks
        self.loaded = fragment  # in-span, delete-filtered data materialized
        self.data_t = source.data_t if fragment else None
        self.data_v = source.data_v if fragment else None
        self._index = None

    # -- generic accessors keyed by function tag --------------------------------

    def get_point(self, function):
        """Current metadata point for ``function`` (may be optimistic)."""
        return getattr(self, _ATTR[function])

    def set_point(self, function, point):
        """Install a recomputed (now exact) representation point."""
        setattr(self, _ATTR[function], point)

    def invalidate(self, function):
        """Mark the function's point as pending recomputation."""
        setattr(self, _ATTR[function], None)

    def is_dead(self, function):
        """True once the chunk has no surviving point for ``function``."""
        return getattr(self, _DEAD[function])

    def mark_dead(self, function):
        """Record that no surviving point exists for ``function``."""
        setattr(self, _DEAD[function], True)
        setattr(self, _ATTR[function], None)

    def is_pending(self, function):
        """True when the point was invalidated but the view is not dead."""
        return self.get_point(function) is None and not self.is_dead(function)

    # -- interval / index helpers ------------------------------------------------

    def interval_covers(self, t):
        """Interval test of Section 3.4 (not point existence) on the
        view's statistics: the whole chunk's, or the fragment's."""
        return self.statistics.covers_time(t)

    def has_time(self, t, data_reader, use_regression=True):
        """Point existence at ``t``: a binary search in the loaded data,
        else an index probe (``exists``, read type (a)).  Deleted points
        are filtered out of loaded data, which cannot hide an overwrite:
        a delete that removed this chunk's point at ``t`` removes ``t``
        from every older chunk too, so a candidate there fails the
        delete check before it gets to ask."""
        if not self.loaded:
            return self.chunk_index(data_reader, use_regression).exists(t)
        pos = int(np.searchsorted(self.data_t, t))
        return pos < self.data_t.size and int(self.data_t[pos]) == t

    def chunk_index(self, data_reader, use_regression=True):
        """The chunk's index, built once per view."""
        if self._index is None:
            self._index = data_reader.chunk_index(self.meta, use_regression)
        return self._index

    def surviving_data(self):
        """Loaded in-span data minus excluded timestamps.

        Every excluded timestamp is one of this view's own candidates
        that passed the delete check, so it is a row of the loaded
        (delete-filtered, in-span) data and one binary search finds it.
        """
        if not self.excluded:
            return self.data_t, self.data_v
        keep = np.ones(self.data_t.size, dtype=bool)
        keep[np.searchsorted(self.data_t, list(self.excluded))] = False
        return self.data_t[keep], self.data_v[keep]

    def __repr__(self):
        return ("ChunkView(v=%s, [%d, %d], loaded=%s)"
                % (self.version, self.meta.start_time, self.meta.end_time,
                   self.loaded))


_ATTR = {FP: "first", LP: "last", BP: "bottom", TP: "top"}
_DEAD = {FP: "first_dead", LP: "last_dead", BP: "bottom_dead",
         TP: "top_dead"}


def known_candidates(views, function):
    """``(view, point)`` pairs whose metadata point is currently known."""
    return [(view, view.get_point(function)) for view in views
            if view.get_point(function) is not None]


def pending_views(views, function):
    """Views whose point for ``function`` awaits recomputation."""
    return [view for view in views if view.is_pending(function)]


def candidate_pool(views, function):
    """The paper's ``P'_G`` ordered for iteration: the known points
    attaining the representation extreme, by earliest timestamp then
    version descending.

    Returns a list of ``(view, point)``; empty if nothing is known.
    """
    known = known_candidates(views, function)
    if not known:
        return []
    if function == FP:
        extreme = min(p.t for _v, p in known)
        pool = [(v, p) for v, p in known if p.t == extreme]
    elif function == LP:
        extreme = max(p.t for _v, p in known)
        pool = [(v, p) for v, p in known if p.t == extreme]
    elif function == BP:
        extreme = min(p.v for _v, p in known)
        pool = [(v, p) for v, p in known if p.v == extreme]
    else:  # TP
        extreme = max(p.v for _v, p in known)
        pool = [(v, p) for v, p in known if p.v == extreme]
    # Value ties (BP/TP across chunks) resolve to the earliest surviving
    # timestamp — the UDF's first-occurrence answer — and only timestamp
    # ties fall back to the newest version; FP/LP pools share one
    # timestamp, for which this is plain version order.
    pool.sort(key=lambda item: (item[1].t, -item[0].version))
    return pool

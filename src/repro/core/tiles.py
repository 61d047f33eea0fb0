"""Multi-resolution M4 tile cache: pan/zoom-aware viewport acceleration.

Interactive exploration (the paper's Section 1 motivation) issues M4
queries whose viewports overlap heavily: a pan shifts the window by half
its width, a zoom divides it by a power of the zoom factor.  Re-running
the full M4-LSM operator per viewport recomputes 75-90% of the spans the
previous frame already solved.  This module memoizes that shared work as
*tiles* without changing a single output byte.

Key scheme
----------

A viewport query ``(t_qs, t_qe, w)`` is *tile-eligible* when its spans
all have the same integer width ``s = (t_qe - t_qs) / w``, ``s`` is a
power of two, and ``t_qs`` is a multiple of ``s``.  Then every span is a
cell ``[m*s, (m+1)*s)`` of the absolute level-``z`` grid (``s = 2**z``),
shared by *all* eligible queries at that zoom level regardless of their
start or width.  A *tile* is ``T`` consecutive cells (``T =
spans_per_tile``): tile ``k`` of level ``z`` covers
``[k*T*s, (k+1)*T*s)``.  The cache key is ``(series, z, k)``.

An eligible viewport decomposes into interior tiles plus at most two
partial edge runs of cells (head and tail).  Interior tiles are answered
from the cache (computed once, each via one ``M4LSMOperator`` query over
exactly the tile's range); edge runs are computed per query and never
cached.  Ineligible queries bypass the cache entirely.

Identity argument (sketch; the full version is DESIGN.md §10)
-------------------------------------------------------------

For a query whose spans are uniform cells, ``span_bounds`` of any
sub-range query over whole cells coincide with the enclosing query's
bounds cell-for-cell.  A ``SpanAggregate`` is a function of the span's
``[start, end)``, the chunks overlapping it (in version order), the
series' full delete list and the quarantine set — none of which depend
on the enclosing query's extent.  (The fused-metadata fast path may be
taken for a span in one decomposition and the solver in another, but the
repo's ablation tests assert fused == solver byte-for-byte, so the
answer is decomposition-independent.)  Hence stitching per-cell
aggregates from tiles and edge runs reproduces the uncached result
exactly; the degraded ``skipped`` ranges re-merge to the same canonical
tuple because tiles partition the query range.

Invalidation
------------

Writes and deletes invalidate overlapping tiles *while holding the
series write lock* (see ``StorageEngine``), so a query that holds the
series read lock across its stitch can never observe a half-invalidated
cache.  Quarantine changes arrive from reader threads (no write lock);
the insert-epoch check below closes that race: a tile computed before an
overlapping invalidation is discarded instead of inserted.

*Tail appends* (every new timestamp strictly past the series' previous
maximum — the streaming-ingest common case) take a cheaper path: instead
of dropping overlapping tiles, :meth:`TileCache.mark_dirty` records the
appended range on each one, and the tiled operator recomputes *only the
dirty cells* on the next lookup (``TiledM4Operator._repair``), splicing
them into the retained spans.  Because an append past the old maximum
cannot change any data outside the appended range, the clean cells'
aggregates are provably unchanged and the repaired tile is
byte-identical to a full recompute (DESIGN.md §13).  Interior,
out-of-order and delete writes keep the full overlap-drop.

Lock ordering: the cache's internal lock is a *leaf* — no series or
engine lock is ever acquired while holding it.
"""

from __future__ import annotations

import collections
import dataclasses
import threading

import numpy as np

from ..obs.tracer import ambient_span, tracer_of
from ..storage.deadline import check_deadline
from .m4 import degraded_mode
from .m4lsm import M4LSMOperator
from .result import M4Result, merge_time_ranges
from .spans import validate_query

#: Per-series invalidation log length; inserts whose epoch predates the
#: oldest retained entry are discarded (conservative, never stale).
_INVALIDATION_LOG = 256

#: Rough per-object byte costs used for the LRU budget.  They only need
#: to be a consistent charge, not an exact ``sys.getsizeof`` walk.
_ENTRY_BYTES = 240       # TileEntry + dict/key/LRU bookkeeping
_SPAN_BYTES = 72         # one cell's share of the columns
_POINT_BYTES = 72        # one Point (t, v)
_RANGE_BYTES = 48        # one skipped (lo, hi) pair


def tile_eligible(t_qs, t_qe, w):
    """Is the viewport on a cacheable power-of-two span grid?

    Returns the zoom level ``z`` (span width ``2**z``) or ``None`` when
    the query must bypass the cache.  Eligible means: the duration is an
    exact multiple of ``w``, the span width is a power of two, and
    ``t_qs`` sits on the absolute grid of that width.
    """
    duration = int(t_qe) - int(t_qs)
    w = int(w)
    if w <= 0 or duration <= 0 or duration % w:
        return None
    s = duration // w
    if s & (s - 1):
        return None
    if int(t_qs) % s:
        return None
    return s.bit_length() - 1


def snap_viewport(t_qs, t_qe, w, tile_spans=None):
    """The smallest tile-eligible viewport covering ``[t_qs, t_qe)``.

    Returns ``(start, end)`` with ``end - start == w * 2**z`` for the
    smallest ``z`` such that the snapped window still contains the
    requested one, and ``start`` aligned to the span grid (or to the
    tile grid when ``tile_spans`` is given, so the viewport decomposes
    into whole tiles with no edge runs).  Used by the session workload
    and the E15 bench to emit cacheable pan/zoom traces.

    Raises :class:`repro.errors.InvalidQueryRangeError` on an empty
    range or non-positive ``w``.
    """
    t_qs, t_qe, w = int(t_qs), int(t_qe), int(w)
    validate_query(t_qs, t_qe, w)
    grain = int(tile_spans) if tile_spans else 1
    s = 1
    while True:
        unit = s * grain
        start = (t_qs // unit) * unit
        if start + w * s >= t_qe:
            return start, start + w * s
        s <<= 1


@dataclasses.dataclass(frozen=True)
class TileEntry:
    """One cached tile: its cells, degraded ranges and byte charge."""

    #: the tile's ``T`` cells as the columns of an :class:`M4Result` over
    #: ``[0, T)`` (where the tile lies in time is its cache key's business)
    cells: M4Result
    skipped: tuple      # canonical (lo, hi) ranges within the tile
    nbytes: int
    #: merged half-open time ranges whose cells must be recomputed
    #: before the tile can be served (tail-append dirt; () = clean).
    dirty: tuple = ()

    @classmethod
    def from_result(cls, result):
        """Build an entry from the tile's :class:`M4Result`."""
        nbytes = (_ENTRY_BYTES + _RANGE_BYTES * len(result.skipped)
                  + _SPAN_BYTES * result.w
                  + 4 * _POINT_BYTES * int(result.occupied.sum()))
        cells = M4Result.from_columns(0, result.w, result.w,
                                      result.occupied, result.times,
                                      result.values)
        return cls(cells, tuple(result.skipped), nbytes)

    @property
    def spans(self):
        """The cells as :class:`SpanAggregate` views, cell order."""
        return self.cells.spans

    def with_dirty(self, lo, hi):
        """A copy with ``[lo, hi)`` merged into the dirty ranges."""
        dirty = merge_time_ranges(list(self.dirty) + [(int(lo), int(hi))])
        nbytes = self.nbytes \
            + _RANGE_BYTES * (len(dirty) - len(self.dirty))
        return dataclasses.replace(self, dirty=dirty, nbytes=nbytes)


class TileCache:
    """A byte-budgeted LRU of M4 tiles with epoch-checked inserts.

    Args:
        capacity_bytes: LRU budget (estimated object bytes, > 0).
        spans_per_tile: cells per tile, ``T`` in the key scheme (> 0).
        metrics: optional :class:`repro.obs.MetricsRegistry`; receives
            ``tile_cache_{hits,misses,invalidations,evictions,
            rejected_inserts,bypass}_total`` counters and
            ``tile_cache_{bytes,tiles}`` gauges.

    Thread-safe; the single internal lock is a leaf of the engine's
    lock hierarchy (never held while acquiring a series/engine lock).
    """

    def __init__(self, capacity_bytes, spans_per_tile=64, metrics=None):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if spans_per_tile <= 0:
            raise ValueError("spans_per_tile must be positive")
        from ..obs import NULL_REGISTRY
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._capacity = int(capacity_bytes)
        self._spans_per_tile = int(spans_per_tile)
        self._lock = threading.Lock()
        self._entries = collections.OrderedDict()  # key -> TileEntry
        self._by_series = {}                       # series -> set of keys
        self._bytes = 0
        self._generation = 0      # bumped by invalidate_all()
        self._seq = {}            # series -> last invalidation seq
        self._log = {}            # series -> deque of (seq, lo, hi)
        self._dropped = {}        # series -> highest seq fallen off log
        self._c_hits = metrics.counter("tile_cache_hits_total")
        self._c_misses = metrics.counter("tile_cache_misses_total")
        self._c_inval = metrics.counter("tile_cache_invalidations_total")
        self._c_dirty = metrics.counter("tile_cache_dirty_marks_total")
        self._c_repair = metrics.counter("tile_cache_cell_repairs_total")
        self._c_evict = metrics.counter("tile_cache_evictions_total")
        self._c_reject = metrics.counter("tile_cache_rejected_inserts_total")
        self._c_bypass = metrics.counter("tile_cache_bypass_total")
        self._g_bytes = metrics.gauge("tile_cache_bytes")
        self._g_tiles = metrics.gauge("tile_cache_tiles")

    @property
    def spans_per_tile(self):
        """Cells per tile (``T`` of the key scheme)."""
        return self._spans_per_tile

    @property
    def capacity_bytes(self):
        """The LRU byte budget."""
        return self._capacity

    def tile_range(self, level, tile):
        """Half-open time range ``[lo, hi)`` of a tile key."""
        width = (1 << level) * self._spans_per_tile
        return tile * width, (tile + 1) * width

    def __len__(self):
        with self._lock:
            return len(self._entries)

    @property
    def bytes(self):
        """Estimated bytes currently cached."""
        return self._bytes

    # -- lookup / insert ---------------------------------------------------------------

    def lookup(self, series, level, tile):
        """The cached :class:`TileEntry`, or None (counts hit/miss)."""
        key = (series, level, tile)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._c_misses.inc()
                return None
            self._entries.move_to_end(key)
            self._c_hits.inc()
            return entry

    def epoch(self, series):
        """Opaque insert token; take *before* reading the tile's data.

        :meth:`insert` discards the tile if any overlapping
        invalidation arrived after this epoch, so a computation racing
        an invalidation can never plant a stale tile.
        """
        with self._lock:
            return self._generation, self._seq.get(series, 0)

    def insert(self, series, level, tile, entry, epoch):
        """Insert a computed tile unless an invalidation raced it.

        ``epoch`` must come from :meth:`epoch` on the same series
        before the tile's source data was read.  Returns True when the
        tile was actually cached.
        """
        generation, seq = epoch
        lo, hi = self.tile_range(level, tile)
        key = (series, level, tile)
        with self._lock:
            if generation != self._generation:
                self._c_reject.inc()
                return False
            if seq < self._dropped.get(series, 0):
                self._c_reject.inc()  # log too short to prove safety
                return False
            for inv_seq, inv_lo, inv_hi in self._log.get(series, ()):
                if inv_seq > seq and inv_lo < hi and lo < inv_hi:
                    self._c_reject.inc()
                    return False
            if entry.nbytes > self._capacity:
                return False
            if key in self._entries:
                self._remove_locked(key)
            while self._bytes + entry.nbytes > self._capacity \
                    and self._entries:
                old_key = next(iter(self._entries))
                self._remove_locked(old_key)
                self._c_evict.inc()
            self._entries[key] = entry
            self._by_series.setdefault(series, set()).add(key)
            self._bytes += entry.nbytes
            self._publish_locked()
            return True

    def _remove_locked(self, key):
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        keys = self._by_series.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_series[key[0]]
        return entry

    def _publish_locked(self):
        self._g_bytes.set(self._bytes)
        self._g_tiles.set(len(self._entries))

    # -- invalidation ------------------------------------------------------------------

    def invalidate(self, series, lo, hi):
        """Drop the series' tiles overlapping ``[lo, hi)`` at any level.

        Records the event so in-flight computations that started before
        it cannot insert afterwards.  Returns the number of tiles
        dropped.
        """
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            return 0
        dropped = 0
        with self._lock:
            self._note_locked(series, lo, hi)
            for key in list(self._by_series.get(series, ())):
                t_lo, t_hi = self.tile_range(key[1], key[2])
                if t_lo < hi and lo < t_hi:
                    self._remove_locked(key)
                    dropped += 1
            if dropped:
                self._c_inval.inc(dropped)
                self._publish_locked()
        return dropped

    def mark_dirty(self, series, lo, hi):
        """Tail-append path: keep overlapping tiles, dirty their cells.

        Instead of dropping every tile overlapping ``[lo, hi)`` (what
        :meth:`invalidate` does), the range is merged into each
        overlapping entry's ``dirty`` ranges; the tiled operator
        recomputes only the dirty cells on the next lookup and reuses
        the rest of the tile verbatim.  Sound *only* when every
        timestamp in ``[lo, hi)`` is strictly after every point the
        series held before (a pure tail append): then cells outside the
        range still aggregate exactly the same data.  Interior or
        out-of-order writes must keep using :meth:`invalidate`.

        The event is still recorded in the invalidation log, so a
        racing whole-tile computation that read pre-append data cannot
        insert afterwards.  Returns the number of tiles dirtied.
        """
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            return 0
        dirtied = 0
        with self._lock:
            self._note_locked(series, lo, hi)
            for key in list(self._by_series.get(series, ())):
                t_lo, t_hi = self.tile_range(key[1], key[2])
                if t_lo < hi and lo < t_hi:
                    entry = self._entries[key]
                    fresh = entry.with_dirty(max(lo, t_lo), min(hi, t_hi))
                    self._entries[key] = fresh
                    self._bytes += fresh.nbytes - entry.nbytes
                    dirtied += 1
            if dirtied:
                self._c_dirty.inc(dirtied)
                self._publish_locked()
        return dirtied

    def count_repairs(self, cells):
        """Count ``cells`` incrementally recomputed cells (obs only)."""
        self._c_repair.inc(cells)

    def invalidate_series(self, series):
        """Drop every tile of one series (compaction, re-ingest)."""
        dropped = 0
        with self._lock:
            self._note_locked(series, None, None)
            for key in list(self._by_series.get(series, ())):
                self._remove_locked(key)
                dropped += 1
            if dropped:
                self._c_inval.inc(dropped)
                self._publish_locked()
        return dropped

    def invalidate_all(self):
        """Drop everything and fence out every in-flight insert."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_series.clear()
            self._bytes = 0
            self._generation += 1
            if dropped:
                self._c_inval.inc(dropped)
            self._publish_locked()
        return dropped

    def _note_locked(self, series, lo, hi):
        """Append an invalidation event to the bounded per-series log."""
        seq = self._seq.get(series, 0) + 1
        self._seq[series] = seq
        log = self._log.get(series)
        if log is None:
            log = self._log[series] = collections.deque(
                maxlen=_INVALIDATION_LOG)
        if len(log) == log.maxlen:
            self._dropped[series] = log[0][0]
        if lo is None:                        # whole-series event
            lo, hi = -(1 << 63), 1 << 63
        log.append((seq, lo, hi))

    def count_bypass(self):
        """Count one cache-ineligible query (obs only)."""
        self._c_bypass.inc()

    def stats(self):
        """Dict of tiles, bytes and capacity (counters live in obs)."""
        with self._lock:
            return {"tiles": len(self._entries), "bytes": self._bytes,
                    "capacity_bytes": self._capacity,
                    "spans_per_tile": self._spans_per_tile}

    def snapshot(self):
        """LRU-ordered list of ``(series, level, tile, entry)`` tuples
        (oldest first), for inspecting the cache."""
        with self._lock:
            return [(k[0], k[1], k[2], e) for k, e in self._entries.items()]


class TiledM4Operator:
    """M4-LSM behind the tile cache — same answers, warmed spans free.

    Drop-in for :class:`M4LSMOperator`: eligible viewports are stitched
    from cached tiles plus at most two edge runs; everything else (and
    every query when the cache is absent or the degraded mode differs
    from the engine default the tiles were computed under) falls through
    to the plain operator, so results are byte-identical either way.

    Args:
        engine: a :class:`repro.storage.engine.StorageEngine`.
        cache: an explicit :class:`TileCache`; defaults to
            ``engine.tile_cache``.
        degraded: as for :class:`M4LSMOperator`; a value that differs
            from ``engine.config.degraded_reads`` forces bypass (cached
            tiles reflect the engine-default damage policy).
    """

    name = "M4-LSM(tiles)"

    def __init__(self, engine, cache=None, degraded=None):
        self._engine = engine
        self._cache = cache if cache is not None \
            else getattr(engine, "tile_cache", None)
        self._inner = M4LSMOperator(engine, degraded=degraded)
        self._bypass = degraded_mode(engine, degraded) \
            != degraded_mode(engine, None)

    def query(self, series_name, t_qs, t_qe, w):
        """The M4 representation query; returns :class:`M4Result`.

        Byte-identical to ``M4LSMOperator.query`` on the same engine
        state.  The whole stitch holds the series read lock, so a
        concurrent write/delete (and its tile invalidation) orders
        entirely before or after this query — the PR-2 linearizability
        guarantee extends to cached reads.

        Raises :class:`repro.errors.InvalidQueryRangeError` on a
        malformed range, :class:`repro.errors.SeriesNotFoundError` for
        an unknown series, and in strict mode
        :class:`repro.errors.CorruptFileError` on damaged data.
        """
        validate_query(t_qs, t_qe, w)
        cache = self._cache
        level = None if cache is None or self._bypass \
            else tile_eligible(t_qs, t_qe, w)
        if level is None:
            if cache is not None:
                cache.count_bypass()
            return self._inner.query(series_name, t_qs, t_qe, w)
        s = 1 << level
        per_tile = cache.spans_per_tile
        pieces = []    # M4 columns of the tiles and edge runs, in order
        skipped = []
        hits = misses = repairs = 0
        with tracer_of(self._engine).span("tiles.stitch",
                                          series=series_name,
                                          level=level) as stitch, \
                self._engine.series_lock(series_name).read():
            cell = int(t_qs) // s
            last_cell = int(t_qe) // s
            while cell < last_cell:
                check_deadline()  # cancellation point: between pieces
                tile = cell // per_tile
                tile_start = tile * per_tile
                tile_end = tile_start + per_tile
                if cell == tile_start and tile_end <= last_cell:
                    with ambient_span("tiles.tile", level=level,
                                      tile=tile) as tile_span:
                        # Epoch *before* lookup: any entry the lookup
                        # returns already reflects every invalidation
                        # before the epoch, and any event after it
                        # rejects the (re)insert below.
                        epoch = cache.epoch(series_name)
                        entry = cache.lookup(series_name, level, tile)
                        hit = entry is not None
                        repaired = 0
                        if entry is None:
                            result = self._inner.query(
                                series_name, tile_start * s, tile_end * s,
                                per_tile)
                            entry = TileEntry.from_result(result)
                            cache.insert(series_name, level, tile, entry,
                                         epoch)
                        elif entry.dirty:
                            entry, repaired = self._repair(
                                series_name, level, tile, entry, epoch,
                                s, tile_start, tile_end)
                        tile_span.attrs["hit"] = hit
                        if repaired:
                            tile_span.attrs["repaired_cells"] = repaired
                    hits += hit
                    misses += not hit
                    repairs += repaired
                    pieces.append(entry.cells)
                    skipped.extend(entry.skipped)
                    cell = tile_end
                else:  # partial edge run (head or tail, never cached)
                    run_end = min(tile_end, last_cell)
                    with ambient_span("tiles.edge", level=level,
                                      start=cell, end=run_end):
                        result = self._inner.query(
                            series_name, cell * s,
                            run_end * s, run_end - cell)
                    pieces.append(result)
                    skipped.extend(result.skipped)
                    cell = run_end
            stitch.attrs["hits"] = hits
            stitch.attrs["misses"] = misses
            if repairs:
                stitch.attrs["repaired_cells"] = repairs
        return M4Result.from_columns(
            t_qs, t_qe, w,
            np.concatenate([p.occupied for p in pieces]),
            np.concatenate([p.times for p in pieces], axis=1),
            np.concatenate([p.values for p in pieces], axis=1),
            skipped=merge_time_ranges(skipped, t_qs, t_qe))

    def _repair(self, series_name, level, tile, entry, epoch, s,
                tile_start, tile_end):
        """Recompute only a dirty tile's dirty cells; reuse the rest.

        The caller holds the series read lock, so the data under every
        cell is frozen for the duration.  Tail-append dirt (see
        :meth:`TileCache.mark_dirty`) only ever adds points inside the
        dirty ranges, so the clean cells' aggregates are still exact;
        recomputing just the dirty cells with the inner operator
        therefore reproduces a full-tile computation byte-for-byte.

        Returns ``(clean_entry, cells_recomputed)``.  The repaired
        entry is reinserted under ``epoch`` (discarded if another
        invalidation raced, e.g. a further append mid-repair — the
        result served to *this* query is still correct because the data
        it read is lock-frozen).
        """
        cache = self._cache
        lo_t, hi_t = tile_start * s, tile_end * s
        cells = entry.cells
        occupied = cells.occupied.copy()
        times = cells.times.copy()
        values = cells.values.copy()
        skipped = list(entry.skipped)
        recomputed = 0
        for d_lo, d_hi in entry.dirty:
            c0 = max(d_lo // s, tile_start)
            c1 = min(-(-d_hi // s), tile_end)
            if c1 <= c0:
                continue
            result = self._inner.query(series_name, c0 * s, c1 * s,
                                       c1 - c0)
            lo, hi = c0 - tile_start, c1 - tile_start
            occupied[lo:hi] = result.occupied
            times[:, lo:hi] = result.times
            values[:, lo:hi] = result.values
            # Splice skipped ranges: keep the parts of the old ranges
            # outside the recomputed window, take the fresh computation
            # inside it.
            kept = []
            for a, b in skipped:
                if a < c0 * s:
                    kept.append((a, min(b, c0 * s)))
                if b > c1 * s:
                    kept.append((max(a, c1 * s), b))
            skipped = kept + list(result.skipped)
            recomputed += c1 - c0
        fresh = TileEntry.from_result(M4Result.from_columns(
            lo_t, hi_t, tile_end - tile_start, occupied, times, values,
            skipped=merge_time_ranges(skipped, lo_t, hi_t)))
        cache.insert(series_name, level, tile, fresh, epoch)
        cache.count_repairs(recomputed)
        return fresh, recomputed

    def query_traced(self, series_name, t_qs, t_qe, w):
        """EXPLAIN path: always uncached (the trace describes the
        solver's work, which a cache hit would hide)."""
        return self._inner.query_traced(series_name, t_qs, t_qe, w)


def m4_operator(engine, degraded=None):
    """The M4-LSM operator a query on ``engine`` runs: tiled when the
    engine's tile cache is on, plain otherwise (byte-identical answers;
    the Executor, ``render_chart`` and ``/live`` deltas all choose here).
    """
    if getattr(engine, "tile_cache", None) is not None:
        return TiledM4Operator(engine, degraded=degraded)
    return M4LSMOperator(engine, degraded=degraded)

"""The LSM storage engine: writes, flushes, deletes, TsFile management.

A miniature of Apache IoTDB's storage layer, faithful to the properties
the paper's experiments exercise:

* writes buffer in a per-series :class:`MemTable` and flush into
  read-only chunks of ``avg_series_point_number_threshold`` points;
* out-of-order writes produce chunks with overlapping time intervals —
  overlap is resolved at read time by version numbers, never by rewriting;
* deletes append to a mods log and are applied at read time;
* chunk metadata (statistics, page directory, step-regression index) is
  kept in TsFile tail sections and mirrored in memory once sealed;
* compaction exists but is **off by default**, matching the paper's
  Table 4 (``NO_COMPACTION``).

The engine is safe for concurrent use from many threads.  The lock
hierarchy (see DESIGN.md § Concurrency model) has three levels: one
execution slot per process runs the queries one at a time; a
reader/writer lock per series guards its memtable, chunks and deletes;
one engine lock guards the catalog, version allocator, active TsFile
writer and reader pool.  Locks are taken in that order, never the
reverse, and writers never take the slot: no deadlock.  Writes,
flushes, deletes and queries are linearizable per series: each takes
effect atomically while its series write (or, for queries, read) lock
is held, and a query sees exactly the chunks of the committed prefix.
"""

from __future__ import annotations

import json
import logging
import os
import threading

import numpy as np

from ..errors import InvalidValueError, SeriesNotFoundError, StorageError
from ..obs import MetricsRegistry, SlowQueryLog, TraceStore, Tracer
from . import faultfs
from .catalog import CatalogFile
from .chunk import write_chunk
from .compaction import compact_all
from .config import DEFAULT_CONFIG, TOPOLOGY_FILE
from .deadline import sleep_checked
from .deletes import Delete, DeleteList
from .iostats import IoStats
from .locks import EXEC_SLOT, LockWaitObs, RWLock
from .memtable import MemTable
from .mods import ModsFile
from .quarantine import QuarantineRegistry
from .readers import DataReader, MetadataReader
from .tsfile import TsFileReader, TsFileWriter
from .versions import VersionAllocator
from .wal import WalManager

log = logging.getLogger("repro.storage.engine")


def _reject_nan(name, values):
    """Refuse NaN before anything is logged: min/max statistics and the
    operators' value comparisons are undefined on it."""
    if np.isnan(np.asarray(values, dtype=np.float64)).any():
        raise InvalidValueError("series %r: NaN values cannot be stored"
                                % name)


class SeriesState:
    """Per-series bookkeeping inside the engine.

    ``lock`` is the series' reader/writer lock: writes, flushes and
    deletes hold the write side; queries snapshot chunk/delete state
    under the read side.  When the engine passes its registry, every
    acquisition wait lands in ``lock_wait_seconds{series,side}`` (and,
    inside request traces, as ``lock.wait`` spans).
    """

    def __init__(self, series_id, name, metrics=None):
        self.series_id = series_id
        self.name = name
        obs = LockWaitObs(metrics, name) if metrics is not None else None
        self.lock = RWLock(obs=obs)
        self.memtable = MemTable()
        self.chunks = []          # sealed ChunkMetadata, version order
        self.deletes = DeleteList()
        self.points_written = 0
        #: Upper bound on every timestamp the series holds; None until
        #: first needed (lazy — recovery leaves it unset).  Used to
        #: classify writes as tail appends for incremental tile repair.
        self.max_time = None


class StorageEngine:
    """An LSM-based store for multiple time series.

    >>> # engine = StorageEngine("/tmp/db")
    >>> # engine.create_series("root.sg.speed")
    >>> # engine.write_batch("root.sg.speed", ts, vs); engine.flush_all()
    """

    #: File the observability snapshot persists to inside ``data_dir``.
    OBS_FILE = "obs.json"

    def __init__(self, data_dir, config=DEFAULT_CONFIG, stats=None):
        self._data_dir = os.fspath(data_dir)
        if os.path.exists(os.path.join(self._data_dir, TOPOLOGY_FILE)):
            # Mirror of resolve_shards refusing to shard unsharded data:
            # an engine at a sharded root would open empty beside it.
            raise StorageError(
                "store %s is sharded (%s present); open it with "
                "repro.shard.open_store, or open one shard-NN directory"
                % (self._data_dir, TOPOLOGY_FILE))
        os.makedirs(self._data_dir, exist_ok=True)
        self._config = config
        self._stats = stats if stats is not None else IoStats()
        self._metrics = MetricsRegistry(enabled=config.metrics_enabled)
        self._tracer = Tracer(stats=self._stats, registry=self._metrics,
                              enabled=config.metrics_enabled)
        self._slow_log = SlowQueryLog(config.slow_query_seconds)
        self._traces = TraceStore(slow_seconds=config.slow_query_seconds)
        self._io_base = IoStats()  # counters persisted by prior sessions
        self._load_obs_snapshot()
        # Engine-level lock: catalog, versions, active writer, reader
        # pool, close/persist.  Reentrant, and ordered AFTER any series
        # lock (never acquire a series lock while holding it).
        self._lock = threading.RLock()
        self._versions = VersionAllocator()
        self._series = {}
        self._series_by_id = {}
        self._next_series_id = 1
        self._writer = None
        self._writer_chunks = 0
        self._file_seq = 0
        self._readers = {}
        self._closed = False
        self._mods = ModsFile(os.path.join(self._data_dir, "deletes.mods"))
        self._catalog = CatalogFile(os.path.join(self._data_dir,
                                                 "catalog.meta"))
        self._wal = WalManager(self._data_dir, self._metrics)
        self._quarantine = QuarantineRegistry(self._data_dir,
                                              self._metrics)
        #: Replication log (attach_replication): when set, every
        #: acknowledged mutation also appends a replication frame,
        #: under the same series write lock as the mutation itself so
        #: per-series frame order equals apply order.
        self._replication = None
        self._tile_cache = None
        if config.tile_cache_bytes > 0:
            from ..core.tiles import TileCache
            self._tile_cache = TileCache(config.tile_cache_bytes,
                                         config.tile_cache_spans,
                                         metrics=self._metrics)
            self._quarantine.subscribe(self._on_quarantine_change)
        self.recovery_summary = None
        if self._has_persisted_state():
            from .recovery import recover_engine_state
            self.recovery_summary = recover_engine_state(self)

    def _has_persisted_state(self):
        """Does the directory hold any prior session's data?

        Checks the catalog *and* for TsFiles/WAL segments, so a store
        whose catalog was lost (e.g. torn back to its header) still
        triggers recovery — which then fails loudly on the orphaned
        chunks instead of silently opening an empty engine over them.
        """
        if any(True for _ in self._catalog.read_all()):
            return True
        from .recovery import list_tsfiles
        if list_tsfiles(self._data_dir):
            return True
        return bool(self._wal.segment_paths())

    # -- schema ---------------------------------------------------------------------

    @property
    def config(self):
        """The engine's :class:`StorageConfig`."""
        return self._config

    @property
    def stats(self):
        """Shared I/O counters for this engine and its readers."""
        return self._stats

    @property
    def metrics(self):
        """The engine's :class:`repro.obs.MetricsRegistry`."""
        return self._metrics

    @property
    def tracer(self):
        """The engine's :class:`repro.obs.Tracer` (span trees)."""
        return self._tracer

    @property
    def slow_log(self):
        """The engine's rolling :class:`repro.obs.SlowQueryLog`."""
        return self._slow_log

    @property
    def traces(self):
        """The engine's :class:`repro.obs.TraceStore` of request traces.

        In-memory only (traces are a live-debugging surface, not
        durable state); populated by the HTTP service layer, read by
        ``GET /trace`` and ``repro trace``.
        """
        return self._traces

    # -- observability snapshot / persistence ------------------------------------------

    def _obs_path(self):
        return os.path.join(self._data_dir, self.OBS_FILE)

    def _load_obs_snapshot(self):
        """Best-effort merge of a prior session's persisted metrics.

        A corrupt or truncated ``obs.json`` (e.g. a crash between the
        temp write and the rename on the seed format) resets the stats
        with a logged warning — observability damage must never block
        an engine open.
        """
        if not self._config.metrics_enabled:
            return
        path = self._obs_path()
        if not os.path.exists(path):
            return
        try:
            with faultfs.fopen(path, "rb") as f:
                data = json.loads(f.read().decode("utf-8"))
        except (OSError, ValueError) as exc:
            log.warning("%s: unreadable observability snapshot (%s) — "
                        "resetting stats", path, exc)
            self._metrics.counter("obs_snapshot_resets_total").inc()
            return
        if not isinstance(data, dict):
            log.warning("%s: malformed observability snapshot — "
                        "resetting stats", path)
            self._metrics.counter("obs_snapshot_resets_total").inc()
            return
        self._metrics.load(data.get("metrics"))
        iostats = data.get("iostats")
        if isinstance(iostats, dict):
            import dataclasses
            known = {f.name for f in dataclasses.fields(IoStats)}
            for key, value in iostats.items():
                if key in known and isinstance(value, int):
                    setattr(self._io_base, key, value)
        self._slow_log.load(data.get("slow_queries"))

    def observability_snapshot(self):
        """The full observability state as a JSON-able dict.

        ``metrics`` is the registry snapshot with engine-lifetime I/O
        counters folded in as ``io_<field>_total``; ``iostats`` is the
        cumulative counter dict (prior sessions + this one);
        ``slow_queries`` is the rolling slow-query ring.
        """
        metrics = self._metrics.snapshot()
        cumulative = (self._io_base + self._stats.snapshot()).as_dict()
        for field, value in sorted(cumulative.items()):
            name = "io_%s_total" % field
            metrics["counters"][name] = {"name": name, "labels": {},
                                         "value": int(value)}
        return {"metrics": metrics, "iostats": cumulative,
                "slow_queries": self._slow_log.entries()}

    def _persist_obs(self):
        """Write the observability snapshot next to the data files.

        Counters and histograms accumulate across sessions (the snapshot
        loaded at open is part of the live registry), so the file always
        holds store-lifetime totals.  The write is atomic — a uniquely
        named temp file is written, fsynced, then renamed over
        ``obs.json`` — so a concurrent or crashed writer can never leave
        a torn JSON behind that poisons the next startup.  Best-effort:
        failures never block close().
        """
        if not self._config.metrics_enabled:
            return
        data = {"metrics": self._metrics.snapshot(),
                "iostats": (self._io_base + self._stats.snapshot())
                .as_dict(),
                "slow_queries": self._slow_log.entries()}
        tmp = "%s.%d.%d.tmp" % (self._obs_path(), os.getpid(),
                                threading.get_ident())
        try:
            with faultfs.fopen(tmp, "wb") as f:
                f.write(json.dumps(data, sort_keys=True).encode("utf-8"))
                f.flush()
                faultfs.fsync(f)
            faultfs.replace(tmp, self._obs_path())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @property
    def data_dir(self):
        """Directory holding TsFiles and the mods log."""
        return self._data_dir

    def create_series(self, name):
        """Register a series; returns its id.  Idempotent, durable."""
        with self._lock:
            if name in self._series:
                return self._series[name].series_id
            series_id = self._next_series_id
            self._next_series_id += 1
            state = SeriesState(series_id, name, metrics=self._metrics)
            self._series[name] = state
            self._series_by_id[series_id] = state
            self._catalog.append(series_id, name)
            if self._replication is not None:
                self._replication.record_create(series_id, name)
            self._metrics.gauge("engine_series").set(len(self._series))
            return series_id

    def _register_recovered_series(self, series_id, name):
        """Recovery hook: re-register a series read from the catalog."""
        with self._lock:
            state = SeriesState(series_id, name, metrics=self._metrics)
            self._series[name] = state
            self._series_by_id[series_id] = state
            self._next_series_id = max(self._next_series_id, series_id + 1)
            return state

    def _restore_counters(self, max_version, max_file_seq):
        """Recovery hook: continue version/file numbering after restart."""
        with self._lock:
            self._versions = VersionAllocator(start=max_version + 1)
            self._file_seq = max_file_seq

    def attach_replication(self, replication_log):
        """Emit a replication frame for every subsequent mutation.

        ``replication_log`` is a :class:`repro.replication.ReplicationLog`
        (or anything with its ``record_*`` hooks).  Series that already
        exist are *not* back-filled — first contact with a replica
        always starts from a snapshot resync, which carries them.
        """
        with self._lock:
            self._replication = replication_log

    def series_id(self, name):
        """The series' id (raises :class:`SeriesNotFoundError`)."""
        return self._state(name).series_id

    def series_snapshot(self, name):
        """One consistent content snapshot, memtable included.

        Returns ``(chunks, deletes, mem_t, mem_v)`` taken under a
        single read lock, so replication snapshots and anti-entropy
        fingerprints see a point-in-time view without forcing a flush.
        """
        state = self._state(name)
        with state.lock.read():
            mem_t, mem_v = state.memtable.snapshot()
            return (list(state.chunks), DeleteList(state.deletes),
                    mem_t, mem_v)

    def series_names(self):
        """All registered series names."""
        with self._lock:
            return list(self._series)

    def _state(self, name):
        with self._lock:
            try:
                return self._series[name]
            except KeyError:
                raise SeriesNotFoundError("unknown series %r"
                                          % name) from None

    # -- writes ------------------------------------------------------------------------

    def write(self, name, t, v):
        """Insert one point (auto-flushing at the threshold).

        Args:
            name: a series registered with :meth:`create_series`.
            t: integer timestamp (any order; overlap resolves on read).
            v: float value.

        Raises:
            SeriesNotFoundError: ``name`` was never registered.
            InvalidValueError: ``v`` is NaN (nothing is written).
        """
        state = self._state(name)
        _reject_nan(name, v)
        with state.lock.write():
            self._wal.segment(state.series_id).append(state.series_id,
                                                      int(t), float(v))
            before_max = self._series_max_time(state)
            state.memtable.append(int(t), float(v))
            state.points_written += 1
            if self._replication is not None:
                self._replication.record_points(state.series_id,
                                                [int(t)], [float(v)])
            self._metrics.counter("engine_points_written_total").inc()
            self._note_tiles_write(state, int(t), int(t) + 1, before_max)
            self._maybe_flush(state)

    def write_batch(self, name, timestamps, values):
        """Insert a batch of points in any time order.

        Args:
            name: a series registered with :meth:`create_series`.
            timestamps: int64 array/sequence (need not be sorted).
            values: float64 array/sequence, same length.

        Raises:
            SeriesNotFoundError: ``name`` was never registered.
            InvalidValueError: a value is NaN (nothing is written).

        Overlapping tiles of the M4 tile cache are invalidated here,
        under the series write lock, so cached viewports and fresh
        writes stay linearizable per series.
        """
        state = self._state(name)
        _reject_nan(name, values)
        with self._tracer.span("write.batch", series=name):
            with state.lock.write():
                segment = self._wal.segment(state.series_id)
                segment.append_batch(state.series_id, timestamps, values)
                segment.sync()
                before = len(state.memtable)
                before_max = self._series_max_time(state)
                state.memtable.append_batch(timestamps, values)
                appended = len(state.memtable) - before
                state.points_written += appended
                if self._replication is not None:
                    self._replication.record_points(state.series_id,
                                                    timestamps, values)
                self._metrics.counter("engine_points_written_total") \
                    .inc(appended)
                self._metrics.counter("engine_write_batches_total").inc()
                if appended:
                    self._note_tiles_write(state, int(min(timestamps)),
                                           int(max(timestamps)) + 1,
                                           before_max)
                self._maybe_flush(state)

    def delete(self, name, t_start, t_end):
        """Delete the closed time range ``[t_start, t_end]`` (Def. 2.5).

        Points still buffered in the memtable are flushed first so the
        versioned delete unambiguously orders after them, mirroring
        IoTDB's flush-before-delete on the affected series.
        """
        state = self._state(name)
        with self._tracer.span("delete", series=name):
            with state.lock.write():
                if state.memtable:
                    self._flush_locked(state)
                with self._lock:
                    delete = Delete(int(t_start), int(t_end),
                                    self._versions.next())
                    state.deletes.add(delete)
                    self._mods.append(state.series_id, delete)
                if self._replication is not None:
                    self._replication.record_delete(state.series_id,
                                                    int(t_start),
                                                    int(t_end))
                self._invalidate_tiles(name, int(t_start), int(t_end) + 1)
            self._metrics.counter("engine_deletes_total").inc()
        return delete

    def _maybe_flush(self, state):
        """Threshold flush; caller holds the series write lock."""
        threshold = self._config.avg_series_point_number_threshold
        flushed = False
        while len(state.memtable) >= threshold:
            t, v = state.memtable.drain_prefix(threshold)
            self._seal_chunk(state, t, v)
            flushed = True
        if flushed:
            self._checkpoint_wal(state)

    def flush(self, name):
        """Flush a series' memtable into a final (possibly smaller) chunk."""
        state = self._state(name)
        with state.lock.write():
            self._flush_locked(state)

    def _flush_locked(self, state):
        """Flush body; caller holds the series write lock."""
        if not state.memtable:
            return
        with self._tracer.span("flush", series=state.name,
                               points=len(state.memtable)):
            t, v = state.memtable.drain()
            self._seal_chunk(state, t, v)
            self._checkpoint_wal(state)

    def _checkpoint_wal(self, state):
        """Make the series' WAL segment equal its memtable contents.

        After a full flush the segment rotates empty; after a partial
        (threshold) flush the still-buffered remainder is re-logged.
        Caller holds the series write lock.
        """
        if self._replication is not None:
            self._replication.record_flush(state.series_id)
        segment = self._wal.segment(state.series_id)
        if not state.memtable:
            segment.rotate()
        else:
            segment.rewrite(state.series_id, *state.memtable.snapshot())

    def flush_all(self):
        """Flush every series and seal the active TsFile so that all data
        is query-visible (each flush checkpoints its WAL segment)."""
        for name in self.series_names():
            self.flush(name)
        self._seal_active_file()

    # -- TsFile management ---------------------------------------------------------------

    def _seal_chunk(self, state, timestamps, values):
        """Seal one chunk; caller holds the series write lock."""
        if timestamps.size == 0:
            return
        with self._tracer.span("flush.seal_chunk", series=state.name,
                               points=int(timestamps.size)):
            with self._lock:
                version = self._versions.next()
                block, metadata = write_chunk(state.series_id, version,
                                              timestamps, values,
                                              self._config)
                if self._writer is None:
                    self._writer = TsFileWriter(self._next_file_path())
                    self._writer_chunks = 0
                located = self._writer.append_chunk(block, metadata)
                state.chunks.append(located)
                self._writer_chunks += 1
                seal_file = (self._writer_chunks
                             >= self._config.chunks_per_tsfile)
            self._metrics.counter("engine_chunks_sealed_total").inc()
            self._metrics.counter("engine_points_flushed_total") \
                .inc(int(timestamps.size))
            if seal_file:
                self._seal_active_file()

    def _next_file_path(self):
        self._file_seq += 1
        return os.path.join(self._data_dir, "%06d.tsfile" % self._file_seq)

    def _seal_active_file(self):
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
                self._writer_chunks = 0
                self._metrics.counter("engine_tsfiles_sealed_total").inc()
                self._metrics.gauge("engine_tsfile_seq").set(self._file_seq)

    def _on_io_retry(self, attempt, exc):
        self._metrics.counter("storage_io_retries_total").inc()

    def _open_reader(self, path):
        """A fresh (unpooled) :class:`TsFileReader` with engine config.

        Used by recovery and fsck, which manage the reader's lifetime
        themselves; queries go through the :meth:`tsfile_reader` pool.
        """
        return TsFileReader(path, self._stats, on_retry=self._on_io_retry)

    def tsfile_reader(self, path):
        """Pooled :class:`TsFileReader` for a sealed file.

        Raises :class:`StorageError` once the engine is closed, so a
        query racing :meth:`close` fails with a clean, typed error
        instead of reviving the drained reader pool.
        """
        with self._lock:
            if self._closed:
                raise StorageError("engine is closed")
            if path not in self._readers:
                self._readers[path] = self._open_reader(path)
            return self._readers[path]

    # -- query surface -----------------------------------------------------------------

    def chunks_for(self, name):
        """Sealed chunk metadata for a series (version order).

        Raises if the series still has buffered points — call
        :meth:`flush_all` before querying.  The returned list is a
        snapshot: chunks sealed later do not appear in it.
        """
        state = self._state(name)
        with state.lock.read():
            if state.memtable:
                raise StorageError(
                    "series %r has unflushed points; call flush_all() first"
                    % name)
            return list(state.chunks)

    def deletes_for(self, name):
        """A consistent snapshot of the series' :class:`DeleteList`."""
        state = self._state(name)
        with state.lock.read():
            return DeleteList(state.deletes)

    def series_lock(self, name):
        """The series' :class:`RWLock` (operators may hold ``read()``
        across a multi-step query for a full-query-stable view)."""
        return self._state(name).lock

    def metadata_reader(self, name):
        """A :class:`MetadataReader` over the series' sealed chunks."""
        return MetadataReader(self.chunks_for(name), self._stats)

    @property
    def quarantine(self):
        """The engine's :class:`QuarantineRegistry` of damaged chunks."""
        return self._quarantine

    # -- M4 tile cache -----------------------------------------------------------------

    @property
    def tile_cache(self):
        """The M4 viewport tile cache (None when disabled).

        Enabled via ``StorageConfig.tile_cache_bytes``; consumed by
        :class:`repro.core.tiles.TiledM4Operator` through the Executor,
        ``render_chart`` and the HTTP service.
        """
        return self._tile_cache

    def _series_max_time(self, state):
        """Upper bound on every timestamp ``state`` holds; caller must
        hold the series write lock.

        Lazily computed from sealed chunk statistics plus the memtable
        and cached on ``state.max_time`` (recovery leaves it None).
        Returns ``-2**63`` for an empty series so any timestamp
        compares strictly after.  Deletes and compaction never raise
        the true maximum, so the cached bound stays valid (it may
        over-estimate after a tail delete, which only costs a
        conservative full invalidation on the next write).
        """
        if state.max_time is not None:
            return state.max_time
        bound = -(1 << 63)
        for chunk in state.chunks:
            bound = max(bound, int(chunk.end_time))
        if len(state.memtable):
            t, _ = state.memtable.snapshot()
            if len(t):
                bound = max(bound, int(t.max()))
        state.max_time = bound
        return bound

    def _note_tiles_write(self, state, lo, hi, before_max):
        """Tile maintenance for a write of ``[lo, hi)``; caller holds
        the series write lock.

        A pure tail append (every new timestamp strictly after the
        series' previous maximum) marks overlapping tiles dirty for
        incremental cell repair instead of dropping them; interior or
        out-of-order writes fall back to overlap invalidation.
        """
        if self._tile_cache is not None:
            if lo > before_max:
                self._tile_cache.mark_dirty(state.name, lo, hi)
            else:
                self._tile_cache.invalidate(state.name, lo, hi)
        state.max_time = max(before_max, hi - 1)

    def _invalidate_tiles(self, name, lo, hi):
        """Drop cached tiles overlapping ``[lo, hi)`` of one series.

        Called from the write/delete paths while the series write lock
        is held, which is what makes tile invalidation linearizable
        with tile-stitching queries (they hold the read side).
        """
        if self._tile_cache is not None:
            self._tile_cache.invalidate(name, lo, hi)

    def _invalidate_series_tiles(self, name):
        """Drop every cached tile of a series (compaction hook:
        rewriting chunks may legally move BP/TP tie-break points)."""
        if self._tile_cache is not None:
            self._tile_cache.invalidate_series(name)

    def _on_quarantine_change(self, entry):
        """Quarantine subscription: newly-damaged chunks must not keep
        serving their pre-damage aggregates out of cached tiles."""
        if self._tile_cache is None:
            return
        if entry is None:
            self._tile_cache.invalidate_all()
            return
        state = self._series_by_id.get(entry.get("series_id"))
        start, end = entry.get("start_time"), entry.get("end_time")
        if state is None or start is None or end is None:
            # Cannot attribute the damage: drop everything (rare, and
            # always safe — tiles are pure derived data).
            self._tile_cache.invalidate_all()
        else:
            self._tile_cache.invalidate(state.name, int(start),
                                        int(end) + 1)

    def data_reader(self):
        """A fresh :class:`DataReader` with its own per-query
        decoded-page map."""
        return DataReader(self.tsfile_reader, self._stats)

    def total_points(self, name):
        """Latest-point count of the merged series (loads everything)."""
        from .merge import merge_arrays  # local import to avoid cycle noise
        reader = self.data_reader()
        chunks = [(*reader.load_chunk(meta), meta.version)
                  for meta in self.chunks_for(name)]
        t, _v = merge_arrays(chunks, self.deletes_for(name))
        return int(t.size)

    # -- the store surface (shared with ShardRouter) -----------------------------------
    #
    # Whatever ``repro.shard.open_store`` returns answers these calls, so
    # the server, CLI and benches never ask how the store is laid out;
    # a shard worker serves the same methods over its pipe by name.

    #: One in-process engine is one shard with no worker processes.
    n_shards = 1

    def shard_workers(self):
        """``{"shard-NN": alive}`` per worker process: none here."""
        return {}

    def execute_sql(self, sql, strict=False, slow_info=None,
                    debug_sleep_s=0.0):
        """Parse and run one statement; returns a ``ResultTable``.

        ``strict`` disables degraded reads for this call (a corrupt
        chunk raises instead of being skipped and flagged);
        ``slow_info`` lands on the slow-query entry; ``debug_sleep_s``
        is the test-only artificial-work knob, deadline-aware.
        """
        from ..query.executor import Executor
        from ..query.sql import parse
        if debug_sleep_s:
            sleep_checked(debug_sleep_s)
        with EXEC_SLOT.hold(self._metrics):
            return Executor(self, degraded=False if strict else None) \
                .execute(parse(sql), statement=sql, slow_info=slow_info)

    def render_series(self, series, width, height, t_qs=None, t_qe=None,
                      strict=False):
        """``(matrix, M4Result)``: M4-reduce ``series`` and rasterize
        (see :func:`repro.query.render.render_chart`)."""
        from ..query.render import render_chart
        with EXEC_SLOT.hold(self._metrics):
            return render_chart(self, series, width, height, t_qs, t_qe,
                                degraded=False if strict else None)

    def delta_spans(self, series, ranges, span):
        """Grid-aligned M4 spans over changed ``ranges`` (``/live``)."""
        from ..query.render import compute_delta_spans
        with EXEC_SLOT.hold(self._metrics):
            return compute_delta_spans(self, series, ranges, span)

    def series_info(self):
        """``(rows, down)``: one dict per series (name, time range,
        chunk/point/delete counts), sorted by name, plus the ids of
        shards that could not answer — always ``[]`` for one engine."""
        rows = []
        for name in sorted(self.series_names()):
            try:
                chunks = self.chunks_for(name)
                deletes = self.deletes_for(name)
            except StorageError:
                continue  # unflushed or racing a writer: skip, not fail
            rows.append({
                "name": name,
                "start_time": min((c.start_time for c in chunks),
                                  default=None),
                "end_time": max((c.end_time for c in chunks),
                                default=None),
                "chunks": len(chunks),
                "points": sum(c.n_points for c in chunks),
                "deletes": len(deletes)})
        return rows, []

    def chunk_count(self, name):
        """Sealed chunk count of ``name``."""
        return len(self.chunks_for(name))

    def compact(self):
        """Full compaction of every series; ``{name: surviving points}``."""
        return compact_all(self)

    @property
    def closed(self):
        """True once :meth:`close` has begun (no new readers issued)."""
        return self._closed

    def close(self):
        """Seal the active file and release every reader and the WAL.

        Buffered points stay in the WAL (not flushed), so a reopened
        engine recovers them — closing is not an implicit flush.
        Idempotent and safe to call concurrently — from many threads at
        once, and while queries are still in flight.  The first caller
        wins and performs the teardown; every other call returns
        immediately (it does not wait for the teardown to finish).
        In-flight queries either complete normally (chunk data already
        read: metadata, memtables and the decoded-page cache stay
        valid) or fail with a clean :class:`StorageError` /
        ``ValueError`` when they next touch a released file handle —
        never a crash or a deadlock, because teardown never waits on a
        series lock.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._seal_active_file()
            for reader in self._readers.values():
                reader.close()
            self._readers.clear()
            self._wal.close()
        self._persist_obs()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

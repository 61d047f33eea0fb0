"""Readers over LSM storage: MetadataReader, DataReader, MergeReader.

These mirror the IoTDB components of the paper's Figure 15:

* :class:`MetadataReader` — lists chunk metadata overlapping a time range
  without touching chunk data.
* :class:`DataReader` — loads chunk data, page by page or whole, applies
  deletes, and builds chunk indexes.  Each query uses a fresh DataReader,
  so its decoded-page cache models per-query buffers, not a shared cache.
* :class:`MergeReader` — streams the merged series point by point with a
  heap, resolving overwrites by version and applying deletes (the faithful
  transcription of IoTDB's MergeReader); the vectorized equivalent lives
  in :mod:`repro.storage.merge`.
"""

from __future__ import annotations

import heapq
import threading

import numpy as np

from ..core.index import BinarySearchIndex, ChunkIndex
from ..core.series import Point
from ..errors import StorageError
from .deletes import DeleteList
from .merge import merge_arrays


class MetadataReader:
    """Pure-metadata access to a series' chunks."""

    def __init__(self, chunk_metadata_list, stats=None):
        self._chunks = list(chunk_metadata_list)
        self._stats = stats

    def all_chunks(self):
        """Every chunk's metadata, in version order."""
        self._account(len(self._chunks))
        return sorted(self._chunks, key=lambda m: m.version)

    def chunks_overlapping(self, t_start, t_end):
        """Metadata of chunks whose interval intersects ``[t_start, t_end)``."""
        out = [m for m in self._chunks
               if (s := m.statistics).first.t < t_end
               and s.last.t >= t_start]
        self._account(len(out))
        return sorted(out, key=lambda m: m.version)

    def _account(self, n):
        if self._stats is not None:
            self._stats.add(metadata_reads=n)


class DataReader:
    """Chunk data access with page-level granularity and delete handling.

    Args:
        reader_pool: callable ``path -> TsFileReader`` (the engine's pool).
        stats: shared :class:`IoStats` (same one the TsFileReaders charge).
    """

    def __init__(self, reader_pool, stats=None):
        self._reader_pool = reader_pool
        self._stats = stats
        self._page_cache = {}
        self._page_lock = threading.Lock()

    # -- page / chunk loading ---------------------------------------------------

    def _reader(self, chunk_meta):
        if not chunk_meta.file_path:
            raise StorageError("chunk metadata has no file location")
        return self._reader_pool(chunk_meta.file_path)

    def page_timestamps(self, chunk_meta, page_index):
        """Decoded time column of one page (cached)."""
        key = (chunk_meta.file_path, chunk_meta.data_offset, page_index, "t")
        return self._cached_page(
            key, lambda: self._reader(chunk_meta)
            .read_page_timestamps(chunk_meta, page_index))

    def page_values(self, chunk_meta, page_index):
        """Decoded value column of one page (cached)."""
        key = (chunk_meta.file_path, chunk_meta.data_offset, page_index, "v")
        return self._cached_page(
            key, lambda: self._reader(chunk_meta)
            .read_page_values(chunk_meta, page_index))

    def _cached_page(self, key, decode):
        """Per-query map first, then an actual (counted) decode.

        Thread-safe: the per-query map is guarded by a lock, and the
        decode itself runs outside it, so threads sharing a reader never
        wait on each other's decode.  Two threads racing on the *same*
        page may both decode it — the arrays are identical, so the race
        is benign (the duplicate is dropped).
        """
        with self._page_lock:
            if key in self._page_cache:
                return self._page_cache[key]
        array = decode()
        with self._page_lock:
            return self._page_cache.setdefault(key, array)

    def load_chunk(self, chunk_meta, deletes=None, time_range=None):
        """Load a chunk's arrays, optionally delete-filtered and clipped.

        Args:
            deletes: a :class:`DeleteList`; only deletes newer than the
                chunk version apply.
            time_range: optional ``(t_start, t_end)`` half-open clip.
        Returns:
            ``(timestamps, values)``.
        """
        if self._stats is not None:
            self._stats.add(chunk_loads=1)
        times = []
        values = []
        for page_index in range(len(chunk_meta.pages)):
            times.append(self.page_timestamps(chunk_meta, page_index))
            values.append(self.page_values(chunk_meta, page_index))
        t = times[0] if len(times) == 1 else np.concatenate(times)
        v = values[0] if len(values) == 1 else np.concatenate(values)
        if time_range is not None:
            lo = int(np.searchsorted(t, time_range[0], side="left"))
            hi = int(np.searchsorted(t, time_range[1], side="left"))
            t, v = t[lo:hi], v[lo:hi]
        if deletes is not None:
            t, v = deletes.apply(t, v, chunk_meta.version)
        return t, v

    def load_chunk_rows(self, chunk_meta, start_row, end_row):
        """Arrays for rows ``[start_row, end_row)`` decoding only the pages
        that cover them (the partial scan of Example 3.4)."""
        row_starts = chunk_meta.page_row_starts()
        first_page = int(np.searchsorted(row_starts, start_row,
                                         side="right")) - 1
        last_page = int(np.searchsorted(row_starts, end_row - 1,
                                        side="right")) - 1
        times = []
        values = []
        for page_index in range(max(first_page, 0), last_page + 1):
            page_start = int(row_starts[page_index])
            t = self.page_timestamps(chunk_meta, page_index)
            v = self.page_values(chunk_meta, page_index)
            lo = max(start_row - page_start, 0)
            hi = min(end_row - page_start, t.size)
            times.append(t[lo:hi])
            values.append(v[lo:hi])
        if not times:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        if len(times) == 1:
            return times[0], values[0]
        return np.concatenate(times), np.concatenate(values)

    def point_at_row(self, chunk_meta, row):
        """The :class:`Point` at a global chunk row, via one page pair."""
        row_starts = chunk_meta.page_row_starts()
        page_index = int(np.searchsorted(row_starts, row, side="right")) - 1
        offset = row - int(row_starts[page_index])
        t = self.page_timestamps(chunk_meta, page_index)
        v = self.page_values(chunk_meta, page_index)
        if offset < 0 or offset >= t.size:
            raise StorageError("row %d out of chunk bounds" % row)
        return Point(int(t[offset]), float(v[offset]))

    # -- chunk indexes -------------------------------------------------------------

    def chunk_index(self, chunk_meta, use_regression=True):
        """Build the chunk index of Definition 3.5 for a chunk.

        With ``use_regression`` (default) the stored step regression is
        used; otherwise the binary-search ablation baseline.  Either way
        lookups decode only the pages they touch.
        """
        def read_page(page_index):
            return self.page_timestamps(chunk_meta, page_index)

        def on_lookup():
            if self._stats is not None:
                self._stats.add(index_lookups=1)

        regression = chunk_meta.step_regression() if use_regression else None
        if regression is not None:
            return ChunkIndex(regression, chunk_meta.page_row_starts(),
                              chunk_meta.n_points, read_page, on_lookup)
        return BinarySearchIndex(
            chunk_meta.page_row_starts(), chunk_meta.page_start_times(),
            chunk_meta.n_points, chunk_meta.start_time, chunk_meta.end_time,
            read_page, on_lookup)

    def clear_cache(self):
        """Drop all decoded pages (simulate a cold query)."""
        with self._page_lock:
            self._page_cache.clear()


class MergeReader:
    """Heap-based streaming merge of chunks, in time order.

    Yields the latest point per timestamp, applying deletes.  Matches
    Definition 2.7 and :func:`repro.storage.merge.merge_arrays` exactly
    (asserted by property tests); kept for fidelity with IoTDB's reader
    and used by the streaming variant of M4-UDF.
    """

    def __init__(self, chunks, deletes=None, stats=None):
        """``chunks``: iterable of ``(timestamps, values, version)``."""
        self._deletes = deletes if deletes is not None else DeleteList()
        self._stats = stats
        self._heap = []
        for chunk_id, (timestamps, values, version) in enumerate(chunks):
            t = np.asarray(timestamps, dtype=np.int64)
            v = np.asarray(values, dtype=np.float64)
            if t.size:
                # Heap entries: (time, -version, chunk_id, row, arrays)
                heapq.heappush(self._heap,
                               (int(t[0]), -version, chunk_id, 0, t, v))

    def __iter__(self):
        heap = self._heap
        while heap:
            t, neg_version, chunk_id, row, times, values = heapq.heappop(heap)
            version = -neg_version
            # Skip lower-version duplicates of the same timestamp.
            while heap and heap[0][0] == t:
                _, dup_neg, dup_id, dup_row, dup_t, dup_v = heapq.heappop(heap)
                if dup_row + 1 < dup_t.size:
                    heapq.heappush(heap, (int(dup_t[dup_row + 1]), dup_neg,
                                          dup_id, dup_row + 1, dup_t, dup_v))
            if row + 1 < times.size:
                heapq.heappush(heap, (int(times[row + 1]), neg_version,
                                      chunk_id, row + 1, times, values))
            if self._stats is not None:
                self._stats.add(points_merged=1)
            if self._deletes.covers(t, min_version=version):
                continue
            yield Point(t, float(values[row]))


def merged_series_arrays(chunks, deletes=None, stats=None):
    """Vectorized merged series with MergeReader-compatible accounting."""
    t, v = merge_arrays(chunks, deletes)
    if stats is not None:
        stats.add(points_merged=sum(np.asarray(c[0]).size for c in chunks))
    return t, v

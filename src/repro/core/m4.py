"""M4 representation, RDBMS-style (Jugel et al., VLDB 2014), plus the
M4-UDF baseline operator over LSM storage.

:func:`segment_m4` is the one segmented M4 kernel: FP/LP/BP/TP of every
segment of time-ordered arrays in a single vectorized pass.
:func:`m4_aggregate_arrays` (the single-scan grouping of Definition
2.3), M4-LSM's sweep, the GROUP BY baseline and the MinMax reducer all
run on it.  The
:class:`M4UDFOperator` reproduces the paper's baseline exactly: load every
chunk overlapping the query range, merge them into one ordered series
(applying deletes and overwrites), then run the plain M4 scan.
"""

from __future__ import annotations

import numpy as np

from ..errors import CorruptFileError, InvalidQueryRangeError
from ..obs import tracer_of
from ..storage.deadline import check_deadline
from .result import M4Result, merge_time_ranges
from .series import TimeSeries
from .spans import span_starts, validate_query


def first_extreme(v, starts, reduce):
    """Row of the first extreme in each segment of ``v``.

    Segment ``k`` is ``v[starts[k]:starts[k + 1]]`` (the last runs to
    the end); ``starts`` is strictly increasing and begins at 0.
    ``reduce`` is ``np.minimum`` or ``np.maximum``.  Equal to a per-
    segment ``argmin``/``argmax``: the first row attaining the extreme
    wins a value tie, and a NaN, which the reduction propagates, is the
    extreme from the segment's first NaN on.
    """
    extreme = reduce.reduceat(v, starts)
    lengths = np.diff(starts, append=v.size)
    hit = v == np.repeat(extreme, lengths)
    nan = np.isnan(extreme)
    if nan.any():
        hit |= np.isnan(v) & np.repeat(nan, lengths)
    rows = np.flatnonzero(hit)
    return rows[np.searchsorted(rows, starts)]


def segment_m4(t, v, starts):
    """M4 of every segment of time-ordered ``(t, v)`` in one pass.

    Segments are as for :func:`first_extreme`.  Returns ``(times,
    values)``, each of shape ``(4, len(starts))`` with rows FP, LP, BP,
    TP (the layout of :class:`M4Result` columns).  FP/LP are the
    segment's first and last rows; BP/TP break value ties on the
    earliest time, exactly like ``argmin``/``argmax``.
    """
    rows = np.stack((starts, np.append(starts, t.size)[1:] - 1,
                     first_extreme(v, starts, np.minimum),
                     first_extreme(v, starts, np.maximum)))
    return t[rows], v[rows]


def m4_aggregate_arrays(timestamps, values, t_qs, t_qe, w):
    """M4 over time-ordered arrays; the relational reference algorithm.

    Points outside ``[t_qs, t_qe)`` are ignored.  Points are
    time-ordered, so each occupied span is one contiguous segment and
    :func:`segment_m4` answers all of them at once.  Bottom/top
    tie-break on earliest time.
    """
    validate_query(t_qs, t_qe, w)
    t = np.asarray(timestamps, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    lo = int(np.searchsorted(t, t_qs, side="left"))
    hi = int(np.searchsorted(t, t_qe, side="left"))
    t = t[lo:hi]
    v = v[lo:hi]

    occupied = np.zeros(w, dtype=bool)
    times = np.zeros((4, w), dtype=np.int64)
    values = np.zeros((4, w), dtype=np.float64)
    if t.size:
        spans, starts = span_starts(t, t_qs, t_qe, w)
        occupied[spans] = True
        times[:, spans], values[:, spans] = segment_m4(t, v, starts)
    return M4Result.from_columns(t_qs, t_qe, w, occupied, times, values)


def m4_aggregate_series(series, t_qs=None, t_qe=None, w=1000):
    """M4 over a :class:`TimeSeries`; range defaults to the whole series
    (end exclusive bound is ``last.t + 1`` so the final point is kept)."""
    if len(series) == 0:
        raise InvalidQueryRangeError("cannot aggregate an empty series")
    if t_qs is None:
        t_qs = series.first().t
    if t_qe is None:
        t_qe = series.last().t + 1
    return m4_aggregate_arrays(series.timestamps, series.values,
                               t_qs, t_qe, w)


def _count_degraded(engine, operator_name):
    """Tick the engine's degraded-query counter (no-op without metrics)."""
    metrics = getattr(engine, "metrics", None)
    if metrics is not None:
        metrics.counter("degraded_queries_total",
                        operator=operator_name).inc()


def degraded_mode(engine, degraded):
    """The effective degraded-read mode: ``degraded`` when given, else
    ``engine.config.degraded_reads``."""
    if degraded is not None:
        return degraded
    return getattr(engine.config, "degraded_reads", True)


def drop_quarantined(engine, metas, skipped):
    """Filter out already-quarantined chunks, recording their ranges."""
    quarantine = getattr(engine, "quarantine", None)
    if quarantine is None or not len(quarantine):
        return metas
    healthy = []
    for meta in metas:
        if quarantine.contains_meta(meta):
            skipped.append((meta.start_time, meta.end_time + 1))
        else:
            healthy.append(meta)
    return healthy


def quarantine_chunk(engine, skipped, exc, meta):
    """Quarantine a chunk that failed its checksum; record its range.

    ``functools.partial(quarantine_chunk, engine, skipped)`` is the
    sweep's degraded-mode ``on_damage`` callback."""
    quarantine = getattr(engine, "quarantine", None)
    if quarantine is not None:
        quarantine.add_meta(meta, reason=str(exc))
    skipped.append((meta.start_time, meta.end_time + 1))


def load_chunks(engine, data_reader, metas, degraded, skipped):
    """``(t, v, version)`` per chunk, with a cancellation point before
    each load; in degraded mode a chunk that fails its checksum is
    quarantined and skipped instead of aborting the query."""
    chunk_arrays = []
    for meta in metas:
        check_deadline()
        try:
            t, v = data_reader.load_chunk(meta)
        except CorruptFileError as exc:
            if not degraded:
                raise
            quarantine_chunk(engine, skipped, exc, meta)
            continue
        chunk_arrays.append((t, v, meta.version))
    return chunk_arrays


class M4UDFOperator:
    """The baseline: merge online, then scan (Figure 2(b)).

    Reads *all* chunks overlapping the query range through the engine's
    DataReader, materializes the merged series, and applies the
    relational M4 scan — exactly what the paper's ``UDFM4`` does on top
    of ``SeriesRawDataBatchReader``.

    Args:
        engine: a :class:`repro.storage.engine.StorageEngine`.
        streaming: use the heap :class:`MergeReader` instead of the
            vectorized merge (slower; byte-for-byte IoTDB behaviour).
        degraded: skip quarantined/corrupt chunks and flag the result
            instead of raising; ``None`` (default) follows
            ``engine.config.degraded_reads``.
    """

    name = "M4-UDF"

    def __init__(self, engine, streaming=False, degraded=None):
        self._engine = engine
        self._streaming = streaming
        self._degraded = degraded

    def query(self, series_name, t_qs, t_qe, w):
        """Run the M4 representation query; returns :class:`M4Result`."""
        validate_query(t_qs, t_qe, w)
        tracer = tracer_of(self._engine)
        skipped = []
        with tracer.span("operator.m4udf", series=series_name, w=w):
            chunk_arrays, deletes = self._read(series_name, t_qs, t_qe,
                                               skipped)
            with tracer.span("merge", streaming=self._streaming):
                check_deadline()  # cancellation point: before the merge
                t, v = self._merge(chunk_arrays, deletes)
            with tracer.span("aggregate"):
                check_deadline()
                result = m4_aggregate_arrays(t, v, t_qs, t_qe, w)
        if skipped:
            result = result.with_skipped(
                merge_time_ranges(skipped, t_qs, t_qe))
            _count_degraded(self._engine, self.name)
        return result

    def merged_series(self, series_name, t_qs, t_qe, skipped=None):
        """The fully merged series for a range (loads everything).

        ``skipped``: optional list; in degraded mode the time ranges of
        damaged chunks left out of the merge are appended to it.
        """
        collect = []
        chunk_arrays, deletes = self._read(series_name, t_qs, t_qe, collect)
        if skipped is not None:
            skipped[:] = merge_time_ranges(collect, t_qs, t_qe)
        t, v = self._merge(chunk_arrays, deletes)
        lo = int(np.searchsorted(t, t_qs, side="left"))
        hi = int(np.searchsorted(t, t_qe, side="left"))
        return TimeSeries(t[lo:hi], v[lo:hi], validate=False)

    def _read(self, series_name, t_qs, t_qe, skipped):
        """``(chunk_arrays, deletes)``: every chunk overlapping the range
        that is not wholly deleted, loaded (damaged ones left out and
        recorded in ``skipped`` in degraded mode)."""
        tracer = tracer_of(self._engine)
        degraded = degraded_mode(self._engine, self._degraded)
        with tracer.span("read.metadata"):
            metadata_reader = self._engine.metadata_reader(series_name)
            deletes = self._engine.deletes_for(series_name)
            overlapping = metadata_reader.chunks_overlapping(t_qs, t_qe)
        # IoTDB's reader skips chunks whose whole interval is deleted
        # (the effect behind Figure 14's falling M4-UDF latency).
        metas = [meta for meta in overlapping
                 if not deletes.fully_deletes(meta.start_time,
                                              meta.end_time, meta.version)]
        if degraded:
            metas = drop_quarantined(self._engine, metas, skipped)
        with tracer.span("read.chunks", chunks=len(metas)):
            return load_chunks(self._engine, self._engine.data_reader(),
                               metas, degraded, skipped), deletes

    def _merge(self, chunk_arrays, deletes):
        if not chunk_arrays:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        if self._streaming:
            from ..storage.readers import MergeReader
            points = list(MergeReader(chunk_arrays, deletes,
                                      self._engine.stats))
            t = np.array([p.t for p in points], dtype=np.int64)
            v = np.array([p.v for p in points], dtype=np.float64)
            return t, v
        from ..storage.readers import merged_series_arrays
        return merged_series_arrays(chunk_arrays, deletes,
                                    self._engine.stats)

"""M4 representation, RDBMS-style (Jugel et al., VLDB 2014), plus the
M4-UDF baseline operator over LSM storage.

:func:`m4_aggregate_arrays` is the core single-scan grouping of
Definition 2.3, vectorized over time-ordered arrays.  The
:class:`M4UDFOperator` reproduces the paper's baseline exactly: load every
chunk overlapping the query range, merge them into one ordered series
(applying deletes and overwrites), then run the plain M4 scan.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import CorruptFileError, InvalidQueryRangeError
from ..obs import tracer_of
from ..storage.deadline import check_deadline
from .result import M4Result, SpanAggregate, merge_time_ranges
from .series import Point, TimeSeries
from .spans import span_indices, validate_query


def m4_aggregate_arrays(timestamps, values, t_qs, t_qe, w):
    """M4 over time-ordered arrays; the relational reference algorithm.

    Points outside ``[t_qs, t_qe)`` are ignored.  Runs one vectorized
    pass to find span boundaries plus an O(w) loop over the occupied
    spans.  Bottom/top tie-break on earliest time (``argmin``/``argmax``
    return the first extreme).
    """
    validate_query(t_qs, t_qe, w)
    t = np.asarray(timestamps, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    lo = int(np.searchsorted(t, t_qs, side="left"))
    hi = int(np.searchsorted(t, t_qe, side="left"))
    t = t[lo:hi]
    v = v[lo:hi]

    spans = [SpanAggregate()] * w
    if t.size:
        indices = span_indices(t, t_qs, t_qe, w)
        # Points are time-ordered, so each span is one contiguous slice.
        occupied, starts = np.unique(indices, return_index=True)
        ends = np.append(starts[1:], t.size)
        for span, start, end in zip(occupied, starts, ends):
            seg_t = t[start:end]
            seg_v = v[start:end]
            bottom = start + int(np.argmin(seg_v))
            top = start + int(np.argmax(seg_v))
            spans[int(span)] = SpanAggregate(
                first=Point(int(seg_t[0]), float(seg_v[0])),
                last=Point(int(seg_t[-1]), float(seg_v[-1])),
                bottom=Point(int(t[bottom]), float(v[bottom])),
                top=Point(int(t[top]), float(v[top])),
            )
    return M4Result(int(t_qs), int(t_qe), int(w), tuple(spans))


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
            result = dataclasses.replace(
                result, skipped=merge_time_ranges(skipped, t_qs, t_qe))
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

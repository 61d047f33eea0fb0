"""The render pipeline and ``/live`` span deltas, below the serving layer.

``StorageEngine.render_series`` / ``delta_spans`` delegate here, so the
CLI, ``GET /render``, ``GET /live`` and a shard worker all run the same
code against the engine that owns the series.
"""

from __future__ import annotations

import numpy as np

from ..core.tiles import m4_operator
from ..errors import QueryError, ReproError
from ..viz.raster import PixelGrid, rasterize


def render_chart(engine, series, width, height, t_qs=None, t_qe=None,
                 degraded=None):
    """The shared render pipeline: M4-LSM reduce, then rasterize.

    Used verbatim by both ``repro render`` and ``GET /render`` so the
    two surfaces are byte-identical by construction.  Returns
    ``(matrix, result)``: the binary pixel matrix and the
    :class:`~repro.core.result.M4Result` it was drawn from.

    ``degraded`` is passed through to the operator (``None`` follows
    the engine config); a fully-skipped series renders an empty chart
    rather than crashing on the empty value range.
    """
    chunks = engine.chunks_for(series)
    if not chunks:
        raise QueryError("series %r is empty" % series)
    if t_qs is None:
        t_qs = min(c.start_time for c in chunks)
    if t_qe is None:
        t_qe = max(c.end_time for c in chunks) + 1
    result = m4_operator(engine, degraded).query(
        series, int(t_qs), int(t_qe), int(width))
    reduced = result.to_series()
    if len(reduced):
        v_lo, v_hi = float(reduced.values.min()), \
            float(reduced.values.max())
    else:
        v_lo, v_hi = 0.0, 1.0  # every chunk skipped: blank canvas
    grid = PixelGrid(int(t_qs), int(t_qe), v_lo, v_hi,
                     int(width), int(height))
    return rasterize(reduced, grid), result


def spans_as_json(result):
    """Per-pixel-column representation points, empty spans skipped."""
    index = np.flatnonzero(result.occupied)
    times = result.times[:, index].T.tolist()
    values = result.values[:, index].T.tolist()
    return [{"span": i,
             "first": [t[0], v[0]], "last": [t[1], v[1]],
             "bottom": [t[2], v[2]], "top": [t[3], v[3]]}
            for i, t, v in zip(index.tolist(), times, values)]


def compute_delta_spans(engine, series, ranges, span):
    """Grid-aligned M4 spans over each changed range of ``series``.

    Cells are computed on the absolute ``span``-width grid — the same
    cell argument as the tile cache — so a client chart on that grid
    can splice them in and stay byte-identical to a full refetch.  A
    range the engine cannot answer yet (e.g. memtable racing a flush)
    reports an ``error`` for that delta instead of failing the poll.
    """
    operator = m4_operator(engine)
    deltas = []
    for lo, hi in ranges:
        lo_g = (int(lo) // span) * span
        hi_g = -(-int(hi) // span) * span
        delta = {"t_qs": lo_g, "t_qe": hi_g}
        try:
            result = operator.query(series, lo_g, hi_g,
                                    (hi_g - lo_g) // span)
            delta["spans"] = spans_as_json(result)
            if result.degraded:
                delta["skipped_ranges"] = [
                    [int(s), int(e)] for s, e in result.skipped]
        except ReproError as exc:
            delta["error"] = str(exc)
        deltas.append(delta)
    return deltas

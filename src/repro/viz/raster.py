"""Two-color line-chart rasterization.

M4's guarantee (Jugel et al., VLDB 2014) is stated for binary line
charts: rendering the M4-reduced series produces *exactly* the same
pixel matrix as rendering the full series.  To validate that claim we
need the renderer the guarantee speaks about: an *ideal* polyline
rasterizer that, for every pixel column a segment crosses, fills the
contiguous run of pixels the segment's y-extent covers in that column.

:func:`rasterize` implements that renderer; :func:`rasterize_bresenham`
is the classic integer line algorithm, kept for comparison (its pixel
choice differs slightly, but M4 remains pixel-exact under it in the
benches as well because both renderings consume the same four points).
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError


class PixelGrid:
    """Maps the data domain onto a ``width x height`` binary pixel matrix.

    Columns follow the M4 span rule (``floor(w * (t - t_qs) / D)``) so a
    pixel column corresponds exactly to one M4 span.  Rows map values
    linearly; row 0 is the bottom of the chart.
    """

    def __init__(self, t_qs, t_qe, v_min, v_max, width, height):
        if t_qe <= t_qs:
            raise ReproError("empty time range for rasterization")
        if width <= 0 or height <= 0:
            raise ReproError("pixel grid must have positive dimensions")
        if v_max < v_min:
            raise ReproError("v_max < v_min")
        self.t_qs = int(t_qs)
        self.t_qe = int(t_qe)
        self.v_min = float(v_min)
        self.v_max = float(v_max)
        self.width = int(width)
        self.height = int(height)

    @classmethod
    def for_series(cls, series, width, height, t_qs=None, t_qe=None):
        """A grid covering a series' full time and value extent."""
        if len(series) == 0:
            raise ReproError("cannot build a grid for an empty series")
        t_qs = series.first().t if t_qs is None else t_qs
        t_qe = series.last().t + 1 if t_qe is None else t_qe
        return cls(t_qs, t_qe, float(series.values.min()),
                   float(series.values.max()), width, height)

    def column_of(self, t):
        """Pixel column of timestamp ``t`` (clamped to the grid)."""
        col = (int(t) - self.t_qs) * self.width // (self.t_qe - self.t_qs)
        return min(max(col, 0), self.width - 1)

    def x_of(self, t):
        """Continuous x coordinate (in pixel units) of timestamp ``t``."""
        return (t - self.t_qs) * self.width / (self.t_qe - self.t_qs)

    def row_of(self, v):
        """Pixel row of value ``v`` (row 0 = bottom, clamped)."""
        if self.v_max == self.v_min:
            return 0
        row = int((v - self.v_min) / (self.v_max - self.v_min)
                  * (self.height - 1) + 0.5)
        return min(max(row, 0), self.height - 1)

    def y_of(self, v):
        """Continuous y coordinate (in pixel rows) of value ``v``."""
        if self.v_max == self.v_min:
            return 0.0
        return (v - self.v_min) / (self.v_max - self.v_min) * (self.height - 1)

    def empty_matrix(self):
        """A blank ``height x width`` boolean canvas."""
        return np.zeros((self.height, self.width), dtype=bool)


#: Segments drawn per array pass; bounds the working set on full series.
_BLOCK = 1 << 16


def rasterize(series, grid):
    """Ideal two-color polyline rendering of a series onto ``grid``.

    Every segment between consecutive points contributes, per pixel
    column it crosses, the contiguous pixel run covering its y-extent in
    that column — the rendering model under which M4 is error-free.
    All runs are computed in arrays and filled by a per-column
    cumulative sum; values are expected inside the grid's value range.
    """
    matrix = grid.empty_matrix()
    n = len(series)
    if n == 0:
        return matrix
    t = series.timestamps
    v = series.values
    if n == 1:
        matrix[grid.row_of(float(v[0])), grid.column_of(int(t[0]))] = True
        return matrix
    # Python ints divide exactly; int64 -> float64 does not past 2**53.
    x = np.array([grid.x_of(ti) for ti in t.tolist()])
    y = np.zeros(n) + grid.y_of(v)   # a flat grid's y_of is a scalar 0
    runs = np.zeros((grid.height + 1) * grid.width, dtype=np.int64)
    for lo in range(0, n - 1, _BLOCK):
        starts, ends = _segment_runs(x[lo:lo + _BLOCK + 1],
                                     y[lo:lo + _BLOCK + 1], grid)
        runs += np.bincount(starts, minlength=runs.size)
        runs -= np.bincount(ends, minlength=runs.size)
    runs = runs.reshape(grid.height + 1, grid.width)
    return np.cumsum(runs, axis=0)[:-1] > 0


def _segment_runs(x, y, grid):
    """Flat ``row * width + col`` index of the first pixel and one past
    the last of every (segment, crossed column) pair's pixel run."""
    cols = np.clip(x, 0, grid.width - 1).astype(np.int64)
    n_cols = np.abs(cols[1:] - cols[:-1]) + 1
    seg = np.repeat(np.arange(n_cols.size), n_cols)
    col = np.minimum(cols[:-1], cols[1:])[seg] + np.arange(seg.size) \
        - np.repeat(np.cumsum(n_cols) - n_cols, n_cols)
    x0, x1, y0, y1 = x[:-1][seg], x[1:][seg], y[:-1][seg], y[1:][seg]
    # The segment's x-range within the column, clamped onto the segment
    # when the column lies outside it (a vertical one keeps its own x).
    x_min, x_max = np.minimum(x0, x1), np.maximum(x0, x1)
    x_lo = np.maximum(col, x_min)
    x_hi = np.minimum(col + 1, x_max)
    clamped = np.maximum(x_min, np.minimum(col, x_max))
    x_lo, x_hi = (np.where(x_hi < x_lo, clamped, x_lo),
                  np.where(x_hi < x_lo, clamped, x_hi))
    # Endpoint heights verbatim where the clamp lands on an endpoint:
    # re-interpolating them on steep segments loses a few ulps, enough
    # to flip a pixel at a .5 rounding boundary.
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        y_a = np.where(x_lo == x0, y0, np.where(
            x_lo == x1, y1, y0 + slope * (x_lo - x0)))
        y_b = np.where(x_hi == x1, y1, np.where(
            x_hi == x0, y0, y0 + slope * (x_hi - x0)))
    # int() truncates toward zero; the run is cut to the grid's rows.
    lo = np.clip(np.trunc(np.minimum(y_a, y_b) + 0.5), 0, grid.height)
    hi = np.clip(np.trunc(np.maximum(y_a, y_b) + 0.5), -1, grid.height - 1)
    keep = lo <= hi
    col = col[keep]
    return (lo[keep].astype(np.int64) * grid.width + col,
            (hi[keep].astype(np.int64) + 1) * grid.width + col)


def rasterize_bresenham(series, grid):
    """Classic Bresenham polyline rendering (for comparison only)."""
    matrix = grid.empty_matrix()
    n = len(series)
    if n == 0:
        return matrix
    t = series.timestamps
    v = series.values
    prev = None
    for i in range(n):
        col = grid.column_of(int(t[i]))
        row = grid.row_of(float(v[i]))
        if prev is not None:
            _bresenham(matrix, prev[0], prev[1], col, row)
        else:
            matrix[row, col] = True
        prev = (col, row)
    return matrix


def _bresenham(matrix, x0, y0, x1, y1):
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    step_x = 1 if x0 < x1 else -1
    step_y = 1 if y0 < y1 else -1
    error = dx + dy
    x, y = x0, y0
    while True:
        matrix[y, x] = True
        if x == x1 and y == y1:
            return
        doubled = 2 * error
        if doubled >= dy:
            error += dy
            x += step_x
        if doubled <= dx:
            error += dx
            y += step_y

"""Property-based test of the paper's headline quality claim: M4 renders
pixel-exactly for arbitrary series and chart geometries; and of the
array rasteriser against the per-segment reference renderer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TimeSeries
from repro.viz import PixelGrid, compare_pixels, m4_reduce, rasterize


@st.composite
def charts(draw):
    n = draw(st.integers(2, 300))
    times = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n,
                          unique=True))
    times.sort()
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    width = draw(st.integers(1, 60))
    height = draw(st.integers(1, 60))
    return (np.array(times, dtype=np.int64),
            np.array(values, dtype=np.float64), width, height)


@given(charts())
@settings(max_examples=80, deadline=None)
def test_m4_zero_pixel_error(chart):
    t, v, width, height = chart
    series = TimeSeries(t, v)
    grid = PixelGrid(int(t[0]), int(t[-1]) + 1, float(v.min()),
                     float(v.max()), width, height)
    reference = rasterize(series, grid)
    reduced = m4_reduce(t, v, grid.t_qs, grid.t_qe, width)
    comparison = compare_pixels(reference, rasterize(reduced, grid))
    assert comparison.is_exact(), comparison


@given(charts())
@settings(max_examples=40, deadline=None)
def test_reduction_never_exceeds_4w_points(chart):
    t, v, width, _height = chart
    reduced = m4_reduce(t, v, int(t[0]), int(t[-1]) + 1, width)
    assert len(reduced) <= 4 * width


# -- the array rasteriser against the per-segment reference ------------------

def draw_segment(matrix, grid, x0, y0, x1, y1):
    """Reference renderer: fill, per crossed column, the pixel run the
    segment covers."""
    col0 = min(max(int(x0), 0), grid.width - 1)
    col1 = min(max(int(x1), 0), grid.width - 1)
    if x1 == x0:
        lo, hi = sorted((int(y0 + 0.5), int(y1 + 0.5)))
        matrix[max(lo, 0):min(hi, grid.height - 1) + 1, col0] = True
        return
    slope = (y1 - y0) / (x1 - x0)
    for col in range(min(col0, col1), max(col0, col1) + 1):
        x_lo = max(col, min(x0, x1))
        x_hi = min(col + 1, max(x0, x1))
        if x_hi < x_lo:
            x_lo = x_hi = max(min(x0, x1), min(col, max(x0, x1)))
        y_a = y0 if x_lo == x0 else (y1 if x_lo == x1
                                     else y0 + slope * (x_lo - x0))
        y_b = y1 if x_hi == x1 else (y0 if x_hi == x0
                                     else y0 + slope * (x_hi - x0))
        lo = int(min(y_a, y_b) + 0.5)
        hi = int(max(y_a, y_b) + 0.5)
        matrix[max(lo, 0):min(hi, grid.height - 1) + 1, col] = True


def rasterize_per_segment(series, grid):
    """One :func:`draw_segment` call per segment (the reference)."""
    matrix = grid.empty_matrix()
    t, v = series.timestamps, series.values
    if len(series) == 1:
        matrix[grid.row_of(float(v[0])), grid.column_of(int(t[0]))] = True
    for i in range(len(series) - 1):
        draw_segment(matrix, grid,
                     float(grid.x_of(int(t[i]))), grid.y_of(float(v[i])),
                     float(grid.x_of(int(t[i + 1]))),
                     grid.y_of(float(v[i + 1])))
    return matrix


@st.composite
def raster_cases(draw):
    """Grids and polylines that reach every branch of the renderer:
    repeated timestamps (vertical segments), steep jumps, flat series,
    points outside the time range, unsorted points, values on the .5
    row boundaries and timestamps on the column boundaries."""
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    t_qs = draw(st.sampled_from([0, -7, 2 ** 60]))
    ticks = draw(st.sampled_from([width, 2 * width, 3 * width + 1, 997]))
    t_qe = t_qs + ticks
    n = draw(st.integers(1, 40))
    offsets = draw(st.lists(st.integers(-3, ticks + 3), min_size=n,
                            max_size=n))
    if draw(st.booleans()):
        offsets.sort()
    kind = draw(st.sampled_from(["lattice", "floats", "flat"]))
    if kind == "lattice":   # y lands on .5 boundaries, v_min/v_max fixed
        values = [k / 2 for k in draw(st.lists(
            st.integers(0, 2 * (height - 1)), min_size=n, max_size=n))]
        v_min, v_max = 0.0, float(height - 1)
    elif kind == "floats":  # steep and shallow segments alike
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n,
                               max_size=n))
        v_min, v_max = min(values), max(values)
    else:
        values = [draw(st.floats(-10, 10))] * n
        v_min = v_max = values[0]
    series = TimeSeries(np.array(offsets, dtype=np.int64) + t_qs,
                        np.array(values), validate=False)
    return series, PixelGrid(t_qs, t_qe, v_min, v_max, width, height)


@given(raster_cases())
@settings(max_examples=400, deadline=None)
def test_rasterize_matches_per_segment_reference(case):
    series, grid = case
    np.testing.assert_array_equal(rasterize(series, grid),
                                  rasterize_per_segment(series, grid))

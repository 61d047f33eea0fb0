"""Data reduction baselines M4 is compared against (Section 5.1).

All reducers take time-ordered arrays plus the query geometry and return
a reduced :class:`TimeSeries`.  MinMax and PAA are the classic
visualization-oriented aggregations; systematic and random sampling are
the generic data mining reducers.  None of them is pixel-exact — the E8
bench quantifies their error next to M4's zero.
"""

from __future__ import annotations

import numpy as np

from ..core.m4 import first_extreme, m4_aggregate_arrays
from ..core.series import TimeSeries
from ..core.spans import span_starts, validate_query


def _in_range(timestamps, values, t_qs, t_qe, w):
    """The in-range arrays plus the row each occupied span starts at."""
    validate_query(t_qs, t_qe, w)
    t = np.asarray(timestamps)
    v = np.asarray(values)
    lo = int(np.searchsorted(t, t_qs, side="left"))
    hi = int(np.searchsorted(t, t_qe, side="left"))
    t, v = t[lo:hi], v[lo:hi]
    return t, v, span_starts(t, t_qs, t_qe, w)[1]


def minmax_reduce(timestamps, values, t_qs, t_qe, w):
    """Per span keep only a min-value and a max-value point."""
    t, v, starts = _in_range(timestamps, values, t_qs, t_qe, w)
    if not t.size:
        return TimeSeries(t, v, validate=False)
    rows = np.unique(np.concatenate((first_extreme(v, starts, np.minimum),
                                     first_extreme(v, starts, np.maximum))))
    return TimeSeries(t[rows], v[rows], validate=False)


def paa_reduce(timestamps, values, t_qs, t_qe, w):
    """Piecewise Aggregate Approximation: one mean point per span,
    placed at the span's mean timestamp."""
    t, v, starts = _in_range(timestamps, values, t_qs, t_qe, w)
    ends = np.append(starts[1:], t.size)
    out_t = [int(t[a:b].mean()) for a, b in zip(starts, ends)]
    out_v = [float(v[a:b].mean()) for a, b in zip(starts, ends)]
    return TimeSeries(np.array(out_t, dtype=np.int64),
                      np.array(out_v, dtype=np.float64))


def systematic_sample(timestamps, values, target_points):
    """Every n-th point so roughly ``target_points`` survive."""
    t = np.asarray(timestamps)
    v = np.asarray(values)
    if target_points <= 0 or t.size == 0:
        return TimeSeries.empty()
    step = max(t.size // target_points, 1)
    rows = np.arange(0, t.size, step)
    return TimeSeries(t[rows], v[rows], validate=False)


def random_sample(timestamps, values, target_points, seed=0):
    """Uniform random sample of ``target_points`` points (time order kept)."""
    t = np.asarray(timestamps)
    v = np.asarray(values)
    if target_points <= 0 or t.size == 0:
        return TimeSeries.empty()
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(t.size, size=min(target_points, t.size),
                              replace=False))
    return TimeSeries(t[rows], v[rows], validate=False)


def m4_reduce(timestamps, values, t_qs, t_qe, w):
    """M4 reduction as a series (the paper's in-DB reducer)."""
    return m4_aggregate_arrays(timestamps, values, t_qs, t_qe, w).to_series()


#: Registry used by the pixel-accuracy bench: name -> reducer taking
#: ``(timestamps, values, t_qs, t_qe, w)``.
REDUCERS = {
    "M4": m4_reduce,
    "MinMax": minmax_reduce,
    "PAA": paa_reduce,
    "Systematic": lambda t, v, qs, qe, w: systematic_sample(t, v, 4 * w),
    "Random": lambda t, v, qs, qe, w: random_sample(t, v, 4 * w),
}

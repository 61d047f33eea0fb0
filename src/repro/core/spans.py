"""M4 time spans (Definition 2.3) with exact integer arithmetic.

A query divides ``[t_qs, t_qe)`` into ``w`` spans
``I_i = [t_qs + D/w * (i-1), t_qs + D/w * i)``.  Timestamps are integers,
so span membership follows the paper's SQL form
``floor(w * (t - t_qs) / D)`` — implemented with integer floor division,
avoiding any float rounding at span boundaries.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidQueryRangeError


def validate_query(t_qs, t_qe, w):
    """Raise :class:`InvalidQueryRangeError` on a malformed query."""
    if t_qe <= t_qs:
        raise InvalidQueryRangeError(
            "query range [%s, %s) is empty" % (t_qs, t_qe))
    if w <= 0:
        raise InvalidQueryRangeError("span count w must be positive, got %s"
                                     % w)


def span_index(t, t_qs, t_qe, w):
    """0-based span index of timestamp ``t`` (must be inside the range)."""
    validate_query(t_qs, t_qe, w)
    if not t_qs <= t < t_qe:
        raise InvalidQueryRangeError(
            "timestamp %s outside query range [%s, %s)" % (t, t_qs, t_qe))
    return (t - t_qs) * w // (t_qe - t_qs)


def span_indices(timestamps, t_qs, t_qe, w):
    """Vectorized :func:`span_index` over an int64 array (no bounds check)."""
    t = np.asarray(timestamps, dtype=np.int64)
    return (t - t_qs) * w // (t_qe - t_qs)


def span_bounds(i, t_qs, t_qe, w):
    """Half-open bounds ``[start, end)`` of the 0-based span ``i``.

    Derived from the membership rule: ``span(t) >= i`` iff
    ``t >= t_qs + ceil(i * D / w)``, so spans exactly partition the
    integer timestamps of ``[t_qs, t_qe)``.

    >>> span_bounds(0, 0, 10, 3), span_bounds(1, 0, 10, 3)
    ((0, 4), (4, 7))
    """
    validate_query(t_qs, t_qe, w)
    if not 0 <= i < w:
        raise InvalidQueryRangeError("span index %s outside [0, %s)" % (i, w))
    duration = t_qe - t_qs
    start = t_qs + -((-i * duration) // w)          # ceil(i*D/w)
    end = t_qs + -((-(i + 1) * duration) // w)      # ceil((i+1)*D/w)
    return int(start), int(end)


def all_span_bounds(t_qs, t_qe, w):
    """Int64 array of the ``w + 1`` span boundaries (vectorized)."""
    validate_query(t_qs, t_qe, w)
    i = np.arange(w + 1, dtype=np.int64)
    duration = t_qe - t_qs
    return t_qs + -((-i * duration) // w)


def span_starts(timestamps, t_qs, t_qe, w):
    """``(spans, starts)`` for time-ordered timestamps inside the range:
    the occupied spans in ascending order and the row each one begins
    at — the segments of :func:`repro.core.m4.segment_m4`."""
    cuts = np.searchsorted(timestamps, all_span_bounds(t_qs, t_qe, w))
    spans = np.flatnonzero(cuts[1:] > cuts[:-1])
    return spans, cuts[spans]


def iter_spans(t_qs, t_qe, w):
    """Yield ``(i, start, end)`` for every non-empty span.

    When ``w`` exceeds the number of integer timestamps in the range some
    spans are empty (``start == end``); they are still yielded so results
    stay aligned with span indices, matching the SQL GROUP BY semantics.
    """
    bounds = all_span_bounds(t_qs, t_qe, w)
    for i in range(w):
        yield i, int(bounds[i]), int(bounds[i + 1])

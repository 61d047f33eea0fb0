"""Chunk/page statistics: the metadata of Definition 2.4.

Every flushed chunk (and every page inside it) carries
``{FP, LP, BP, TP}`` plus the point count.  The M4-LSM operator consumes
exactly this structure as its candidate source, so it is the pivot of the
whole reproduction.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from ..core.series import Point
from ..errors import StorageError

_PACK = struct.Struct("<qqdqdqdqdd")  # count, (t, v) x 4, value sum


@dataclasses.dataclass(frozen=True)
class Statistics:
    """FP/LP/BP/TP representation points plus the point count.

    ``first``/``last`` are the points with minimal/maximal time;
    ``bottom``/``top`` are points with minimal/maximal value (the earliest
    one when tied, matching Definition 2.1's "any one" latitude).
    """

    count: int
    first: Point
    last: Point
    bottom: Point
    top: Point
    value_sum: float = 0.0

    @classmethod
    def from_arrays(cls, timestamps, values):
        """Compute statistics from time-ordered arrays, vectorized."""
        t = np.asarray(timestamps)
        v = np.asarray(values)
        if t.size == 0:
            raise StorageError("statistics of an empty chunk are undefined")
        bottom_pos = int(np.argmin(v))
        top_pos = int(np.argmax(v))
        # inf/-inf values make the sum NaN; that is the correct answer
        # for AVG over them, so silence numpy's warning.
        with np.errstate(invalid="ignore", over="ignore"):
            value_sum = float(v.sum())
        return cls(
            count=int(t.size),
            first=Point(int(t[0]), float(v[0])),
            last=Point(int(t[-1]), float(v[-1])),
            bottom=Point(int(t[bottom_pos]), float(v[bottom_pos])),
            top=Point(int(t[top_pos]), float(v[top_pos])),
            value_sum=value_sum,
        )

    @classmethod
    def from_series(cls, series):
        """Compute statistics from a :class:`TimeSeries`."""
        return cls.from_arrays(series.timestamps, series.values)

    @property
    def mean(self):
        """Average value of the chunk's points."""
        return self.value_sum / self.count

    # -- time interval ----------------------------------------------------------

    @property
    def start_time(self):
        """First timestamp covered by the chunk."""
        return self.first.t

    @property
    def end_time(self):
        """Last timestamp covered by the chunk."""
        return self.last.t

    def overlaps(self, t_start, t_end):
        """True if the chunk's interval intersects ``[t_start, t_end)``."""
        return self.start_time < t_end and self.end_time >= t_start

    def inside(self, t_start, t_end):
        """True if the chunk's interval is contained in ``[t_start, t_end)``."""
        return t_start <= self.start_time and self.end_time < t_end

    # -- serialization ----------------------------------------------------------

    SERIALIZED_SIZE = _PACK.size

    def to_bytes(self):
        """Fixed-width binary form used inside TsFile metadata sections."""
        return _PACK.pack(
            self.count,
            self.first.t, self.first.v,
            self.last.t, self.last.v,
            self.bottom.t, self.bottom.v,
            self.top.t, self.top.v,
            self.value_sum,
        )

    @classmethod
    def from_bytes(cls, data, offset=0):
        """Inverse of :meth:`to_bytes`."""
        if len(data) - offset < _PACK.size:
            raise StorageError("truncated statistics block")
        (count, ft, fv, lt, lv, bt, bv, tt, tv,
         value_sum) = _PACK.unpack_from(data, offset)
        return cls(count, Point(ft, fv), Point(lt, lv), Point(bt, bv),
                   Point(tt, tv), value_sum)


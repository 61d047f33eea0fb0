"""Deletes (Definition 2.5) and helpers to apply them.

A delete is a closed time range ``[t_ds, t_de]`` with a version number.
It removes every point of any chunk with a *smaller* version whose
timestamp falls in the range.  A delete with infinite version is the
paper's virtual delete (Section 3.1); M4-LSM needs none, because its
sweep clips every chunk to the spans it reaches.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import StorageError

#: Open endpoints for virtual deletes covering ``(-inf, x)`` / ``[x, +inf)``.
TIME_MIN = -(2 ** 62)
TIME_MAX = 2 ** 62


@dataclasses.dataclass(frozen=True)
class Delete:
    """A versioned delete of the closed time range ``[t_start, t_end]``."""

    t_start: int
    t_end: int
    version: float  # int for real deletes; math.inf for virtual deletes

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise StorageError(
                "delete range [%s, %s] is empty" % (self.t_start, self.t_end))

    def covers(self, t):
        """The paper's ``t |= D``: is ``t`` inside the delete range?"""
        return self.t_start <= t <= self.t_end

    def is_virtual(self):
        """True for span-boundary virtual deletes (version infinity)."""
        return math.isinf(self.version)


class DeleteList:
    """An ordered collection of deletes with vectorized application.

    Deletes are kept in append order; queries filter by version so the
    same list serves chunks of any version.
    """

    def __init__(self, deletes=()):
        self._deletes = list(deletes)

    def __len__(self):
        return len(self._deletes)

    def __iter__(self):
        return iter(self._deletes)

    def __repr__(self):
        return "DeleteList(%d deletes)" % len(self._deletes)

    def add(self, delete):
        """Append a delete (versions must arrive in increasing order)."""
        if self._deletes and delete.version <= self._deletes[-1].version \
                and not delete.is_virtual():
            raise StorageError("delete versions must increase")
        self._deletes.append(delete)

    def after_version(self, version):
        """Deletes with a version strictly greater than ``version``."""
        return [d for d in self._deletes if d.version > version]

    def covers(self, t, min_version=-1):
        """True if any delete newer than ``min_version`` covers time ``t``.

        This is the conjunction test of Propositions 3.1 / 3.3.
        """
        return any(d.covers(t) for d in self._deletes if d.version > min_version)

    def overlapping(self, t_start, t_end, min_version=-1):
        """Deletes newer than ``min_version`` intersecting ``[t_start, t_end]``."""
        return [d for d in self._deletes
                if d.version > min_version
                and d.t_start <= t_end and d.t_end >= t_start]

    def keep_mask(self, timestamps, chunk_version):
        """Boolean mask of points of a chunk that survive these deletes.

        A point survives when no delete with a larger version than the
        chunk covers its timestamp.  ``timestamps`` must be sorted (chunk
        columns always are), so each delete costs O(log n) via binary
        search — the CPU-efficient delete application the paper credits
        for M4-UDF's flat latency under growing delete counts (Fig. 13).
        """
        t = np.asarray(timestamps)
        mask = np.ones(t.size, dtype=bool)
        if t.size == 0:
            return mask
        t_lo = int(t[0])
        t_hi = int(t[-1])
        for d in self._deletes:
            if d.version <= chunk_version:
                continue
            if d.t_start > t_hi or d.t_end < t_lo:
                continue
            lo = int(np.searchsorted(t, d.t_start, side="left"))
            hi = int(np.searchsorted(t, d.t_end, side="right"))
            mask[lo:hi] = False
        return mask

    def apply(self, timestamps, values, chunk_version):
        """Filtered ``(timestamps, values)`` after applying the deletes."""
        mask = self.keep_mask(timestamps, chunk_version)
        if mask.all():
            return timestamps, values
        return timestamps[mask], values[mask]

    def fully_deletes(self, start_time, end_time, chunk_version):
        """True if the chunk interval ``[start_time, end_time]`` is entirely
        covered by deletes newer than the chunk.

        Used by readers to skip loading completely deleted chunks — the
        behaviour behind the paper's Figure 14 (M4-UDF speeds up as the
        delete range grows).  Covers are checked by interval stitching.
        """
        relevant = sorted(
            (d for d in self._deletes
             if d.version > chunk_version
             and d.t_start <= end_time and d.t_end >= start_time),
            key=lambda d: d.t_start)
        reach = start_time
        for d in relevant:
            if d.t_start > reach:
                return False
            reach = max(reach, d.t_end + 1)
            if reach > end_time:
                return True
        return reach > end_time

"""Interval-overlap analysis over chunk metadata.

"Contested" chunks are those whose statistics cannot be trusted in
isolation: their time interval intersects another chunk's (a newer chunk
may overwrite their points) or a delete range (some points may be gone).
The metadata-accelerated aggregation consults this set (M4-LSM verifies
its candidates instead); everything in it takes the slow, exact path.

A chunk overlaps another exactly when, in start-time order, it starts
at or before the latest end seen so far (an earlier chunk reaches it)
or ends at or after the next chunk's start (it reaches a later one).
Both tests are one vectorized pass over the sorted intervals, so *every*
member of *every* overlapping pair is marked, including pairs separated
by a short chunk in the sort order, which an adjacent-pair comparison
of end against start alone would miss.
"""

from __future__ import annotations

import numpy as np


def contested_versions(chunks, deletes=()):
    """Versions of chunks overlapping another chunk or any delete.

    Args:
        chunks: iterable of ChunkMetadata.
        deletes: iterable of Delete; only deletes newer than a chunk can
            remove its points, so older ones do not contest it.
    Returns:
        a set of version numbers.
    """
    chunks = list(chunks)
    if not chunks:
        return set()
    stats = [m.statistics for m in chunks]
    start = np.array([s.first.t for s in stats], dtype=np.int64)
    end = np.array([s.last.t for s in stats], dtype=np.int64)
    version = np.array([m.version for m in chunks], dtype=np.int64)
    order = np.argsort(start, kind="stable")
    start, end, version = start[order], end[order], version[order]

    contested = np.zeros(len(chunks), dtype=bool)
    contested[1:] = start[1:] <= np.maximum.accumulate(end)[:-1]
    contested[:-1] |= end[:-1] >= start[1:]

    deletes = list(deletes)
    if deletes:
        d_start = np.array([d.t_start for d in deletes], dtype=np.int64)
        d_end = np.array([d.t_end for d in deletes], dtype=np.int64)
        d_version = np.array([d.version for d in deletes], dtype=np.float64)
        contested |= ((d_version[None, :] > version[:, None])
                      & (d_start[None, :] <= end[:, None])
                      & (d_end[None, :] >= start[:, None])).any(axis=1)
    return set(version[contested].tolist())

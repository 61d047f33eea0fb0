"""I/O and CPU cost counters for the storage layer.

Wall-clock latency on this Python substrate is not comparable to the
paper's Java-on-HDD testbed, so besides timing we count the operations
whose asymmetry drives every experiment: metadata reads (cheap), page
decodes (the expensive part of chunk loading) and merged points (the CPU
cost of MergeReader).  Benchmarks report both clock time and counters.

One :class:`IoStats` is shared by an engine, its pooled readers and
every concurrent query, so increments go through :meth:`add`, which is
atomic under an internal lock.  Direct ``stats.field += n`` still works
for single-threaded code (tests, ad-hoc accounting) but can lose
updates under concurrency — engine code paths never use it.
"""

from __future__ import annotations

import dataclasses
import threading


@dataclasses.dataclass
class IoStats:
    """Mutable counters shared by readers and operators."""

    metadata_reads: int = 0        # chunk metadata entries read
    chunk_loads: int = 0           # chunks whose data section was opened
    pages_decoded: int = 0         # pages decoded (time or value column)
    points_decoded: int = 0        # points materialized from pages
    points_merged: int = 0         # points pushed through MergeReader
    bytes_read: int = 0            # raw bytes fetched from disk
    index_lookups: int = 0         # chunk-index probe operations
    candidate_iterations: int = 0  # M4-LSM (span, function) pairs per
                                   # round after the first

    def __post_init__(self):
        # Not a dataclass field, so reset/diff/as_dict never touch it.
        self._lock = threading.Lock()

    def add(self, **deltas):
        """Atomically add ``field=n`` deltas (thread-safe increment)."""
        with self._lock:
            for name, n in deltas.items():
                setattr(self, name, getattr(self, name) + n)

    def reset(self):
        """Zero every counter in place."""
        with self._lock:
            for field in dataclasses.fields(self):
                setattr(self, field.name, 0)

    def snapshot(self):
        """An independent copy of the current counters."""
        with self._lock:
            return dataclasses.replace(self)

    def diff(self, earlier):
        """Counters accumulated since ``earlier`` (a snapshot)."""
        out = IoStats()
        with self._lock:
            for field in dataclasses.fields(self):
                setattr(out, field.name,
                        getattr(self, field.name)
                        - getattr(earlier, field.name))
        return out

    def as_dict(self):
        """Plain-dict view for reports."""
        with self._lock:
            return {field.name: getattr(self, field.name)
                    for field in dataclasses.fields(self)}

    def __add__(self, other):
        out = IoStats()
        for field in dataclasses.fields(self):
            setattr(out, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
        return out

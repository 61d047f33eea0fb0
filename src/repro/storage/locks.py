"""Lock primitives for the concurrent storage engine.

The engine's lock hierarchy (documented in DESIGN.md § Concurrency
model) has exactly three levels:

1. the process's **execution slot** (:data:`EXEC_SLOT`), held by
   ``StorageEngine.execute_sql``, ``render_series`` and
   ``delta_spans``, so query work runs one request at a time;
2. a **per-series reader/writer lock** (:class:`RWLock`) guarding one
   :class:`~repro.storage.engine.SeriesState` — memtable, sealed chunk
   list and delete list;
3. an **engine-level lock** guarding cross-series state — the catalog,
   the version allocator, the active TsFile writer and the reader pool.

The ordering rule is *slot before series before engine*, never the
reverse.  Writers never take the slot, so a query in it that waits on
a series write lock always gets it.  All levels are reentrant per
thread, so ``delete`` can flush under its own write lock.

:class:`RWLock` is writer-preferring: once a writer is waiting, new
readers queue behind it, so a stream of M4 queries cannot starve a
flush.  Writer-preference is exactly where tail latency hides, so the
lock accepts an optional :class:`LockWaitObs` that times every
acquisition into ``lock_wait_seconds{series,side}`` histograms and —
when a request trace is active on the acquiring thread — attaches a
``lock.wait`` span to it; slot waits go to ``exec_slot_wait_seconds``
and ``exec.slot_wait``.
"""

from __future__ import annotations

import contextlib
import threading
import time

from ..obs.tracer import attach_timed
from .deadline import current_deadline


class LockWaitObs:
    """Sink for :class:`RWLock` acquisition wait times.

    Histograms are looked up through the registry on every record (not
    cached) so flipping ``registry.enabled`` at runtime — the obs
    overhead benchmark does — takes effect immediately.
    """

    __slots__ = ("_metrics", "_series")

    def __init__(self, metrics, series):
        self._metrics = metrics
        self._series = series

    def record(self, side, started, ended):
        waited = ended - started
        self._metrics.histogram("lock_wait_seconds", series=self._series,
                                side=side).observe(waited)
        attach_timed("lock.wait", started, ended,
                     series=self._series, side=side)


class RWLock:
    """A reentrant, writer-preferring readers/writer lock.

    Any number of threads may hold the read side at once; the write side
    is exclusive.  A thread holding the write lock may re-acquire either
    side (lock downgrades for the duration of the inner block are *not*
    performed — the thread simply stays exclusive).  A thread holding
    only the read lock must not request the write lock (upgrade
    deadlock); the engine's call graph never does.

    Args:
        obs: optional :class:`LockWaitObs`; when set, every top-level
            acquisition's wait time is recorded (outside the internal
            condition lock, so observability never extends the critical
            section).  Reentrant re-acquisitions are not timed — they
            cannot wait.
    """

    def __init__(self, obs=None):
        self._cond = threading.Condition(threading.Lock())
        self._readers = {}          # thread id -> recursive read depth
        self._writer = None         # thread id of the exclusive holder
        self._writer_depth = 0
        self._writers_waiting = 0
        self._obs = obs

    # -- read side ------------------------------------------------------------------

    def acquire_read(self):
        if self._obs is not None:
            started = time.perf_counter()
            timed = self._acquire_read()
            if timed:
                self._obs.record("read", started, time.perf_counter())
            return
        self._acquire_read()

    def _acquire_read(self):
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                # Reentrant: already a reader, or exclusive holder.
                if self._writer == me:
                    self._writer_depth += 1
                else:
                    self._readers[me] += 1
                return False
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1
            return True

    def release_read(self):
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._cond.notify_all()
                return
            depth = self._readers.get(me, 0)
            if depth <= 0:
                raise RuntimeError("release_read without acquire_read")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    # -- write side -----------------------------------------------------------------

    def acquire_write(self):
        if self._obs is not None:
            started = time.perf_counter()
            timed = self._acquire_write()
            if timed:
                self._obs.record("write", started, time.perf_counter())
            return
        self._acquire_write()

    def _acquire_write(self):
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return False
            if me in self._readers:
                raise RuntimeError(
                    "read-to-write lock upgrade would deadlock")
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1
            return True

    def release_write(self):
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write by non-holder")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers -----------------------------------------------------------

    @contextlib.contextmanager
    def read(self):
        """Context manager holding the shared (read) side."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write(self):
        """Context manager holding the exclusive (write) side."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()


class ExecSlot:
    """The process's reentrant execution slot.

    :meth:`hold` waits no longer than the thread's deadline (expiry
    raises :class:`~repro.errors.DeadlineExceededError` before any
    engine work) and times each top-level wait like :class:`LockWaitObs`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._owner = None
        self._depth = 0

    @contextlib.contextmanager
    def hold(self, metrics):
        if self._owner != threading.get_ident():
            started = time.perf_counter()
            deadline = current_deadline()
            try:
                if deadline is None:
                    self._lock.acquire()
                else:
                    while not self._lock.acquire(
                            timeout=max(deadline.remaining(), 0.0)):
                        deadline.check()
            finally:
                ended = time.perf_counter()
                metrics.histogram("exec_slot_wait_seconds").observe(
                    ended - started)
                attach_timed("exec.slot_wait", started, ended)
            self._owner = threading.get_ident()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._lock.release()


#: One per process: each shard worker has its own, the router none.
EXEC_SLOT = ExecSlot()

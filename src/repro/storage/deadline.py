"""Cooperative per-request deadlines for query execution.

A :class:`Deadline` is an absolute time budget.  The serving layer
installs one for the current thread with :func:`deadline_scope`; the
engine's long-running query phases call :func:`check_deadline` at their
natural cancellation points — per chunk load in both operators, per
span in the M4-LSM solve loop — and abort with
:class:`~repro.errors.DeadlineExceededError` once the budget is spent.

Cancellation is *cooperative*: nothing is interrupted mid-decode, so a
chunk that started loading finishes and the abort happens at the next
checkpoint.  That keeps shared state (reader pool, chunk cache, I/O
counters) consistent without any locking beyond what the engine already
has.  The deadline is per thread; the shard router forwards the
remaining budget across its pipe (see :func:`current_deadline`).
"""

from __future__ import annotations

import threading
import time

from ..errors import DeadlineExceededError
from ..obs.tracer import attach_timed

_local = threading.local()


class Deadline:
    """An absolute expiry on the monotonic clock.

    >>> d = Deadline(10.0)
    >>> d.expired()
    False
    """

    __slots__ = ("expires_at",)

    def __init__(self, seconds):
        self.expires_at = time.monotonic() + float(seconds)

    def remaining(self):
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self):
        """True once the budget is spent."""
        return time.monotonic() >= self.expires_at

    def check(self):
        """Raise :class:`DeadlineExceededError` when expired.

        When a request trace is active on this thread, the abort leaves
        a zero-width ``deadline.exceeded`` marker span behind, so the
        trace shows *where* in the tree the budget ran out.  The
        non-expired path stays span-free.
        """
        if self.expired():
            past = -self.remaining()
            now = time.perf_counter()
            attach_timed("deadline.exceeded", now, now, past_s=round(past, 6))
            raise DeadlineExceededError(
                "deadline exceeded (%.3fs past expiry)" % past)


def current_deadline():
    """The deadline installed for this thread, or None."""
    return getattr(_local, "deadline", None)


def check_deadline():
    """Checkpoint: raise if the current thread's deadline has expired.

    A no-op when no deadline is installed, so query code can call it
    unconditionally on hot paths.
    """
    deadline = getattr(_local, "deadline", None)
    if deadline is not None:
        deadline.check()


def sleep_checked(seconds):
    """Sleep in slices so the installed deadline still cancels it (the
    test-only artificial-work hook behind ``sleep_ms``)."""
    end = time.monotonic() + float(seconds)
    while True:
        check_deadline()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.01))


class deadline_scope:
    """Install ``deadline`` as the current thread's deadline.

    Nests: the previous deadline (if any) is restored on exit.  Passing
    ``None`` is a no-op scope, which lets callers write one
    ``with deadline_scope(maybe_deadline):`` without branching.
    """

    __slots__ = ("_deadline", "_previous")

    def __init__(self, deadline):
        self._deadline = deadline
        self._previous = None

    def __enter__(self):
        self._previous = getattr(_local, "deadline", None)
        if self._deadline is not None:
            _local.deadline = self._deadline
        return self._deadline

    def __exit__(self, *exc_info):
        _local.deadline = self._previous
        return False

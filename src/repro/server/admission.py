"""Admission control: a bounded queue feeding a fixed worker pool.

The serving layer's capacity story in one mechanism: every heavy
request (query, render) becomes a :class:`Job` that must win a slot in
a bounded ``queue.Queue`` before any engine work happens.  When the
queue is full the request is *shed* immediately with
:class:`~repro.errors.ServerOverloadedError` (the HTTP layer turns
that into 503 + ``Retry-After``) — the server's latency under overload
stays bounded because excess work is refused at the door, never
buffered without limit.

Workers are plain threads over the engine's lock hierarchy: all of them
run requests at once, and their engine work takes turns in the
process's execution slot (:data:`repro.storage.locks.EXEC_SLOT`) while
their parsing, encoding and socket I/O overlap it.  Each job carries a
:class:`~repro.storage.deadline.Deadline`; a job that expires while
still queued is failed without touching the engine, and one that
expires mid-execution is aborted cooperatively at the per-chunk /
per-span checkpoints.

Shutdown is a drain: no new submissions, queued and in-flight jobs run
to completion, workers exit on sentinel.
"""

from __future__ import annotations

import queue
import threading
import time

from ..errors import DeadlineExceededError, ServerOverloadedError
from ..obs import NULL_REGISTRY, NULL_TRACER, activate
from ..storage.deadline import deadline_scope

_STOP = object()


class Job:
    """One admitted unit of work and its eventual outcome.

    Exactly one of ``result`` / ``error`` is set before :meth:`wait`
    returns True.  The submitting thread blocks in :meth:`wait`; the
    worker (or the shedding fast path) fulfils the job.

    ``span`` is the request's root span (or None): the worker activates
    it around :meth:`run`, which is how a trace crosses the pool
    boundary.  ``submitted_at``/``finished_at`` are perf_counter stamps
    bracketing the job's queue wait and worker hand-off, observed by
    the controller and the service respectively.
    """

    __slots__ = ("fn", "deadline", "request_id", "span", "result",
                 "error", "submitted_at", "finished_at", "_done")

    def __init__(self, fn, deadline=None, request_id=None, span=None):
        self.fn = fn
        self.deadline = deadline
        self.request_id = request_id
        self.span = span
        self.result = None
        self.error = None
        self.submitted_at = None
        self.finished_at = None
        self._done = threading.Event()

    def run(self):
        """Execute under the job's deadline scope; never raises."""
        try:
            with deadline_scope(self.deadline):
                if self.deadline is not None:
                    self.deadline.check()
                with activate(self.span):
                    self.result = self.fn()
        except BaseException as exc:  # fulfil even on KeyboardInterrupt
            self.error = exc
        finally:
            self.finished_at = time.perf_counter()
            self._done.set()

    def fail(self, error):
        """Fulfil the job with an error (used for queued timeouts)."""
        self.error = error
        self.finished_at = time.perf_counter()
        self._done.set()

    def wait(self, timeout=None):
        """Block until fulfilled; True unless ``timeout`` elapsed."""
        return self._done.wait(timeout)


class AdmissionController:
    """A bounded admission queue drained by ``workers`` threads.

    Args:
        workers: pool size (concurrent engine queries).
        queue_depth: maximum *queued* (not yet executing) jobs; a
            submission beyond this is shed.
        metrics: a :class:`repro.obs.MetricsRegistry` for the
            queue-depth gauge, the ``server_queue_wait_seconds``
            histogram and the shed/timeout counters (the engine's
            registry in production, so ``/stats`` reports them).
        tracer: a :class:`repro.obs.Tracer`; when a job carries a
            request span, its queue wait is attached to that span as an
            ``admission.queue_wait`` child.
        retry_after: seconds suggested to shed clients.
    """

    def __init__(self, workers=4, queue_depth=16, metrics=None,
                 tracer=None, retry_after=1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._queue = queue.Queue(maxsize=int(queue_depth))
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._retry_after = int(retry_after)
        self._closed = False
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name="repro-server-worker-%d" % i,
                             daemon=True)
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()

    @property
    def workers(self):
        """Worker pool size."""
        return len(self._workers)

    @property
    def queue_depth(self):
        """Maximum queued jobs before shedding."""
        return self._queue.maxsize

    def submit(self, fn, deadline=None, request_id=None, span=None):
        """Admit ``fn`` or shed it.

        Returns the queued :class:`Job`.  Raises
        :class:`ServerOverloadedError` when the queue is full or the
        controller is shut down — the caller answers 503 without the
        engine ever seeing the request.
        """
        job = Job(fn, deadline=deadline, request_id=request_id, span=span)
        job.submitted_at = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ServerOverloadedError(
                    "server is shutting down",
                    retry_after=self._retry_after)
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self._metrics.counter("server_shed_total").inc()
                raise ServerOverloadedError(
                    "admission queue full (%d queued)" % self._queue.maxsize,
                    retry_after=self._retry_after) from None
        self._metrics.gauge("server_queue_depth").set(self._queue.qsize())
        return job

    def _worker_loop(self):
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            self._metrics.gauge("server_queue_depth") \
                .set(self._queue.qsize())
            picked_up = time.perf_counter()
            if job.submitted_at is not None:
                self._metrics.histogram("server_queue_wait_seconds") \
                    .observe(picked_up - job.submitted_at)
                if job.span is not None:
                    self._tracer.timed_span(
                        "admission.queue_wait", job.submitted_at,
                        picked_up, parent=job.span)
            if job.deadline is not None and job.deadline.expired():
                # Expired while queued: fail without touching the engine.
                self._metrics.counter("server_timeout_total").inc()
                job.fail(DeadlineExceededError(
                    "deadline exceeded while queued"))
                continue
            self._metrics.gauge("server_inflight").inc()
            try:
                job.run()
            finally:
                self._metrics.gauge("server_inflight").dec()
            if isinstance(job.error, DeadlineExceededError):
                self._metrics.counter("server_timeout_total").inc()

    def shutdown(self):
        """Drain: refuse new jobs, finish queued ones, stop workers.

        Blocks until every admitted job has been fulfilled and all
        worker threads have exited.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_STOP)  # after queued jobs: a drain, not a drop
        for thread in self._workers:
            thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

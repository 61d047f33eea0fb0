"""Streaming ingest: bounded queue, tenant budgets, one writer thread.

:class:`IngestController` sits between the HTTP handlers and the
engine.  Handler threads call :meth:`IngestController.submit`, which
either enqueues the batch (cheap: a bounds check and an append) or
sheds it with :class:`~repro.errors.IngestBackpressureError` — the
429 / ``Retry-After`` contract — when the global queue byte budget or
the caller's per-tenant budget is exhausted.  A single writer thread
drains the queue: it groups consecutive batches, applies them through
``engine.write_batch`` (entering the PR-2 lock hierarchy exactly like
any other writer, so the incremental-tile bookkeeping in the engine
applies unchanged), flushes each touched series once per drain cycle
for query visibility, and publishes the changed time range to the
:class:`~repro.ingest.live.LiveFeed`.

One writer thread is deliberate: it serializes WAL appends and flushes
per drain cycle (amortizing fsyncs across batches), keeps apply-order
equal to accept-order — which is what makes the last-write-wins
torture contract (``repro.datasets.torture``) hold end to end — and
pushes all queueing to the explicit, observable bounded queue instead
of lock convoys.

Observability (all on the engine registry): ``ingest_points_total``,
``ingest_batches_total``, ``ingest_sheds_total``,
``ingest_out_of_order_batches_total``, ``ingest_apply_errors_total``,
``ingest_queue_bytes`` / ``ingest_queue_batches`` gauges,
``ingest_apply_seconds`` histogram, and a traced ``ingest.apply`` span
per drain cycle.
"""

from __future__ import annotations

import collections
import contextlib
import logging
import threading
import time

import numpy as np

from ..errors import IngestBackpressureError, SeriesNotFoundError
from ..obs.tracer import tracer_of

log = logging.getLogger("repro.ingest")

#: Fixed per-batch queue charge on top of the point payload.
_BATCH_OVERHEAD = 64
#: Bytes charged per queued point (int64 timestamp + float64 value).
_POINT_BYTES = 16


def batch_nbytes(n_points):
    """Queue byte charge of one ``n_points`` batch."""
    return _BATCH_OVERHEAD + _POINT_BYTES * int(n_points)


class IngestController:
    """Backpressured streaming writes into one engine.

    Args:
        engine: the :class:`~repro.storage.engine.StorageEngine`.
        queue_bytes: global bound on queued-but-unapplied bytes; a
            submit that would exceed it sheds with a 429.
        tenant_budget_bytes: per-tenant share of the queue (0 = no
            per-tenant cap, only the global bound applies).
        retry_after_seconds: suggested back-off carried by sheds.
        auto_create: register unknown series on first submit (off:
            unknown series raise :class:`SeriesNotFoundError`).
        live_feed: optional :class:`~repro.ingest.live.LiveFeed`
            receiving one change event per applied series per cycle.
        ack_mode: when to acknowledge a submit — ``"queued"`` (default:
            as soon as the batch is enqueued), ``"applied"`` (block
            until the writer applied it; the ack then reflects WAL
            durability on this node) or ``"replicated"`` (addition-
            ally block until every live replica acked the shipped
            frames — ack-after-ship durability).
        ship_wait: callable ``(timeout) -> bool`` used by
            ``ack_mode="replicated"`` (the replication manager's
            :meth:`wait_shipped`).
        ack_timeout_seconds: cap on the blocking ack modes; on timeout
            the ack reports the weaker durability level actually
            reached instead of failing the request.
    """

    def __init__(self, engine, queue_bytes=8 << 20,
                 tenant_budget_bytes=0, retry_after_seconds=1,
                 auto_create=True, live_feed=None, ack_mode="queued",
                 ship_wait=None, ack_timeout_seconds=10.0):
        if queue_bytes <= 0:
            raise ValueError("queue_bytes must be positive")
        if tenant_budget_bytes < 0:
            raise ValueError("tenant_budget_bytes must be >= 0")
        if ack_mode not in ("queued", "applied", "replicated"):
            raise ValueError("ack_mode must be queued, applied or "
                             "replicated")
        if ack_mode == "replicated" and ship_wait is None:
            raise ValueError("ack_mode='replicated' needs a ship_wait "
                             "hook (configure replicas)")
        self._engine = engine
        self._queue_bytes = int(queue_bytes)
        self._tenant_budget = int(tenant_budget_bytes)
        self._retry_after = int(retry_after_seconds)
        self._auto_create = bool(auto_create)
        self._feed = live_feed
        self._ack_mode = ack_mode
        self._ship_wait = ship_wait
        self._ack_timeout = float(ack_timeout_seconds)
        metrics = engine.metrics
        self._c_points = metrics.counter("ingest_points_total")
        self._c_batches = metrics.counter("ingest_batches_total")
        self._c_sheds = metrics.counter("ingest_sheds_total")
        self._c_ooo = metrics.counter(
            "ingest_out_of_order_batches_total")
        self._c_errors = metrics.counter("ingest_apply_errors_total")
        self._g_bytes = metrics.gauge("ingest_queue_bytes")
        self._g_depth = metrics.gauge("ingest_queue_batches")
        self._h_apply = metrics.histogram("ingest_apply_seconds")
        self._cond = threading.Condition()
        self._queue = collections.deque()  # (series, t, v, nbytes, tenant)
        self._pending_bytes = 0
        self._tenant_bytes = {}
        self._accepted = 0   # batches ever enqueued
        self._applied = 0    # batches ever applied (or dropped on error)
        self._high = {}      # series -> highest applied timestamp
        self._closed = False
        self._thread = threading.Thread(target=self._run,
                                        name="repro-ingest-writer",
                                        daemon=True)
        self._thread.start()

    @property
    def live_feed(self):
        """The attached :class:`LiveFeed` (or None)."""
        return self._feed

    @property
    def writer_alive(self):
        """Is the single writer thread still running?

        ``/healthz`` reports this: a writer that died mid-cycle (a
        non-``Exception`` escape) would otherwise stall the queue
        silently while submits keep filling it."""
        return self._thread.is_alive()

    @property
    def closed(self):
        """True once :meth:`close` has completed its handoff."""
        with self._cond:
            return self._closed

    @property
    def ack_mode(self):
        """The configured acknowledgement mode."""
        return self._ack_mode

    # -- producer side -----------------------------------------------------------------

    def submit(self, series, timestamps, values, tenant="default"):
        """Enqueue one batch; sheds instead of blocking.

        Returns an ack dict (``accepted``, ``pending_bytes``,
        ``pending_batches``).  Raises
        :class:`~repro.errors.IngestBackpressureError` when the queue
        or the tenant budget is full, :class:`SeriesNotFoundError`
        for an unknown series with ``auto_create`` off, and
        ``ValueError`` on malformed arrays.
        """
        t = np.asarray(timestamps, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("timestamps/values must be equal-length "
                             "1-d arrays")
        if t.size == 0:
            raise ValueError("empty batch")
        if self._auto_create:
            self._engine.create_series(series)
        elif series not in self._engine.series_names():
            raise SeriesNotFoundError("unknown series %r" % series)
        nbytes = batch_nbytes(t.size)
        tenant = str(tenant)
        with self._cond:
            if self._closed:
                raise IngestBackpressureError(
                    "ingest is shut down", retry_after=self._retry_after)
            if self._pending_bytes + nbytes > self._queue_bytes:
                self._c_sheds.inc()
                raise IngestBackpressureError(
                    "ingest queue full (%d of %d bytes pending)"
                    % (self._pending_bytes, self._queue_bytes),
                    retry_after=self._retry_after)
            if self._tenant_budget:
                used = self._tenant_bytes.get(tenant, 0)
                if used + nbytes > self._tenant_budget:
                    self._c_sheds.inc()
                    raise IngestBackpressureError(
                        "tenant %r over ingest budget (%d of %d bytes)"
                        % (tenant, used, self._tenant_budget),
                        retry_after=self._retry_after)
            self._queue.append((series, t, v, nbytes, tenant))
            self._pending_bytes += nbytes
            self._tenant_bytes[tenant] = \
                self._tenant_bytes.get(tenant, 0) + nbytes
            self._accepted += 1
            ticket = self._accepted
            self._g_bytes.set(self._pending_bytes)
            self._g_depth.set(len(self._queue))
            self._cond.notify_all()
            ack = {"accepted": int(t.size),
                   "pending_bytes": self._pending_bytes,
                   "pending_batches": len(self._queue)}
        if self._ack_mode == "queued":
            return ack
        # Blocking ack modes: wait for the writer to apply this batch
        # (every earlier ticket applies first — apply order is accept
        # order), then optionally for the replicas to ack the shipped
        # frames.  On timeout the ack reports the level reached.
        deadline = time.monotonic() + self._ack_timeout
        with self._cond:
            applied = self._cond.wait_for(
                lambda: self._applied >= ticket,
                timeout=self._ack_timeout)
        ack["durability"] = "applied" if applied else "queued"
        if self._ack_mode == "replicated" and applied:
            remaining = max(0.05, deadline - time.monotonic())
            if self._ship_wait(remaining):
                ack["durability"] = "replicated"
        return ack

    def drain(self, timeout=30.0):
        """Block until every accepted batch has been applied.

        Returns True when the queue fully drained within ``timeout``.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._applied >= self._accepted, timeout)

    def stats(self):
        """Queue occupancy snapshot (counters live in the registry)."""
        with self._cond:
            return {"pending_bytes": self._pending_bytes,
                    "pending_batches": len(self._queue),
                    "queue_bytes_limit": self._queue_bytes,
                    "tenant_budget_bytes": self._tenant_budget,
                    "accepted_batches": self._accepted,
                    "applied_batches": self._applied}

    def close(self, timeout=30.0):
        """Drain, then stop the writer thread.  Idempotent."""
        self.drain(timeout)
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout)

    # -- writer thread -----------------------------------------------------------------

    def _run(self):
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._queue or self._closed)
                if not self._queue and self._closed:
                    return
                # Drain the whole backlog in one cycle so each touched
                # series flushes once, not once per batch.
                cycle = list(self._queue)
                self._queue.clear()
            try:
                self._apply_cycle(cycle)
            finally:
                with self._cond:
                    for _series, _t, _v, nbytes, tenant in cycle:
                        self._pending_bytes -= nbytes
                        left = self._tenant_bytes.get(tenant, 0) - nbytes
                        if left > 0:
                            self._tenant_bytes[tenant] = left
                        else:
                            self._tenant_bytes.pop(tenant, None)
                    self._applied += len(cycle)
                    self._g_bytes.set(self._pending_bytes)
                    self._g_depth.set(len(self._queue))
                    self._cond.notify_all()

    def _apply_cycle(self, cycle):
        tracer = tracer_of(self._engine)
        started = time.perf_counter()
        touched = {}  # series -> [lo, hi) applied this cycle
        # A series stays write-locked from its first batch to its flush:
        # a reader in between would find unflushed points and fail.
        with tracer.span("ingest.apply", batches=len(cycle)), \
                contextlib.ExitStack() as held:
            for series, t, v, _nbytes, _tenant in cycle:
                try:
                    if series not in touched:
                        held.enter_context(
                            self._engine.series_lock(series).write())
                    self._engine.write_batch(series, t, v)
                except Exception:
                    self._c_errors.inc()
                    log.exception("ingest apply failed for %r", series)
                    continue
                lo, hi = int(t.min()), int(t.max()) + 1
                high = self._high.get(series)
                if high is not None and lo <= high:
                    self._c_ooo.inc()
                self._high[series] = max(high if high is not None
                                         else lo, hi - 1)
                self._c_points.inc(int(t.size))
                self._c_batches.inc()
                if series in touched:
                    touched[series] = (min(touched[series][0], lo),
                                       max(touched[series][1], hi))
                else:
                    touched[series] = (lo, hi)
            for series in touched:
                try:
                    self._engine.flush(series)
                except Exception:
                    self._c_errors.inc()
                    log.exception("ingest flush failed for %r", series)
        self._h_apply.observe(time.perf_counter() - started)
        if self._feed is not None:
            for series, (lo, hi) in touched.items():
                self._feed.publish(series, lo, hi)

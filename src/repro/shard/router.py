"""The shard router: an engine facade over N worker processes.

:class:`ShardRouter` presents (a large subset of) the
:class:`~repro.storage.engine.StorageEngine` surface — ``create_series``,
``write_batch``, ``flush_all``, ``series_names``, SQL execution,
rendering, observability — while delegating each operation to the
worker process that owns the series (``crc32(name) mod N``; see
:mod:`repro.shard.placement`).  The query service and the ingest
controller run against it unchanged, which is what turns the PR-3
server into a thin stateless scatter-gather tier.

Per shard the router keeps one :class:`subprocess.Popen`, one
``socketpair`` pipe, a writer lock and a reader thread.  Requests carry
monotonically increasing ids; the reader thread completes the matching
waiter as responses arrive, so many service threads multiplex one pipe
without head-of-line blocking (the worker runs its own small pool).

Deadlines: a call made under an installed request deadline
(:func:`~repro.storage.deadline.current_deadline`, set by the admission
worker) forwards the *remaining* budget to the worker and waits at most
that long (plus a small grace so the worker's own, better-attributed
:class:`~repro.errors.DeadlineExceededError` usually wins the race).
An over-budget scatter-gather request therefore answers 504, never
hangs.

Crash semantics: EOF or a failed write on a shard pipe marks the shard
*dead* — pending waiters fail with
:class:`~repro.errors.ShardDownError`, and later calls fail fast.  The
router does not respawn workers (quarantine-style: predictable degraded
reads until an operator restarts the server; see DESIGN.md §15).
Scatter operations skip dead shards and report them, so ``/series``,
``/stats`` and ``/healthz`` stay answerable with one shard down.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time

from ..errors import (
    DeadlineExceededError,
    ReproError,
    ShardDownError,
    ShardError,
)
from ..obs import MetricsRegistry, SlowQueryLog, TraceStore, Tracer
from ..query.sql import parse as parse_sql
from ..storage.config import DEFAULT_CONFIG
from ..storage.deadline import current_deadline
from ..storage.iostats import IoStats
from .placement import config_as_dict, resolve_shards, shard_dir, shard_of
from .protocol import decode_error, recv_frame, send_frame

#: Default per-call timeout when no request deadline is installed.
DEFAULT_CALL_TIMEOUT = 30.0

#: Extra wait past the deadline so the worker's own
#: DeadlineExceededError (with checkpoint attribution) usually arrives
#: before the router gives up locally.
_DEADLINE_GRACE = 0.25


class _Waiter:
    """A one-shot mailbox a caller blocks on until its response lands."""

    __slots__ = ("event", "response", "error")

    def __init__(self):
        self.event = threading.Event()
        self.response = None
        self.error = None


class _ShardClient:
    """Router-side handle for one worker process (pipe + reader)."""

    def __init__(self, shard_id, proc, sock):
        self.shard_id = shard_id
        self.proc = proc
        self.sock = sock
        self.pid = proc.pid
        self.dead = False
        self.dead_reason = None
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending = {}
        self._reader = threading.Thread(
            target=self._read_loop, name="shard-%02d-reader" % shard_id,
            daemon=True)
        self._reader.start()

    @property
    def alive(self):
        return not self.dead

    def _read_loop(self):
        while True:
            try:
                message = recv_frame(self.sock)
            except (EOFError, OSError, ReproError) as exc:
                self._mark_dead("pipe closed: %s" % exc)
                return
            with self._pending_lock:
                waiter = self._pending.pop(message.get("id"), None)
            if waiter is None:
                continue  # late response to an abandoned (timed-out) call
            waiter.response = message
            waiter.event.set()

    def _mark_dead(self, reason):
        with self._pending_lock:
            if self.dead:
                return
            self.dead = True
            self.dead_reason = reason
            pending, self._pending = self._pending, {}
        error = self._down_error()
        for waiter in pending.values():
            waiter.error = error
            waiter.event.set()
        try:
            self.sock.close()
        except OSError:
            pass

    def _down_error(self):
        return ShardDownError(
            "shard %d worker (pid %d) is down: %s"
            % (self.shard_id, self.pid, self.dead_reason),
            shard=self.shard_id)

    def call(self, request_id, op, kwargs, timeout, deadline_s):
        """One request/response round trip; raises on error/timeout."""
        waiter = _Waiter()
        with self._pending_lock:
            if self.dead:
                raise self._down_error()
            self._pending[request_id] = waiter
        message = {"id": request_id, "op": op, "kwargs": kwargs,
                   "deadline_s": deadline_s}
        try:
            with self._send_lock:
                send_frame(self.sock, message)
        except (OSError, ReproError) as exc:
            self._mark_dead("send failed: %s" % exc)
        if not waiter.event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise DeadlineExceededError(
                "deadline exceeded waiting %.3fs for shard %d op %r"
                % (timeout, self.shard_id, op))
        if waiter.error is not None:
            raise waiter.error
        response = waiter.response
        if not response.get("ok"):
            raise decode_error(response.get("error") or {})
        return response.get("result")

    def shutdown(self, request_id, timeout=10.0):
        """Best-effort clean close; escalate to terminate/kill."""
        if self.alive:
            try:
                self.call(request_id, "close", {}, timeout, None)
            except ReproError:
                pass
        self._mark_dead("closed")
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=2.0)


class ShardRouter:
    """N process-backed engine shards behind one engine-shaped facade.

    Construction spawns (or errors loudly) every worker, pings each one
    (which waits out engine open + WAL recovery), and records their
    recovery summaries.  ``shards=None`` follows the store's pinned
    topology (``shards.json``).

    The facade is intentionally *not* the full engine surface: chunk
    metadata, readers and locks stay worker-local.  What it does expose
    is exactly what the serving tier, the ingest controller and the CLI
    consume — plus ``execute_sql``/``render_series``, the routed forms
    of query execution whose results are byte-identical to running the
    same statement on a single engine holding the same series.
    """

    #: Routers have no process-local quarantine/tile cache; per-shard
    #: ones appear in the ``shards`` section of :meth:`stats`.
    quarantine = None
    tile_cache = None

    def __init__(self, data_dir, config=DEFAULT_CONFIG, shards=None,
                 worker_threads=4, request_timeout=DEFAULT_CALL_TIMEOUT):
        self._data_dir = os.fspath(data_dir)
        self._config = config
        self._n = resolve_shards(data_dir, shards)
        self._request_timeout = float(request_timeout)
        self._ids = itertools.count(1)
        self._closed = False
        self._metrics = MetricsRegistry(enabled=config.metrics_enabled)
        self._tracer = Tracer(stats=IoStats(), registry=self._metrics,
                              enabled=config.metrics_enabled)
        self._slow_log = SlowQueryLog(config.slow_query_seconds)
        self._traces = TraceStore(slow_seconds=config.slow_query_seconds)
        self._shards = []
        config_json = json.dumps(config_as_dict(config), sort_keys=True)
        try:
            for shard_id in range(self._n):
                self._shards.append(self._spawn(shard_id, config_json,
                                                worker_threads))
            summaries = []
            for client in self._shards:
                pong = self._call(client, "ping", {},
                                  timeout=self._request_timeout)
                if pong.get("recovery"):
                    summaries.append("shard %02d: %s"
                                     % (client.shard_id,
                                        pong["recovery"]))
            self.recovery_summary = "; ".join(summaries) or None
        except BaseException:
            self.close()
            raise
        self._metrics.gauge("shards_total").set(self._n)
        self._metrics.gauge("shards_alive").set(self._n)

    def _spawn(self, shard_id, config_json, worker_threads):
        import socket
        parent, child = socket.socketpair()
        directory = shard_dir(self._data_dir, shard_id)
        os.makedirs(directory, exist_ok=True)
        argv = [sys.executable, "-m", "repro.shard.worker",
                "--fd", str(child.fileno()),
                "--dir", directory,
                "--shard-id", str(shard_id),
                "--threads", str(worker_threads),
                "--config", config_json]
        try:
            proc = subprocess.Popen(argv, pass_fds=(child.fileno(),),
                                    close_fds=True)
        except OSError as exc:
            parent.close()
            child.close()
            raise ShardError("cannot spawn shard %d worker: %s"
                             % (shard_id, exc)) from exc
        child.close()
        return _ShardClient(shard_id, proc, parent)

    # -- identity / plumbing -------------------------------------------------

    @property
    def data_dir(self):
        """The store root (shards live in ``shard-NN/`` below it)."""
        return self._data_dir

    @property
    def config(self):
        """The :class:`StorageConfig` every worker was spawned with."""
        return self._config

    @property
    def n_shards(self):
        """The pinned shard count."""
        return self._n

    @property
    def metrics(self):
        """The router-process :class:`MetricsRegistry` (serving-tier
        metrics; engine metrics live in each shard's registry)."""
        return self._metrics

    @property
    def tracer(self):
        """The router-process tracer (admission + scatter spans)."""
        return self._tracer

    @property
    def slow_log(self):
        """The router-level slow-query log (whole-request latency)."""
        return self._slow_log

    @property
    def traces(self):
        """The router-level :class:`TraceStore`."""
        return self._traces

    @property
    def closed(self):
        """True once :meth:`close` ran."""
        return self._closed

    def series_shard(self, name):
        """The shard id owning ``name`` (pure placement, no I/O)."""
        return shard_of(name, self._n)

    def shard_pids(self):
        """``{shard_id: worker pid}`` — used by the crash-drill smoke."""
        return {c.shard_id: c.pid for c in self._shards}

    def shard_workers(self):
        """``{"shard-NN": alive}`` liveness map for ``/healthz``."""
        return {"shard-%02d" % c.shard_id: c.alive for c in self._shards}

    def alive_shards(self):
        """Ids of shards whose workers are up."""
        return [c.shard_id for c in self._shards if c.alive]

    # -- request plumbing ----------------------------------------------------

    def _route(self, name):
        return self._shards[shard_of(name, self._n)]

    def _call(self, client, op, kwargs, timeout=None):
        """One call with deadline forwarding + metrics."""
        deadline = current_deadline()
        deadline_s = None
        if timeout is None:
            timeout = self._request_timeout
            if deadline is not None:
                remaining = deadline.remaining()
                deadline.check()
                deadline_s = remaining
                timeout = remaining + _DEADLINE_GRACE
        request_id = next(self._ids)
        started = time.perf_counter()
        try:
            result = client.call(request_id, op, kwargs, timeout,
                                 deadline_s)
        except DeadlineExceededError:
            self._metrics.counter("shard_deadline_timeouts_total",
                                  shard=str(client.shard_id)).inc()
            raise
        except ShardDownError:
            self._metrics.counter("shard_errors_total",
                                  shard=str(client.shard_id),
                                  kind="down").inc()
            self._metrics.gauge("shards_alive").set(
                len(self.alive_shards()))
            raise
        finally:
            self._metrics.counter("shard_requests_total", op=op).inc()
            self._metrics.histogram("shard_call_seconds", op=op).observe(
                time.perf_counter() - started)
        return result

    def _scatter(self, op, kwargs=None, timeout=None):
        """Run ``op`` on every live shard concurrently.

        Returns ``(results, down)``: ``{shard_id: result}`` for shards
        that answered, and the sorted ids of dead/failing shards."""
        results = {}
        down = []
        lock = threading.Lock()

        def one(client):
            try:
                result = self._call(client, op, dict(kwargs or {}),
                                    timeout=timeout)
                with lock:
                    results[client.shard_id] = result
            except ShardDownError:
                with lock:
                    down.append(client.shard_id)

        threads = [threading.Thread(target=one, args=(c,),
                                    name="scatter-%s-%02d"
                                         % (op, c.shard_id))
                   for c in self._shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results, sorted(down)

    # -- engine-facade: writes ----------------------------------------------

    def create_series(self, name):
        """Register ``name`` on its owning shard; returns the series id
        (unique within that shard)."""
        return self._call(self._route(name), "create_series",
                          {"name": name})

    def write(self, name, t, v):
        """Append one point to the owning shard."""
        self._call(self._route(name), "write", {"name": name,
                                                "t": t, "v": v})

    def write_batch(self, name, timestamps, values):
        """Append a batch to the owning shard."""
        self._call(self._route(name), "write_batch",
                   {"name": name, "timestamps": timestamps,
                    "values": values})

    def delete(self, name, t_start, t_end):
        """Delete ``[t_start, t_end]`` of ``name`` on its shard."""
        self._call(self._route(name), "delete",
                   {"name": name, "t_start": t_start, "t_end": t_end})

    def flush(self, name):
        """Flush one series' memtable on its owning shard."""
        self._call(self._route(name), "flush", {"name": name})

    def flush_all(self):
        """Flush every shard (skipping dead ones — used on shutdown,
        which must not raise because one worker already crashed).
        Returns the ids of shards that could not be flushed."""
        _, down = self._scatter("flush_all")
        return down

    def compact(self):
        """Full compaction on every shard (an offline maintenance call,
        so it waits well past a serving timeout); ``{series: surviving
        points}``.  A dead shard raises rather than being skipped."""
        results, down = self._scatter("compact", timeout=3600.0)
        if down:
            raise ShardDownError("compaction skipped dead shard(s) %s"
                                 % down, shard=down[0])
        return {name: count for counts in results.values()
                for name, count in counts.items()}

    # -- engine-facade: reads ------------------------------------------------

    def series_names(self):
        """The union of live shards' series names (sorted).

        Dead shards are skipped — the listing degrades exactly like a
        quarantined chunk does, rather than failing the endpoint."""
        results, _ = self._scatter("series_names")
        names = set()
        for listing in results.values():
            names.update(listing)
        return sorted(names)

    def series_info(self):
        """``(rows, down)``: merged per-series listing rows (see
        ``StorageEngine.series_info``) plus the ids of shards that
        could not answer."""
        results, down = self._scatter("series_info")
        rows = []
        for shard_rows, _ in results.values():
            rows.extend(shard_rows)
        rows.sort(key=lambda r: r["name"])
        return rows, down

    def chunk_count(self, name):
        """Sealed chunk count for ``name`` on its owning shard."""
        return self._call(self._route(name), "chunk_count",
                          {"name": name})

    def total_points(self, name):
        """Total readable points of ``name`` (deletes applied)."""
        return self._call(self._route(name), "total_points",
                          {"name": name})

    def execute_sql(self, sql, strict=False, slow_info=None,
                    debug_sleep_s=0.0):
        """Parse ``sql`` locally, execute it on the owning shard.

        A series lives wholly on one shard, so the result table arrives
        whole and byte-identical to single-engine execution.  A dead
        owner degrades to an empty, flagged table (strict mode raises
        :class:`ShardDownError` instead) — the same contract corrupt
        chunks have.  ``debug_sleep_s`` is the test-only artificial
        work knob, forwarded to the worker so deadline propagation over
        the pipe is exercisable end to end.
        """
        parsed = parse_sql(sql)
        started = time.perf_counter()
        try:
            table = self._call(self._route(parsed.series), "execute_sql",
                               {"sql": sql, "strict": strict,
                                "slow_info": slow_info,
                                "debug_sleep_s": debug_sleep_s})
        except ShardDownError as exc:
            if strict:
                raise
            table = _shard_down_table(parsed, exc)
        self._slow_log.record(sql, time.perf_counter() - started,
                              kind=parsed.kind, series=parsed.series,
                              shard=shard_of(parsed.series, self._n),
                              **(slow_info or {}))
        return table

    def render_series(self, series, width, height, t_qs=None, t_qe=None,
                      strict=False):
        """Routed form of ``render_chart``: ``(matrix, M4Result)`` from
        the owning shard, byte- and pixel-identical to rendering on a
        single engine.  Raises :class:`ShardDownError` when the owner
        is dead (the service turns that into a degraded blank chart
        unless strict)."""
        return self._call(self._route(series), "render_series",
                          {"series": series, "width": width,
                           "height": height, "t_qs": t_qs, "t_qe": t_qe,
                           "strict": strict})

    def delta_spans(self, series, ranges, span):
        """Routed ``/live`` delta computation (grid-aligned M4 spans)."""
        return self._call(self._route(series), "delta_spans",
                          {"series": series, "ranges": ranges,
                           "span": span})

    # -- observability -------------------------------------------------------

    def observability_snapshot(self):
        """Router metrics plus a ``shards`` map of per-worker snapshots.

        ``iostats`` is the numeric sum across live shards (same keys as
        a single engine), so dashboards keep working; per-shard detail
        — including each worker's quarantine — sits under ``shards``,
        with dead workers marked ``{"down": true}``.
        """
        snapshot = {"metrics": self._metrics.snapshot(),
                    "slow_queries": self._slow_log.entries()}
        results, down = self._scatter("stats")
        iostats = {}
        shards = {}
        for shard_id in sorted(results):
            worker = results[shard_id]
            shards["shard-%02d" % shard_id] = worker
            for key, value in (worker.get("iostats") or {}).items():
                if isinstance(value, (int, float)):
                    iostats[key] = iostats.get(key, 0) + value
        for shard_id in down:
            shards["shard-%02d" % shard_id] = {"down": True}
        snapshot["iostats"] = iostats
        snapshot["shards"] = shards
        snapshot["shards_down"] = down
        return snapshot

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Close every worker (idempotent; never raises for a shard
        that already died — shutdown after a crash drill must work)."""
        if self._closed:
            return
        self._closed = True
        threads = [threading.Thread(target=c.shutdown,
                                    args=(next(self._ids),),
                                    name="close-%02d" % c.shard_id)
                   for c in self._shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._metrics.gauge("shards_alive").set(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def _shard_down_table(parsed, exc):
    """The degraded empty :class:`ResultTable` for a dead owner.

    Column shape matches what the statement would have produced, so
    clients render an empty (not malformed) frame; ``meta`` carries the
    degraded flag, an operator-readable warning and the dead shard id.
    """
    from ..query.executor import ResultTable, result_columns
    meta = {"degraded": True, "skipped_ranges": [],
            "shard_down": exc.shard,
            "warning": "degraded result: %s" % exc}
    return ResultTable(result_columns(parsed), (), meta)

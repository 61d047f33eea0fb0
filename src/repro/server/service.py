"""Transport-independent request execution for the query service.

:class:`QueryService` turns endpoint payloads into :class:`Response`
objects; the HTTP layer only parses/serializes.  Heavy endpoints
(``query``, ``render``) go through the :class:`AdmissionController` —
bounded queue, worker pool, per-request deadline — while ``series``,
``stats`` and ``healthz`` are answered inline so the server stays
observable even when fully loaded.

Every request gets an id (``r000042``); it is returned in the response
body, stamped on the ``X-Repro-Request-Id`` header, and attached to any
slow-query log entry the request produces, so a slow dashboard frame
can be traced from client to engine.

Requests are also *traced* end to end: the service parses the client's
W3C ``traceparent`` header (or mints a trace id itself), opens a
request-scoped root span around admission, and the worker re-roots the
engine's spans under it — so one tree shows admission queue wait,
worker hand-off, lock waits, operator phases and tile-cache
lookups.  Completed trees land in the engine's
:class:`~repro.obs.TraceStore` and are served by ``GET /trace`` (with
Chrome ``trace_event`` export) plus joined to the slow-query log via
the trace id.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import resource
import threading
import time

from ..errors import (
    DeadlineExceededError,
    IngestBackpressureError,
    QueryError,
    ReplicationError,
    ReproError,
    SeriesNotFoundError,
    ServerOverloadedError,
    ShardDownError,
)
from ..ingest import IngestController, LiveFeed
from ..obs import (
    SamplingProfiler,
    make_traceparent,
    parse_traceparent,
    to_chrome_trace,
    to_prometheus,
)
from ..query.render import render_chart  # noqa: F401  (re-export: perf/, tests)
from ..query.render import spans_as_json
from ..storage.deadline import Deadline, sleep_checked
from .admission import AdmissionController

_JSON = "application/json"
_PBM = "image/x-portable-bitmap"


@dataclasses.dataclass
class ServerConfig:
    """Tunable knobs of the query service."""

    host: str = "127.0.0.1"
    port: int = 8731
    workers: int = 4                     # admission worker pool size
    queue_depth: int = 16                # queued jobs before shedding
    default_timeout_seconds: float = 10.0
    max_timeout_seconds: float = 60.0    # per-request cap
    retry_after_seconds: int = 1         # suggested back-off on 503
    debug_hooks: bool = False            # honor test-only sleep_ms
    quiet: bool = False                  # suppress per-request log lines
    strict: bool = False                 # corrupt chunk -> 500, no skip
    ingest_queue_bytes: int = 8 << 20    # streaming ingest queue bound
    ingest_tenant_budget_bytes: int = 0  # per-tenant share (0 = off)
    live_max_subscribers: int = 64       # concurrent /live waiters
    live_poll_seconds: float = 10.0      # default /live long-poll wait
    # -- replication (DESIGN.md §14) ------------------------------------
    standby: bool = False                # boot as a read-only replica
    replicate_to: tuple = ()             # replica base URLs (primary)
    node_id: str = ""                    # stable node name ("" = random)
    advertise_url: str = ""              # URL replicas hand to clients
    lease_seconds: float = 5.0           # primary-silence promotion lease
    auto_promote: bool = False           # standby self-promotes on lease
    ingest_ack: str = "queued"           # queued | applied | replicated

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.default_timeout_seconds <= 0:
            raise ValueError("default_timeout_seconds must be positive")
        if self.max_timeout_seconds < self.default_timeout_seconds:
            raise ValueError("max_timeout_seconds must be >= default")
        if self.ingest_queue_bytes <= 0:
            raise ValueError("ingest_queue_bytes must be positive")
        if self.ingest_tenant_budget_bytes < 0:
            raise ValueError("ingest_tenant_budget_bytes must be >= 0")
        if self.live_max_subscribers < 1:
            raise ValueError("live_max_subscribers must be >= 1")
        if self.live_poll_seconds <= 0:
            raise ValueError("live_poll_seconds must be positive")
        self.replicate_to = tuple(self.replicate_to)
        if self.standby and self.replicate_to:
            raise ValueError("a node is a standby or ships to replicas, "
                             "not both (promote first)")
        if self.lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if self.ingest_ack not in ("queued", "applied", "replicated"):
            raise ValueError("ingest_ack must be queued, applied or "
                             "replicated")
        if self.ingest_ack == "replicated" and not self.replicate_to:
            raise ValueError("ingest_ack='replicated' requires "
                             "replicate_to")


@dataclasses.dataclass
class Response:
    """One finished response, ready for any transport."""

    status: int
    body: bytes
    content_type: str = _JSON
    headers: dict = dataclasses.field(default_factory=dict)


def _degraded_warning(ranges):
    """The human-readable warning attached to a degraded response."""
    return ("degraded result: %d damaged chunk range(s) skipped (%s)"
            % (len(ranges),
               ", ".join("[%d, %d)" % (s, e) for s, e in ranges)))


class QueryService:
    """Endpoint execution against one engine, behind admission control.

    The service does not own the engine's lifecycle beyond
    :meth:`shutdown`, which drains the admission queue (in-flight
    requests complete) without closing the engine — the
    :class:`~repro.server.http.ServerHandle` sequences the full
    drain → flush → close.
    """

    def __init__(self, engine, config=None):
        self._engine = engine
        self._config = config if config is not None else ServerConfig()
        # ``engine`` is whatever ``open_store`` returned: one engine
        # or a ShardRouter (this service is then the stateless
        # scatter-gather tier); both answer the same calls.
        if engine.n_shards > 1 and (self._config.standby
                                    or self._config.replicate_to):
            raise ValueError(
                "replication and a sharded store cannot be combined on "
                "one node; run one replicated pair per shard instead "
                "(docs/OPERATIONS.md)")
        self._metrics = engine.metrics
        self._tracer = engine.tracer
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._profiler = SamplingProfiler()
        self._admission = AdmissionController(
            workers=self._config.workers,
            queue_depth=self._config.queue_depth,
            metrics=engine.metrics,
            tracer=engine.tracer,
            retry_after=self._config.retry_after_seconds)
        self._live_feed = LiveFeed(
            metrics=engine.metrics,
            max_subscribers=self._config.live_max_subscribers)
        self._replication = None
        if self._config.standby or self._config.replicate_to:
            from ..replication import ReplicationManager
            self._replication = ReplicationManager(
                engine,
                role="standby" if self._config.standby else "primary",
                replicate_to=self._config.replicate_to,
                node_id=self._config.node_id or None,
                advertise=self._config.advertise_url or None,
                lease_seconds=self._config.lease_seconds,
                auto_promote=self._config.auto_promote,
                registry=engine.metrics)
        ship_wait = self._replication.wait_shipped \
            if (self._replication is not None
                and self._config.ingest_ack == "replicated") else None
        self._ingest = IngestController(
            engine,
            queue_bytes=self._config.ingest_queue_bytes,
            tenant_budget_bytes=self._config.ingest_tenant_budget_bytes,
            retry_after_seconds=self._config.retry_after_seconds,
            live_feed=self._live_feed,
            ack_mode=self._config.ingest_ack,
            ship_wait=ship_wait)

    @property
    def config(self):
        """The service's :class:`ServerConfig`."""
        return self._config

    @property
    def engine(self):
        """The served :class:`~repro.storage.engine.StorageEngine`."""
        return self._engine

    @property
    def admission(self):
        """The service's :class:`AdmissionController`."""
        return self._admission

    @property
    def profiler(self):
        """The service-owned :class:`~repro.obs.SamplingProfiler`."""
        return self._profiler

    @property
    def ingest_controller(self):
        """The service's :class:`~repro.ingest.IngestController`."""
        return self._ingest

    @property
    def live_feed(self):
        """The service's :class:`~repro.ingest.LiveFeed`."""
        return self._live_feed

    @property
    def replication(self):
        """The node's :class:`~repro.replication.ReplicationManager`
        (None on an unreplicated server)."""
        return self._replication

    def shutdown(self):
        """Drain admission + ingest (blocks until in-flight work ends).

        Order matters: the live feed is released *first* so blocked
        long-poll/SSE followers wake immediately instead of riding out
        their poll timeout while the drain proceeds; then the ingest
        queue drains (buffered batches become durable), shipped frames
        get a bounded chance to reach the replicas, and finally the
        admission queue drains.
        """
        self._profiler.stop()
        self._live_feed.close()
        self._ingest.close()
        if self._replication is not None:
            self._replication.wait_shipped(timeout=5.0)
            self._replication.stop()
        self._admission.shutdown()

    # -- endpoints ---------------------------------------------------------------------

    def query(self, payload, headers=None):
        """``POST /query``: ``{"sql": ..., "timeout_ms": optional}``."""
        if not isinstance(payload, dict) or "sql" not in payload:
            return self._error(400, None, "body must be a JSON object "
                                          "with an 'sql' field")
        sql = payload["sql"]
        rid = self._next_id()
        trace = self._trace_context(headers)
        sleep_s = self._debug_sleep(payload)
        strict = self._strict(payload)

        def run():
            # The debug sleep runs engine-side so tests can drive a
            # deadline expiry across the shard pipe, not just here.
            table = self._engine.execute_sql(
                sql, strict=strict, debug_sleep_s=sleep_s,
                slow_info={"request_id": rid, "endpoint": "query",
                           "trace_id": trace.trace_id})
            body = {
                "request_id": rid,
                "columns": list(table.columns),
                "rows": [list(row) for row in table.rows],
                "degraded": bool(table.meta.get("degraded", False))}
            headers = {}
            if body["degraded"]:
                body["skipped_ranges"] = table.meta["skipped_ranges"]
                body["warning"] = table.meta.get("warning") \
                    or _degraded_warning(table.meta["skipped_ranges"])
                headers["X-Repro-Degraded"] = "1"
                if table.meta.get("shard_down") is not None:
                    headers["X-Repro-Shard-Down"] = str(
                        table.meta["shard_down"])
            return Response(200, _json_bytes(body), headers=headers)

        return self._admit("query", rid, run,
                           timeout_ms=payload.get("timeout_ms"),
                           trace=trace)

    def render(self, params, headers=None):
        """``GET /render``: M4-reduce a series to pixel columns.

        Params: ``series`` (required), ``width``/``height``,
        ``format`` = ``json`` (pixel-column aggregates) or ``pbm``
        (image bytes, byte-identical to ``repro render --out``),
        ``timeout_ms``.
        """
        series = params.get("series")
        if not series:
            return self._error(400, None, "missing 'series' parameter")
        try:
            width = int(params.get("width", 256))
            height = int(params.get("height", 64))
        except ValueError:
            return self._error(400, None, "width/height must be integers")
        fmt = params.get("format", "json")
        if fmt not in ("json", "pbm"):
            return self._error(400, None, "format must be json or pbm")
        rid = self._next_id()
        trace = self._trace_context(headers)
        sleep_s = self._debug_sleep(params)
        strict = self._strict(params)

        def run():
            if sleep_s:
                sleep_checked(sleep_s)
            started = time.perf_counter()
            try:
                matrix, result = self._engine.render_series(
                    series, width, height, strict=strict)
            except ShardDownError as exc:
                if strict:
                    raise
                return self._shard_down_render(rid, series, width,
                                               height, fmt, exc)
            self._engine.slow_log.record(
                "RENDER %s %dx%d" % (series, width, height),
                time.perf_counter() - started,
                endpoint="render", request_id=rid, series=series,
                trace_id=trace.trace_id)
            headers = {}
            if result.degraded:
                # Binary formats carry the flag in headers only.
                headers["X-Repro-Degraded"] = "1"
                headers["X-Repro-Skipped-Ranges"] = ",".join(
                    "%d-%d" % (s, e) for s, e in result.skipped)
            if fmt == "pbm":
                from ..viz.chart import to_pbm
                return Response(200, to_pbm(matrix).encode("ascii"),
                                content_type=_PBM, headers=headers)
            body = {
                "request_id": rid, "series": series,
                "width": width, "height": height,
                "t_qs": result.t_qs, "t_qe": result.t_qe,
                "spans": spans_as_json(result),
                "degraded": result.degraded}
            if result.degraded:
                ranges = [[int(s), int(e)] for s, e in result.skipped]
                body["skipped_ranges"] = ranges
                body["warning"] = _degraded_warning(ranges)
            return Response(200, _json_bytes(body), headers=headers)

        return self._admit("render", rid, run,
                           timeout_ms=params.get("timeout_ms"),
                           trace=trace)

    def _shard_down_render(self, rid, series, width, height, fmt, exc):
        """The degraded ``/render`` answer for a dead owning shard.

        Mirrors the corrupt-chunk contract: HTTP 200, an empty (blank)
        chart, ``X-Repro-Degraded`` set — plus ``X-Repro-Shard-Down``
        naming the shard so the operator knows which drill to run.
        """
        headers = {"X-Repro-Degraded": "1"}
        if exc.shard is not None:
            headers["X-Repro-Shard-Down"] = str(exc.shard)
        if fmt == "pbm":
            import numpy as np

            from ..viz.chart import to_pbm
            blank = np.zeros((int(height), int(width)), dtype=bool)
            return Response(200, to_pbm(blank).encode("ascii"),
                            content_type=_PBM, headers=headers)
        body = {"request_id": rid, "series": series,
                "width": width, "height": height,
                "t_qs": 0, "t_qe": 0, "spans": [],
                "degraded": True, "skipped_ranges": [],
                "warning": "degraded result: %s" % exc}
        return Response(200, _json_bytes(body), headers=headers)

    def series(self):
        """``GET /series``: name + time range per series (inline).

        Against a sharded store the listing is a scatter-gather merge;
        shards whose worker died are skipped and reported in
        ``shards_down`` with ``degraded: true`` (same contract as a
        degraded query: answer what is answerable, flag the rest).
        """
        rows, down = self._engine.series_info()
        body = {"series": [{key: row[key] for key in (
            "name", "start_time", "end_time", "chunks", "points")}
            for row in rows]}
        if down:
            body["degraded"] = True
            body["shards_down"] = down
        self._count("series", 200)
        return Response(200, _json_bytes(body))

    def stats(self, params=None):
        """``GET /stats``: obs snapshot + server section (inline).

        ``?format=prometheus`` answers text exposition format 0.0.4
        instead of JSON, so a scraper can target a live server directly
        (previously only ``repro stats --format prometheus`` over a
        closed store could).
        """
        fmt = (params or {}).get("format", "json")
        if fmt not in ("json", "prometheus"):
            return self._error(400, None,
                               "format must be json or prometheus")
        if fmt == "prometheus":
            # Same canonical source as the JSON path: the engine's
            # observability snapshot.  Rendering the raw registry here
            # used to drop the engine-lifetime io_*_total counters and
            # made the two formats disagree; snapshotting at request
            # time also means instruments registered after server
            # start (live_subscribers, ingest gauges) appear without a
            # restart.
            text = to_prometheus(
                self._engine.observability_snapshot()["metrics"])
            self._count("stats", 200)
            return Response(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        snapshot = self._engine.observability_snapshot()
        snapshot["ingest"] = self._ingest.stats()
        snapshot["ingest"]["live_subscribers"] = \
            self._live_feed.subscribers
        usage = resource.getrusage(resource.RUSAGE_SELF)
        snapshot["server"] = {
            "workers": self._admission.workers,
            "queue_depth_limit": self._admission.queue_depth,
            "default_timeout_seconds":
                self._config.default_timeout_seconds,
            "strict": self._config.strict,
            "process": {  # process lifetime: never persisted to obs.json
                "voluntary_context_switches": usage.ru_nvcsw,
                "involuntary_context_switches": usage.ru_nivcsw,
                "cpu_seconds": usage.ru_utime + usage.ru_stime},
        }
        quarantine = self._engine.quarantine
        if quarantine is not None:
            snapshot["quarantine"] = {
                "chunks": len(quarantine),
                "entries": quarantine.entries(),
            }
        if self._replication is not None:
            snapshot["replication"] = self._replication.status()
        self._count("stats", 200)
        return Response(200, _json_bytes(snapshot))

    def healthz(self):
        """``GET /healthz``: cheap liveness + load signals (inline).

        ``workers`` maps every long-lived worker thread (the ingest
        writer, replication shippers, the lease monitor) to its
        liveness; any dead worker on a live server flips ``status`` to
        ``"degraded"`` — a stalled queue must be visible, not silent.
        """
        metrics = self._metrics
        quarantine = self._engine.quarantine
        queue_wait = metrics.histogram("server_queue_wait_seconds")
        workers = {"ingest-writer": bool(self._ingest.writer_alive
                                         or self._ingest.closed)}
        if self._replication is not None:
            workers.update(self._replication.workers())
        # One entry per shard worker process (none for an in-process
        # engine); a dead shard flips status to "degraded" exactly
        # like a dead ingest writer.
        shards = self._engine.shard_workers()
        workers.update(shards)
        body = {
            "status": "ok" if all(workers.values()) else "degraded",
            "workers": workers,
            "series": len(self._engine.series_names()),
            "queue_depth": metrics.gauge("server_queue_depth").value,
            "inflight": metrics.gauge("server_inflight").value,
            "shed_total": metrics.counter("server_shed_total").value,
            "timeout_total": metrics.counter("server_timeout_total").value,
            "queue_wait_p50_seconds": queue_wait.quantile(0.50),
            "queue_wait_p99_seconds": queue_wait.quantile(0.99),
            "quarantined_chunks":
                len(quarantine) if quarantine is not None else 0,
            "ingest_pending_bytes":
                metrics.gauge("ingest_queue_bytes").value,
            "ingest_points_total":
                metrics.counter("ingest_points_total").value,
            "ingest_sheds_total":
                metrics.counter("ingest_sheds_total").value,
            "live_subscribers": self._live_feed.subscribers,
        }
        if self._replication is not None:
            body["replication_role"] = self._replication.role
        if shards:
            body["shards"] = {"total": len(shards),
                              "alive": sum(shards.values())}
        return Response(200, _json_bytes(body))

    def traces(self, params=None):
        """``GET /trace``: newest-first listing of retained traces.

        Summaries only (id, endpoint, status, latency); fetch one by id
        via ``GET /trace/<request_id-or-trace_id>``.
        """
        params = params or {}
        try:
            limit = int(params.get("limit", 50))
        except ValueError:
            return self._error(400, None, "limit must be an integer")
        store = self._engine.traces
        entries = store.entries()[:max(limit, 0)]
        body = {
            "traces": [{
                "request_id": e["request_id"],
                "trace_id": e["trace_id"],
                "endpoint": e["endpoint"],
                "status": e["status"],
                "seconds": e["seconds"],
                "sampled": e["sampled"],
                "unix_time": e["unix_time"],
            } for e in entries],
            "store": store.stats(),
        }
        self._count("trace", 200)
        return Response(200, _json_bytes(body))

    def trace(self, key, params=None):
        """``GET /trace/<id>``: one retained trace, by request or trace
        id.  ``?format=chrome`` answers Chrome ``trace_event`` JSON
        (loadable in about:tracing / Perfetto) instead of the raw span
        tree."""
        fmt = (params or {}).get("format", "json")
        if fmt not in ("json", "chrome"):
            return self._error(400, None, "format must be json or chrome")
        entry = self._engine.traces.get(key)
        if entry is None:
            response = self._error(404, None, "no retained trace %r" % key)
            self._count("trace", 404)
            return response
        self._count("trace", 200)
        if fmt == "chrome":
            return Response(200, _json_bytes(to_chrome_trace(entry)))
        return Response(200, _json_bytes(entry))

    def profile(self, payload):
        """``POST /profile``: ``{"action": "start"|"stop",
        "interval_ms": optional}`` driving the sampling profiler.

        ``start`` is idempotent (409 when already running); ``stop``
        returns the collapsed-stack text (flamegraph.pl format) in the
        ``collapsed`` field.
        """
        if not isinstance(payload, dict):
            return self._error(400, None, "body must be a JSON object")
        action = payload.get("action")
        if action == "start":
            interval = None
            if payload.get("interval_ms") is not None:
                try:
                    interval = float(payload["interval_ms"]) / 1000.0
                except (TypeError, ValueError):
                    return self._error(400, None,
                                       "interval_ms must be a number")
                if interval <= 0:
                    return self._error(400, None,
                                       "interval_ms must be positive")
            if not self._profiler.start(interval=interval):
                return self._error(409, None, "profiler already running")
            self._count("profile", 200)
            return Response(200, _json_bytes(
                {"status": "started", "profile": self._profiler.stats()}))
        if action == "stop":
            if not self._profiler.running:
                return self._error(409, None, "profiler is not running")
            collapsed = self._profiler.stop()
            self._count("profile", 200)
            return Response(200, _json_bytes(
                {"status": "stopped", "collapsed": collapsed,
                 "profile": self._profiler.stats()}))
        return self._error(400, None, "action must be start or stop")

    def profile_status(self):
        """``GET /profile``: sampler state (and collapsed stacks once
        stopped)."""
        body = {"profile": self._profiler.stats()}
        if not self._profiler.running:
            collapsed = self._profiler.collapsed()
            if collapsed:
                body["collapsed"] = collapsed
        self._count("profile", 200)
        return Response(200, _json_bytes(body))

    # -- streaming ingest + live feed --------------------------------------------------

    def ingest(self, payload):
        """``POST /ingest``: one batch of points into one series.

        Body: ``{"series": ..., "timestamps": [...], "values": [...]}``
        (or ``"points": [[t, v], ...]``), optional ``"tenant"``.
        Backpressure answers 429 with ``Retry-After`` — the client
        must back off and resend; admission control is bypassed (the
        ingest queue *is* the bounded buffer).
        """
        rejected = self._reject_standby_write("ingest")
        if rejected is not None:
            return rejected
        parsed = self._parse_batch(payload)
        if isinstance(parsed, Response):
            self._count("ingest", parsed.status)
            return parsed
        series, t, v, tenant = parsed
        try:
            ack = self._ingest.submit(series, t, v, tenant=tenant)
        except IngestBackpressureError as exc:
            self._count("ingest", 429)
            response = self._error(429, None, str(exc))
            response.headers["Retry-After"] = str(exc.retry_after)
            return response
        except ShardDownError as exc:
            self._count("ingest", 503)
            response = self._error(503, None, str(exc))
            response.headers["Retry-After"] = str(
                self._config.retry_after_seconds)
            return response
        except (SeriesNotFoundError, ValueError) as exc:
            self._count("ingest", 400)
            return self._error(400, None, str(exc))
        self._count("ingest", 200)
        body = dict(ack)
        body["series"] = series
        return Response(200, _json_bytes(body))

    def ingest_stream(self, raw):
        """``POST /ingest/stream``: line-delimited batches (NDJSON).

        Each line is one ``/ingest`` body; the response carries one
        result per line (ack or error) plus totals.  The whole request
        answers 429 only when *every* line was shed, so a partially
        accepted stream still returns its per-line outcomes.
        """
        rejected = self._reject_standby_write("ingest_stream")
        if rejected is not None:
            return rejected
        results = []
        accepted = shed = errors = 0
        retry_after = self._config.retry_after_seconds
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                errors += 1
                results.append({"status": 400,
                                "error": "line is not JSON"})
                continue
            parsed = self._parse_batch(payload)
            if isinstance(parsed, Response):
                errors += 1
                results.append({"status": parsed.status,
                                "error": json.loads(
                                    parsed.body).get("error")})
                continue
            series, t, v, tenant = parsed
            try:
                ack = self._ingest.submit(series, t, v, tenant=tenant)
            except IngestBackpressureError as exc:
                shed += 1
                retry_after = max(retry_after, exc.retry_after)
                results.append({"status": 429, "error": str(exc)})
                continue
            except ShardDownError as exc:
                errors += 1
                results.append({"status": 503, "error": str(exc)})
                continue
            except (SeriesNotFoundError, ValueError) as exc:
                errors += 1
                results.append({"status": 400, "error": str(exc)})
                continue
            accepted += ack["accepted"]
            results.append({"status": 200, "accepted": ack["accepted"]})
        body = {"results": results, "accepted_points": accepted,
                "shed": shed, "errors": errors}
        if results and shed == len(results):
            self._count("ingest_stream", 429)
            response = Response(429, _json_bytes(body))
            response.headers["Retry-After"] = str(retry_after)
            return response
        self._count("ingest_stream", 200)
        return Response(200, _json_bytes(body))

    def _parse_batch(self, payload):
        """``(series, timestamps, values, tenant)`` or a 400 Response."""
        if not isinstance(payload, dict) or not payload.get("series"):
            return self._error(400, None, "body must be a JSON object "
                                          "with a 'series' field")
        series = str(payload["series"])
        tenant = str(payload.get("tenant", "default"))
        if "points" in payload:
            points = payload["points"]
            if not isinstance(points, list) or not points:
                return self._error(400, None,
                                   "'points' must be a non-empty list")
            try:
                t = [int(p[0]) for p in points]
                v = [float(p[1]) for p in points]
            except (TypeError, ValueError, IndexError):
                return self._error(400, None,
                                   "'points' must be [t, v] pairs")
        else:
            try:
                t = [int(x) for x in payload.get("timestamps", ())]
                v = [float(x) for x in payload.get("values", ())]
            except (TypeError, ValueError):
                return self._error(400, None, "timestamps/values must "
                                              "be numeric arrays")
            if not t or len(t) != len(v):
                return self._error(400, None, "timestamps/values must "
                                              "be equal-length and "
                                              "non-empty")
        if any(math.isnan(x) for x in v):
            return self._error(400, None, "values must not be NaN")
        return series, t, v, tenant

    def live(self, params):
        """``GET /live``: long-poll for span deltas past a cursor.

        Params: ``series`` (required), ``cursor`` (0 = from now),
        ``timeout_ms`` (long-poll wait, default
        ``live_poll_seconds``), ``span`` (optional cell width: the
        response then carries freshly computed M4 spans over the
        changed ranges, grid-aligned so they splice byte-identically
        into any chart on the same grid).
        """
        series = params.get("series")
        if not series:
            return self._error(400, None, "missing 'series' parameter")
        try:
            cursor = int(params.get("cursor", 0))
            span = int(params["span"]) if params.get("span") else None
        except ValueError:
            return self._error(400, None,
                               "cursor/span must be integers")
        if span is not None and span <= 0:
            return self._error(400, None, "span must be positive")
        timeout = self._live_timeout(params.get("timeout_ms"))
        try:
            body = self.live_delta(series, cursor, timeout, span=span)
        except ServerOverloadedError as exc:
            self._count("live", 503)
            response = self._error(503, None, str(exc))
            response.headers["Retry-After"] = str(exc.retry_after)
            return response
        self._count("live", 200)
        return Response(200, _json_bytes(body))

    def live_delta(self, series, cursor, timeout, span=None):
        """One long-poll step (shared by ``/live`` JSON and SSE).

        Blocks up to ``timeout`` seconds for the series to move past
        ``cursor``; returns the JSON-able delta document.  Raises
        :class:`ServerOverloadedError` past the subscriber cap.
        """
        with self._live_feed.subscriber():
            head, ranges, reset = self._live_feed.wait(series, cursor,
                                                       timeout)
        body = {"series": series, "cursor": head,
                "ranges": [[int(lo), int(hi)] for lo, hi in ranges],
                "reset": bool(reset)}
        if span is not None and ranges:
            body["span"] = span
            body["deltas"] = self.delta_spans(series, ranges, span)
        return body

    def delta_spans(self, series, ranges, span):
        """Grid-aligned M4 spans over each changed range, computed by
        the engine that owns the series (grid contract:
        :func:`repro.query.render.compute_delta_spans`)."""
        try:
            return self._engine.delta_spans(series, ranges, span)
        except ShardDownError as exc:
            return [{"t_qs": int(lo), "t_qe": int(hi),
                     "error": str(exc)} for lo, hi in ranges]

    def _live_timeout(self, timeout_ms):
        """The long-poll wait: default ``live_poll_seconds``, capped
        by ``max_timeout_seconds`` (0 = non-blocking peek)."""
        if timeout_ms is None:
            return self._config.live_poll_seconds
        try:
            seconds = float(timeout_ms) / 1000.0
        except (TypeError, ValueError):
            return self._config.live_poll_seconds
        if seconds < 0:
            return self._config.live_poll_seconds
        return min(seconds, self._config.max_timeout_seconds)

    # -- replication -------------------------------------------------------------------

    def _reject_standby_write(self, endpoint):
        """A 409 redirect-on-write response when this node is a
        standby; None when writes are allowed.  The body carries the
        advertised primary URL (when known) and the ``Location``
        header mirrors it — urllib will not auto-follow a redirected
        POST, so :class:`ReproClient` follows the JSON field
        explicitly."""
        if self._replication is None \
                or self._replication.role != "standby":
            return None
        primary = self._replication.applier.primary_url \
            if self._replication.applier is not None else None
        self._count(endpoint, 409)
        self._metrics.counter("replication_write_redirects_total").inc()
        response = Response(409, _json_bytes(
            {"error": "this node is a standby replica; writes go to "
                      "the primary",
             "role": "standby", "primary": primary}))
        if primary:
            response.headers["Location"] = primary
        return response

    def replicate(self, raw):
        """``POST /replicate``: one shipped frame batch (binary body).

        Protocol replies (``ok`` / ``resync`` / ``frozen``) all answer
        HTTP 200 — the shipper reads ``state`` from the JSON body;
        non-200 is reserved for malformed bodies, which the shipper
        treats as transport errors and retries."""
        if self._replication is None:
            self._count("replicate", 200)
            return Response(200, _json_bytes(
                {"state": "frozen",
                 "error": "replication not configured on this node"}))
        try:
            reply = self._replication.apply(raw)
        except ReplicationError as exc:
            self._count("replicate", 400)
            return self._error(400, None, str(exc))
        self._count("replicate", 200)
        return Response(200, _json_bytes(reply))

    def replication_status(self):
        """``GET /replication``: role, lag, replicas, lease (inline)."""
        self._count("replication", 200)
        if self._replication is None:
            return Response(200, _json_bytes({"role": "none"}))
        return Response(200, _json_bytes(self._replication.status()))

    def replication_fingerprint(self):
        """``GET /replication/fingerprint``: per-series content hashes
        (comparable across nodes; used by the anti-entropy sweep)."""
        from ..replication import content_fingerprint
        self._count("replication_fingerprint", 200)
        return Response(200, _json_bytes(
            {"fingerprint": content_fingerprint(self._engine)}))

    def promote(self):
        """``POST /replication/promote``: standby → writable primary."""
        if self._replication is None:
            self._count("promote", 409)
            return self._error(409, None,
                               "replication not configured on this node")
        status = self._replication.promote(reason="manual")
        self._count("promote", 200)
        return Response(200, _json_bytes(status))

    def replication_sweep(self):
        """``POST /replication/sweep``: one anti-entropy pass (primary
        only); answers the repair report."""
        if self._replication is None:
            self._count("sweep", 409)
            return self._error(409, None,
                               "replication not configured on this node")
        try:
            report = self._replication.sweep()
        except ReplicationError as exc:
            self._count("sweep", 409)
            return self._error(409, None, str(exc))
        self._count("sweep", 200)
        return Response(200, _json_bytes(report))

    # -- admission plumbing ------------------------------------------------------------

    def _trace_context(self, headers):
        """The request's trace context: the client's ``traceparent``
        when present and valid, else a server-minted unsampled one."""
        ctx = parse_traceparent((headers or {}).get("traceparent"))
        if ctx is None:
            ctx = parse_traceparent(make_traceparent(sampled=False))
        return ctx

    def _admit(self, endpoint, rid, fn, timeout_ms=None, trace=None):
        deadline = Deadline(self._timeout_seconds(timeout_ms))
        started = time.perf_counter()
        root = self._tracer.root_span(
            "request", endpoint=endpoint, request_id=rid,
            trace_id=trace.trace_id if trace is not None else None)
        job = shed = None
        with root:
            try:
                job = self._admission.submit(
                    fn, deadline=deadline, request_id=rid,
                    span=root if self._tracer.enabled else None)
            except ServerOverloadedError as exc:
                shed = exc
            if job is not None:
                # Fulfilment is guaranteed: run, queued-expiry or drain.
                job.wait()
                if job.finished_at is not None:
                    # Worker -> submitter hand-off: the gap between the
                    # job being fulfilled and this thread resuming.
                    now = time.perf_counter()
                    self._metrics.histogram("server_handoff_seconds") \
                        .observe(max(now - job.finished_at, 0.0))
                    self._tracer.timed_span(
                        "server.handoff", job.finished_at, now,
                        parent=root)
        if shed is not None:
            response = self._error(503, rid, str(shed))
            response.headers["Retry-After"] = str(shed.retry_after)
            return self._finish(endpoint, rid, started, response,
                                trace=trace, root=root)
        if job.error is not None:
            return self._finish(endpoint, rid, started,
                                self._map_error(rid, job.error),
                                trace=trace, root=root)
        response = job.result
        response.headers.setdefault("X-Repro-Request-Id", rid)
        return self._finish(endpoint, rid, started, response,
                            trace=trace, root=root)

    def _finish(self, endpoint, rid, started, response, trace=None,
                root=None):
        seconds = time.perf_counter() - started
        self._metrics.histogram("server_request_seconds",
                                endpoint=endpoint).observe(seconds)
        self._count(endpoint, response.status)
        response.headers.setdefault("X-Repro-Request-Id", rid or "-")
        if trace is not None:
            response.headers.setdefault("X-Repro-Trace-Id",
                                        trace.trace_id)
            if root is not None and self._tracer.enabled:
                self._engine.traces.record(
                    root, trace.trace_id, rid, endpoint,
                    response.status, sampled=trace.sampled)
        return response

    def _count(self, endpoint, status):
        self._metrics.counter("server_requests_total", endpoint=endpoint,
                              status=str(status)).inc()

    def _map_error(self, rid, error):
        if isinstance(error, DeadlineExceededError):
            return self._error(504, rid, str(error))
        if isinstance(error, ShardDownError):
            # Strict mode (or a write) against a dead shard: the data
            # is temporarily unavailable, not gone — 503 + Retry-After
            # so clients back off until the operator restarts.
            response = self._error(503, rid, str(error))
            response.headers["Retry-After"] = str(
                self._config.retry_after_seconds)
            return response
        if isinstance(error, (QueryError, SeriesNotFoundError,
                              ValueError)):
            return self._error(400, rid, str(error))
        if isinstance(error, ReproError):
            return self._error(500, rid, str(error))
        return self._error(500, rid, "%s: %s"
                           % (type(error).__name__, error))

    def _error(self, status, rid, message):
        return Response(status, _json_bytes({"error": message,
                                             "request_id": rid}))

    def _timeout_seconds(self, timeout_ms):
        if timeout_ms is None:
            return self._config.default_timeout_seconds
        try:
            seconds = float(timeout_ms) / 1000.0
        except (TypeError, ValueError):
            return self._config.default_timeout_seconds
        if seconds <= 0:
            return self._config.default_timeout_seconds
        return min(seconds, self._config.max_timeout_seconds)

    def _next_id(self):
        with self._id_lock:
            return "r%06d" % next(self._ids)

    def _strict(self, params):
        """Per-request strictness: ``strict`` param overrides config."""
        value = params.get("strict")
        if value is None:
            return self._config.strict
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes", "on")

    def _debug_sleep(self, params):
        """Seconds of test-only artificial work (0 unless enabled)."""
        if not self._config.debug_hooks:
            return 0.0
        try:
            return max(float(params.get("sleep_ms", 0)) / 1000.0, 0.0)
        except (TypeError, ValueError):
            return 0.0


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode("utf-8")

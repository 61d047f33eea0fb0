"""The HTTP front end: routing, serialization, graceful shutdown.

A :class:`ReproServer` is a stdlib ``ThreadingHTTPServer`` — one
handler thread per connection — but handler threads do no engine work:
they parse the request, hand a closure to the service's admission
controller, and block until the job is fulfilled.  Concurrency is
therefore governed by the worker pool + bounded queue, not by the
accept loop, which is what keeps overload behaviour shaped (503s with
``Retry-After``) instead of unbounded thread pile-ups.

Endpoints::

    POST /query    {"sql": ..., "timeout_ms": ...}  -> JSON rows
    GET  /render?series=..&width=..&height=..&format=json|pbm
    GET  /series   registered series + time ranges
    GET  /stats    observability snapshot (?format=prometheus for text)
    GET  /healthz  liveness and load signals
    GET  /trace    retained request traces (newest first)
    GET  /trace/<id>  one trace (?format=chrome for trace_event JSON)
    GET  /profile  sampling profiler status
    POST /profile  {"action": "start"|"stop", "interval_ms": ...}
    POST /ingest   {"series": .., "timestamps": [..], "values": [..]}
                   (backpressure answers 429 with Retry-After)
    POST /ingest/stream   NDJSON: one /ingest body per line
    GET  /live?series=..&cursor=..&timeout_ms=..&span=..
                   long-poll span deltas; &mode=sse streams
                   text/event-stream events instead
    POST /replicate   binary frame batch from a primary's shipper
    GET  /replication             role / lag / replica status
    GET  /replication/fingerprint per-series content fingerprints
    POST /replication/promote     turn this standby into a primary
    POST /replication/sweep       anti-entropy pass (primary only)

``query`` and ``render`` accept a W3C ``traceparent`` request header;
the response carries ``X-Repro-Trace-Id`` so clients can fetch their
own trace back.

Shutdown (:meth:`ServerHandle.stop`) is a strict sequence: stop
accepting, drain the admission queue (in-flight requests complete and
are answered), close the listening socket, then flush the engine and
close it — which persists ``obs.json`` — so a drained server never
loses buffered writes or tears its observability snapshot.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..errors import ServerOverloadedError
from .service import QueryService, Response, ServerConfig


class _Handler(BaseHTTPRequestHandler):
    """Thin request handler: parse, dispatch to the service, serialize."""

    server_version = "repro-server"
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        with self.server.track_request():
            split = urlsplit(self.path)
            params = dict(parse_qsl(split.query))
            service = self.server.service
            if split.path == "/render":
                self._send(service.render(params,
                                          headers=self._trace_headers()))
            elif split.path == "/series":
                self._send(service.series())
            elif split.path == "/stats":
                self._send(service.stats(params))
            elif split.path == "/healthz":
                self._send(service.healthz())
            elif split.path == "/trace":
                self._send(service.traces(params))
            elif split.path.startswith("/trace/"):
                key = split.path[len("/trace/"):]
                self._send(service.trace(key, params))
            elif split.path == "/profile":
                self._send(service.profile_status())
            elif split.path == "/replication":
                self._send(service.replication_status())
            elif split.path == "/replication/fingerprint":
                self._send(service.replication_fingerprint())
            elif split.path == "/live":
                accept = self.headers.get("Accept", "")
                if params.get("mode") == "sse" \
                        or "text/event-stream" in accept:
                    self._serve_sse(service, params)
                else:
                    self._send(service.live(params))
            else:
                self._send(Response(404,
                                    b'{"error": "no such endpoint"}'))

    def do_POST(self):
        with self.server.track_request():
            split = urlsplit(self.path)
            if split.path not in ("/query", "/profile", "/ingest",
                                  "/ingest/stream", "/replicate",
                                  "/replication/promote",
                                  "/replication/sweep"):
                self._send(Response(404,
                                    b'{"error": "no such endpoint"}'))
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
            except (ValueError, TypeError):
                self._send(Response(400,
                                    b'{"error": "bad Content-Length"}'))
                return
            service = self.server.service
            if split.path == "/replicate":
                # Binary frame batch — never JSON-parsed.
                self._send(service.replicate(raw))
                return
            if split.path == "/replication/promote":
                self._send(service.promote())
                return
            if split.path == "/replication/sweep":
                self._send(service.replication_sweep())
                return
            if split.path == "/ingest/stream":
                # NDJSON: parsed line by line by the service, so one
                # bad line answers per-line, not a whole-request 400.
                self._send(service.ingest_stream(
                    raw.decode("utf-8", "replace")))
                return
            try:
                payload = json.loads(raw or b"{}")
            except ValueError:
                self._send(Response(400,
                                    b'{"error": "body is not JSON"}'))
                return
            if split.path == "/profile":
                self._send(service.profile(payload))
                return
            if split.path == "/ingest":
                self._send(service.ingest(payload))
                return
            self._send(service.query(payload,
                                     headers=self._trace_headers()))

    def _serve_sse(self, service, params):
        """``GET /live?mode=sse``: push deltas until duration elapses.

        The connection is closed at the end (no Content-Length on a
        stream); a quiet period emits a keep-alive comment so proxies
        and clients can distinguish idle from dead.
        """
        series = params.get("series")
        if not series:
            self._send(Response(400,
                                b'{"error": "missing series parameter"}'))
            return
        try:
            cursor = int(params.get("cursor", 0))
            duration = float(params.get("duration", 30.0))
            span = int(params["span"]) if params.get("span") else None
        except ValueError:
            self._send(Response(
                400, b'{"error": "cursor/duration/span malformed"}'))
            return
        duration = min(max(duration, 0.0), 300.0)
        feed = service.live_feed
        try:
            subscription = feed.subscriber()
            subscription.__enter__()
        except ServerOverloadedError as exc:
            response = Response(503, b'{"error": "live feed at max '
                                     b'subscribers"}')
            response.headers["Retry-After"] = str(exc.retry_after)
            self._send(response)
            return
        try:
            self.close_connection = True
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            end = time.monotonic() + duration
            while not feed.closed:
                step = min(end - time.monotonic(),
                           service.config.live_poll_seconds)
                if step <= 0:
                    break
                head, ranges, reset = feed.wait(series, cursor, step)
                if head <= cursor and not reset:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                body = {"series": series, "cursor": head,
                        "ranges": [[int(lo), int(hi)]
                                   for lo, hi in ranges],
                        "reset": bool(reset)}
                if span is not None and ranges:
                    body["span"] = span
                    body["deltas"] = service.delta_spans(
                        series, ranges, span)
                cursor = head
                self.wfile.write(b"data: "
                                 + json.dumps(body,
                                              sort_keys=True).encode()
                                 + b"\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        finally:
            subscription.__exit__(None, None, None)

    def _trace_headers(self):
        """The request headers the service cares about (lower-cased)."""
        traceparent = self.headers.get("traceparent")
        return {"traceparent": traceparent} if traceparent else {}

    def _send(self, response):
        # Headers and body leave in ONE write.  Flushed on their own,
        # the headers make the body wait ~40 ms behind Nagle + the
        # client's delayed ACK on a keep-alive connection.
        sock_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = sock_file
        try:
            sock_file.write(head + response.body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to answer

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if not self.server.service.config.quiet:
            sys.stderr.write("[repro-server] %s %s\n"
                             % (self.address_string(), format % args))


class ReproServer(ThreadingHTTPServer):
    """The listening socket + accept loop around one :class:`QueryService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service, address=None):
        self.service = service
        config = service.config
        self._active_requests = 0
        self._active_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        if address is None:
            address = (config.host, config.port)
        super().__init__(address, _Handler)

    @contextlib.contextmanager
    def track_request(self):
        """Count a request from dispatch through response write.

        Handler threads are daemons (a stalled client must not be able
        to hold shutdown hostage), so stdlib ``server_close`` does not
        join them; this counter is what lets :meth:`wait_idle` sequence
        "every answered request is fully written and observed" before
        the engine snapshots ``obs.json``.
        """
        with self._active_lock:
            self._active_requests += 1
            self._idle.clear()
        try:
            yield
        finally:
            with self._active_lock:
                self._active_requests -= 1
                if self._active_requests == 0:
                    self._idle.set()

    def wait_idle(self, timeout=10.0):
        """Block until no request is mid-dispatch (True on success)."""
        return self._idle.wait(timeout)


class ServerHandle:
    """A running server: its thread, address and graceful stop."""

    def __init__(self, server, own_engine=False):
        self._server = server
        self._own_engine = own_engine
        self._thread = threading.Thread(target=server.serve_forever,
                                        name="repro-server-accept",
                                        daemon=True)
        self._stopped = False
        self._lock = threading.Lock()
        self._thread.start()

    @property
    def service(self):
        """The underlying :class:`QueryService`."""
        return self._server.service

    @property
    def address(self):
        """The bound ``(host, port)`` (port resolved when 0 was asked)."""
        return self._server.server_address[:2]

    @property
    def url(self):
        """Base URL clients should use."""
        host, port = self.address
        return "http://%s:%d" % (host, port)

    def stop(self):
        """Graceful shutdown: drain in-flight requests, then close.

        Idempotent.  When the handle owns the engine (the CLI path),
        the engine is flushed and closed last, persisting ``obs.json``.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._server.shutdown()           # 1. stop accepting
        self.service.shutdown()           # 2. drain admitted jobs
        self._server.wait_idle()          # 3. responses written + observed
        self._server.server_close()       # 4. release the socket
        self._thread.join(timeout=10)
        if self._own_engine:
            engine = self.service.engine  # 5. flush WAL state + obs.json
            engine.flush_all()
            engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def start_server(engine, config=None, own_engine=False):
    """Start serving ``engine`` in a background thread.

    Pass ``port=0`` in the config for an ephemeral port (tests); read
    the actual one back from ``handle.address``.  The engine must be
    flushed (``flush_all``) before queries will succeed; the caller
    keeps ownership unless ``own_engine`` is set.
    """
    config = config if config is not None else ServerConfig()
    service = QueryService(engine, config)
    server = ReproServer(service)
    return ServerHandle(server, own_engine=own_engine)

"""The load generator: closed-loop HTTP clients and their samples.

Each client is one thread; it sends its next request when the previous
reply has arrived (closed loop: a dashboard or gateway waits for its
reply).  Like the shipped ``repro.server.client`` it opens a connection
per request with default socket options.  (Over a keep-alive connection
every reply stalls ~44 ms on this server — see ``http.keepalive_stall_ms``
in README.md — and the stall's 4 ms timer ticks would quantise every
latency; the traced pass measures that stall on its own.)  The
generator shares the machine's 2 cores with the server, so it does as
little as possible per request: ops are pre-encoded and only every 16th
read keeps its body for the output check.
"""

from __future__ import annotations

import http.client
import math
import threading
import time

CHECK_EVERY = 16
_JSON = {"Content-Type": "application/json"}


class Connection:
    """Sends ops to the server: a fresh connection per request, or one
    kept-alive connection when ``keep_alive`` is set."""

    def __init__(self, port, keep_alive=False):
        self._port = port
        self._keep_alive = keep_alive
        self._conn = None

    def send(self, op):
        """``(status, body)`` of one request; raises ``OSError`` or
        ``http.client.HTTPException`` on a transport error."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self._port, timeout=60)
            headers = dict(_JSON) if op.body else {}
            if not self._keep_alive:
                headers["Connection"] = "close"
            self._conn.request(op.method, op.path, body=op.body or None,
                               headers=headers)
            response = self._conn.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if not self._keep_alive:
            self.close()
        return status, body

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Sample:
    """One attempted request."""

    __slots__ = ("client", "kind", "start", "end", "ok", "points")

    def __init__(self, client, kind, start, end, ok, points):
        self.client = client
        self.kind = kind
        self.start = start
        self.end = end
        self.ok = ok
        self.points = points


class _Client(threading.Thread):
    def __init__(self, index, port, source, stop):
        super().__init__(daemon=True)
        self.index = index
        self.source = source
        self.samples = []
        self.kept = []          # (end time, op, body) of every 16th read
        self.sent = 0
        self.error = None
        self._conn = Connection(port)
        self._stop_event = stop

    def run(self):
        try:
            while not self._stop_event.is_set():
                op = self.source.next(self.sent)
                if op is None:
                    break
                start = time.perf_counter()
                try:
                    status, body = self._conn.send(op)
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                end = time.perf_counter()
                ok = status == 200
                self.source.done(op, ok)
                self.samples.append(Sample(self.index, op.kind, start, end,
                                           ok, op.points))
                if ok and op.kind == "read" and self.sent % CHECK_EVERY == 0:
                    self.kept.append((end, op, body))
                self.sent += 1
        except BaseException as exc:   # reported by run_closed_loop
            self.error = exc
            raise
        finally:
            self._conn.close()


class Window:
    """What the clients did between ``start`` and ``end``."""

    def __init__(self, start, end, samples, kept, warmup_s):
        self.start = start
        self.end = end
        self.warmup_s = warmup_s
        self.samples = [s for s in samples if start <= s.end <= end]
        self.kept = [(op, body) for at, op, body in kept
                     if start <= at <= end]

    @property
    def seconds(self):
        return self.end - self.start

    def of(self, kind):
        """The answered (200) requests of one kind."""
        return [s for s in self.samples if s.kind == kind and s.ok]

    def rate(self, kind, unit=lambda sample: 1):
        """Units of ``kind`` answered per second, summed over clients.

        A closed-loop client's requests are back to back, so each
        client's rate is taken over its own busy time — first counted
        request sent to last one answered — which keeps the window's
        edges (a request cut by either) out of the count.
        """
        per_client = {}
        for sample in self.of(kind):
            if sample.start >= self.start:
                per_client.setdefault(sample.client, []).append(sample)
        return sum(sum(unit(s) for s in done)
                   / (done[-1].end - done[0].start)
                   for done in per_client.values())


def run_closed_loop(port, sources, seconds, warmup_s, warm_cycles=0):
    """Drive ``sources`` (one client each) and return the timed
    :class:`Window`.

    Warm-up lasts ``warmup_s`` and, where ``warm_cycles`` is set, until
    every client has been through its op list that many times (so a
    cache the workload relies on is full before timing starts).
    """
    stop = threading.Event()
    clients = [_Client(i, port, source, stop)
               for i, source in enumerate(sources)]
    began = time.perf_counter()
    for client in clients:
        client.start()
    try:
        while (time.perf_counter() - began < warmup_s
               or any(c.source.cycles(c.sent) < warm_cycles
                      for c in clients)):
            _check_alive(clients)
            time.sleep(0.02)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            _check_alive(clients)
            time.sleep(0.02)
        end = time.perf_counter()
    finally:
        stop.set()
        for client in clients:
            client.join(timeout=120)
    _check_alive(clients)
    if any(client.is_alive() for client in clients):
        raise RuntimeError("a load generator client did not stop")
    return Window(start, end,
                  [s for c in clients for s in c.samples],
                  [k for c in clients for k in c.kept], start - began)


def _check_alive(clients):
    for client in clients:
        if client.error is not None:
            raise RuntimeError("load generator client failed: %r"
                               % (client.error,))


def percentile(values, q):
    """Nearest-rank percentile of an unsorted list (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail_quantile(n):
    """0.95 where that leaves ten samples beyond it, otherwise the
    highest quantile that does (never below the median)."""
    return max(min(0.95, 1.0 - 10.0 / n), 0.5) if n else 0.5

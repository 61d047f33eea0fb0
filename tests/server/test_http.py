"""Integration tests: a live server on an ephemeral port.

The load-shedding and timeout tests drive the server with the
test-only ``sleep_ms`` debug hook (enabled via ``debug_hooks`` in the
fixture), which makes overload deterministic without a big dataset.
"""

import json
import threading
import time

import pytest

from repro.errors import ServerError, ServerOverloadedError
from repro.query.executor import Executor
from repro.query.sql import parse as parse_sql
from repro.server import ReproClient
from repro.server.service import render_chart
from repro.storage import StorageConfig, StorageEngine
from repro.viz.chart import to_pbm

SQL = ("SELECT M4(v) FROM ball WHERE time >= 0 AND time < 42000 "
       "GROUP BY SPANS(50)")


class TestEndpoints:
    def test_healthz(self, served):
        body = served.client.healthz()
        assert body["status"] == "ok"
        assert body["series"] == 1

    def test_series_listing(self, served):
        listing = served.client.series()
        assert [s["name"] for s in listing] == ["ball"]
        assert listing[0]["points"] == 6000
        assert listing[0]["start_time"] == 0

    def test_query_matches_in_process_execution(self, served):
        over_the_wire = served.client.query(SQL)
        table = Executor(served.engine).execute(parse_sql(SQL))
        assert over_the_wire["columns"] == list(table.columns)
        assert over_the_wire["rows"] == [list(r) for r in table.rows]
        assert over_the_wire["request_id"].startswith("r")

    def test_query_reports_request_id_header(self, served):
        response = served.client.query_response(SQL)
        assert response.ok
        assert response.request_id == response.json()["request_id"]

    def test_bad_sql_is_400(self, served):
        response = served.client.query_response("SELECT nonsense")
        assert response.status == 400
        assert "error" in response.json()

    def test_missing_series_is_400(self, served):
        response = served.client.render_response("nope")
        assert response.status == 400

    def test_non_json_body_is_400(self, served):
        response = served.client.request("POST", "/query", body=b"{oops")
        assert response.status == 400

    def test_unknown_endpoint_is_404(self, served):
        assert served.client.request("GET", "/nope").status == 404
        assert served.client.request("POST", "/nope").status == 404

    def test_stats_has_server_section(self, served):
        served.client.query(SQL)
        stats = served.client.stats()
        assert stats["server"]["workers"] == 4
        requests_total = stats["metrics"]["counters"]
        assert any(k.startswith("server_requests_total")
                   for k in requests_total)

    def test_stats_reports_process_switches_and_cpu(self, served):
        fields = ("voluntary_context_switches",
                  "involuntary_context_switches", "cpu_seconds")
        first = served.client.stats()["server"]["process"]
        served.client.query(SQL)
        second = served.client.stats()["server"]["process"]
        for field in fields:
            assert isinstance(first[field], (int, float))
            assert second[field] >= first[field]

    def test_typed_client_raises_on_errors(self, served):
        with pytest.raises(ServerError) as info:
            served.client.query("SELECT nonsense")
        assert info.value.status == 400


class TestOneWritePerResponse:
    """Headers flushed ahead of the body stall a keep-alive client
    ~40 ms (Nagle + delayed ACK): every response is one socket write.
    Counted, not timed."""

    def test_headers_and_body_leave_in_one_write(self, served,
                                                 monkeypatch):
        from repro.server.http import _Handler

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner
                self.calls = []

            def write(self, data):
                self.calls.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        per_connection = []
        real_setup = _Handler.setup

        def setup(handler):
            real_setup(handler)
            handler.wfile = CountingWriter(handler.wfile)
            per_connection.append(handler.wfile.calls)

        monkeypatch.setattr(_Handler, "setup", setup)
        served.client.healthz()
        served.client.query(SQL)
        served.client.render("ball", width=40, height=12, fmt="pbm")
        assert served.client.request("GET", "/nope").status == 404
        assert len(per_connection) == 4
        for calls in per_connection:
            assert len(calls) == 1
            head, _, body = calls[0].partition(b"\r\n\r\n")
            assert b"Content-Length: %d\r\n" % len(body) in head + b"\r\n"


class TestRenderIdentical:
    """GET /render must be byte-identical to every in-process surface."""

    def test_pbm_matches_in_process_and_cli(self, served, tmp_path):
        wire = served.client.render("ball", width=40, height=12, fmt="pbm")
        assert wire.startswith(b"P1\n40 12\n")

        matrix, _ = render_chart(served.engine, "ball", 40, 12)
        assert wire == to_pbm(matrix).encode("ascii")

        from repro.cli import main
        out = tmp_path / "cli.pbm"
        assert main(["render", "--db", str(served.data_dir),
                     "--series", "ball", "--width", "40", "--height", "12",
                     "--out", str(out)]) == 0
        assert wire == out.read_bytes()

    def test_pbm_stable_across_workers(self, served, make_served):
        reference = served.client.render("ball", width=40, height=12,
                                         fmt="pbm")
        other = make_served(workers=2, queue_depth=4)
        assert other.client.render("ball", width=40, height=12,
                                   fmt="pbm") == reference

    def test_json_render_spans(self, served):
        body = served.client.render("ball", width=40, height=12)
        assert body["width"] == 40
        assert len(body["spans"]) == 40
        first = body["spans"][0]
        assert set(first) == {"span", "first", "last", "bottom", "top"}


def _wait_until(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _saturate(served, sleep_ms=2000):
    """One request executing + one queued, confirmed via healthz.

    The slow requests are started one at a time and their progress is
    observed through the queue-depth/inflight gauges, so the server is
    *provably* saturated (workers=1, queue_depth=1) when this returns —
    any further submission must shed.  Returns the threads to join and
    a list collecting the slow requests' responses.
    """
    results = []

    def slow():
        results.append(ReproClient(served.handle.url)
                       .query_response(SQL, sleep_ms=sleep_ms))

    health = served.client.healthz
    threads = [threading.Thread(target=slow)]
    threads[0].start()
    assert _wait_until(lambda: health()["inflight"] >= 1)
    threads.append(threading.Thread(target=slow))
    threads[1].start()
    assert _wait_until(lambda: health()["queue_depth"] >= 1)
    return threads, results


class TestOverload:
    def test_full_queue_sheds_with_retry_after(self, make_served):
        served = make_served(workers=1, queue_depth=1)
        threads, results = _saturate(served)
        response = served.client.query_response(SQL)
        for t in threads:
            t.join()
        assert response.status == 503
        assert response.headers.get("Retry-After") == "1"
        assert response.json()["error"].startswith("admission queue full")
        assert all(r.status == 200 for r in results)
        assert served.client.healthz()["shed_total"] >= 1

    def test_shed_raises_typed_overload_error(self, make_served):
        served = make_served(workers=1, queue_depth=1)
        threads, _results = _saturate(served, sleep_ms=1500)
        with pytest.raises(ServerOverloadedError) as info:
            served.client.query(SQL)
        for t in threads:
            t.join()
        assert info.value.retry_after == 1

    def test_timeout_is_504_and_aborts_early(self, served):
        response = served.client.query_response(SQL, timeout_ms=100,
                                                sleep_ms=5000)
        assert response.status == 504
        body = response.json()
        assert "deadline" in body["error"]
        assert body["request_id"].startswith("r")
        assert served.client.healthz()["timeout_total"] >= 1

    def test_render_timeout_is_504(self, served):
        response = served.client.render_response("ball", timeout_ms=100,
                                                 sleep_ms=5000)
        assert response.status == 504

    def test_execution_slot_wait_expiry_is_504(self, served):
        from repro.obs.metrics import NULL_REGISTRY
        from repro.storage.locks import EXEC_SLOT
        before = served.engine.stats.snapshot()
        with EXEC_SLOT.hold(NULL_REGISTRY):
            response = served.client.query_response(SQL, timeout_ms=50)
        assert response.status == 504
        assert "deadline" in response.json()["error"]
        assert served.engine.stats.diff(before).chunk_loads == 0


class TestShutdown:
    def test_graceful_stop_drains_inflight_and_persists_obs(
            self, make_served):
        served = make_served(workers=2, queue_depth=4)
        started = threading.Event()
        outcome = {}

        def inflight():
            started.set()
            outcome["response"] = ReproClient(served.handle.url) \
                .query_response(SQL, sleep_ms=600)

        thread = threading.Thread(target=inflight)
        thread.start()
        assert started.wait(5)
        time.sleep(0.15)  # let the request reach a worker
        served.handle.stop()          # drain: the slow request completes
        served.engine.close()
        thread.join(10)
        assert outcome["response"].status == 200

        obs = served.data_dir / "obs.json"
        assert obs.is_file()
        snapshot = json.loads(obs.read_text())
        counters = snapshot["metrics"]["counters"]
        assert any(k.startswith("server_requests_total") for k in counters)

    def test_engine_refuses_queries_after_close(self, tmp_path):
        engine = StorageEngine(tmp_path / "db", StorageConfig())
        engine.create_series("s")
        engine.close()
        from repro.errors import StorageError
        with pytest.raises(StorageError):
            with engine.tsfile_reader("anything"):
                pass

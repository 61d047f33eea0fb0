"""End-to-end request tracing, Prometheus scraping, and HTTP profiling.

The headline test is the PR's acceptance criterion: a sampled query
through :class:`ReproClient` must yield a retrievable per-request trace
whose single tree contains the admission queue wait, a per-series lock
wait, and at least one engine-level span (a tile-cache lookup), and
that trace must export as valid Chrome ``trace_event`` JSON.
"""

import json

import pytest

from repro.errors import ServerError
from repro.server.workload import SessionWorkload


def _span_names(node, out=None):
    out = out if out is not None else []
    out.append(node["name"])
    for child in node.get("children", ()):
        _span_names(child, out)
    return out


def _query_sql(series="ball"):
    return ("SELECT M4(v) FROM %s WHERE time >= 0 AND time < 42000 "
            "GROUP BY SPANS(100)" % series)


class TestEndToEndTrace:
    def test_sampled_query_yields_a_full_request_tree(self, make_served):
        served = make_served(storage_kwargs={"tile_cache_bytes": 1 << 20})
        # a tile-eligible viewport: span width 128 (a power of two),
        # start on the grid, so the tiled operator stitches from tiles
        sql = ("SELECT M4(v) FROM ball WHERE time >= 0 AND "
               "time < 16384 GROUP BY SPANS(128)")
        response = served.client.query_response(sql, sampled=True)
        assert response.status == 200
        assert response.request_id and response.trace_id
        assert len(response.trace_id) == 32

        entry = served.client.trace(response.request_id)
        assert entry["trace_id"] == response.trace_id
        assert entry["sampled"] is True
        assert entry["status"] == 200

        names = _span_names(entry["root"])
        assert entry["root"]["name"] == "request"
        assert "admission.queue_wait" in names
        assert "lock.wait" in names
        # engine-level detail: a tile lookup must appear in the same tree
        assert "tiles.tile" in names
        # the whole tree shares one root: every span is below "request"
        assert names[0] == "request"

    def test_trace_id_is_the_clients_traceparent_trace_id(self, served):
        from repro.obs import make_traceparent, parse_traceparent

        header = make_traceparent(sampled=True)
        ctx = parse_traceparent(header)
        response = served.client.request(
            "POST", "/query",
            body=json.dumps({"sql": _query_sql()}).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "traceparent": header})
        assert response.status == 200
        assert response.trace_id == ctx.trace_id
        assert served.client.trace(ctx.trace_id)["request_id"] \
            == response.request_id

    def test_chrome_export_is_valid_trace_event_json(self, make_served):
        served = make_served()
        response = served.client.query_response(_query_sql(),
                                                sampled=True)
        doc = served.client.trace(response.request_id, fmt="chrome")
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["trace_id"] == response.trace_id
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert complete and meta
        for event in complete:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert event["pid"] == 1 and event["tid"] >= 1
        assert complete[0]["name"] == "request"
        # every thread the request touched is named
        assert {e["name"] for e in meta} == {"thread_name"}

    def test_unsampled_fast_request_is_not_retained(self, served):
        response = served.client.query_response(_query_sql(),
                                                sampled=False)
        assert response.status == 200
        with pytest.raises(ServerError) as excinfo:
            served.client.trace(response.request_id)
        assert excinfo.value.status == 404

    def test_trace_listing_and_store_stats(self, served):
        sampled = [served.client.query_response(_query_sql(),
                                                sampled=True)
                   for _ in range(3)]
        listing = served.client.trace_list(limit=2)
        assert len(listing["traces"]) == 2
        # newest first: the last sampled request leads
        assert listing["traces"][0]["request_id"] \
            == sampled[-1].request_id
        assert listing["store"]["seen"] >= 3
        assert listing["store"]["retained"] >= 3

    def test_bad_trace_params_are_400(self, served):
        assert served.client.request(
            "GET", "/trace?limit=nope").status == 400
        assert served.client.request(
            "GET", "/trace/xyz?format=gif").status == 400


class TestSlowLogJoin:
    def test_slow_log_entries_carry_the_trace_id(self, make_served):
        served = make_served(
            storage_kwargs={"slow_query_seconds": 0.0})  # log everything
        response = served.client.query_response(_query_sql(),
                                                sampled=True)
        assert response.status == 200
        entries = [e for e in served.engine.slow_log.entries()
                   if e.get("request_id") == response.request_id]
        assert entries
        assert entries[0]["trace_id"] == response.trace_id

    def test_loadgen_samples_record_server_ids(self, served):
        workload = SessionWorkload(served.handle.url, width=64, seed=3,
                                   trace_every=2)
        report = workload.run(mode="closed", users=1, duration=0.5)
        assert report.ok > 0
        assert len(report.samples) == report.ok
        for sample in report.samples:
            assert sample["request_id"].startswith("r")
            assert len(sample["trace_id"]) == 32
        assert any(s["sampled"] for s in report.samples)
        slowest = report.slowest(2)
        assert slowest == sorted(report.samples,
                                 key=lambda s: -s["latency"])[:2]
        # a sampled request's trace is retrievable by the recorded id
        sampled = next(s for s in report.samples if s["sampled"])
        entry = served.client.trace(sampled["request_id"])
        assert entry["trace_id"] == sampled["trace_id"]


class TestPrometheusEndpoint:
    def test_content_type_and_shape(self, served):
        served.client.query(_query_sql())
        response = served.client.request("GET",
                                         "/stats?format=prometheus")
        assert response.status == 200
        assert response.headers["Content-Type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        text = response.body.decode("utf-8")
        assert "# TYPE server_request_seconds histogram" in text
        assert "server_queue_wait_seconds_bucket" in text
        assert "NaN" not in text

    def test_client_helper_returns_text(self, served):
        text = served.client.stats(fmt="prometheus")
        assert isinstance(text, str) and "# HELP" in text

    def test_unknown_format_is_400(self, served):
        assert served.client.request(
            "GET", "/stats?format=xml").status == 400

    def test_healthz_reports_queue_wait_quantiles(self, served):
        served.client.query(_query_sql())
        body = served.client.healthz()
        assert body["queue_wait_p50_seconds"] >= 0.0
        assert body["queue_wait_p99_seconds"] \
            >= body["queue_wait_p50_seconds"]


class TestProfileEndpoint:
    def test_start_query_stop_roundtrip(self, served):
        started = served.client.profile_start(interval_ms=1)
        assert started["status"] == "started"
        assert started["profile"]["running"] is True
        for _ in range(3):
            served.client.query(_query_sql())
        stopped = served.client.profile_stop()
        assert stopped["status"] == "stopped"
        assert stopped["profile"]["running"] is False
        assert stopped["profile"]["samples"] > 0
        # stacks are rooted at thread names; the admission workers and
        # the HTTP handler threads were alive to be sampled
        assert stopped["collapsed"]
        status = served.client.request("GET", "/profile").json()
        assert status["profile"]["running"] is False
        assert status["collapsed"] == stopped["collapsed"]

    def test_double_start_and_idle_stop_are_409(self, served):
        served.client.profile_start()
        try:
            response = served.client.request(
                "POST", "/profile",
                body=b'{"action": "start"}',
                headers={"Content-Type": "application/json"})
            assert response.status == 409
        finally:
            served.client.profile_stop()
        response = served.client.request(
            "POST", "/profile", body=b'{"action": "stop"}',
            headers={"Content-Type": "application/json"})
        assert response.status == 409

    def test_bad_payloads_are_400(self, served):
        for body in (b'{"action": "nope"}',
                     b'{"action": "start", "interval_ms": 0}',
                     b'{"action": "start", "interval_ms": "x"}'):
            response = served.client.request(
                "POST", "/profile", body=body,
                headers={"Content-Type": "application/json"})
            assert response.status == 400, body

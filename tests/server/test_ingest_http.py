"""End-to-end tests for ``POST /ingest``, ``/ingest/stream`` and
``GET /live`` (long-poll and SSE), plus their observability surface."""

import json
import threading
import time

import pytest

from repro.errors import IngestBackpressureError
from repro.ingest import batch_nbytes


def _points(lo, n, value=1.0):
    return list(range(lo, lo + n)), [value] * n


def _post_json(client, path, payload):
    return client.request(
        "POST", path, body=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})


class TestIngestEndpoint:
    def test_round_trip_and_query(self, served):
        t, v = _points(0, 100, 2.5)
        ack = served.client.ingest("feed", t, v)
        assert ack["accepted"] == 100
        assert ack["series"] == "feed"
        assert served.handle.service.ingest_controller.drain()
        rows = served.client.query(
            "SELECT M4(v) FROM feed WHERE time >= 0 AND time < 100 "
            "GROUP BY SPANS(4)")
        assert rows["rows"]

    def test_points_pairs_accepted(self, served):
        response = _post_json(served.client, "/ingest", {
            "series": "feed", "points": [[5, 1.5], [6, 2.5]]})
        assert response.status == 200
        assert response.json()["accepted"] == 2

    @pytest.mark.parametrize("payload", [
        {},
        {"series": "s"},
        {"series": "s", "timestamps": [1], "values": [1.0, 2.0]},
        {"series": "s", "points": "nope"},
        {"series": "s", "points": [[1]]},
        {"series": "s", "timestamps": [1, 2], "values": [1.0, float("nan")]},
        {"series": "s", "points": [[1, float("nan")]]},
        {"series": "s", "timestamps": [1], "values": ["nan"]},
    ])
    def test_bad_payloads_are_400(self, served, payload):
        response = _post_json(served.client, "/ingest", payload)
        assert response.status == 400
        assert "error" in response.json()

    def test_nan_batch_is_refused_before_anything_is_written(self, served):
        response = _post_json(served.client, "/ingest", {
            "series": "feed", "timestamps": [0, 1],
            "values": [1.0, float("nan")]})
        assert response.status == 400
        assert "NaN" in response.json()["error"]
        assert "feed" not in served.engine.series_names()

    def test_backpressure_is_429_with_retry_after(self, make_served):
        served = make_served(
            ingest_queue_bytes=batch_nbytes(10) - 1,
            retry_after_seconds=7)
        with pytest.raises(IngestBackpressureError) as info:
            served.client.ingest("feed", *_points(0, 10))
        assert info.value.status == 429
        assert info.value.retry_after == 7

    def test_stream_endpoint_reports_per_line(self, served):
        result = served.client.ingest_stream([
            {"series": "a", "timestamps": [0, 1], "values": [1.0, 2.0]},
            {"series": "b", "points": [[5, 1.5], [6, 2.5]]},
            {"series": "c", "timestamps": [1], "values": [1.0, 2.0]},
        ])
        assert result["accepted_points"] == 4
        assert result["errors"] == 1
        assert [r["status"] for r in result["results"]] == [200, 200, 400]

    def test_stream_skips_blank_lines_and_flags_bad_json(self, served):
        body = b'{"series": "a", "timestamps": [0], "values": [1.0]}' \
               b"\n\nnot json\n"
        response = served.client.request(
            "POST", "/ingest/stream", body=body,
            headers={"Content-Type": "application/x-ndjson"})
        assert response.status == 200
        doc = response.json()
        assert doc["accepted_points"] == 1
        assert doc["errors"] == 1


class TestLiveEndpoint:
    def test_long_poll_sees_ingested_range(self, served):
        served.client.ingest("feed", *_points(1000, 50))
        poll = served.client.live_poll("feed", cursor=0,
                                       timeout_ms=5000)
        assert poll["cursor"] >= 1 and not poll["reset"]
        assert poll["ranges"] == [[1000, 1050]]

    def test_long_poll_timeout_is_empty_not_error(self, served):
        poll = served.client.live_poll("feed", cursor=0, timeout_ms=50)
        assert poll["cursor"] == 0 and poll["ranges"] == []

    def test_span_deltas_are_grid_aligned_m4(self, served):
        served.client.ingest("feed", *_points(0, 128, 3.0))
        served.handle.service.ingest_controller.drain()
        poll = served.client.live_poll("feed", cursor=0,
                                       timeout_ms=5000, span=32)
        assert poll["span"] == 32
        assert poll["deltas"], "expected recomputed spans"
        delta = poll["deltas"][0]
        # The delta covers the grid-aligned changed range and carries
        # M4 spans a client can splice into its chart.
        assert delta["t_qs"] % 32 == 0
        assert delta["t_qe"] % 32 == 0
        assert delta["spans"]

    def test_missing_series_param_is_400(self, served):
        response = served.client.request("GET", "/live")
        assert response.status == 400

    def test_subscriber_cap_sheds_503(self, make_served):
        served = make_served(live_max_subscribers=1)
        feed = served.handle.service.live_feed
        with feed.subscriber():
            response = served.client.request(
                "GET", "/live?series=feed&timeout_ms=10")
            assert response.status == 503
            assert "Retry-After" in response.headers

    def test_sse_streams_events(self, served):
        events = []
        done = threading.Event()

        def consume():
            for event in served.client.live_events("feed", cursor=0,
                                                   duration=8.0):
                events.append(event)
                break
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the stream subscribe before publishing
        served.client.ingest("feed", *_points(500, 25))
        assert done.wait(timeout=15), "no SSE event arrived"
        thread.join(timeout=5)
        assert events[0]["ranges"] == [[500, 525]]
        assert events[0]["cursor"] >= 1


class TestObservabilitySurface:
    def test_stats_json_has_ingest_section(self, served):
        served.client.ingest("feed", *_points(0, 30))
        served.handle.service.ingest_controller.drain()
        stats = served.client.stats()
        assert stats["ingest"]["accepted_batches"] == 1
        assert stats["ingest"]["applied_batches"] == 1
        assert "live_subscribers" in stats["ingest"]

    def test_prometheus_exposes_post_start_instruments(self, served):
        """Counters created after the server booted (ingest's are) must
        show up without a restart — the exporter renders the engine's
        full observability snapshot, not a boot-time instrument list."""
        served.client.ingest("feed", *_points(0, 30))
        served.handle.service.ingest_controller.drain()
        text = served.client.stats(fmt="prometheus")
        assert "ingest_points_total 30" in text
        assert "live_subscribers" in text
        assert "server_requests_total" in text  # boot-time family too

    def test_healthz_reports_ingest_load(self, served):
        served.client.ingest("feed", *_points(0, 10))
        served.handle.service.ingest_controller.drain()
        health = served.client.healthz()
        assert health["ingest_points_total"] == 10
        assert health["ingest_pending_bytes"] == 0
        assert health["ingest_sheds_total"] == 0
        assert health["live_subscribers"] == 0


class TestShutdown:
    def test_stop_drains_ingest_and_releases_live_waiters(
            self, make_served):
        served = make_served()
        served.client.ingest("feed", *_points(0, 40))

        polls = []
        thread = threading.Thread(
            target=lambda: polls.append(
                served.client.live_poll("feed", cursor=99,
                                        timeout_ms=30000)),
            daemon=True)
        thread.start()
        time.sleep(0.2)
        served.handle.stop()          # must not hang on the waiter
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The accepted batch was applied before shutdown completed.
        assert served.handle.service.ingest_controller.stats()[
            "applied_batches"] == 1

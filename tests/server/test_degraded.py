"""Degraded reads over HTTP: a damaged chunk yields a flagged 200 with
the skipped ranges, strict mode (server-wide or per-request) yields a
500, and health/stats surface the quarantine.  M4 and the GROUP BY
aggregates follow the same contract."""

import pytest

SQL = ("SELECT M4(v) FROM ball WHERE time >= 0 AND time < 42000 "
       "GROUP BY SPANS(50)")
AGG_SQL = ("SELECT COUNT(v), MAX_VALUE(v) FROM ball WHERE time >= 0 "
           "AND time < 42000 GROUP BY SPANS(50)")


def corrupt_one_chunk(engine, series="ball"):
    """Flip a payload byte of a middle chunk on disk, under the engine."""
    meta = engine.chunks_for(series)[len(engine.chunks_for(series)) // 2]
    with open(meta.file_path, "r+b") as f:
        f.seek(meta.data_offset + 5)
        byte = f.read(1)
        f.seek(meta.data_offset + 5)
        f.write(bytes([byte[0] ^ 0x20]))
    return meta


class TestDegradedResponses:
    def test_query_returns_200_with_warning(self, served):
        victim = corrupt_one_chunk(served.engine)
        response = served.client.query_response(SQL)
        assert response.status == 200
        body = response.json()
        assert body["degraded"] is True
        assert body["skipped_ranges"] == [[victim.start_time,
                                           victim.end_time + 1]]
        assert "damaged chunk" in body["warning"]
        assert response.headers.get("X-Repro-Degraded") == "1"
        assert len(body["rows"]) > 0  # surviving spans still answered

    def test_healthy_query_is_not_flagged(self, served):
        body = served.client.query_response(SQL).json()
        assert body["degraded"] is False
        assert "warning" not in body
        assert "skipped_ranges" not in body

    def test_render_json_flags_degradation(self, served):
        corrupt_one_chunk(served.engine)
        response = served.client.render_response("ball", width=50,
                                                 height=20)
        assert response.status == 200
        body = response.json()
        assert body["degraded"] is True
        assert body["skipped_ranges"]
        assert "warning" in body

    def test_render_pbm_flags_via_header(self, served):
        corrupt_one_chunk(served.engine)
        response = served.client.render_response("ball", width=50,
                                                 height=20, fmt="pbm")
        assert response.status == 200
        assert response.headers.get("X-Repro-Degraded") == "1"
        assert "-" in response.headers.get("X-Repro-Skipped-Ranges", "")
        assert response.body.startswith(b"P1")

    def test_healthz_and_stats_surface_quarantine(self, served):
        corrupt_one_chunk(served.engine)
        served.client.query_response(SQL)  # trips the quarantine
        health = served.client.healthz()
        assert health["quarantined_chunks"] == 1
        stats = served.client.stats()
        assert stats["quarantine"]["chunks"] == 1
        assert stats["quarantine"]["entries"][0]["reason"]


class TestStrictMode:
    def test_per_request_strict_is_500(self, served):
        corrupt_one_chunk(served.engine)
        response = served.client.query_response(SQL, strict=True)
        assert response.status == 500
        assert "error" in response.json()

    def test_strict_server_fails_all_requests(self, make_served):
        served = make_served(strict=True)
        corrupt_one_chunk(served.engine)
        assert served.client.query_response(SQL).status == 500
        assert served.client.render_response("ball").status == 500

    def test_strict_render_param(self, served):
        corrupt_one_chunk(served.engine)
        response = served.client.render_response("ball", strict=True)
        assert response.status == 500

    def test_strict_healthy_store_still_answers(self, make_served):
        served = make_served(strict=True)
        response = served.client.query_response(SQL)
        assert response.status == 200
        assert response.json()["degraded"] is False


@pytest.mark.parametrize("using", ["M4LSM", "M4UDF"])
class TestDegradedAggregates:
    def test_flagged_200_with_skipped_ranges(self, served, using):
        victim = corrupt_one_chunk(served.engine)
        sql = AGG_SQL + " USING " + using
        # The second query finds the chunk already quarantined.
        for _ in range(2):
            response = served.client.query_response(sql)
            assert response.status == 200
            body = response.json()
            assert body["degraded"] is True
            assert body["skipped_ranges"] == [[victim.start_time,
                                               victim.end_time + 1]]
            assert response.headers.get("X-Repro-Degraded") == "1"
            assert sum(row[1] for row in body["rows"]) \
                == 6000 - victim.n_points
        assert served.client.healthz()["quarantined_chunks"] == 1

    def test_strict_is_500(self, served, using):
        corrupt_one_chunk(served.engine)
        response = served.client.query_response(
            AGG_SQL + " USING " + using, strict=True)
        assert response.status == 500
        assert "error" in response.json()

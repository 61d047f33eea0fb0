"""The HTTP tier over a shard router: scatter-gather, parity, crashes."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.datasets.generators import PROFILES
from repro.server import ReproClient, ServerConfig, start_server
from repro.server.workload import SessionWorkload
from repro.shard import open_store
from repro.storage import StorageConfig, StorageEngine

SQL = "SELECT M4(v) FROM %s GROUP BY SPANS(64)"
NAMES = ["root.a", "root.b", "root.c", "root.d"]


def _load(engine, names=NAMES, n=4000):
    for seed, name in enumerate(names):
        rng = np.random.default_rng(seed)
        t = np.arange(n, dtype=np.int64) * 3
        v = np.cos(t / 97.0) * 5 + rng.normal(0, 0.2, n)
        engine.create_series(name)
        engine.write_batch(name, t, v)
    engine.flush_all()


@pytest.fixture
def make_server(tmp_path):
    """Factory: a live server over a store opened with N shards."""
    alive = []

    def build(shards, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("quiet", True)
        config_kwargs.setdefault("debug_hooks", True)
        store = str(tmp_path / ("db-%d-%d" % (shards, len(alive))))
        engine = open_store(store, StorageConfig(), shards=shards)
        _load(engine)
        handle = start_server(engine, ServerConfig(**config_kwargs))
        client = ReproClient(handle.url)
        alive.append((handle, engine))
        return engine, client

    yield build
    for handle, engine in alive:
        handle.stop()
        engine.close()


class TestParity:
    def test_sharded_answers_match_unsharded(self, make_server):
        _, plain = make_server(1)
        _, sharded = make_server(4)
        for name in NAMES:
            want = plain.query(SQL % name)
            got = sharded.query(SQL % name)
            assert got["columns"] == want["columns"]
            assert got["rows"] == want["rows"]
            assert got["degraded"] is False
            want_pbm = plain.render_response(name, fmt="pbm").body
            got_pbm = sharded.render_response(name, fmt="pbm").body
            assert got_pbm == want_pbm

    def test_shards_one_is_plain_engine(self, make_server):
        engine, client = make_server(1)
        assert isinstance(engine, StorageEngine)
        assert client.query(SQL % "root.a")["rows"]
        health = client.healthz()
        assert "shards" not in health

    def test_series_listing_merged(self, make_server):
        _, plain = make_server(1)
        _, sharded = make_server(2)
        assert sharded.series() == plain.series()

    def test_healthz_reports_shards(self, make_server):
        _, client = make_server(4)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["shards"] == {"total": 4, "alive": 4}
        assert all(health["workers"]["shard-%02d" % i] for i in range(4))

    def test_stats_aggregates_shards(self, make_server):
        _, client = make_server(2)
        client.query(SQL % "root.a")
        stats = client.stats()
        assert set(stats["shards"]) == {"shard-00", "shard-01"}
        assert stats["shards_down"] == []


def _kill_owner(engine, name):
    shard = engine.series_shard(name)
    os.kill(engine.shard_pids()[shard], signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while shard in engine.alive_shards():
        assert time.monotonic() < deadline, "shard never went down"
        time.sleep(0.02)
    return shard


class TestCrash:
    def test_query_degrades_with_headers(self, make_server):
        engine, client = make_server(2)
        dead = _kill_owner(engine, "root.a")
        response = client.query_response(SQL % "root.a")
        assert response.status == 200
        assert response.headers.get("X-Repro-Degraded") == "1"
        assert response.headers.get("X-Repro-Shard-Down") == str(dead)
        body = response.json()
        assert body["degraded"] is True and body["rows"] == []
        assert "degraded result" in body["warning"]

    def test_strict_query_is_503(self, make_server):
        engine, client = make_server(2)
        _kill_owner(engine, "root.a")
        response = client.query_response(SQL % "root.a", strict=True)
        assert response.status == 503
        assert "Retry-After" in response.headers

    def test_render_degrades_blank(self, make_server):
        engine, client = make_server(2)
        dead = _kill_owner(engine, "root.a")
        response = client.render_response("root.a", fmt="pbm")
        assert response.status == 200
        assert response.headers.get("X-Repro-Shard-Down") == str(dead)
        # A blank chart: P1 header then only zeros.
        pixels = b"".join(response.body.split(b"\n")[2:])
        assert set(pixels.replace(b" ", b"")) <= {ord("0")}

    def test_ingest_to_dead_shard_is_503(self, make_server):
        engine, client = make_server(2)
        _kill_owner(engine, "root.a")
        response = client.ingest_response("root.a", [10**9], [1.0])
        assert response.status == 503

    def test_live_series_unaffected(self, make_server):
        engine, client = make_server(2)
        dead = _kill_owner(engine, "root.a")
        survivor = next(n for n in NAMES
                        if engine.series_shard(n) != dead)
        assert client.query(SQL % survivor)["rows"]
        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["shards"]["alive"] == 1
        assert health["workers"]["shard-%02d" % dead] is False
        listing = client.request("GET", "/series").json()
        assert listing["degraded"] is True
        assert listing["shards_down"] == [dead]


class TestDeadline:
    def test_pipe_deadline_is_504_not_hang(self, make_server):
        _, client = make_server(2)
        t0 = time.monotonic()
        response = client.query_response(SQL % "root.a",
                                         timeout_ms=300, sleep_ms=30_000)
        assert response.status == 504
        assert time.monotonic() - t0 < 10.0


def _closed_loop_throughput(root, shards):
    """Requests/s of 8 closed-loop users over 2 s against a store of 8
    series of 20,000 points cycling through the Table 2 profiles."""
    datasets = ("BallSpeed", "MF03", "KOB", "RcvTime")
    with open_store(root, StorageConfig(), shards=shards) as engine:
        for seed in range(8):
            name = "root.sweep%02d" % seed
            t, v = PROFILES[datasets[seed % len(datasets)]].generate(
                20_000, seed=seed)
            engine.create_series(name)
            engine.write_batch(name, t, v)
        engine.flush_all()
        handle = start_server(engine, ServerConfig(
            port=0, quiet=True, workers=8, queue_depth=32))
        try:
            report = SessionWorkload(handle.url, width=256, seed=shards,
                                     timeout_ms=2_000).run_closed(
                                         users=8, duration=2.0)
        finally:
            handle.stop()
    assert report.ok > 0
    return report.throughput


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="shard-per-core scaling needs >= 4 CPUs")
def test_four_shards_double_closed_loop_throughput(tmp_path):
    one = _closed_loop_throughput(str(tmp_path / "one"), 1)
    four = _closed_loop_throughput(str(tmp_path / "four"), 4)
    assert four >= 2.0 * one, (
        "shards=4 reached only %.2fx of shards=1 (%d cpus)"
        % (four / one, os.cpu_count()))

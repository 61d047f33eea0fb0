"""ShardRouter behaviour: parity, crash semantics, deadlines."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    SeriesNotFoundError,
    ShardDownError,
)
from repro.query.executor import Executor
from repro.query.sql import parse as parse_sql
from repro.server.service import render_chart
from repro.shard import ShardRouter, open_store
from repro.storage import StorageConfig, StorageEngine
from repro.storage.deadline import Deadline, deadline_scope
from repro.viz.chart import to_pbm

SQL = "SELECT M4(v) FROM %s GROUP BY SPANS(64)"
AGG_SQL = "SELECT COUNT(v), AVG(v) FROM %s GROUP BY SPANS(16)"


def _series(seed, n=3000):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.int64) * 5
    v = np.sin(t / 131.0) * 4 + rng.normal(0, 0.3, n)
    return t, v


def _load(engine, names):
    for seed, name in enumerate(names):
        t, v = _series(seed)
        engine.create_series(name)
        engine.write_batch(name, t, v)
    engine.flush_all()


@pytest.fixture
def router(tmp_path):
    r = open_store(str(tmp_path / "db"), StorageConfig(), shards=2)
    assert isinstance(r, ShardRouter)
    yield r
    r.close()


NAMES = ["root.a", "root.b", "root.c", "root.d"]


class TestParity:
    def test_rows_and_pixels_match_unsharded(self, tmp_path, router):
        _load(router, NAMES)
        with StorageEngine(tmp_path / "ref", StorageConfig()) as ref:
            _load(ref, NAMES)
            for name in NAMES:
                want = Executor(ref).execute(parse_sql(SQL % name))
                got = router.execute_sql(SQL % name)
                assert tuple(got.rows) == tuple(want.rows)
                assert got.columns == want.columns
                want_m, _ = render_chart(ref, name, 128, 48)
                got_m, _ = router.render_series(name, 128, 48)
                assert to_pbm(got_m) == to_pbm(want_m)

    def test_series_spread_across_both_shards(self, router):
        _load(router, NAMES)
        owners = {router.series_shard(n) for n in NAMES}
        assert owners == {0, 1}
        assert sorted(router.series_names()) == NAMES
        rows, down = router.series_info()
        assert [r["name"] for r in rows] == NAMES
        assert down == []

    def test_restart_reads_back_same_data(self, tmp_path, router):
        _load(router, NAMES)
        before = {n: tuple(router.execute_sql(SQL % n).rows)
                  for n in NAMES}
        router.close()
        with open_store(str(tmp_path / "db"), StorageConfig()) as again:
            assert again.n_shards == 2
            for name in NAMES:
                assert tuple(again.execute_sql(SQL % name).rows) \
                    == before[name]

    def test_query_errors_cross_by_type(self, router):
        _load(router, NAMES[:1])
        # The worker raised SeriesNotFoundError; the exact type (not a
        # generic ShardError) must arrive on the router side.
        with pytest.raises(SeriesNotFoundError):
            router.execute_sql(SQL % "root.nope")


class TestCrash:
    def _kill_owner(self, router, name):
        shard = router.series_shard(name)
        os.kill(router.shard_pids()[shard], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while shard in router.alive_shards():
            if time.monotonic() > deadline:
                raise AssertionError("shard %d never went down" % shard)
            time.sleep(0.02)
        return shard

    def test_dead_shard_degrades_not_hangs(self, router):
        _load(router, NAMES)
        dead = self._kill_owner(router, "root.a")
        live = next(n for n in NAMES if router.series_shard(n) != dead)
        for sql in (SQL, AGG_SQL):
            t0 = time.monotonic()
            table = router.execute_sql(sql % "root.a")
            assert time.monotonic() - t0 < 5.0
            assert len(table.rows) == 0
            assert table.meta["degraded"] is True
            assert table.meta["shard_down"] == dead
            assert table.columns == router.execute_sql(sql % live).columns

    def test_strict_read_raises(self, router):
        _load(router, NAMES)
        self._kill_owner(router, "root.a")
        with pytest.raises(ShardDownError):
            router.execute_sql(SQL % "root.a", strict=True)
        with pytest.raises(ShardDownError):
            router.render_series("root.a", 64, 32)

    def test_writes_to_dead_shard_raise(self, router):
        _load(router, NAMES)
        self._kill_owner(router, "root.a")
        with pytest.raises(ShardDownError) as info:
            router.write("root.a", 10**9, 1.0)
        assert info.value.shard == router.series_shard("root.a")

    def test_live_shards_keep_serving(self, router):
        _load(router, NAMES)
        dead = self._kill_owner(router, "root.a")
        survivor = next(n for n in NAMES
                        if router.series_shard(n) != dead)
        assert len(router.execute_sql(SQL % survivor).rows) > 0
        workers = router.shard_workers()
        assert workers["shard-%02d" % dead] is False
        assert sum(1 for alive in workers.values() if alive) == 1

    def test_scatter_reports_down_shards(self, router):
        _load(router, NAMES)
        dead = self._kill_owner(router, "root.a")
        assert router.flush_all() == [dead]
        rows, down = router.series_info()
        assert down == [dead]
        live = {n for n in NAMES if router.series_shard(n) != dead}
        assert {r["name"] for r in rows} == live
        snap = router.observability_snapshot()
        assert snap["shards_down"] == [dead]
        assert snap["shards"]["shard-%02d" % dead] == {"down": True}

    def test_close_after_crash_is_clean(self, router):
        _load(router, NAMES)
        self._kill_owner(router, "root.a")
        router.close()
        router.close()  # idempotent


class TestDeadline:
    def test_deadline_crosses_the_pipe(self, router):
        _load(router, NAMES[:1])
        t0 = time.monotonic()
        with deadline_scope(Deadline(0.3)):
            with pytest.raises(DeadlineExceededError):
                router.execute_sql(SQL % "root.a", debug_sleep_s=30.0)
        # The worker aborted its own sleep: far sooner than the debug
        # sleep, a touch after the 0.3s budget.
        assert time.monotonic() - t0 < 5.0

    def test_expired_deadline_fails_fast(self, router):
        _load(router, NAMES[:1])
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(DeadlineExceededError):
                router.execute_sql(SQL % "root.a")


class TestExecSlot:
    def test_router_answers_while_its_process_slot_is_held(self, router):
        # The router's threads only wait on pipes; each worker process
        # takes its own slot.  A router taking this process's slot
        # would wait out the deadline instead of answering.
        import threading

        from repro.obs.metrics import NULL_REGISTRY
        from repro.storage.locks import EXEC_SLOT
        _load(router, NAMES[:2])
        held, release = threading.Event(), threading.Event()

        def holder():
            with EXEC_SLOT.hold(NULL_REGISTRY):
                held.set()
                release.wait(30)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        try:
            assert held.wait(10)
            with deadline_scope(Deadline(10.0)):
                table = router.execute_sql(SQL % "root.a")
            assert len(table.rows) == 64
        finally:
            release.set()
            thread.join(10)

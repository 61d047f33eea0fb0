"""Cooperative deadline propagation through the query stack."""

import time

import pytest

from repro.core.m4 import M4UDFOperator
from repro.core.m4lsm import M4LSMOperator
from repro.errors import DeadlineExceededError
from repro.storage import StorageConfig, StorageEngine
from repro.storage.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)


class TestDeadline:
    def test_remaining_and_expired(self):
        fresh = Deadline(30.0)
        assert not fresh.expired()
        assert 0 < fresh.remaining() <= 30.0
        fresh.check()  # no raise

        spent = Deadline(-1.0)
        assert spent.expired()
        assert spent.remaining() < 0
        with pytest.raises(DeadlineExceededError):
            spent.check()

    def test_check_deadline_is_noop_without_scope(self):
        assert current_deadline() is None
        check_deadline()  # must not raise on hot paths

    def test_scope_installs_and_restores(self):
        outer = Deadline(30.0)
        inner = Deadline(10.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
            with deadline_scope(None):  # no-op scope keeps the outer
                assert current_deadline() is outer
        assert current_deadline() is None

    def test_expired_scope_raises_at_checkpoint(self):
        with deadline_scope(Deadline(-1.0)):
            with pytest.raises(DeadlineExceededError):
                check_deadline()


class TestChunkLoadCancellation:
    def test_m4udf_stops_loading_chunks_once_expired(self, tmp_path,
                                                     monkeypatch):
        import numpy as np
        from repro.storage.readers import DataReader

        load_chunk = DataReader.load_chunk

        def slow_load_chunk(self, *args, **kwargs):
            time.sleep(0.02)
            return load_chunk(self, *args, **kwargs)

        n_chunks = 24
        t = np.arange(50 * n_chunks, dtype=np.int64) * 10
        with StorageEngine(tmp_path / "db", StorageConfig(
                avg_series_point_number_threshold=50)) as engine:
            engine.create_series("s")
            engine.write_batch("s", t, np.sin(t / 100.0))
            engine.flush_all()
            assert len(engine.chunks_for("s")) == n_chunks
            monkeypatch.setattr(DataReader, "load_chunk", slow_load_chunk)
            before = engine.stats.snapshot()
            with deadline_scope(Deadline(0.1)):
                with pytest.raises(DeadlineExceededError):
                    M4UDFOperator(engine).query("s", 0, int(t[-1]) + 1, 20)
            # The per-chunk checkpoint stops the loop mid-load: the
            # remaining chunks are never read.
            assert engine.stats.diff(before).chunk_loads < n_chunks


class TestQueryCancellation:
    def _loaded(self, tmp_path, n=800):
        import numpy as np
        engine = StorageEngine(
            tmp_path / "db",
            StorageConfig(avg_series_point_number_threshold=50,
                          points_per_page=20))
        t = np.arange(n, dtype=np.int64) * 10
        v = np.round(np.random.default_rng(0).normal(0.0, 10.0, n), 3)
        engine.create_series("s")
        engine.write_batch("s", t, v)
        engine.flush_all()
        return engine

    def test_m4lsm_aborts_on_expired_deadline(self, tmp_path):
        with self._loaded(tmp_path) as engine:
            operator = M4LSMOperator(engine)
            assert operator.query("s", 0, 8000, 20).spans  # sane baseline
            with deadline_scope(Deadline(-1.0)):
                with pytest.raises(DeadlineExceededError):
                    operator.query("s", 0, 8000, 20)

    def test_m4udf_aborts_on_expired_deadline(self, tmp_path):
        with self._loaded(tmp_path) as engine:
            with deadline_scope(Deadline(-1.0)):
                with pytest.raises(DeadlineExceededError):
                    M4UDFOperator(engine).query("s", 0, 8000, 20)

    @pytest.mark.parametrize("runner", ["aggregate_lsm", "aggregate_udf"])
    def test_aggregates_abort_before_loading_a_chunk(self, tmp_path,
                                                     runner):
        from repro.core import aggregation
        aggregate = getattr(aggregation, runner)
        with self._loaded(tmp_path) as engine:
            assert aggregate(engine, "s", 0, 8000, 20, ("count",)).rows()
            before = engine.stats.snapshot()
            with deadline_scope(Deadline(-1.0)):
                with pytest.raises(DeadlineExceededError):
                    aggregate(engine, "s", 0, 8000, 20, ("count", "avg"))
            assert engine.stats.diff(before).chunk_loads == 0

    def test_slot_wait_honours_the_deadline_before_any_io(self, tmp_path):
        import threading

        from repro.obs.metrics import NULL_REGISTRY
        from repro.storage.locks import EXEC_SLOT

        outcome = {}
        with self._loaded(tmp_path) as engine:

            def query():
                with deadline_scope(Deadline(0.05)):
                    try:
                        engine.execute_sql(
                            "SELECT M4(s) FROM s GROUP BY SPANS(20)")
                    except DeadlineExceededError as exc:
                        outcome["error"] = exc

            before = engine.stats.snapshot()
            with EXEC_SLOT.hold(NULL_REGISTRY):
                thread = threading.Thread(target=query, daemon=True)
                thread.start()
                thread.join(10)
                assert not thread.is_alive()
            assert isinstance(outcome.get("error"), DeadlineExceededError)
            assert engine.stats.diff(before).chunk_loads == 0

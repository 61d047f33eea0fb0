"""Unit tests for the storage engine."""

import os

import numpy as np
import pytest

from repro.errors import (
    InvalidValueError,
    ReproError,
    SeriesNotFoundError,
    StorageError,
)
from repro.storage import StorageConfig, StorageEngine, merge_arrays


class TestSchema:
    def test_create_series_idempotent(self, engine):
        first = engine.create_series("a")
        assert engine.create_series("a") == first
        assert engine.create_series("b") != first
        assert set(engine.series_names()) == {"a", "b"}

    def test_unknown_series_raises(self, engine):
        with pytest.raises(SeriesNotFoundError):
            engine.write("ghost", 1, 1.0)
        with pytest.raises(SeriesNotFoundError):
            engine.chunks_for("ghost")


class TestWritesAndFlush:
    def test_auto_flush_at_threshold(self, engine):
        engine.create_series("s")
        for i in range(120):  # threshold is 50
            engine.write("s", i, float(i))
        engine.flush_all()
        chunks = engine.chunks_for("s")
        assert [c.n_points for c in chunks] == [50, 50, 20]

    def test_batch_write_chunks_cut_in_time_order(self, engine):
        engine.create_series("s")
        t = np.arange(130, dtype=np.int64)[::-1].copy()  # reverse order
        engine.write_batch("s", t, t.astype(float))
        engine.flush_all()
        chunks = engine.chunks_for("s")
        assert chunks[0].start_time == 0
        assert chunks[-1].end_time == 129
        # chunks must not overlap: drain sorts before cutting
        for earlier, later in zip(chunks, chunks[1:]):
            assert earlier.end_time < later.start_time

    def test_query_before_flush_raises(self, engine):
        engine.create_series("s")
        engine.write("s", 1, 1.0)
        with pytest.raises(StorageError):
            engine.chunks_for("s")

    def test_out_of_order_batches_create_overlap(self, engine):
        engine.create_series("s")
        engine.write_batch("s", np.arange(50, dtype=np.int64) * 2,
                           np.zeros(50))
        engine.flush("s")
        engine.write_batch("s", np.arange(50, dtype=np.int64) * 2 + 1,
                           np.ones(50))
        engine.flush_all()
        chunks = engine.chunks_for("s")
        assert len(chunks) == 2
        assert chunks[0].statistics.overlaps(chunks[1].start_time,
                                             chunks[1].end_time + 1)

    def test_versions_strictly_increase_across_series(self, engine):
        engine.create_series("a")
        engine.create_series("b")
        engine.write_batch("a", np.arange(50, dtype=np.int64), np.zeros(50))
        engine.write_batch("b", np.arange(50, dtype=np.int64), np.zeros(50))
        engine.flush_all()
        versions = ([c.version for c in engine.chunks_for("a")]
                    + [c.version for c in engine.chunks_for("b")])
        assert len(set(versions)) == len(versions)


class TestNanRejected:
    def test_batch_with_nan_is_refused_before_the_wal(self, tmp_path,
                                                      small_config):
        db = tmp_path / "db"
        with StorageEngine(db, small_config) as engine:
            engine.create_series("s")
            engine.write_batch("s", [1, 2], [1.0, 2.0])
            with pytest.raises(InvalidValueError) as info:
                engine.write_batch("s", [3, 4], [3.0, float("nan")])
            assert isinstance(info.value, ReproError)
            with pytest.raises(InvalidValueError):
                engine.write("s", 5, float("nan"))
        # Nothing of the refused writes reached the WAL: the reopened
        # store replays only the two good points.
        with StorageEngine(db, small_config) as engine:
            engine.flush_all()
            assert engine.total_points("s") == 2

    def test_infinities_are_still_values(self, engine):
        engine.create_series("s")
        engine.write_batch("s", [1, 2], [float("inf"), -float("inf")])
        engine.flush_all()
        assert engine.total_points("s") == 2


class TestDeletes:
    def test_delete_flushes_memtable_first(self, engine):
        engine.create_series("s")
        engine.write("s", 1, 1.0)
        delete = engine.delete("s", 0, 10)
        engine.flush_all()
        chunks = engine.chunks_for("s")
        assert len(chunks) == 1
        assert delete.version > chunks[0].version

    def test_delete_recorded_in_mods_log(self, engine):
        engine.create_series("s")
        engine.write("s", 1, 1.0)
        engine.delete("s", 0, 10)
        records = list(engine._mods.read_all())
        assert len(records) == 1
        assert records[0][1].t_start == 0

    def test_deletes_affect_merge(self, engine):
        engine.create_series("s")
        engine.write_batch("s", np.arange(60, dtype=np.int64),
                           np.arange(60, dtype=float))
        engine.delete("s", 10, 19)
        engine.flush_all()
        assert engine.total_points("s") == 50


class TestFileManagement:
    def test_tsfile_rotation(self, tmp_path):
        config = StorageConfig(avg_series_point_number_threshold=10,
                               points_per_page=10, chunks_per_tsfile=3)
        with StorageEngine(tmp_path / "db", config) as engine:
            engine.create_series("s")
            engine.write_batch("s", np.arange(100, dtype=np.int64),
                               np.zeros(100))
            engine.flush_all()
            files = {c.file_path for c in engine.chunks_for("s")}
            assert len(files) == 4  # 10 chunks / 3 per file

    def test_files_exist_on_disk(self, loaded_engine):
        engine, _t, _v = loaded_engine
        for meta in engine.chunks_for("s"):
            assert os.path.exists(meta.file_path)

    def test_reader_pool_reuses_readers(self, loaded_engine):
        engine, _t, _v = loaded_engine
        path = engine.chunks_for("s")[0].file_path
        assert engine.tsfile_reader(path) is engine.tsfile_reader(path)

    def test_total_points(self, loaded_engine):
        engine, t, _v = loaded_engine
        assert engine.total_points("s") == t.size


class TestPersistenceAcrossReaders:
    def test_metadata_reloadable_from_disk(self, loaded_engine):
        """Sealed TsFiles are self-describing: a fresh reader sees the
        same chunks the engine tracks in memory."""
        engine, t, v = loaded_engine
        from repro.storage.tsfile import TsFileReader
        files = sorted({c.file_path for c in engine.chunks_for("s")})
        reloaded = []
        for path in files:
            with TsFileReader(path) as reader:
                reloaded.extend(reader.read_metadata())
        assert len(reloaded) == len(engine.chunks_for("s"))
        chunk_data = []
        for meta in sorted(reloaded, key=lambda m: m.version):
            with TsFileReader(meta.file_path) as reader:
                out_t, out_v = reader.read_chunk_arrays(meta)
            chunk_data.append((out_t, out_v, meta.version))
        merged_t, merged_v = merge_arrays(chunk_data)
        np.testing.assert_array_equal(merged_t, t)
        np.testing.assert_array_equal(merged_v, v)


class TestCloseLifecycle:
    """close() is idempotent and safe to race with in-flight queries."""

    def test_close_is_idempotent(self, tmp_path):
        engine = StorageEngine(tmp_path / "db", StorageConfig())
        engine.create_series("s")
        engine.close()
        assert engine.closed
        engine.close()  # second call is a no-op, not an error
        assert engine.closed

    def test_concurrent_close_single_winner(self, loaded_engine, tmp_path):
        import json
        import threading
        engine, _t, _v = loaded_engine
        barrier = threading.Barrier(8)
        failures = []

        def racer():
            barrier.wait()
            try:
                engine.close()
            except Exception as exc:  # noqa: BLE001 - recording all
                failures.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not failures
        assert engine.closed
        # exactly one close persisted a parseable snapshot
        snapshot = json.loads(
            (tmp_path / "db" / "obs.json").read_text())
        assert "metrics" in snapshot

    def test_close_races_inflight_queries_cleanly(self, tmp_path):
        """Queries racing close() either complete or fail with a clean
        engine-closed error; nothing hangs, nothing corrupts obs.json."""
        import json
        import threading
        from repro.core.m4lsm import M4LSMOperator
        from repro.errors import ReproError

        engine = StorageEngine(
            tmp_path / "db",
            StorageConfig(avg_series_point_number_threshold=50,
                          points_per_page=20))
        t = np.arange(2000, dtype=np.int64) * 5
        engine.create_series("s")
        engine.write_batch("s", t, np.sin(t / 37.0))
        engine.flush_all()

        unexpected = []
        stop = threading.Event()

        def query_loop():
            operator = M4LSMOperator(engine)
            while not stop.is_set():
                try:
                    operator.query("s", 0, 10000, 25)
                except (ReproError, OSError, ValueError):
                    return  # clean refusal once the engine is closed
                except Exception as exc:  # noqa: BLE001 - the test's point
                    unexpected.append(exc)
                    return

        threads = [threading.Thread(target=query_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        import time
        time.sleep(0.15)  # let queries get in flight
        engine.close()
        stop.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive(), "query thread hung after close"
        assert not unexpected, unexpected
        snapshot = json.loads((tmp_path / "db" / "obs.json").read_text())
        assert "metrics" in snapshot

    def test_tsfile_reader_refused_after_close(self, loaded_engine):
        engine, _t, _v = loaded_engine
        path = engine.chunks_for("s")[0].file_path
        engine.close()
        with pytest.raises(StorageError):
            engine.tsfile_reader(path)

"""Unit and integration tests for the WAL, catalog and crash recovery."""

import os

import numpy as np
import pytest

from repro.core import M4LSMOperator, M4UDFOperator
from repro.errors import CorruptFileError
from repro.storage import (
    CatalogFile,
    StorageConfig,
    StorageEngine,
    WalManager,
    WriteAheadLog,
    list_tsfiles,
)


@pytest.fixture
def config():
    return StorageConfig(avg_series_point_number_threshold=50,
                         points_per_page=25)


class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append(1, 10, 1.5)
        wal.append_batch(1, [20, 30], [2.5, 3.5])
        wal.sync()
        assert list(wal.replay()) == [(1, 10, 1.5), (1, 20, 2.5),
                                      (1, 30, 3.5)]
        wal.close()

    def test_rotate_empties_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append(1, 10, 1.0)
        wal.rotate()
        assert list(wal.replay()) == []
        wal.close()

    def test_rewrite_replaces_contents(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append(1, 10, 1.0)
        wal.rewrite(1, [99], [9.9])
        assert list(wal.replay()) == [(1, 99, 9.9)]
        wal.close()

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "w.log"
        wal = WriteAheadLog(path)
        wal.append(1, 10, 1.0)
        wal.append(1, 20, 2.0)
        wal.close()
        # Simulate a crash mid-append: cut 3 bytes off the last record.
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        survivor = WriteAheadLog(path)
        assert list(survivor.replay()) == [(1, 10, 1.0)]
        survivor.close()

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "w.log"
        path.write_bytes(b"garbage!")
        wal = WriteAheadLog(path)
        with pytest.raises(CorruptFileError):
            list(wal.replay())
        wal.close()


class TestWalManager:
    def test_per_series_segments(self, tmp_path):
        manager = WalManager(tmp_path)
        manager.segment(1).append(1, 10, 1.0)
        manager.segment(2).append(2, 20, 2.0)
        manager.segment(1).sync()
        manager.segment(2).sync()
        assert sorted(manager.replay_all()) == [(1, 10, 1.0), (2, 20, 2.0)]
        manager.close()

    def test_rotating_one_segment_keeps_others(self, tmp_path):
        manager = WalManager(tmp_path)
        manager.segment(1).append(1, 10, 1.0)
        manager.segment(2).append(2, 20, 2.0)
        manager.segment(1).rotate()
        manager.segment(2).sync()
        assert list(manager.replay_all()) == [(2, 20, 2.0)]
        manager.close()


class TestCatalog:
    def test_roundtrip(self, tmp_path):
        catalog = CatalogFile(tmp_path / "c.meta")
        catalog.append(1, "root.sg.a")
        catalog.append(2, "root.sg.b-日本語")
        assert list(catalog.read_all()) == [(1, "root.sg.a"),
                                            (2, "root.sg.b-日本語")]

    def test_torn_tail_keeps_prior_records(self, tmp_path):
        path = tmp_path / "c.meta"
        catalog = CatalogFile(path)
        catalog.append(1, "root.sg.a")
        catalog.append(2, "root.sg.b")
        path.write_bytes(path.read_bytes()[:-2])
        assert list(CatalogFile(path).read_all()) == [(1, "root.sg.a")]

    def test_bad_crc_raises(self, tmp_path):
        path = tmp_path / "c.meta"
        catalog = CatalogFile(path)
        catalog.append(1, "series")
        data = bytearray(path.read_bytes())
        data[9] ^= 0x01  # series_id byte: framing intact, CRC must catch
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            list(CatalogFile(path).read_all())


class TestRecovery:
    def populate(self, db, config):
        engine = StorageEngine(db, config)
        engine.create_series("a")
        engine.create_series("b")
        t = np.arange(130, dtype=np.int64)
        engine.write_batch("a", t, t.astype(float))
        engine.delete("a", 5, 9)
        engine.write_batch("b", t[:60], t[:60].astype(float) * 2)
        engine.write("b", 999, 42.0)
        engine.close()  # NOT flushed: 'b' has 11 buffered points

    def test_everything_recovered(self, tmp_path, config):
        db = tmp_path / "db"
        self.populate(db, config)
        engine = StorageEngine(db, config)
        summary = engine.recovery_summary
        assert summary["series"] == 2
        assert summary["deletes"] == 1
        assert summary["wal_points"] == 11
        engine.flush_all()
        assert engine.total_points("a") == 125  # the delete survived
        assert engine.total_points("b") == 61
        engine.close()

    def test_operators_agree_after_recovery(self, tmp_path, config):
        db = tmp_path / "db"
        self.populate(db, config)
        engine = StorageEngine(db, config)
        engine.flush_all()
        a = M4UDFOperator(engine).query("a", 0, 200, 5)
        b = M4LSMOperator(engine).query("a", 0, 200, 5)
        assert a.semantically_equal(b)
        engine.close()

    def test_versions_continue_after_recovery(self, tmp_path, config):
        db = tmp_path / "db"
        self.populate(db, config)
        engine = StorageEngine(db, config)
        old_max = max(c.version for name in ("a", "b")
                      for c in engine._series[name].chunks)
        engine.flush_all()
        new_versions = [c.version for c in engine.chunks_for("b")]
        assert min(v for v in new_versions if v > old_max) > old_max
        engine.close()

    def test_file_sequence_continues(self, tmp_path, config):
        db = tmp_path / "db"
        self.populate(db, config)
        before = {seq for seq, _ in list_tsfiles(db)}
        engine = StorageEngine(db, config)
        engine.write_batch("a", np.arange(1000, 1100, dtype=np.int64),
                           np.zeros(100))
        engine.flush_all()
        after = {seq for seq, _ in list_tsfiles(db)}
        assert after > before
        engine.close()

    def test_double_recovery_is_stable(self, tmp_path, config):
        db = tmp_path / "db"
        self.populate(db, config)
        first = StorageEngine(db, config)
        first.close()
        second = StorageEngine(db, config)
        assert second.recovery_summary["wal_points"] == 11
        second.flush_all()
        assert second.total_points("b") == 61
        second.close()

    def test_fresh_directory_has_no_recovery(self, tmp_path, config):
        engine = StorageEngine(tmp_path / "new", config)
        assert engine.recovery_summary is None
        engine.close()

    def test_recovery_replays_exact_values(self, tmp_path, config):
        db = tmp_path / "db"
        engine = StorageEngine(db, config)
        engine.create_series("s")
        engine.write("s", 1, 3.14159)
        engine.write("s", 2, -2.71828)
        # single writes are buffered without an explicit sync; close()
        # releases handles which flushes OS buffers
        engine.close()
        reopened = StorageEngine(db, config)
        reopened.flush_all()
        reader = reopened.data_reader()
        meta = reopened.chunks_for("s")[0]
        t, v = reader.load_chunk(meta)
        assert t.tolist() == [1, 2]
        assert v.tolist() == pytest.approx([3.14159, -2.71828])
        reopened.close()

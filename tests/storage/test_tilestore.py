"""Tile cache persistence: the CRC-framed sidecar, staleness fencing,
damage tolerance and fsck coverage.

The on-disk cache is *derived* data, so every failure mode here must
degrade to recomputation: warnings, truncation, silent staleness drops —
never an exception, never a stale tile served.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.core import M4LSMOperator, TiledM4Operator
from repro.core.tiles import TileCache, TileEntry
from repro.core.tiles_io import FILENAME, MAGIC, load_tiles, save_tiles
from repro.core.result import M4Result, SpanAggregate
from repro.core.series import Point
from repro.storage import StorageConfig, StorageEngine, fsck_store

FP = {"series": {"s": [3, 7, 1, 2]}, "quarantine": []}


def span(t0):
    return SpanAggregate(first=Point(t0, 1.0), last=Point(t0 + 3, 2.0),
                         bottom=Point(t0 + 1, -4.5), top=Point(t0 + 2, 9.0))


def sample_snapshot():
    full = TileEntry.from_result(
        M4Result(0, 16, 4, (span(0), span(4), SpanAggregate(), span(12)),
                 skipped=((5, 7),)))
    empty = TileEntry.from_result(M4Result(0, 4, 4, (SpanAggregate(),) * 4))
    return [("s", 2, 0, full), ("s", 2, 1, empty), ("über", 0, -3, full)]


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = tmp_path / FILENAME
        snapshot = sample_snapshot()
        assert save_tiles(path, snapshot, FP, 4)
        entries, warnings = load_tiles(path, None, None)
        assert warnings == []
        assert entries == snapshot  # order, keys, spans, skipped, bytes

    def test_missing_file(self, tmp_path):
        assert load_tiles(tmp_path / FILENAME, FP, 4) == ([], [])

    def test_engine_restart_revives_tiles(self, tmp_path):
        config = StorageConfig(avg_series_point_number_threshold=100,
                               tile_cache_bytes=4 * 1024 * 1024,
                               tile_cache_spans=16,
                               tile_cache_persist=True)
        db = tmp_path / "db"
        engine = StorageEngine(db, config)
        engine.create_series("s")
        t = np.arange(1024, dtype=np.int64)
        engine.write_batch("s", t, np.sin(t / 5.0))
        engine.flush_all()
        expected = TiledM4Operator(engine).query("s", 0, 1024, 128)
        warmed = len(engine.tile_cache)
        assert warmed > 0
        engine.close()
        assert (db / FILENAME).exists()
        with StorageEngine(db, config) as reopened:
            assert len(reopened.tile_cache) == warmed
            # Revived tiles answer without recomputation and match.
            loads_before = reopened.stats.chunk_loads
            got = TiledM4Operator(reopened).query("s", 0, 1024, 128)
            assert got == expected
            # Only the edge runs (here: none, the range is whole tiles)
            # may touch chunks.
            assert reopened.stats.chunk_loads == loads_before

    def test_stale_series_dropped_after_offline_differs(self, tmp_path):
        """Reopening with *more data than the snapshot fingerprinted*
        must drop the revived tiles instead of serving stale answers."""
        config = StorageConfig(avg_series_point_number_threshold=100,
                               tile_cache_bytes=4 * 1024 * 1024,
                               tile_cache_spans=16,
                               tile_cache_persist=True)
        db = tmp_path / "db"
        engine = StorageEngine(db, config)
        engine.create_series("s")
        t = np.arange(1024, dtype=np.int64)
        engine.write_batch("s", t, np.sin(t / 5.0))
        engine.flush_all()
        TiledM4Operator(engine).query("s", 0, 1024, 128)
        engine.close()
        # Mutate the store with persistence off: tiles.cache stays put
        # but the fingerprint moves on.
        plain_config = StorageConfig(
            avg_series_point_number_threshold=100)
        with StorageEngine(db, plain_config) as writer:
            ts = np.arange(100, 200, dtype=np.int64)
            writer.write_batch("s", ts, ts * 100.0)
            writer.flush_all()
        with StorageEngine(db, config) as reopened:
            assert len(reopened.tile_cache) == 0  # all stale, dropped
            assert TiledM4Operator(reopened).query("s", 0, 1024, 128) \
                == M4LSMOperator(reopened).query("s", 0, 1024, 128)


class TestStalenessFencing:
    def test_per_series_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / FILENAME
        save_tiles(path, sample_snapshot(), FP, 4)
        moved = {"series": {"s": [4, 9, 1, 2]}, "quarantine": []}
        entries, warnings = load_tiles(path, moved, 4)
        assert warnings == []
        assert [e[0] for e in entries] == ["über"]  # only 's' was stale

    def test_quarantine_change_drops_everything(self, tmp_path):
        path = tmp_path / FILENAME
        save_tiles(path, sample_snapshot(), FP, 4)
        moved = dict(FP, quarantine=[["f.tsfile", 123]])
        assert load_tiles(path, moved, 4) == ([], [])

    def test_geometry_change_drops_everything(self, tmp_path):
        path = tmp_path / FILENAME
        save_tiles(path, sample_snapshot(), FP, 4)
        entries, warnings = load_tiles(path, FP, 8)
        assert entries == []
        assert any("geometry" in w for w in warnings)


class TestDamage:
    def write(self, tmp_path):
        path = tmp_path / FILENAME
        save_tiles(path, sample_snapshot(), FP, 4)
        return path

    def test_torn_tail_keeps_prefix(self, tmp_path):
        path = self.write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        entries, warnings = load_tiles(path, FP, 4)
        assert len(entries) == 2            # last record lost
        assert any("torn tail" in w for w in warnings)

    def test_crc_flip_truncates_from_there(self, tmp_path):
        path = self.write(tmp_path)
        data = bytearray(path.read_bytes())
        # Find the second tile record and flip a payload byte: the
        # manifest and first tile survive, the rest is dropped.
        pos = len(MAGIC)
        for _ in range(2):                  # skip manifest + tile 0
            (length,) = struct.unpack_from("<I", data, pos)
            pos += 4 + length + 4
        data[pos + 4 + 5] ^= 0x01
        path.write_bytes(bytes(data))
        entries, warnings = load_tiles(path, FP, 4)
        assert len(entries) == 1
        assert any("checksum mismatch" in w for w in warnings)

    def test_bad_magic_ignores_file(self, tmp_path):
        path = self.write(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        entries, warnings = load_tiles(path, FP, 4)
        assert entries == []
        assert any("bad magic" in w for w in warnings)

    def test_absurd_length_stops_scan(self, tmp_path):
        path = self.write(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(MAGIC), 1 << 30)
        path.write_bytes(bytes(data))
        entries, warnings = load_tiles(path, FP, 4)
        assert entries == []
        assert any("absurd record length" in w for w in warnings)

    def test_valid_crc_but_garbage_payload(self, tmp_path):
        """A record whose CRC passes but whose body does not parse is
        an undecodable-tile warning, not a crash."""
        path = self.write(tmp_path)
        payload = b"\x00\x05abc"            # name runs past the record
        path.write_bytes(
            path.read_bytes()
            + struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))
        entries, warnings = load_tiles(path, None, None)
        assert len(entries) == 3            # the healthy prefix
        assert any("undecodable tile record" in w for w in warnings)


class TestFsck:
    @pytest.fixture
    def persisted_store(self, tmp_path):
        config = StorageConfig(avg_series_point_number_threshold=100,
                               tile_cache_bytes=4 * 1024 * 1024,
                               tile_cache_spans=16,
                               tile_cache_persist=True)
        db = tmp_path / "db"
        with StorageEngine(db, config) as engine:
            engine.create_series("s")
            t = np.arange(1024, dtype=np.int64)
            engine.write_batch("s", t, np.cos(t / 3.0))
            engine.flush_all()
            TiledM4Operator(engine).query("s", 0, 1024, 128)
        return db

    def test_clean_snapshot_stays_clean(self, persisted_store):
        report = fsck_store(persisted_store)
        assert report.clean
        assert not report.warnings

    def test_damage_is_a_warning_never_an_error(self, persisted_store):
        path = persisted_store / FILENAME
        path.write_bytes(path.read_bytes()[:-5])
        report = fsck_store(persisted_store)
        assert report.clean                  # warnings don't fail fsck
        assert any(w["file"] == FILENAME and "torn tail" in w["issue"]
                   for w in report.warnings)

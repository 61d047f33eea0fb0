"""Checksums, torn-tail policy, v1 compatibility and TsFile salvage."""

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from repro.errors import CorruptFileError, EncodingError
from repro.storage import StorageConfig, StorageEngine, fsck_store, write_chunk
from repro.storage import faultfs
from repro.storage.faultfs import FaultInjector, FaultRule
from repro.storage.tsfile import (
    MAGIC_V1 as TSFILE_MAGIC_V1,
    TsFileReader,
    TsFileWriter,
    _FOOTER_V1,
)
from repro.storage.wal import MAGIC_V1 as WAL_MAGIC_V1, WriteAheadLog


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    faultfs.uninstall()


def make_chunk(series_id=1, version=1, n=100, offset=0):
    config = StorageConfig(avg_series_point_number_threshold=10_000,
                           points_per_page=40)
    t = np.arange(n, dtype=np.int64) + offset
    v = (np.arange(n, dtype=np.float64) + offset) * 0.5
    block, meta = write_chunk(series_id, version, t, v, config)
    return block, meta, t, v


class TestWalChecksums:
    def test_torn_tail_truncated_and_prior_kept(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        wal = WriteAheadLog(path)
        wal.append(1, 10, 1.0)
        wal.append(1, 20, 2.0)
        wal.sync()
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear mid-record
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == [(1, 10, 1.0)]
        # the torn bytes are gone: appending after repair stays valid
        wal.append(1, 30, 3.0)
        wal.sync()
        assert list(wal.replay()) == [(1, 10, 1.0), (1, 30, 3.0)]
        wal.close()

    def test_bitflip_in_record_raises(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        wal = WriteAheadLog(path)
        wal.append(1, 10, 1.0)
        wal.append(1, 20, 2.0)
        wal.sync()
        wal.close()
        data = bytearray(path.read_bytes())
        data[10] ^= 0x40  # first record's payload
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            list(WriteAheadLog(path).replay())

    def test_bad_crc_at_tail_is_loud_not_torn(self, tmp_path):
        # A FULL-SIZE final record with a bad CRC is corruption, not a
        # torn tail: dropping it could lose an acknowledged point.
        path = tmp_path / "wal-000001.log"
        wal = WriteAheadLog(path)
        wal.append(1, 10, 1.0)
        wal.sync()
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # flip inside the stored CRC itself
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            list(WriteAheadLog(path).replay())

    def test_v1_file_still_replays(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        record = struct.Struct("<Iqd")
        path.write_bytes(WAL_MAGIC_V1 + record.pack(1, 10, 1.0)
                         + record.pack(2, 20, 2.0))
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == [(1, 10, 1.0), (2, 20, 2.0)]
        wal.close()

    def test_torn_header_reads_as_empty(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        path.write_bytes(b"WALv2")  # crash mid-header write
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == []
        wal.close()
        assert path.read_bytes().startswith(b"WALv2\n")  # repaired

    def test_rotate_is_crash_atomic(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        wal = WriteAheadLog(path)
        wal.append(1, 10, 1.0)
        wal.sync()
        # the replace step fails: the OLD complete log must survive
        faultfs.install(FaultInjector([
            FaultRule("replace", "eio", path_substr="wal-")]))
        with pytest.raises(OSError):
            wal.rotate()
        faultfs.uninstall()
        assert list(WriteAheadLog(path).replay()) == [(1, 10, 1.0)]


class TestTsFileChecksums:
    def test_page_bitflip_detected_with_chunk_attribution(self, tmp_path):
        path = tmp_path / "x.tsfile"
        block, meta, _t, _v = make_chunk()
        with TsFileWriter(path) as writer:
            located = writer.append_chunk(block, meta)
        data = bytearray(path.read_bytes())
        data[located.data_offset + 5] ^= 0x10
        path.write_bytes(bytes(data))
        with TsFileReader(path) as reader:
            meta = reader.read_metadata()[0]
            with pytest.raises(CorruptFileError) as info:
                reader.read_chunk_arrays(meta)
        assert info.value.chunk == (str(path), located.data_offset)

    def test_every_page_byte_is_covered(self, tmp_path):
        # flip each byte of the first page's payload region in turn:
        # the CRC must catch every single one.
        path = tmp_path / "x.tsfile"
        block, meta, _t, _v = make_chunk(n=10)
        with TsFileWriter(path) as writer:
            located = writer.append_chunk(block, meta)
        pristine = path.read_bytes()
        page = located.pages[0]
        for rel in range(page.time_length + page.value_length):
            data = bytearray(pristine)
            data[located.data_offset + rel] ^= 0x01
            path.write_bytes(bytes(data))
            with TsFileReader(path) as reader:
                with pytest.raises(CorruptFileError):
                    reader.read_chunk_arrays(reader.read_metadata()[0])

    def test_metadata_section_bitflip_detected(self, tmp_path):
        path = tmp_path / "x.tsfile"
        block, meta, _t, _v = make_chunk()
        with TsFileWriter(path) as writer:
            located = writer.append_chunk(block, meta)
        end_of_data = located.data_offset + located.data_length
        data = bytearray(path.read_bytes())
        data[end_of_data + 10] ^= 0x01  # inside the tail metadata blob
        path.write_bytes(bytes(data))
        with TsFileReader(path) as reader:
            with pytest.raises(CorruptFileError):
                reader.read_metadata()

    def test_transient_eio_is_retried(self, tmp_path):
        path = tmp_path / "x.tsfile"
        block, meta, t, v = make_chunk()
        with TsFileWriter(path) as writer:
            writer.append_chunk(block, meta)
        retries = []
        faultfs.install(FaultInjector([
            FaultRule("read", "eio", path_substr=".tsfile", times=2)]))
        with TsFileReader(path, on_retry=lambda a, e: retries.append(a),
                          retry_base_delay=0.001) as reader:
            out_t, out_v = reader.read_chunk_arrays(
                reader.read_metadata()[0])
        np.testing.assert_array_equal(out_t, t)
        np.testing.assert_array_equal(out_v, v)
        assert retries  # at least one retry actually happened


class TestSalvage:
    def write_unsealed(self, path, n_chunks=3):
        writer = TsFileWriter(path)
        located = []
        for i in range(n_chunks):
            block, meta, t, v = make_chunk(version=i + 1,
                                           offset=i * 1000)
            located.append((writer.append_chunk(block, meta), t, v))
        # no close(): simulate a process killed before sealing
        writer._file.flush()
        return located

    def test_unsealed_file_salvages_all_chunks(self, tmp_path):
        path = tmp_path / "x.tsfile"
        located = self.write_unsealed(path)
        with TsFileReader(path) as reader:
            with pytest.raises(CorruptFileError):
                reader.read_metadata()  # no footer
            salvaged = reader.salvage_metadata()
            assert [m.version for m in salvaged] == [1, 2, 3]
            for meta, (_located, t, v) in zip(salvaged, located):
                out_t, out_v = reader.read_chunk_arrays(meta)
                np.testing.assert_array_equal(out_t, t)
                np.testing.assert_array_equal(out_v, v)

    def test_torn_final_chunk_salvages_prefix(self, tmp_path):
        path = tmp_path / "x.tsfile"
        self.write_unsealed(path, n_chunks=3)
        data = path.read_bytes()
        path.write_bytes(data[:-50])  # tear into the last data block
        with TsFileReader(path) as reader:
            salvaged = reader.salvage_metadata()
        assert [m.version for m in salvaged] == [1, 2]

    def test_footer_bitflip_salvages_sealed_file(self, tmp_path):
        path = tmp_path / "x.tsfile"
        block, meta, t, v = make_chunk()
        with TsFileWriter(path) as writer:
            writer.append_chunk(block, meta)
        data = bytearray(path.read_bytes())
        data[-12] ^= 0x01  # inside the footer
        path.write_bytes(bytes(data))
        with TsFileReader(path) as reader:
            with pytest.raises(CorruptFileError):
                reader.read_metadata()
            salvaged = reader.salvage_metadata()
            assert len(salvaged) == 1
            out_t, out_v = reader.read_chunk_arrays(salvaged[0])
        np.testing.assert_array_equal(out_t, t)
        np.testing.assert_array_equal(out_v, v)

    def test_midfile_damage_is_loud_not_torn(self, tmp_path):
        path = tmp_path / "x.tsfile"
        self.write_unsealed(path, n_chunks=3)
        data = bytearray(path.read_bytes())
        data[len(TSFILE_MAGIC_V1) + 1] ^= 0x01  # first inline header
        path.write_bytes(bytes(data))
        with TsFileReader(path) as reader:
            # valid chunks exist beyond the break: refusing beats
            # silently serving an empty file
            with pytest.raises(CorruptFileError):
                reader.salvage_metadata()


class TestV1TsFileCompat:
    def write_v1_file(self, path, chunks):
        """Hand-roll a seed-format file: no inline headers, no CRCs."""
        with open(path, "wb") as f:
            f.write(TSFILE_MAGIC_V1)
            offset = len(TSFILE_MAGIC_V1)
            located = []
            for block, meta in chunks:
                placed = meta.located(str(path), offset, len(block))
                f.write(block)
                offset += len(block)
                located.append(placed)
            blob = bytearray(struct.pack("<I", len(located)))
            for placed in located:
                blob += placed.to_bytes(format_version=1)
            f.write(blob)
            f.write(_FOOTER_V1.pack(offset, len(blob), TSFILE_MAGIC_V1))
        return located

    def test_v1_roundtrip(self, tmp_path):
        path = tmp_path / "x.tsfile"
        block, meta, t, v = make_chunk()
        self.write_v1_file(path, [(block, meta)])
        with TsFileReader(path) as reader:
            assert reader.format_version == 1
            metadata = reader.read_metadata()
            assert len(metadata) == 1
            assert metadata[0].pages[0].time_crc == 0  # no checksum
            out_t, out_v = reader.read_chunk_arrays(metadata[0])
        np.testing.assert_array_equal(out_t, t)
        np.testing.assert_array_equal(out_v, v)

    def test_v1_engine_store_opens_in_v2_code(self, tmp_path):
        # Simulate a seed-format store: v1 tsfile + v1 catalog + v1 wal.
        import repro.storage.catalog as catalog_mod
        import repro.storage.wal as wal_mod
        db = tmp_path / "db"
        db.mkdir()
        block, meta, t, v = make_chunk(series_id=1, version=1)
        self.write_v1_file(db / "000001.tsfile", [(block, meta)])
        (db / "catalog.meta").write_bytes(
            catalog_mod.MAGIC_V1 + struct.pack("<IH", 1, 1) + b"a")
        (db / "deletes.mods").write_bytes(b"MODSv1\n\0")
        (db / "wal-000001.log").write_bytes(
            wal_mod.MAGIC_V1 + struct.Struct("<Iqd").pack(1, 5000, 9.0))
        engine = StorageEngine(db)
        try:
            assert engine.recovery_summary["chunks"] == 1
            assert engine.recovery_summary["wal_points"] == 1
            engine.flush_all()
            assert engine.total_points("a") == len(t) + 1
        finally:
            engine.close()


class TestRetiredCodecTags:
    def test_sealed_file_with_tag_3_fails_open_typed(self, tmp_path):
        # A store written while GORILLA (tag 3) existed: the metadata
        # passes its CRC, but the tag names no codec any more.
        db = tmp_path / "db"
        with StorageEngine(db) as engine:
            engine.create_series("a")
        block, meta, _t, _v = make_chunk(series_id=1, version=1)
        with TsFileWriter(db / "000001.tsfile") as writer:
            writer.append_chunk(block,
                                dataclasses.replace(meta, value_encoding=3))
        with pytest.raises(EncodingError, match="value_encoding tag 3"):
            StorageEngine(db)
        report = fsck_store(db)
        assert [i["issue"] for i in report.issues
                if i["severity"] == "error"] \
            == ["chunk metadata: unknown value_encoding tag 3"]


class TestCrcHelpers:
    def test_page_crcs_recorded_in_v2_metadata(self, tmp_path):
        path = tmp_path / "x.tsfile"
        block, meta, _t, _v = make_chunk()
        with TsFileWriter(path) as writer:
            writer.append_chunk(block, meta)
        with TsFileReader(path) as reader:
            pages = reader.read_metadata()[0].pages
        for page in pages:
            start = page.time_offset
            payload = block[start:start + page.time_length]
            assert zlib.crc32(payload) == page.time_crc

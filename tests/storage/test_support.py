"""Unit tests for versions, config and I/O stats."""

import pytest

from repro.storage import IoStats, StorageConfig, VersionAllocator
from repro.storage.encoding import Compression, Encoding
from repro.storage.versions import VERSION_INFINITY


class TestVersionAllocator:
    def test_strictly_increasing_from_one(self):
        alloc = VersionAllocator()
        assert [alloc.next() for _ in range(3)] == [1, 2, 3]
        assert alloc.last == 3

    def test_custom_start(self):
        alloc = VersionAllocator(start=10)
        assert alloc.last == 9
        assert alloc.next() == 10

    def test_infinity_beats_everything(self):
        alloc = VersionAllocator()
        for _ in range(100):
            assert alloc.next() < VERSION_INFINITY


class TestStorageConfig:
    def test_defaults_match_table4(self):
        config = StorageConfig()
        assert config.avg_series_point_number_threshold == 1000
        assert config.time_encoding == Encoding.TS_2DIFF

    def test_page_clamped_to_chunk_size(self):
        config = StorageConfig(avg_series_point_number_threshold=10,
                               points_per_page=100)
        assert config.points_per_page == 10

    @pytest.mark.parametrize("kwargs", [
        {"avg_series_point_number_threshold": 0},
        {"points_per_page": -1},
        {"chunks_per_tsfile": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StorageConfig(**kwargs)

    def test_compression_option(self):
        config = StorageConfig(compression=Compression.ZLIB)
        assert config.compression == Compression.ZLIB


class TestIoStats:
    def test_reset(self):
        stats = IoStats(chunk_loads=5, bytes_read=100)
        stats.reset()
        assert stats.chunk_loads == 0 and stats.bytes_read == 0

    def test_snapshot_is_independent(self):
        stats = IoStats()
        snap = stats.snapshot()
        stats.chunk_loads += 3
        assert snap.chunk_loads == 0

    def test_diff(self):
        stats = IoStats()
        snap = stats.snapshot()
        stats.pages_decoded += 7
        stats.bytes_read += 42
        diff = stats.diff(snap)
        assert diff.pages_decoded == 7 and diff.bytes_read == 42
        assert diff.chunk_loads == 0

    def test_add(self):
        total = IoStats(chunk_loads=1) + IoStats(chunk_loads=2,
                                                 index_lookups=5)
        assert total.chunk_loads == 3 and total.index_lookups == 5

    def test_as_dict_keys(self):
        keys = set(IoStats().as_dict())
        assert {"metadata_reads", "chunk_loads", "pages_decoded",
                "points_decoded", "points_merged", "bytes_read",
                "index_lookups", "candidate_iterations"} == keys

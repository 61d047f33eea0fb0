"""Unit tests for page metadata, chunk writing and chunk metadata."""

import numpy as np
import pytest

from repro.errors import EncodingError, StorageError
from repro.storage import (
    Compression,
    Encoding,
    PageMetadata,
    Statistics,
    StorageConfig,
    split_rows,
    write_chunk,
)
from repro.storage.chunk import ChunkMetadata
from repro.storage.encoding import decode_page


def make_arrays(n=250, step=10):
    t = np.arange(n, dtype=np.int64) * step
    v = np.sin(t / 50.0) * 10
    return t, v


class TestSplitRows:
    def test_even_split(self):
        assert list(split_rows(6, 2)) == [(0, 2), (2, 4), (4, 6)]

    def test_ragged_tail(self):
        assert list(split_rows(5, 2)) == [(0, 2), (2, 4), (4, 5)]

    def test_single_page(self):
        assert list(split_rows(3, 100)) == [(0, 3)]

    def test_bad_page_size(self):
        with pytest.raises(StorageError):
            list(split_rows(5, 0))


class TestWriteChunk:
    def test_page_directory_layout(self):
        t, v = make_arrays(250)
        config = StorageConfig(avg_series_point_number_threshold=1000,
                               points_per_page=100)
        block, meta = write_chunk(1, 7, t, v, config)
        assert len(meta.pages) == 3
        assert [p.first_row for p in meta.pages] == [0, 100, 200]
        assert [p.n_points for p in meta.pages] == [100, 100, 50]
        assert meta.version == 7
        assert meta.n_points == 250
        # Page payloads tile the data block exactly.
        total = sum(p.time_length + p.value_length for p in meta.pages)
        assert total == len(block)

    def test_statistics_match_arrays(self):
        t, v = make_arrays()
        _block, meta = write_chunk(1, 1, t, v)
        assert meta.statistics == Statistics.from_arrays(t, v)
        assert meta.start_time == int(t[0])
        assert meta.end_time == int(t[-1])

    def test_payloads_decode(self):
        t, v = make_arrays(120)
        config = StorageConfig(avg_series_point_number_threshold=1000,
                               points_per_page=50)
        block, meta = write_chunk(1, 1, t, v, config)
        page = meta.pages[1]
        time_payload = block[page.time_offset:
                             page.time_offset + page.time_length]
        out = decode_page(time_payload, meta.time_encoding, meta.compression)
        np.testing.assert_array_equal(out, t[50:100])

    def test_index_built_by_default(self):
        t, v = make_arrays()
        _block, meta = write_chunk(1, 1, t, v)
        regression = meta.step_regression()
        assert regression is not None
        assert regression.n_points == t.size

    def test_empty_chunk_rejected(self):
        with pytest.raises(StorageError):
            write_chunk(1, 1, np.empty(0, dtype=np.int64), np.empty(0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(StorageError):
            write_chunk(1, 1, np.array([1], dtype=np.int64),
                        np.array([1.0, 2.0]))

    def test_single_point_chunk(self):
        _block, meta = write_chunk(1, 1, np.array([5], dtype=np.int64),
                                   np.array([2.5]))
        assert meta.n_points == 1
        assert meta.step_regression() is None  # needs >= 2 points


class TestChunkMetadataSerialization:
    @pytest.fixture
    def meta(self):
        t, v = make_arrays(130)
        config = StorageConfig(avg_series_point_number_threshold=1000,
                               points_per_page=60,
                               time_encoding=Encoding.PLAIN,
                               compression=Compression.ZLIB)
        _block, meta = write_chunk(3, 11, t, v, config)
        return meta.located("/tmp/f.tsfile", 4096, 999)

    def test_roundtrip(self, meta):
        out, offset = ChunkMetadata.from_bytes(meta.to_bytes(),
                                               file_path=meta.file_path)
        assert offset == len(meta.to_bytes())
        assert out == meta

    def test_roundtrip_preserves_codecs(self, meta):
        out, _ = ChunkMetadata.from_bytes(meta.to_bytes())
        assert out.time_encoding == Encoding.PLAIN
        assert out.compression == Compression.ZLIB

    def test_located_fields(self, meta):
        assert meta.file_path == "/tmp/f.tsfile"
        assert meta.data_offset == 4096
        assert meta.data_length == 999

    def test_truncated_raises(self, meta):
        with pytest.raises(StorageError):
            ChunkMetadata.from_bytes(meta.to_bytes()[:10])

    @pytest.mark.parametrize("field,at", [("time_encoding", 12),
                                          ("value_encoding", 13),
                                          ("compression", 14)])
    def test_retired_tag_raises_encoding_error(self, meta, field, at):
        # Byte ``at`` of the packed header holds ``field``; tag 3 was
        # GORILLA (retired) and is not a compression at all.
        data = bytearray(meta.to_bytes())
        data[at] = 3
        with pytest.raises(EncodingError, match="%s tag 3" % field):
            ChunkMetadata.from_bytes(bytes(data))

    def test_page_helpers(self, meta):
        assert meta.page_row_starts().tolist() == [0, 60, 120]
        starts = meta.page_start_times()
        assert starts[0] == meta.start_time
        assert starts.size == 3


class TestPageMetadata:
    def test_roundtrip(self):
        stats = Statistics.from_arrays([1, 2], [5.0, -1.0])
        page = PageMetadata(stats, 40, 100, 20, 120, 36)
        out, offset = PageMetadata.from_bytes(page.to_bytes())
        assert out == page
        assert offset == PageMetadata.SERIALIZED_SIZE

    def test_truncated_raises(self):
        stats = Statistics.from_arrays([1], [1.0])
        page = PageMetadata(stats, 0, 0, 8, 8, 8)
        with pytest.raises(StorageError):
            PageMetadata.from_bytes(page.to_bytes()[:-4])

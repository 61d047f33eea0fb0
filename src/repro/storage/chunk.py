"""Chunks (Definition 2.4): read-only segments of a series on disk.

``write_chunk`` turns a time-ordered array pair into the encoded data
block plus a :class:`ChunkMetadata` describing it: version number, the
FP/LP/BP/TP statistics the M4-LSM operator feeds on, a per-page
directory for partial reads, and the serialized step regression index.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

import numpy as np

from ..core.index import StepRegression
from ..errors import EncodingError, StorageError, StepRegressionError
from .config import DEFAULT_CONFIG
from .encoding import Compression, Encoding, encode_page
from .page import PageMetadata, split_rows
from .statistics import Statistics

_META_HEADER = struct.Struct("<IqBBBHI")
# series_id, version, time_enc, value_enc, compression, n_pages, index_len


@dataclasses.dataclass(frozen=True)
class ChunkMetadata:
    """Everything known about a chunk without touching its data block."""

    series_id: int
    version: int
    statistics: Statistics
    pages: tuple  # of PageMetadata
    time_encoding: Encoding
    value_encoding: Encoding
    compression: Compression
    index_bytes: bytes        # serialized StepRegression ('' if not built)
    file_path: str = ""       # set when the chunk lands in a TsFile
    data_offset: int = 0      # offset of the data block within the file
    data_length: int = 0

    @property
    def n_points(self):
        """Total points in the chunk."""
        return self.statistics.count

    @property
    def start_time(self):
        """First timestamp (``FP(C).t``)."""
        return self.statistics.start_time

    @property
    def end_time(self):
        """Last timestamp (``LP(C).t``)."""
        return self.statistics.end_time

    def page_row_starts(self):
        """Int64 array with each page's first row in the chunk."""
        return np.array([p.first_row for p in self.pages], dtype=np.int64)

    def page_start_times(self):
        """Int64 array with each page's first timestamp."""
        return np.array([p.statistics.start_time for p in self.pages],
                        dtype=np.int64)

    def step_regression(self):
        """Deserialize the stored step regression (None if absent)."""
        if not self.index_bytes:
            return None
        regression, _ = StepRegression.from_bytes(self.index_bytes)
        return regression

    def located(self, file_path, data_offset, data_length):
        """A copy bound to its final location inside a TsFile."""
        return dataclasses.replace(self, file_path=file_path,
                                   data_offset=data_offset,
                                   data_length=data_length)

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self, format_version=2):
        """Binary form stored in the TsFile metadata section.

        File path and data offsets are appended by the TsFile writer, so
        they are included here.  ``format_version`` selects the page
        directory layout (v2 adds per-payload CRCs).
        """
        out = bytearray(_META_HEADER.pack(
            self.series_id, int(self.version), int(self.time_encoding),
            int(self.value_encoding), int(self.compression),
            len(self.pages), len(self.index_bytes)))
        out += struct.pack("<QQ", self.data_offset, self.data_length)
        out += self.statistics.to_bytes()
        for page in self.pages:
            out += page.to_bytes(format_version)
        out += self.index_bytes
        return bytes(out)

    @classmethod
    def from_bytes(cls, data, offset=0, file_path="", format_version=2):
        """Inverse of :meth:`to_bytes`; returns ``(metadata, next_offset)``."""
        if len(data) - offset < _META_HEADER.size + 16:
            raise StorageError("truncated chunk metadata header")
        (series_id, version, time_enc, value_enc, compression,
         n_pages, index_len) = _META_HEADER.unpack_from(data, offset)
        offset += _META_HEADER.size
        data_offset, data_length = struct.unpack_from("<QQ", data, offset)
        offset += 16
        stats = Statistics.from_bytes(data, offset)
        offset += Statistics.SERIALIZED_SIZE
        pages = []
        for _ in range(n_pages):
            page, offset = PageMetadata.from_bytes(data, offset,
                                                   format_version)
            pages.append(page)
        index_bytes = bytes(data[offset:offset + index_len])
        if len(index_bytes) != index_len:
            raise StorageError("truncated chunk index bytes")
        offset += index_len
        meta = cls(series_id, int(version), stats, tuple(pages),
                   _tag(Encoding, time_enc, "time_encoding"),
                   _tag(Encoding, value_enc, "value_encoding"),
                   _tag(Compression, compression, "compression"),
                   index_bytes,
                   file_path=file_path, data_offset=data_offset,
                   data_length=data_length)
        return meta, offset


def _tag(enum_cls, value, field):
    """``enum_cls(value)``, or :class:`EncodingError` naming the field
    for a retired or unknown tag (e.g. the old RLE/GORILLA tags 2, 3)."""
    try:
        return enum_cls(value)
    except ValueError:
        raise EncodingError("chunk metadata: unknown %s tag %d"
                            % (field, value)) from None


def write_chunk(series_id, version, timestamps, values, config=DEFAULT_CONFIG):
    """Encode a chunk; returns ``(data_block_bytes, ChunkMetadata)``.

    The metadata is unlocated (no file path/offset) until a TsFile writer
    places the data block.
    """
    t = np.ascontiguousarray(timestamps, dtype=np.int64)
    v = np.ascontiguousarray(values, dtype=np.float64)
    if t.size == 0:
        raise StorageError("cannot write an empty chunk")
    if t.size != v.size:
        raise StorageError("time/value length mismatch")

    payloads = []
    pages = []
    cursor = 0
    for start, end in split_rows(t.size, config.points_per_page):
        time_payload = encode_page(t[start:end], config.time_encoding,
                                   config.compression)
        value_payload = encode_page(v[start:end], config.value_encoding,
                                    config.compression)
        stats = Statistics.from_arrays(t[start:end], v[start:end])
        pages.append(PageMetadata(
            statistics=stats,
            first_row=start,
            time_offset=cursor,
            time_length=len(time_payload),
            value_offset=cursor + len(time_payload),
            value_length=len(value_payload),
            time_crc=zlib.crc32(time_payload),
            value_crc=zlib.crc32(value_payload),
        ))
        payloads.append(time_payload)
        payloads.append(value_payload)
        cursor += len(time_payload) + len(value_payload)

    index_bytes = b""
    if t.size >= 2:
        try:
            index_bytes = StepRegression.fit(t).to_bytes()
        except StepRegressionError:
            index_bytes = b""

    metadata = ChunkMetadata(
        series_id=series_id,
        version=version,
        statistics=Statistics.from_arrays(t, v),
        pages=tuple(pages),
        time_encoding=config.time_encoding,
        value_encoding=config.value_encoding,
        compression=config.compression,
        index_bytes=index_bytes,
    )
    return b"".join(payloads), metadata

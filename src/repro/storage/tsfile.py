"""TsFile: the on-disk container for chunks, after Apache IoTDB's TsFile.

Layout (format v2)::

    magic "TSFLv2\\n\\0"
    per chunk:
        inline header: "CHNK", u32 meta_length, u32 crc32(meta)
        located ChunkMetadata bytes
        chunk data block
    metadata section:  u32 chunk count, then each ChunkMetadata
    footer:            u64 meta offset, u32 meta length, u32 crc32(meta),
                       magic again

The tail metadata section is the fast path — one small read fetches
every chunk's statistics, page directory and step-regression index, the
asymmetry the M4-LSM operator exploits.  The inline per-chunk headers
are the *recovery* path: a file whose process died before ``close()``
has no footer, but every sealed chunk inside it is still reachable by
scanning the headers (:meth:`TsFileReader.salvage_metadata`), so a
crash between WAL rotation and file seal no longer loses acknowledged
points.

Everything persisted is checksummed: the metadata section and footer
carry CRC32s, and each page payload's CRC travels in its directory
entry, verified on every page read.  v1 (seed) files — no
inline headers, no CRCs, 20-byte footer — remain fully readable; the
two formats are told apart by the magic bytes.  Transient ``EIO`` on
reads is retried with capped exponential backoff
(:func:`repro.storage.faultfs.retry_io`).  All reads are accounted
against an :class:`repro.storage.iostats.IoStats`.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib

import numpy as np

from ..errors import (
    CorruptFileError,
    EncodingError,
    ReadOnlyError,
)
from . import faultfs
from .chunk import ChunkMetadata
from .encoding import decode_page
from .iostats import IoStats

MAGIC = b"TSFLv2\n\0"
MAGIC_V1 = b"TSFLv1\n\0"
CHUNK_MARKER = b"CHNK"
_CHUNK_HEADER = struct.Struct("<4sII")  # marker, meta_length, meta_crc
_FOOTER = struct.Struct("<QII8s")       # meta_offset, meta_len, meta_crc, magic
_FOOTER_V1 = struct.Struct("<QI8s")

FORMAT_V1 = 1
FORMAT_V2 = 2


class TsFileWriter:
    """Sequentially writes chunk data blocks, then seals the file.

    >>> # writer = TsFileWriter("/tmp/x.tsfile")
    >>> # writer.append_chunk(block, metadata); writer.close()
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        self._file = faultfs.fopen(self._path, "wb")
        self._file.write(MAGIC)
        self._offset = len(MAGIC)
        self._metadata = []
        self._closed = False

    @property
    def path(self):
        """Destination file path."""
        return self._path

    def append_chunk(self, data_block, metadata):
        """Write one chunk (inline header + metadata + data block).

        Returns the located metadata.  The inline copy of the metadata
        is what makes the chunk salvageable from an unsealed file.
        """
        if self._closed:
            raise ReadOnlyError("TsFile %s is already sealed" % self._path)
        # ChunkMetadata serializes fixed-width, so the located form is
        # the same length as the trial (unlocated) one.
        meta_length = len(metadata.to_bytes(FORMAT_V2))
        data_offset = self._offset + _CHUNK_HEADER.size + meta_length
        located = metadata.located(self._path, data_offset, len(data_block))
        meta_bytes = located.to_bytes(FORMAT_V2)
        self._file.write(_CHUNK_HEADER.pack(CHUNK_MARKER, meta_length,
                                            zlib.crc32(meta_bytes)))
        self._file.write(meta_bytes)
        self._file.write(data_block)
        # Push the chunk out of the userspace buffer: concurrent readers
        # (pooled TsFileReaders on the still-growing file) can fetch it
        # by offset right away, and a killed process loses at most the
        # chunk currently being appended — never a sealed one.
        self._file.flush()
        self._offset = data_offset + len(data_block)
        self._metadata.append(located)
        return located

    def close(self):
        """Seal the file: write the metadata section and footer.

        Returns the list of located :class:`ChunkMetadata`.
        """
        if self._closed:
            return self._metadata
        meta_offset = self._offset
        blob = bytearray(struct.pack("<I", len(self._metadata)))
        for meta in self._metadata:
            blob += meta.to_bytes(FORMAT_V2)
        self._file.write(blob)
        self._file.write(_FOOTER.pack(meta_offset, len(blob),
                                      zlib.crc32(bytes(blob)), MAGIC))
        self._file.close()
        self._closed = True
        return self._metadata

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class TsFileReader:
    """Random-access reader over a sealed (or salvageable) TsFile.

    One reader per file; the storage engine keeps a pool of them, so one
    reader may serve many concurrent queries.  Seek+read pairs on the
    shared file handle are serialized by an internal lock; the expensive
    page decode happens outside it, so concurrent queries on one file
    only contend for the read itself.  Every byte fetched and every page
    decoded is charged to ``stats``.

    Every page payload is CRC-checked on read (v1 pages carry no CRC
    and are never checked).  A payload is verified once per reader
    lifetime: TsFiles are immutable once sealed, so a page that checked
    out keeps checking out for as long as this handle lives, and repeat queries through a pooled reader
    skip the re-hash (``repro fsck`` always builds fresh readers and
    therefore always re-verifies).  ``on_retry`` is invoked as
    ``on_retry(attempt, exc)`` whenever a transient read error is
    retried.
    """

    #: verified-payload keys kept before the set is reset (bounds the
    #: memory of a very long-lived reader over a huge file).
    VERIFIED_CACHE_MAX = 1 << 20

    def __init__(self, path, stats=None, on_retry=None, retry_attempts=4,
                 retry_base_delay=0.005, retry_max_delay=0.1):
        self._path = os.fspath(path)
        self._stats = stats if stats is not None else IoStats()
        self._verified = set()
        self._on_retry = on_retry
        self._retry_attempts = retry_attempts
        self._retry_base_delay = retry_base_delay
        self._retry_max_delay = retry_max_delay
        self._lock = threading.Lock()
        try:
            self._file = faultfs.fopen(self._path, "rb")
        except OSError as exc:
            raise CorruptFileError("cannot open TsFile %s: %s"
                                   % (self._path, exc),
                                   path=self._path) from exc
        self._format_version = self._validate_magic()

    @property
    def path(self):
        """The file being read."""
        return self._path

    @property
    def stats(self):
        """The I/O accounting sink."""
        return self._stats

    @property
    def format_version(self):
        """1 for seed-format files, 2 for checksummed files."""
        return self._format_version

    def _validate_magic(self):
        def fetch():
            self._file.seek(0)
            return self._file.read(len(MAGIC))

        head = self._retry(fetch)
        if head == MAGIC:
            return FORMAT_V2
        if head == MAGIC_V1:
            return FORMAT_V1
        raise CorruptFileError("%s: bad TsFile magic" % self._path,
                               path=self._path)

    def _retry(self, fn):
        return faultfs.retry_io(fn, attempts=self._retry_attempts,
                                base_delay=self._retry_base_delay,
                                max_delay=self._retry_max_delay,
                                on_retry=self._on_retry)

    # -- metadata --------------------------------------------------------------------

    def read_metadata(self):
        """Load every chunk's metadata from the tail section."""
        footer = _FOOTER if self._format_version >= FORMAT_V2 else _FOOTER_V1
        magic = MAGIC if self._format_version >= FORMAT_V2 else MAGIC_V1

        def fetch():
            with self._lock:
                self._file.seek(0, os.SEEK_END)
                size = self._file.tell()
                if size < len(magic) + footer.size:
                    raise CorruptFileError("%s: file too small" % self._path,
                                           path=self._path)
                self._file.seek(size - footer.size)
                fields = footer.unpack(self._file.read(footer.size))
                if self._format_version >= FORMAT_V2:
                    meta_offset, meta_length, meta_crc, tail_magic = fields
                else:
                    meta_offset, meta_length, tail_magic = fields
                    meta_crc = None
                if tail_magic != magic:
                    raise CorruptFileError("%s: bad footer magic"
                                           % self._path, path=self._path)
                if meta_offset + meta_length + footer.size > size:
                    raise CorruptFileError("%s: footer points past EOF"
                                           % self._path, path=self._path)
                self._file.seek(meta_offset)
                return self._file.read(meta_length), meta_length, meta_crc

        blob, meta_length, meta_crc = self._retry(fetch)
        self._stats.add(bytes_read=meta_length)
        if len(blob) < max(meta_length, 4):
            raise CorruptFileError("%s: truncated metadata section"
                                   % self._path, path=self._path)
        if meta_crc is not None and zlib.crc32(blob) != meta_crc:
            raise CorruptFileError("%s: metadata section CRC mismatch"
                                   % self._path, path=self._path)
        (count,) = struct.unpack_from("<I", blob)
        offset = 4
        metadata = []
        try:
            for _ in range(count):
                meta, offset = ChunkMetadata.from_bytes(
                    blob, offset, file_path=self._path,
                    format_version=self._format_version)
                metadata.append(meta)
        except (struct.error, ValueError) as exc:
            # v1 blobs are unchecksummed: damage can surface as a parse
            # error rather than a CRC mismatch.  Same verdict.
            raise CorruptFileError("%s: undecodable metadata section: %s"
                                   % (self._path, exc),
                                   path=self._path) from exc
        self._stats.add(metadata_reads=count)
        return metadata

    def salvage_metadata(self):
        """Recover chunk metadata by scanning the inline headers.

        The recovery path for unsealed (crash-torn) v2 files: walks the
        ``CHNK`` headers from the front and returns every chunk whose
        inline metadata passes its CRC and whose data block lies fully
        inside the file.  The scan stops at the first sign of tearing —
        everything before it is intact by checksum.  v1 files have no
        inline headers and yield nothing.
        """
        if self._format_version < FORMAT_V2:
            return []
        out = []
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            size = self._file.tell()
            offset = len(MAGIC)
            while offset + _CHUNK_HEADER.size <= size:
                self._file.seek(offset)
                marker, meta_length, meta_crc = _CHUNK_HEADER.unpack(
                    self._file.read(_CHUNK_HEADER.size))
                if marker != CHUNK_MARKER:
                    break  # metadata section, or torn header bytes
                if offset + _CHUNK_HEADER.size + meta_length > size:
                    break  # metadata itself torn
                meta_bytes = self._file.read(meta_length)
                if zlib.crc32(meta_bytes) != meta_crc:
                    break  # torn or damaged metadata
                meta, _ = ChunkMetadata.from_bytes(
                    meta_bytes, file_path=self._path,
                    format_version=FORMAT_V2)
                if meta.data_offset + meta.data_length > size:
                    break  # data block torn
                out.append(meta)
                offset = meta.data_offset + meta.data_length
            # Tearing can only happen at the tail.  If a *valid* chunk
            # exists beyond the point where the chain broke, the damage
            # is mid-file corruption and silence would lose that chunk:
            # fail loudly instead.
            self._file.seek(offset)
            remainder = self._file.read(size - offset)
        if self._intact_chunk_in(remainder, size):
            raise CorruptFileError(
                "%s: intact chunk found after damaged region at offset %d"
                " — mid-file corruption, not a torn tail"
                % (self._path, offset), path=self._path)
        self._stats.add(bytes_read=sum(len(m.to_bytes()) for m in out))
        return out

    def _intact_chunk_in(self, blob, file_size):
        """Does ``blob`` hold a CRC-valid chunk whose data is in-bounds?

        A valid inline header whose data block runs past EOF is exactly
        what a torn tail looks like, so only a *fully contained* chunk
        counts as proof of mid-file corruption.
        """
        pos = blob.find(CHUNK_MARKER)
        while pos != -1:
            if pos + _CHUNK_HEADER.size <= len(blob):
                _, meta_length, meta_crc = _CHUNK_HEADER.unpack_from(
                    blob, pos)
                start = pos + _CHUNK_HEADER.size
                meta_bytes = blob[start:start + meta_length]
                if (len(meta_bytes) == meta_length
                        and zlib.crc32(meta_bytes) == meta_crc):
                    try:
                        meta, _ = ChunkMetadata.from_bytes(
                            meta_bytes, file_path=self._path,
                            format_version=FORMAT_V2)
                    except Exception:
                        meta = None
                    if meta is not None and (meta.data_offset
                                             + meta.data_length
                                             <= file_size):
                        return True
            pos = blob.find(CHUNK_MARKER, pos + 1)
        return False

    # -- page reads ------------------------------------------------------------------

    def _read_payload(self, chunk_meta, rel_offset, length):
        def fetch():
            with self._lock:
                self._file.seek(chunk_meta.data_offset + rel_offset)
                return self._file.read(length)

        payload = self._retry(fetch)
        if len(payload) != length:
            raise CorruptFileError(
                "%s: truncated page payload" % self._path, path=self._path,
                chunk=(self._path, chunk_meta.data_offset))
        self._stats.add(bytes_read=length)
        return payload

    def _decode(self, chunk_meta, payload, encoding, crc, what,
                rel_offset=None):
        key = (chunk_meta.data_offset, rel_offset)
        if crc and key not in self._verified:
            if zlib.crc32(payload) != crc:
                raise CorruptFileError(
                    "%s: %s payload CRC mismatch in chunk @%d"
                    % (self._path, what, chunk_meta.data_offset),
                    path=self._path,
                    chunk=(self._path, chunk_meta.data_offset))
            if len(self._verified) >= self.VERIFIED_CACHE_MAX:
                self._verified.clear()
            self._verified.add(key)
        try:
            return decode_page(payload, encoding, chunk_meta.compression)
        except EncodingError as exc:
            # Undecodable bytes on a v1 page (no CRC to catch it first)
            # or a codec-level failure: attribute it to the chunk so the
            # degraded-read path can quarantine it.
            raise CorruptFileError(
                "%s: undecodable %s payload in chunk @%d: %s"
                % (self._path, what, chunk_meta.data_offset, exc),
                path=self._path,
                chunk=(self._path, chunk_meta.data_offset)) from exc

    def read_page_timestamps(self, chunk_meta, page_index):
        """Decode the time column of one page (counted, CRC-checked)."""
        page = chunk_meta.pages[page_index]
        payload = self._read_payload(chunk_meta, page.time_offset,
                                     page.time_length)
        self._stats.add(pages_decoded=1, points_decoded=page.n_points)
        return self._decode(chunk_meta, payload, chunk_meta.time_encoding,
                            page.time_crc, "page time",
                            rel_offset=page.time_offset)

    def read_page_values(self, chunk_meta, page_index):
        """Decode the value column of one page (counted, CRC-checked)."""
        page = chunk_meta.pages[page_index]
        payload = self._read_payload(chunk_meta, page.value_offset,
                                     page.value_length)
        self._stats.add(pages_decoded=1, points_decoded=page.n_points)
        return self._decode(chunk_meta, payload, chunk_meta.value_encoding,
                            page.value_crc, "page value",
                            rel_offset=page.value_offset)

    def read_chunk_arrays(self, chunk_meta):
        """Decode every page; returns ``(timestamps, values)``."""
        self._stats.add(chunk_loads=1)
        times = []
        values = []
        for page_index in range(len(chunk_meta.pages)):
            times.append(self.read_page_timestamps(chunk_meta, page_index))
            values.append(self.read_page_values(chunk_meta, page_index))
        if len(times) == 1:
            return times[0], values[0]
        return np.concatenate(times), np.concatenate(values)

    def close(self):
        """Release the underlying file handle."""
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

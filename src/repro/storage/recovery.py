"""Crash recovery: rebuild an engine's state from its data directory.

A storage directory is fully self-describing:

* ``catalog.meta``   — series names and ids,
* ``*.tsfile``       — chunks, sealed (footer) or salvageable (inline headers),
* ``deletes.mods``   — the versioned delete log,
* ``wal-*.log``      — points acknowledged but not yet flushed.

:func:`recover_engine_state` replays all four into a fresh
:class:`StorageEngine`, restoring the version counter, the per-series
chunk lists and delete lists, the TsFile sequence number, and the
memtable contents.

Failure policy mirrors the record stores: *tearing* — the crash-common
damage, always at a file's tail — is repaired and logged (torn WAL/mods/
catalog tails are truncated; an unsealed TsFile is salvaged chunk by
chunk from its inline headers; an empty or header-only file stub is
skipped).  *Corruption* — a checksum mismatch anywhere else — raises
:class:`CorruptFileError` so damage never turns into silently missing
or wrong data.
"""

from __future__ import annotations

import logging
import os
import re

from ..errors import CorruptFileError
from .tsfile import MAGIC, MAGIC_V1, TsFileReader

_TSFILE_RE = re.compile(r"^(\d{6})\.tsfile$")

log = logging.getLogger("repro.storage.recovery")


def list_tsfiles(data_dir):
    """TsFiles in the directory, in creation (sequence) order.

    Returns ``[(sequence_number, path), ...]``.
    """
    out = []
    for entry in os.listdir(data_dir):
        match = _TSFILE_RE.match(entry)
        if match:
            out.append((int(match.group(1)),
                        os.path.join(data_dir, entry)))
    out.sort()
    return out


def is_torn_stub(path):
    """Is this TsFile an empty/partial-magic stub from a dead writer?

    A process killed between creating the file and its first buffer
    flush leaves zero bytes (or a torn prefix of the magic).  Such a
    file provably holds no committed data, so recovery may skip it.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size >= len(MAGIC):
        return False
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
    return MAGIC.startswith(head) or MAGIC_V1.startswith(head)


def load_tsfile_metadata(reader):
    """All chunk metadata in a file: footer fast path, then salvage.

    Returns ``(metadata_list, salvaged)`` where ``salvaged`` is True
    when the footer was unusable (unsealed or damaged file) and the
    chunks were recovered from their inline headers instead.  v1 files
    have no inline headers, so their footer failures stay fatal.
    """
    try:
        return reader.read_metadata(), False
    except CorruptFileError:
        if reader.format_version < 2:
            raise
        return reader.salvage_metadata(), True


def recover_engine_state(engine):
    """Rebuild ``engine``'s in-memory state from its directory.

    Called by :class:`StorageEngine` when it opens a directory that
    already has any persisted state.  Returns a summary dict (series,
    chunks, deletes, replayed WAL points, salvaged files).
    """
    tracer = engine.tracer
    metrics = engine.metrics
    with tracer.span("recovery") as recovery_span:
        # 1. Series registry.
        with tracer.span("recovery.catalog") as span:
            n_series = 0
            for series_id, name in engine._catalog.read_all():
                engine._register_recovered_series(series_id, name)
                n_series += 1
            span.attrs["series"] = n_series

        # 2. Chunks from TsFiles (sealed footer or inline salvage).
        n_chunks = 0
        n_salvaged_files = 0
        max_version = 0
        max_seq = 0
        with tracer.span("recovery.tsfiles") as span:
            for seq, path in list_tsfiles(engine.data_dir):
                # Count stubs into the sequence too: the next writer
                # must not reuse (and truncate) an existing file name.
                max_seq = max(max_seq, seq)
                if is_torn_stub(path):
                    log.warning("%s: empty torn TsFile stub — skipped",
                                path)
                    metrics.counter(
                        "engine_torn_tsfile_stubs_total").inc()
                    continue
                with engine._open_reader(path) as reader:
                    metadata, salvaged = load_tsfile_metadata(reader)
                if salvaged:
                    n_salvaged_files += 1
                    log.warning(
                        "%s: no usable footer — salvaged %d chunk(s) "
                        "from inline headers", path, len(metadata))
                    metrics.counter("engine_salvaged_tsfiles_total").inc()
                    metrics.counter("engine_salvaged_chunks_total").inc(
                        len(metadata))
                for meta in metadata:
                    state = engine._series_by_id.get(meta.series_id)
                    if state is None:
                        raise CorruptFileError(
                            "%s: chunk for unknown series id %d"
                            % (path, meta.series_id), path=path)
                    state.chunks.append(meta)
                    state.points_written += meta.n_points
                    max_version = max(max_version, meta.version)
                    n_chunks += 1
            for state in engine._series_by_id.values():
                state.chunks.sort(key=lambda m: m.version)
            span.attrs["chunks"] = n_chunks
            span.attrs["salvaged_files"] = n_salvaged_files

        # 3. Deletes from the mods log.
        n_deletes = 0
        with tracer.span("recovery.mods") as span:
            for series_id, delete in engine._mods.read_all():
                state = engine._series_by_id.get(series_id)
                if state is None:
                    raise CorruptFileError(
                        "mods log references unknown series id %d"
                        % series_id, path=engine._mods.path)
                state.deletes.add(delete)
                max_version = max(max_version, int(delete.version))
                n_deletes += 1
            span.attrs["deletes"] = n_deletes

        # 4. Unflushed points from the WAL.
        n_replayed = 0
        with tracer.span("recovery.wal") as span:
            for series_id, t, v in engine._wal.replay_all():
                state = engine._series_by_id.get(series_id)
                if state is None:
                    raise CorruptFileError(
                        "WAL references unknown series id %d" % series_id)
                state.memtable.append(t, v)
                state.points_written += 1
                n_replayed += 1
            span.attrs["wal_points"] = n_replayed

        engine._restore_counters(max_version, max_seq)
        summary = {
            "series": len(engine._series_by_id),
            "chunks": n_chunks,
            "deletes": n_deletes,
            "wal_points": n_replayed,
            "salvaged_files": n_salvaged_files,
        }
        recovery_span.attrs.update(summary)
    metrics.counter("engine_recoveries_total").inc()
    metrics.counter("engine_recovered_wal_points_total").inc(n_replayed)
    metrics.gauge("engine_series").set(summary["series"])
    return summary

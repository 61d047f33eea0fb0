"""Tile cache persistence: CRC32-framed records under the store dir.

The tile cache is *derived* data — every entry can be recomputed from
the TsFiles — so its on-disk format follows the PR-4 rules for
sidecars: every record carries a CRC32, a short or corrupt tail is
truncated with a warning, and *any* damage degrades to recomputation
(a warning, never an error; contrast the data-affecting logs where
mid-file corruption must fail loudly).

File layout (``tiles.cache``)::

    MAGIC                               b"TILEv1\\n\\0"
    manifest record                     JSON: spans_per_tile + fingerprint
    tile record *                       packed spans, LRU order (old first)

Each record is ``<u32 payload_len> payload <u32 crc32(payload)>``.  The
*fingerprint* captures the per-series data version (chunk count, max
chunk version, delete count, max delete version) and the quarantine
set; on load, tiles of any series whose fingerprint changed — and all
tiles when the quarantine or tile geometry changed — are silently
dropped as stale.  The file is written atomically (unique temp + fsync
+ replace), so a crashed writer leaves the previous snapshot intact.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib

from ..storage import faultfs
from .result import M4Result, SpanAggregate
from .series import Point
from .tiles import TileEntry

#: Sidecar file name inside the store directory.
FILENAME = "tiles.cache"

MAGIC = b"TILEv1\n\0"

_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")
_U16 = struct.Struct("<H")
_TILE = struct.Struct("<Bq")      # level, tile index
_SPAN = struct.Struct("<qdqdqdqd")  # FP, LP, BP, TP as (t, v) pairs
_RANGE = struct.Struct("<qq")

#: Records above this payload size are rejected as corrupt framing.
_MAX_PAYLOAD = 64 * 1024 * 1024


def _frame(payload):
    return _LEN.pack(len(payload)) + payload + _CRC.pack(
        zlib.crc32(payload))


def _pack_tile(series, level, tile, entry):
    name = series.encode("utf-8")
    parts = [_U16.pack(len(name)), name, _TILE.pack(level, tile),
             _U16.pack(len(entry.spans))]
    for span in entry.spans:
        if span.is_empty():
            parts.append(b"\x00")
        else:
            parts.append(b"\x01")
            parts.append(_SPAN.pack(span.first.t, span.first.v,
                                    span.last.t, span.last.v,
                                    span.bottom.t, span.bottom.v,
                                    span.top.t, span.top.v))
    parts.append(_U16.pack(len(entry.skipped)))
    for lo, hi in entry.skipped:
        parts.append(_RANGE.pack(lo, hi))
    return b"".join(parts)


def _unpack_tile(payload):
    view = memoryview(payload)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(view):
            raise ValueError("tile record ends mid-field")
        piece = view[pos:pos + n]
        pos += n
        return piece

    (name_len,) = _U16.unpack(take(_U16.size))
    series = bytes(take(name_len)).decode("utf-8")
    level, tile = _TILE.unpack(take(_TILE.size))
    (n_spans,) = _U16.unpack(take(_U16.size))
    spans = []
    for _ in range(n_spans):
        flag = take(1)[0]
        if not flag:
            spans.append(SpanAggregate())
            continue
        ft, fv, lt, lv, bt, bv, tt, tv = _SPAN.unpack(take(_SPAN.size))
        spans.append(SpanAggregate(first=Point(ft, fv), last=Point(lt, lv),
                                   bottom=Point(bt, bv), top=Point(tt, tv)))
    (n_skipped,) = _U16.unpack(take(_U16.size))
    skipped = []
    for _ in range(n_skipped):
        lo, hi = _RANGE.unpack(take(_RANGE.size))
        skipped.append((lo, hi))
    if pos != len(view):
        raise ValueError("%d trailing byte(s) in tile record"
                         % (len(view) - pos))
    # Recompute the byte charge with the live estimator so budgets stay
    # consistent across format versions.
    cells = M4Result(0, n_spans, n_spans, spans, skipped=skipped)
    return series, level, tile, TileEntry.from_result(cells)


def save_tiles(path, snapshot, fingerprint, spans_per_tile):
    """Atomically write a tile snapshot next to the data files.

    ``snapshot``: ``(series, level, tile, entry)`` tuples in LRU order
    (see :meth:`repro.core.tiles.TileCache.snapshot`).  Best-effort:
    an OSError is swallowed after cleaning up the temp file, mirroring
    the quarantine/obs sidecars — persistence failure must never block
    an engine close.  Returns True when the file was written.
    """
    manifest = json.dumps({"spans_per_tile": int(spans_per_tile),
                           "fingerprint": fingerprint},
                          sort_keys=True).encode("utf-8")
    tmp = "%s.%d.%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with faultfs.fopen(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(_frame(manifest))
            for series, level, tile, entry in snapshot:
                f.write(_frame(_pack_tile(series, level, tile, entry)))
            f.flush()
            faultfs.fsync(f)
        faultfs.replace(tmp, path)
        return True
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


def _iter_records(data, warnings, path):
    """Yield CRC-verified payloads; truncate at the first damage.

    A short tail is the torn-write case (warning, keep the prefix); a
    CRC mismatch or absurd length mid-file also stops the scan with a
    warning — for a derived cache the only response to damage is to
    recompute, so nothing here raises.
    """
    pos = len(MAGIC)
    while pos < len(data):
        if pos + _LEN.size > len(data):
            warnings.append("%s: torn tail (%d trailing byte(s) "
                            "dropped)" % (path, len(data) - pos))
            return
        (length,) = _LEN.unpack_from(data, pos)
        if length > _MAX_PAYLOAD:
            warnings.append("%s: absurd record length %d — dropping "
                            "rest of file" % (path, length))
            return
        end = pos + _LEN.size + length + _CRC.size
        if end > len(data):
            warnings.append("%s: torn tail record (%d byte(s) short)"
                            % (path, end - len(data)))
            return
        payload = data[pos + _LEN.size:end - _CRC.size]
        (crc,) = _CRC.unpack_from(data, end - _CRC.size)
        if zlib.crc32(payload) != crc:
            warnings.append("%s: record checksum mismatch at offset %d "
                            "— dropping rest of file" % (path, pos))
            return
        yield payload
        pos = end


def load_tiles(path, fingerprint, spans_per_tile):
    """Read a tile snapshot, dropping anything stale or damaged.

    ``fingerprint``/``spans_per_tile``: the engine's *current* values;
    pass ``None`` for both to skip staleness filtering (fsck does, it
    only verifies structure).  Returns ``(entries, warnings)`` where
    ``entries`` is a list of ``(series, level, tile, TileEntry)`` in
    file order and ``warnings`` are human-readable damage/staleness
    notes.  Never raises on file damage; a missing file is simply
    ``([], [])``.
    """
    warnings = []
    try:
        with faultfs.fopen(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return [], []
    except OSError as exc:
        return [], ["%s: unreadable tile cache: %s" % (path, exc)]
    if not data.startswith(MAGIC):
        return [], ["%s: bad magic — ignoring tile cache" % path]
    records = _iter_records(data, warnings, path)
    try:
        manifest_raw = next(records)
    except StopIteration:
        return [], warnings or ["%s: missing manifest record" % path]
    try:
        manifest = json.loads(manifest_raw.decode("utf-8"))
        stored_spans = int(manifest["spans_per_tile"])
        stored_fp = manifest["fingerprint"]
    except (ValueError, KeyError, TypeError) as exc:
        return [], ["%s: malformed manifest (%s) — ignoring tile cache"
                    % (path, exc)]
    validate = fingerprint is not None or spans_per_tile is not None
    if validate:
        if spans_per_tile is not None and stored_spans != spans_per_tile:
            return [], ["%s: tile geometry changed (%d -> %s spans/tile) "
                        "— ignoring tile cache"
                        % (path, stored_spans, spans_per_tile)]
        if not isinstance(stored_fp, dict) \
                or stored_fp.get("quarantine") \
                != (fingerprint or {}).get("quarantine"):
            return [], warnings  # quarantine changed: all tiles stale
    fresh_series = (fingerprint or {}).get("series", {}) \
        if validate else None
    stored_series = stored_fp.get("series", {}) \
        if isinstance(stored_fp, dict) else {}
    entries = []
    for payload in records:
        try:
            series, level, tile, entry = _unpack_tile(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            warnings.append("%s: undecodable tile record (%s) — "
                            "dropping rest of file" % (path, exc))
            break
        if validate and stored_series.get(series) \
                != fresh_series.get(series):
            continue  # the series changed since the snapshot: stale
        entries.append((series, level, tile, entry))
    return entries, warnings

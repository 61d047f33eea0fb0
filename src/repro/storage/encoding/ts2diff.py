"""TS_2DIFF delta encoding with bit packing, after Apache IoTDB.

Timestamps collected at a regular frequency have near-constant deltas, so
storing ``delta - min_delta`` in the minimum number of bits compresses a
regular int64 timestamp column by an order of magnitude.  Encode and decode
are fully vectorized with numpy (``packbits`` / ``unpackbits``); there is no
per-point Python loop.

Layout::

    u32   count
    i64   first value            (only if count >= 1)
    i64   min delta              (only if count >= 2)
    u8    bit width w
    bytes ceil((count-1) * w / 8) packed reduced deltas (only if w > 0)
"""

from __future__ import annotations

import struct

import numpy as np

from ...errors import EncodingError

_COUNT = struct.Struct("<I")
_I64 = struct.Struct("<q")
_U8 = struct.Struct("<B")


def _bit_width(max_value):
    """Minimum number of bits needed to store ``max_value`` (unsigned)."""
    return int(max_value).bit_length()


def pack_uint64(values, width):
    """Bit-pack a uint64 array into ``width`` bits per element, MSB first."""
    if width == 0:
        return b""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_uint64(data, count, width):
    """Inverse of :func:`pack_uint64`; returns a uint64 array of ``count``."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    total_bits = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size * 8 < total_bits:
        raise EncodingError(
            "bit-packed payload truncated: need %d bits, have %d"
            % (total_bits, raw.size * 8))
    # Left-pad each value's bits to 64 and repack them as big-endian
    # words: one packbits pass whatever the width.
    words = np.zeros((count, 64), dtype=np.uint8)
    words[:, 64 - width:] = np.unpackbits(
        raw, count=total_bits).reshape(count, width)
    return np.packbits(words).view(">u8").astype(np.uint64)


def encode_ts2diff(values):
    """Encode an int64 array; optimal when deltas are near-constant."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise EncodingError("TS_2DIFF expects a 1-D array")
    out = bytearray(_COUNT.pack(arr.size))
    if arr.size == 0:
        return bytes(out)
    out += _I64.pack(int(arr[0]))
    if arr.size == 1:
        return bytes(out)
    deltas = np.diff(arr)
    min_delta = int(deltas.min())
    reduced = (deltas - min_delta).astype(np.uint64)
    width = _bit_width(int(reduced.max()))
    out += _I64.pack(min_delta)
    out += _U8.pack(width)
    out += pack_uint64(reduced, width)
    return bytes(out)


def decode_ts2diff(data):
    """Decode bytes produced by :func:`encode_ts2diff` to an int64 array."""
    if len(data) < _COUNT.size:
        raise EncodingError("TS_2DIFF page shorter than its header")
    (count,) = _COUNT.unpack_from(data)
    offset = _COUNT.size
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if len(data) < offset + _I64.size:
        raise EncodingError("TS_2DIFF page missing first value")
    (first,) = _I64.unpack_from(data, offset)
    offset += _I64.size
    if count == 1:
        return np.array([first], dtype=np.int64)
    if len(data) < offset + _I64.size + _U8.size:
        raise EncodingError("TS_2DIFF page missing delta header")
    (min_delta,) = _I64.unpack_from(data, offset)
    offset += _I64.size
    (width,) = _U8.unpack_from(data, offset)
    offset += _U8.size
    reduced = unpack_uint64(data[offset:], count - 1, width)
    deltas = reduced.astype(np.int64) + min_delta
    out = np.empty(count, dtype=np.int64)
    out[0] = first
    np.cumsum(deltas, out=out[1:])
    out[1:] += first
    return out

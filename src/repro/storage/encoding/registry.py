"""Codec registry: names, enums and the page encode/decode entry points.

A page payload on disk is ``compress(encode(array))``.  The chunk header
records which encoding and compression were used, so any page can be
decoded knowing only its bytes plus those two tags.
"""

from __future__ import annotations

import enum
import zlib

from ...errors import EncodingError
from .plain import decode_plain, encode_plain
from .ts2diff import decode_ts2diff, encode_ts2diff


class Encoding(enum.IntEnum):
    """Page encodings, a subset of Apache IoTDB's TSEncoding set.

    Tags 2 and 3 (RLE, GORILLA) are retired and never reused: a page
    written with them fails to decode with :class:`EncodingError`.
    """

    PLAIN = 0
    TS_2DIFF = 1


class Compression(enum.IntEnum):
    """Post-encoding compressors, mirroring IoTDB's CompressionType."""

    NONE = 0
    ZLIB = 1


_ENCODERS = {
    Encoding.PLAIN: encode_plain,
    Encoding.TS_2DIFF: encode_ts2diff,
}

_DECODERS = {
    Encoding.PLAIN: decode_plain,
    Encoding.TS_2DIFF: decode_ts2diff,
}


def encode_page(values, encoding, compression=Compression.NONE):
    """Encode a 1-D numpy array into page payload bytes."""
    try:
        encoder = _ENCODERS[Encoding(encoding)]
    except (KeyError, ValueError):
        raise EncodingError("unknown encoding %r" % (encoding,)) from None
    payload = encoder(values)
    if compression == Compression.ZLIB:
        payload = zlib.compress(payload)
    elif compression != Compression.NONE:
        raise EncodingError("unknown compression %r" % (compression,))
    return payload


def decode_page(data, encoding, compression=Compression.NONE):
    """Decode page payload bytes back into a numpy array."""
    if compression == Compression.ZLIB:
        try:
            data = zlib.decompress(data)
        except zlib.error as exc:
            raise EncodingError("zlib decompression failed: %s" % exc) from exc
    elif compression != Compression.NONE:
        raise EncodingError("unknown compression %r" % (compression,))
    try:
        decoder = _DECODERS[Encoding(encoding)]
    except (KeyError, ValueError):
        raise EncodingError("unknown encoding %r" % (encoding,)) from None
    return decoder(data)

"""Page codecs for the TsFile storage layer.

Public surface:

* :class:`Encoding`, :class:`Compression` — on-disk tags
* :func:`encode_page`, :func:`decode_page` — the only entry points the
  rest of the storage layer uses
* individual codecs (:func:`encode_plain`, ...) for direct use and tests
"""

from .plain import decode_plain, encode_plain
from .registry import Compression, Encoding, decode_page, encode_page
from .ts2diff import decode_ts2diff, encode_ts2diff, pack_uint64, unpack_uint64

__all__ = [
    "Compression",
    "Encoding",
    "decode_page",
    "decode_plain",
    "decode_ts2diff",
    "encode_page",
    "encode_plain",
    "encode_ts2diff",
    "pack_uint64",
    "unpack_uint64",
]

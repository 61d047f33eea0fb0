"""Length-prefixed pickle framing for the shard pipe protocol.

One frame is a 12-byte header — magic ``RSP1``, payload length,
CRC-32 of the payload — followed by the pickled object.  The CRC makes
a half-written or bit-flipped frame a loud
:class:`~repro.errors.ShardProtocolError` instead of a garbage pickle;
a clean EOF (peer closed the socket between frames) raises
:class:`EOFError`, which the router treats as "worker died".

Requests and responses are plain dicts::

    {"id": 7, "op": "execute_sql", "kwargs": {...}, "deadline_s": 4.2}
    {"id": 7, "ok": True, "result": <object>}
    {"id": 7, "ok": False, "error": {"type": "SeriesNotFoundError",
                                     "message": "..."}}

Exceptions cross the pipe by *name*, not by pickle: the worker encodes
``type(exc).__name__`` + message (:func:`encode_error`) and the router
re-raises the matching class from :mod:`repro.errors`
(:func:`decode_error`), so a worker-side
:class:`~repro.errors.DeadlineExceededError` still maps to HTTP 504
and a ``ValueError`` still maps to 400.  Unknown types degrade to
:class:`~repro.errors.ShardError` rather than being trusted to
unpickle arbitrary state.

Trust model: the pipe is a private ``socketpair`` between a parent and
a child it spawned — pickle here is an IPC serializer between two
processes of the same codebase, not a network-facing format.
"""

from __future__ import annotations

import pickle
import struct
import zlib

from .. import errors as _errors
from ..errors import ShardError, ShardProtocolError

#: Frame magic; changes with any incompatible protocol revision.
MAGIC = b"RSP1"

_HEADER = struct.Struct("!4sII")  # magic, payload length, payload crc32

#: Refuse frames past this size — a corrupt length field must not make
#: the reader try to allocate gigabytes.
MAX_FRAME_BYTES = 1 << 30

#: Builtin exception types allowed to cross the pipe by name (everything
#: in :mod:`repro.errors` is allowed implicitly).
_BUILTIN_ERRORS = {"ValueError": ValueError, "TypeError": TypeError,
                   "KeyError": KeyError, "OSError": OSError}


def send_frame(sock, obj):
    """Pickle ``obj`` and write one framed message to ``sock``."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ShardProtocolError("frame too large: %d bytes"
                                 % len(payload))
    header = _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload))
    sock.sendall(header + payload)


def recv_frame(sock):
    """Read one framed message; returns the unpickled object.

    Raises :class:`EOFError` on a clean close at a frame boundary and
    :class:`~repro.errors.ShardProtocolError` on anything that cannot
    be a valid frame (mid-frame truncation included — a worker that
    dies mid-write left the stream unrecoverable either way).
    """
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ShardProtocolError("bad frame magic %r" % magic)
    if length > MAX_FRAME_BYTES:
        raise ShardProtocolError("frame length %d exceeds limit" % length)
    payload = _recv_exact(sock, length, eof_ok=False)
    if zlib.crc32(payload) != crc:
        raise ShardProtocolError("frame checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises many types
        raise ShardProtocolError("frame does not unpickle: %s"
                                 % exc) from exc


def _recv_exact(sock, n, eof_ok):
    """Exactly ``n`` bytes from ``sock`` (EOFError on clean close)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == n:
                raise EOFError("shard pipe closed")
            raise ShardProtocolError(
                "shard pipe truncated mid-frame (%d of %d bytes)"
                % (n - remaining, n))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_error(exc):
    """The wire form of a worker-side exception (type name + message)."""
    return {"type": type(exc).__name__, "message": str(exc)}


def decode_error(error):
    """Reconstruct a raisable exception from :func:`encode_error` output.

    Types defined in :mod:`repro.errors` (and a short allowlist of
    builtins) round-trip to their own class so status mapping and
    ``except`` clauses behave exactly as for a local engine; anything
    else becomes a :class:`~repro.errors.ShardError` naming the
    original type.
    """
    name = str(error.get("type", "ShardError"))
    message = str(error.get("message", ""))
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        return cls(message)
    cls = _BUILTIN_ERRORS.get(name)
    if cls is not None:
        return cls(message)
    return ShardError("%s (from shard worker): %s" % (name, message))

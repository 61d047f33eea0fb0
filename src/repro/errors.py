"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so a
caller can guard any call with a single ``except ReproError``.  Subclasses
are grouped by subsystem: storage, encoding, query and index.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class StorageError(ReproError):
    """Base class for storage engine failures."""


class EncodingError(StorageError):
    """Raised when a page cannot be encoded or decoded."""


class CorruptFileError(StorageError):
    """Raised when a persisted file fails structural validation (bad
    magic, truncated section, checksum mismatch).

    ``path`` names the damaged file when known; ``chunk`` is a
    ``(file_path, data_offset)`` pair when the damage is attributable to
    one chunk — the degraded-read path uses it to quarantine exactly the
    offending chunk and keep serving the rest of the series."""

    def __init__(self, message, *, path=None, chunk=None):
        super().__init__(message)
        self.path = path
        self.chunk = chunk


class ChunkNotFoundError(StorageError):
    """Raised when a chunk handle refers to a missing chunk."""


class SeriesNotFoundError(StorageError):
    """Raised when a query references a series the engine does not store."""


class ReadOnlyError(StorageError):
    """Raised on an attempt to mutate sealed, read-only storage."""


class InvalidValueError(StorageError):
    """Raised when a write carries a NaN value, which has no order for
    min/max statistics; nothing of the write is logged or stored."""


class DeadlineExceededError(ReproError):
    """Raised when a request's cooperative deadline expires mid-query.

    The M4 operators and the tile stitcher check the current thread's
    deadline at their natural cancellation points, so a timed-out query
    aborts cleanly between chunks/spans instead of running to
    completion."""


class ServerError(ReproError):
    """Base class for query-service failures (client and server side).

    ``status`` is the HTTP status code associated with the failure."""

    status = 500

    def __init__(self, message, status=None):
        super().__init__(message)
        if status is not None:
            self.status = int(status)


class ServerOverloadedError(ServerError):
    """Raised when the admission queue is full and a request is shed.

    ``retry_after`` is the suggested client back-off in seconds (the
    HTTP ``Retry-After`` value)."""

    status = 503

    def __init__(self, message, retry_after=1):
        super().__init__(message)
        self.retry_after = int(retry_after)


class IngestBackpressureError(ServerError):
    """Raised when the streaming ingest queue (or a tenant's byte
    budget) is full and a batch is shed.

    Maps to HTTP 429; ``retry_after`` is the suggested client back-off
    in seconds (the ``Retry-After`` header value)."""

    status = 429

    def __init__(self, message, retry_after=1):
        super().__init__(message)
        self.retry_after = int(retry_after)


class ReplicationError(ReproError):
    """Base class for replication failures (framing, transport, state).

    Raised when a replication stream cannot be decoded (bad magic,
    CRC mismatch, truncated frame) or when a node receives a stream it
    cannot apply (wrong role, unknown epoch with no resync)."""


class NotPrimaryError(ServerError):
    """Raised when a write is sent to a standby replica.

    Maps to HTTP 409; ``primary`` is the advertised URL of the current
    primary when the standby knows it, so clients can follow."""

    status = 409

    def __init__(self, message, primary=None):
        super().__init__(message)
        self.primary = primary


class ShardError(ReproError):
    """Base class for shard router failures (placement, topology,
    pipe protocol, worker transport)."""


class ShardProtocolError(ShardError):
    """Raised when a shard pipe frame cannot be decoded (bad magic,
    oversized length, checksum mismatch).  A protocol error on a shard
    connection is unrecoverable: the router marks the shard dead."""


class ShardDownError(ShardError):
    """Raised when an operation targets a shard whose worker process
    has died (EOF on the pipe, or a non-zero exit observed).

    ``shard`` is the integer shard id when known.  The serving layer
    treats a dead shard like a quarantined chunk: non-strict reads
    degrade (empty, flagged results) instead of failing, writes and
    strict reads surface the error."""

    def __init__(self, message, shard=None):
        super().__init__(message)
        self.shard = shard


class QueryError(ReproError):
    """Base class for query layer failures."""


class SqlSyntaxError(QueryError):
    """Raised when the mini SQL dialect cannot parse a statement."""


class InvalidQueryRangeError(QueryError):
    """Raised when a query's time range or span count is invalid
    (``t_qs >= t_qe`` or ``w <= 0``)."""


class IndexError_(ReproError):
    """Base class for chunk index failures.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`, which callers may also want to catch separately.
    """


class StepRegressionError(IndexError_):
    """Raised when a step regression function cannot be fitted
    (for example a chunk with fewer than two points)."""

"""Shard worker: one :class:`StorageEngine` served over a pipe.

Spawned by the router as ``python -m repro.shard.worker`` with an
inherited socketpair fd.  The worker owns a complete single-engine
store (its own WAL, tile cache, quarantine and obs registry under
``shard-NN/``) and executes framed requests
(:mod:`repro.shard.protocol`) against it.

Concurrency: a small thread pool runs operations so a slow query does
not head-of-line-block a ping — the engine is already thread-safe (the
server's admission pool exercises the same paths in the unsharded
deployment).  Responses are written under a lock; ordering across
requests is by completion, and the router correlates by request id.

Deadlines: each request may carry ``deadline_s`` (its *remaining*
budget at send time).  The worker installs a fresh
:class:`~repro.storage.deadline.Deadline` for the executing thread, so
the engine's cooperative checkpoints abort an over-budget query
exactly as they would in-process, and the resulting
:class:`~repro.errors.DeadlineExceededError` travels back by name.

Lifecycle: a ``close`` request drains in-flight operations, closes the
engine (persisting obs — and tiles, when configured) and exits 0.  If
the pipe hits EOF first (router died), the worker closes the engine
and exits too — no orphan processes.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from ..errors import ReproError
from ..storage.deadline import Deadline, deadline_scope
from ..storage.engine import StorageEngine
from .placement import config_from_dict
from .protocol import encode_error, recv_frame, send_frame


class ShardWorker:
    """The worker-side request loop around one engine."""

    def __init__(self, engine, sock, shard_id=0, threads=4):
        self._engine = engine
        self._sock = sock
        self._shard_id = int(shard_id)
        self._pool = ThreadPoolExecutor(
            max_workers=max(int(threads), 1),
            thread_name_prefix="shard-%02d-op" % shard_id)
        self._send_lock = threading.Lock()

    def serve(self):
        """Run the request loop until ``close`` or pipe EOF.

        Returns the process exit code (0 on a clean close)."""
        try:
            while True:
                try:
                    request = recv_frame(self._sock)
                except (EOFError, OSError, ReproError):
                    break  # router gone: shut down quietly
                if request.get("op") == "close":
                    self._pool.shutdown(wait=True)
                    self._close_engine()
                    self._reply(request, True, {"closed": True})
                    break
                self._pool.submit(self._run, request)
        finally:
            self._pool.shutdown(wait=True)
            self._close_engine()
            try:
                self._sock.close()
            except OSError:
                pass
        return 0

    def _close_engine(self):
        try:
            if not self._engine.closed:
                self._engine.close()
        except ReproError:
            pass

    def _run(self, request):
        deadline_s = request.get("deadline_s")
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        try:
            with deadline_scope(deadline):
                if deadline is not None:
                    deadline.check()
                op = request.get("op")
                if op not in self._OPS:
                    raise ValueError("unknown shard op %r" % op)
                # A wire op is the engine method of the same name, bar
                # the two the worker answers itself.
                target = getattr(self, op, None) \
                    or getattr(self._engine, op)
                result = target(**(request.get("kwargs") or {}))
            self._reply(request, True, result)
        except BaseException as exc:  # every failure becomes a response
            self._reply(request, False, exc)

    def _reply(self, request, ok, payload):
        message = {"id": request.get("id"), "ok": ok}
        if ok:
            message["result"] = payload
        else:
            message["error"] = encode_error(payload)
        try:
            with self._send_lock:
                send_frame(self._sock, message)
        except (OSError, ReproError):
            pass  # router gone; the read loop will see EOF and exit

    #: The one allow-list of wire ops (request ``op`` strings).
    _OPS = frozenset((
        "ping", "stats",                           # worker-local, below
        "create_series", "write", "write_batch", "delete", "flush",
        "flush_all", "compact", "series_names", "series_info",
        "chunk_count", "total_points", "execute_sql", "render_series",
        "delta_spans"))

    def ping(self):
        """Liveness + identity; the router's first call waits out the
        engine open (WAL recovery) behind it."""
        return {"pid": os.getpid(), "shard": self._shard_id,
                "series": len(self._engine.series_names()),
                "recovery": self._engine.recovery_summary}

    def stats(self):
        """The engine's observability snapshot plus this worker's
        quarantine and pid (the router merges these per shard)."""
        snapshot = self._engine.observability_snapshot()
        quarantine = self._engine.quarantine
        snapshot["quarantine"] = {"chunks": len(quarantine),
                                  "entries": quarantine.entries()}
        snapshot["pid"] = os.getpid()
        return snapshot


def main(argv=None):
    """Worker entry point (``python -m repro.shard.worker``).

    Arguments: ``--fd`` (inherited socketpair end), ``--dir`` (this
    shard's store directory), ``--shard-id``, ``--threads`` and
    ``--config`` (the JSON form of the router's
    :class:`StorageConfig`, from :func:`config_as_dict`).
    """
    parser = argparse.ArgumentParser(prog="repro-shard-worker")
    parser.add_argument("--fd", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--shard-id", type=int, default=0)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--config", default="{}")
    args = parser.parse_args(argv)
    sock = socket.socket(fileno=args.fd)
    config = config_from_dict(json.loads(args.config))
    engine = StorageEngine(args.dir, config)
    return ShardWorker(engine, sock, shard_id=args.shard_id,
                       threads=args.threads).serve()


if __name__ == "__main__":
    sys.exit(main())

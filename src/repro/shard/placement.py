"""Series → shard placement and the on-disk shard topology.

Placement is a pure function of the series name: ``crc32(name) mod N``.
No lookup table, no rebalancing state — any process that knows ``N``
computes the same owner, so the router, the CLI and an operator reading
``shards.json`` by hand all agree.  The cost is that ``N`` is fixed at
store-creation time; changing it means reloading (documented in
docs/OPERATIONS.md).

The topology is pinned in ``<store>/shards.json`` the first time a
store is opened with ``shards > 1``.  Every later open resolves the
shard count from that file, so ``repro serve --db store`` (no flag)
finds the right workers, and an explicit ``--shards M`` that disagrees
with the pinned ``N`` fails loudly instead of silently splitting the
keyspace differently.

:func:`open_store` is the single entry point the CLI and benches use:
``shards == 1`` returns a plain in-process
:class:`~repro.storage.engine.StorageEngine` over the root directory —
the fast path, byte- and pixel-identical to the pre-shard engine by
construction — while ``shards > 1`` returns a
:class:`~repro.shard.router.ShardRouter` over ``shard-NN/``
subdirectories, each of which is itself a complete single-engine store
(``repro fsck --db store/shard-00`` just works).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import zlib

from ..errors import StorageError
from ..storage.config import DEFAULT_CONFIG, TOPOLOGY_FILE, StorageConfig

#: Bumped only with a migration path.
TOPOLOGY_VERSION = 1

#: Sanity bound: more shards than this is a typo, not a deployment.
MAX_SHARDS = 64


def shard_of(name, n_shards):
    """The owning shard id for ``name``: ``crc32(name) mod n_shards``.

    Stable across processes, platforms and restarts (CRC-32 is defined
    byte-for-byte; no hash randomization), so placement never needs to
    be persisted per series.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(str(name).encode("utf-8")) % int(n_shards)


def shard_dir(data_dir, shard_id):
    """The store subdirectory owned by ``shard_id``."""
    return os.path.join(os.fspath(data_dir), "shard-%02d" % int(shard_id))


def topology_path(data_dir):
    """Absolute path of the store's ``shards.json``."""
    return os.path.join(os.fspath(data_dir), TOPOLOGY_FILE)


def read_topology(data_dir):
    """The pinned topology dict, or None for an unsharded store.

    Raises :class:`~repro.errors.StorageError` when the file exists but
    cannot be trusted (not JSON, wrong version, nonsense shard count) —
    a corrupt topology must never silently fall back to one shard.
    """
    path = topology_path(data_dir)
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise StorageError("cannot read shard topology %s: %s"
                           % (path, exc)) from exc
    if not isinstance(doc, dict) or doc.get("version") != TOPOLOGY_VERSION:
        raise StorageError("unsupported shard topology version in %s"
                           % path)
    shards = doc.get("shards")
    if not isinstance(shards, int) or isinstance(shards, bool) \
            or not 1 <= shards <= MAX_SHARDS:
        raise StorageError("invalid shard count %r in %s" % (shards, path))
    return doc


def write_topology(data_dir, n_shards):
    """Pin ``n_shards`` in the store root (atomic rename)."""
    doc = {"version": TOPOLOGY_VERSION, "shards": int(n_shards),
           "placement": "crc32"}
    path = topology_path(data_dir)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return doc


def config_as_dict(config):
    """A JSON-safe dict form of a :class:`StorageConfig` (enums → names).

    The router hands this to each worker on its command line; lives here
    (not in :mod:`~repro.shard.worker`) so importing the package never
    imports the worker module — ``python -m repro.shard.worker`` must be
    the first import of that module in the child or runpy warns.
    """
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        out[field.name] = value.name if isinstance(value, enum.Enum) \
            else value
    return out


def config_from_dict(data):
    """Rebuild a :class:`StorageConfig` from :func:`config_as_dict`."""
    from ..storage.encoding import Compression, Encoding
    kwargs = dict(data)
    for name, enum_cls in (("time_encoding", Encoding),
                           ("value_encoding", Encoding),
                           ("compression", Compression)):
        if name in kwargs and isinstance(kwargs[name], str):
            kwargs[name] = enum_cls[kwargs[name]]
    return StorageConfig(**kwargs)


def _has_unsharded_data(data_dir):
    """True when the store root already holds single-engine state."""
    root = os.fspath(data_dir)
    if os.path.exists(os.path.join(root, "catalog.meta")):
        return True
    try:
        names = os.listdir(root)
    except OSError:
        return False
    return any(n.endswith(".tsfile") for n in names)


def resolve_shards(data_dir, requested=None):
    """The effective shard count for a store.

    ``requested`` is the CLI's ``--shards`` (None = follow the store).
    The pinned topology always wins; a disagreeing explicit request is
    an error, as is sharding a store that already holds unsharded data
    (placement would orphan it).
    """
    pinned = read_topology(data_dir)
    if pinned is not None:
        n = pinned["shards"]
        if requested is not None and int(requested) != n:
            raise StorageError(
                "store %s is pinned to %d shard(s); --shards %d "
                "disagrees (reload the data to reshard)"
                % (data_dir, n, int(requested)))
        return n
    n = 1 if requested is None else int(requested)
    if not 1 <= n <= MAX_SHARDS:
        raise StorageError("shard count must be in [1, %d], got %d"
                           % (MAX_SHARDS, n))
    if n > 1 and _has_unsharded_data(data_dir):
        raise StorageError(
            "store %s already holds unsharded data; cannot open it with "
            "--shards %d (reload into a fresh sharded store)"
            % (data_dir, n))
    return n


def open_store(data_dir, config=DEFAULT_CONFIG, shards=None, **router_kw):
    """Open ``data_dir`` as an engine or a shard router.

    Resolves the shard count (pinned topology beats ``shards``; see
    :func:`resolve_shards`), then returns:

    * a plain :class:`~repro.storage.engine.StorageEngine` over the
      root directory when the count is 1 — the in-process fast path,
      byte- and pixel-identical to the pre-shard engine because it *is*
      that engine; or
    * a :class:`~repro.shard.router.ShardRouter` over ``shard-NN/``
      subdirectories when the count is larger, pinning the topology on
      first open.

    Extra keyword arguments go to the router (worker threads, request
    timeout).
    """
    n = resolve_shards(data_dir, shards)
    if n == 1:
        from ..storage.engine import StorageEngine
        return StorageEngine(data_dir, config)
    os.makedirs(os.fspath(data_dir), exist_ok=True)
    if read_topology(data_dir) is None:
        write_topology(data_dir, n)
    from .router import ShardRouter
    return ShardRouter(data_dir, config, shards=n, **router_kw)

"""Output checks: M4-LSM over the wire must equal M4-UDF in-process.

The paper's contract is that M4-LSM gives exactly the M4-UDF answer.
Every kept response is compared with a reference computed here from
:class:`M4UDFOperator` on the same store: query rows must encode to the
same JSON bytes, PBM images must be byte-equal to the chart drawn from
the reference result the way ``render_chart`` draws it.
"""

from __future__ import annotations

import json

import numpy as np


class DirectStore:
    """The engine(s) behind a store path, opened without the router:
    the root directory, or each ``shard-NN/`` of a sharded store."""

    def __init__(self, path, config=None):
        from repro.shard import resolve_shards
        from repro.storage import StorageConfig
        self._path = path
        self._config = config if config is not None else StorageConfig()
        self._shards = resolve_shards(path, None)
        self._engines = {}

    @property
    def sharded(self):
        return self._shards > 1

    def engine_for(self, series):
        """The (lazily opened) engine that owns ``series``."""
        from repro.shard import shard_dir, shard_of
        from repro.storage import StorageEngine
        shard = shard_of(series, self._shards)
        if shard not in self._engines:
            path = shard_dir(self._path, shard) if self.sharded \
                else self._path
            engine = StorageEngine(path, self._config)
            engine.flush_all()      # recovered WAL points become visible
            self._engines[shard] = engine
        return self._engines[shard]

    def close(self):
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()


class Reference:
    """Reference answers from a :class:`DirectStore`, cached per op."""

    def __init__(self, store):
        self._store = store
        self._cache = {}

    def matches(self, op, body):
        """Does the served ``body`` equal the reference answer?"""
        if op.key not in self._cache:
            self._cache[op.key] = self._answer(op.key)
        if op.key[0] == "render":
            return body == self._cache[op.key]
        try:
            served = json.loads(body)
        except ValueError:
            return False
        if served.get("degraded"):
            return False
        return json.dumps(served.get("rows")) == self._cache[op.key]

    def _answer(self, key):
        from repro import M4UDFOperator
        engine = self._store.engine_for(key[1])
        operator = M4UDFOperator(engine)
        if key[0] == "query":
            _, series, t_qs, t_qe, w = key
            result = operator.query(series, t_qs, t_qe, w)
            rows = [[i, s.first.t, s.first.v, s.last.t, s.last.v,
                     s.bottom.t, s.bottom.v, s.top.t, s.top.v]
                    for i, s in enumerate(result.spans) if not s.is_empty()]
            return json.dumps(rows)
        _, series, width, height = key
        from repro.viz.chart import to_pbm
        from repro.viz.raster import PixelGrid, rasterize
        chunks = engine.chunks_for(series)
        t_qs = min(c.start_time for c in chunks)
        t_qe = max(c.end_time for c in chunks) + 1
        reduced = operator.query(series, t_qs, t_qe, width).to_series()
        grid = PixelGrid(t_qs, t_qe, float(reduced.values.min()),
                         float(reduced.values.max()), width, height)
        return to_pbm(rasterize(reduced, grid)).encode("ascii")


def count_mismatches(reference, kept):
    """How many ``(op, body)`` pairs differ from the reference."""
    return sum(0 if reference.matches(op, body) else 1
               for op, body in kept)


def expected_feed(feed):
    """``(t, v)`` the feed series must hold: the preload, then every
    acked batch in ack order, last write winning per timestamp."""
    parts = [feed.preload_arrays()] + [feed.arrays(k)
                                       for k in feed.acked_ops]
    t = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    last = np.append(t[1:] != t[:-1], True)
    return t[last], v[last]


def lost_feed_points(engine, feed):
    """Acked points missing or holding a stale value after reopen."""
    from repro import M4UDFOperator
    t, v = expected_feed(feed)
    stored = M4UDFOperator(engine).merged_series(
        feed.name, int(t[0]), int(t[-1]) + 1)
    if np.array_equal(stored.timestamps, t):
        return int(np.count_nonzero(stored.values != v))
    found = np.isin(t, stored.timestamps)
    return int(t.size - np.count_nonzero(found)) or 1

"""Workload inputs: series shapes, store builders, op lists, digests.

Everything here is a pure function of ``(workload, seed, scale)``: the
same seed gives byte-identical stores and op lists (the op-list sha256
printed by every run proves two commits saw the same inputs).  The
program under test only ever sees the generated points and requests.

Sizes are a quarter of ISSUE 11's (250k-point series, not 1M) because
the driver allows ~30 s per run including three set-ups; the *regimes*
are kept: ~5 chunks per span on ``overview``, every chunk split many
times on ``zoom``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time

import numpy as np

CHUNK_POINTS = 1000        # StorageConfig default flush threshold
LOAD_BATCH = 10_000        # points per bulk-load write_batch
OVERLAP_POINTS = 900       # an overwrite stays below the flush threshold
SERIES_POINTS = 250_000    # per dashboard series at scale 1
SHAPES = ("regular", "gappy", "bursty", "skewed")
OVERVIEW_WIDTH, OVERVIEW_HEIGHT = 50, 100   # 250 chunks / 50 = 5 per span
ZOOM_SPANS = 256           # 4 whole tiles of 64 spans once snapped
ZOOM_FRACTIONS = (16, 64)  # viewport = range/16 then range/64
ZOOM_SESSIONS = 16         # per client
TILE_SESSIONS = 4          # per client: warm working set fits the cache
TILE_CACHE_BYTES = 64 << 20
FLEET_SERIES, FLEET_POINTS, FLEET_SPANS = 16, 31_250, 256
FEED_PRELOAD, FEED_BATCH, FEED_PERIOD = 125_400, 500, 10
FEED_WINDOW_POINTS, FEED_SPANS = 20_000, 100
FEED_MAX_OPS = 8192
CLIENTS = 2


@dataclasses.dataclass(frozen=True)
class Op:
    """One request, pre-encoded so the load generator's loop is thin.

    ``key`` identifies what was asked — ``("query", series, t_qs, t_qe,
    w)``, ``("render", series, width, height)`` or ``("ingest", index)``
    — and is what reference answers and digests are computed from.
    """

    kind: str          # "read" | "ingest"
    method: str
    path: str
    body: bytes
    key: tuple
    points: int = 0    # ingest only: points in the batch


def query_op(series, t_qs, t_qe, w):
    sql = ("SELECT M4(v) FROM %s WHERE time >= %d AND time < %d "
           "GROUP BY SPANS(%d)" % (series, t_qs, t_qe, w))
    return Op("read", "POST", "/query",
              json.dumps({"sql": sql}).encode("ascii"),
              ("query", series, int(t_qs), int(t_qe), int(w)))


def render_op(series, width, height):
    return Op("read", "GET",
              "/render?series=%s&format=pbm&width=%d&height=%d"
              % (series, width, height), b"",
              ("render", series, width, height))


def sql_of(op):
    """The SQL text of a query op."""
    return json.loads(op.body)["sql"]


class Source:
    """Where one client gets its ops from."""

    def next(self, i):
        """The client's ``i``-th op, or None when there is none left."""
        raise NotImplementedError

    def cycles(self, i):
        """Whole passes over a repeating op list after ``i`` ops."""
        return 0

    def done(self, op, ok):
        """Told after every reply (``ok`` = answered 200)."""


class StaticOps(Source):
    """A fixed op list a client cycles through."""

    def __init__(self, ops):
        self.ops = list(ops)

    def next(self, i):
        return self.ops[i % len(self.ops)]

    def cycles(self, i):
        return i // len(self.ops)


class WriteTimer:
    """Durations of the bulk load's calls into the engine write path."""

    def __init__(self):
        self.batch_s = []       # full LOAD_BATCH-point batches only
        self.flush_s = []
        self.other_s = 0.0
        self.points = 0

    def load(self, engine, name, t, v):
        """Bulk-load one series in ``LOAD_BATCH``-point batches (one
        smaller batch when the series is shorter), then flush it."""
        step = min(LOAD_BATCH, len(t))
        for lo in range(0, len(t), step):
            self.batch(engine, name, t[lo:lo + step], v[lo:lo + step],
                       full=lo + step <= len(t))
        self.flush(engine, name)

    def batch(self, engine, name, t, v, full=False):
        start = time.perf_counter()
        engine.write_batch(name, t, v)
        took = time.perf_counter() - start
        if full:
            self.batch_s.append(took)
        else:
            self.other_s += took
        self.points += int(len(t))

    def flush(self, engine, name):
        start = time.perf_counter()
        engine.flush(name)
        self.flush_s.append(time.perf_counter() - start)

    def other(self, fn, *args):
        start = time.perf_counter()
        fn(*args)
        self.other_s += time.perf_counter() - start

    @property
    def seconds(self):
        return sum(self.batch_s) + sum(self.flush_s) + self.other_s


@dataclasses.dataclass
class Inputs:
    """What one set-up produced: a loaded store plus the ops to send."""

    path: str
    sources: list            # one op source per client
    digest: str              # sha256 over every client's ops
    live_points: int         # readable points after set-up
    store_bytes: int         # bytes on disk after the bulk load
    writes: WriteTimer
    serve_args: tuple = ()   # extra `repro serve` arguments
    tile_cache_bytes: int = 0
    warm_cycles: int = 0     # op-list passes each client makes untimed
    feed: object = None      # ingest_mix only


# -- series shapes (after the paper's Table 2) ------------------------------

def shape_timestamps(kind, n, rng):
    """Strictly increasing int64 timestamps, mean period ~10."""
    if kind == "regular":
        deltas = np.full(n, 10, dtype=np.int64)
    elif kind == "gappy":      # transmission interruptions (KOB)
        deltas = np.full(n, 10, dtype=np.int64)
        gaps = rng.choice(n, size=max(n // 5000, 1), replace=False)
        deltas[gaps] += rng.integers(2_000, 50_000, gaps.size)
    elif kind == "bursty":     # dense bursts, sparse lulls (RcvTime)
        deltas = np.where((np.arange(n) // 2000) % 2 == 0, 2, 18) \
            .astype(np.int64)
    elif kind == "skewed":     # skewed sampling rate
        deltas = rng.geometric(0.1, n).astype(np.int64)
    else:
        raise ValueError("unknown shape %r" % kind)
    return np.cumsum(deltas)


def shape_values(n, rng):
    """A random walk plus noise: extremes land anywhere in a chunk."""
    return np.cumsum(rng.normal(size=n)) + 3.0 * rng.normal(size=n)


def dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else json.dumps(part, sort_keys=True).encode("ascii"))
    return h.hexdigest()


def _ops_digest(sources):
    return _digest([[op.method, op.path, op.body.decode("ascii")]
                    for source in sources for op in source.ops])


def _scaled(n, scale, floor):
    return max(int(n * scale), floor)


def _balanced(rng, names, count):
    """``count`` names in seeded order, each series equally often, so
    the op mix (and with it the cost of a run) does not drift by seed."""
    return [names[i] for i in
            rng.permutation(np.arange(count) % len(names))]


# -- the dashboard store (overview, zoom, pan_tiles) --------------------------

def build_dashboard(path, rng, scale):
    """4 series x 250k points, 10 % overlapping chunks, 20 deletes each."""
    from repro.storage import StorageConfig, StorageEngine
    n = _scaled(SERIES_POINTS, scale, 4 * CHUNK_POINTS)
    writes = WriteTimer()
    series_t = {}
    live = 0
    with StorageEngine(path, StorageConfig()) as engine:
        for kind in SHAPES:
            name = "root.perf." + kind
            t = shape_timestamps(kind, n, rng)
            v = shape_values(n, rng)
            series_t[name] = t
            engine.create_series(name)
            writes.load(engine, name, t, v)
            # Newer chunks straddling a chunk boundary: overwrites that
            # M4-LSM must resolve by version without merging.
            n_chunks = n // CHUNK_POINTS
            for c in sorted(rng.choice(n_chunks - 1, size=n_chunks // 10,
                                       replace=False)):
                lo = int(c) * CHUNK_POINTS + CHUNK_POINTS // 2
                writes.batch(engine, name, t[lo:lo + OVERLAP_POINTS],
                             v[lo:lo + OVERLAP_POINTS] + 1.0)
                writes.flush(engine, name)    # its own (short) chunk
            alive = np.ones(n, dtype=bool)
            for _ in range(20):
                lo = int(rng.integers(0, n - 50))
                hi = lo + int(rng.integers(5, 40))
                writes.other(engine.delete, name, int(t[lo]), int(t[hi]))
                alive[lo:hi + 1] = False
            live += int(alive.sum())
        writes.other(engine.flush_all)
    return series_t, live, writes


def _zoom_session(rng, name, where, series_t, spans, snap):
    """Zoom in twice around a focus, pan right four times, zoom out.
    ``where`` (0..1) says roughly where in the series the focus lies."""
    t = series_t[name]
    a, b = int(t[0]), int(t[-1]) + 1
    coarse, fine = (max((b - a) // f, 2 * spans) for f in ZOOM_FRACTIONS)
    focus = a + int((b - a) * (0.1 + 0.8 * where))
    views = [(focus - int(coarse * rng.uniform(0.3, 0.7)), coarse)]
    start = focus - int(fine * rng.uniform(0.3, 0.7))
    for _ in range(5):
        views.append((start, fine))
        start += fine // 2
    views.append((views[0][0] + coarse // 4, coarse))
    ops = []
    for start, length in views:
        start = min(max(start, a), b - length)   # stay inside the data
        end = start + length
        if snap:
            from repro.core.tiles import snap_viewport
            # onto the tile grid: whole tiles, no per-query edge runs
            start, end = snap_viewport(start, end, spans, tile_spans=64)
        ops.append(query_op(name, start, end, spans))
    return ops


def dashboard_inputs(workload, path, seed, scale):
    rng = np.random.default_rng([seed, 1])
    series_t, live, writes = build_dashboard(path, rng, scale)
    names = sorted(series_t)
    sources = []
    for client in range(CLIENTS):
        op_rng = np.random.default_rng([seed, 2, client])
        if workload == "overview":
            ops = [render_op(name, OVERVIEW_WIDTH, OVERVIEW_HEIGHT)
                   for name in _balanced(op_rng, names, 64)]
        else:
            tiles = workload == "pan_tiles"
            sessions = TILE_SESSIONS if tiles else ZOOM_SESSIONS
            # Stratified foci: every seed covers the whole range evenly,
            # so a run's cost does not depend on where the dice fell.
            places = (op_rng.permutation(sessions)
                      + op_rng.random(sessions)) / sessions
            ops = []
            for name, where in zip(_balanced(op_rng, names, sessions),
                                   places):
                ops += _zoom_session(op_rng, name, where, series_t,
                                     ZOOM_SPANS, tiles)
        sources.append(StaticOps(ops))
    inputs = Inputs(path, sources, _ops_digest(sources), live,
                    dir_bytes(path), writes)
    if workload == "pan_tiles":
        inputs.serve_args = ("--tile-cache", str(TILE_CACHE_BYTES))
        inputs.tile_cache_bytes = TILE_CACHE_BYTES
        inputs.warm_cycles = 1
    return inputs


# -- fleet_sharded ------------------------------------------------------------

def fleet_inputs(path, seed, scale):
    """16 series hash-placed over 2 shard worker processes."""
    from repro.shard import open_store
    from repro.storage import StorageConfig
    rng = np.random.default_rng([seed, 1])
    n = _scaled(FLEET_POINTS, scale, 4 * CHUNK_POINTS)
    writes = WriteTimer()
    series_t = {}
    with open_store(path, StorageConfig(), shards=2) as router:
        for i in range(FLEET_SERIES):
            name = "root.fleet.d%02d" % i
            t = shape_timestamps(SHAPES[i % len(SHAPES)], n, rng)
            v = shape_values(n, rng)
            series_t[name] = t
            router.create_series(name)
            writes.load(router, name, t, v)
        writes.other(router.flush_all)
    names = sorted(series_t)
    sources = []
    for client in range(CLIENTS):
        op_rng = np.random.default_rng([seed, 2, client])
        ops = [query_op(name, int(series_t[name][0]),
                        int(series_t[name][-1]) + 1, FLEET_SPANS)
               for name in _balanced(op_rng, names, 64)]
        sources.append(StaticOps(ops))
    return Inputs(path, sources, _ops_digest(sources),
                  FLEET_SERIES * n, dir_bytes(path), writes)


# -- ingest_mix ---------------------------------------------------------------

class Feed:
    """The ``ingest_mix`` series: what is written, in which order.

    Batch ``k`` is a pure function of ``(seed, k)``.  Nine in ten are
    tail appends filling the next 500-timestamp *slot*; one in ten is
    late: it lands 1-4 slots behind the newest one, overwriting every
    second timestamp there (last write wins) and adding a new point
    between the others.  A slot more than 5 behind the acked watermark
    can therefore never change again — reads end there, which is what
    makes them checkable against the final store.
    """

    name = "root.perf.feed"

    def __init__(self, seed, preload, batch=FEED_BATCH):
        self.seed = seed
        self.preload = preload
        self.batch = batch
        rng = np.random.default_rng([seed, 3])
        self.late = rng.random(FEED_MAX_OPS) < 0.10
        self.late[:8] = False
        self.lag = rng.integers(1, 5, FEED_MAX_OPS)
        # slots appended before op k
        self.slots_before = np.cumsum(~self.late) - (~self.late)
        self.acked_slots = 0      # published by the writer client
        self.acked_ops = []       # op indices acknowledged, in order

    def preload_arrays(self):
        rng = np.random.default_rng([self.seed, 4])
        t = (1 + np.arange(self.preload, dtype=np.int64)) * FEED_PERIOD
        return t, shape_values(self.preload, rng)

    def slot_start(self, slot):
        """First timestamp of an appended slot."""
        return (1 + self.preload + slot * self.batch) * FEED_PERIOD

    def arrays(self, k):
        """``(timestamps, values)`` of batch ``k``."""
        v = np.random.default_rng([self.seed, 5, k]).normal(size=self.batch)
        index = np.arange(self.batch, dtype=np.int64)
        if self.late[k]:
            slot = int(self.slots_before[k]) - 1 - int(self.lag[k])
            t = self.slot_start(slot) + index * FEED_PERIOD \
                + np.where(index % 2 == 0, FEED_PERIOD // 2, 0)
        else:
            t = self.slot_start(int(self.slots_before[k])) \
                + index * FEED_PERIOD
        return t, v

    def op(self, k):
        t, v = self.arrays(k)
        body = json.dumps({"series": self.name, "timestamps": t.tolist(),
                           "values": v.tolist()}).encode("ascii")
        return Op("ingest", "POST", "/ingest", body, ("ingest", k),
                  points=self.batch)

    def read_op(self, acked_slots, back=0):
        """The trailing-window query ending at the stable horizon."""
        end = self.slot_start(max(acked_slots - 5 - back, 0))
        start = max(end - FEED_WINDOW_POINTS * FEED_PERIOD, FEED_PERIOD)
        return query_op(self.name, start, end, FEED_SPANS)


class FeedWriter(Source):
    """Client A: batches in order; publishes the acked watermark."""

    def __init__(self, feed):
        self.feed = feed

    def next(self, i):
        return self.feed.op(i) if i < FEED_MAX_OPS else None

    def done(self, op, ok):
        if ok:
            k = op.key[1]
            self.feed.acked_ops.append(k)
            if not self.feed.late[k]:
                # One writer thread publishes, readers only load: a
                # plain int store is enough.
                self.feed.acked_slots = int(self.feed.slots_before[k]) + 1


class FeedReader(Source):
    """Client B: reads the trailing window behind the watermark."""

    def __init__(self, feed):
        self.feed = feed

    def next(self, i):
        return self.feed.read_op(self.feed.acked_slots)


def ingest_inputs(path, seed, scale):
    from repro.storage import StorageConfig, StorageEngine
    preload = _scaled(FEED_PRELOAD, scale, 4 * CHUNK_POINTS)
    feed = Feed(seed, preload)
    writes = WriteTimer()
    t, v = feed.preload_arrays()
    with StorageEngine(path, StorageConfig()) as engine:
        engine.create_series(feed.name)
        writes.load(engine, feed.name, t, v)
        writes.other(engine.flush_all)
    digest = _digest([feed.late.tolist(), feed.lag.tolist()]
                     + [feed.op(k).body for k in range(16)]
                     + [feed.read_op(64).body])
    return Inputs(path, [FeedWriter(feed), FeedReader(feed)], digest,
                  preload, dir_bytes(path), writes,
                  ("--ingest-ack", "applied"), feed=feed)


# -- registry -------------------------------------------------------------------

WORKLOADS = {
    "overview": "full-series PBM render, ~5 chunks per span: metadata "
                "candidates and rasterising dominate, page decode is rare",
    "zoom": "unaligned zoom-then-pan M4 queries splitting every chunk: "
            "lazy loads, index probes, page decode and JSON encode dominate",
    "pan_tiles": "the zoom sessions snapped to the tile grid with the tile "
                 "cache on: core.tiles does the work; zoom is its bypass "
                 "partner",
    "fleet_sharded": "full-range queries over 16 series on 2 shard worker "
                     "processes: the only workload with repro.shard on the "
                     "path",
    "ingest_mix": "500-point /ingest batches (10 % late) acked at 'applied' "
                  "beside trailing-window reads; SIGKILL, reopen, every "
                  "acked point must be there",
}


def make_inputs(workload, path, seed, scale=1.0):
    """Generate the inputs of ``workload`` and bulk-load its store."""
    if workload in ("overview", "zoom", "pan_tiles"):
        return dashboard_inputs(workload, path, seed, scale)
    if workload == "fleet_sharded":
        return fleet_inputs(path, seed, scale)
    if workload == "ingest_mix":
        return ingest_inputs(path, seed, scale)
    raise ValueError("unknown workload %r (choose from %s)"
                     % (workload, ", ".join(WORKLOADS)))

"""E19 — shard-count scaling: the shards = 1/2/4/8 sweep.

Two phases, one artifact (``benchmarks/BENCH_shards.json``, kind
``shards``):

**Identity.**  For every Table 2 dataset, the same points are loaded
into a pre-shard reference engine (:class:`StorageEngine` directly,
the exact code path every earlier experiment used) and into stores
opened through :func:`repro.shard.open_store` at each swept shard
count.  Query rows (``SELECT M4(v) ... SPANS(256)``) and the rendered
PBM bytes must match the reference *byte for byte* — at ``shards=1``
because the fast path literally is the old engine, at ``shards>1``
because a series lives wholly on one shard, so its result crosses the
pipe whole.  ``identical`` in each row is the AND over all datasets.

**Throughput.**  A multi-series store (series hash across shards) is
built per shard count and served by a real :mod:`repro.server`; the
E13 closed-loop session workload measures aggregate query throughput.
``speedup_vs_1`` is the ratio against the ``shards=1`` cell.  The
CI gate asserts shards=4 ≥ 2x shards=1 — *only* on machines with
``os.cpu_count() >= 4``, because shard-per-core scaling cannot
physically appear on fewer cores; the identity half gates everywhere
(see benchmarks/test_shard_scaling.py and EXPERIMENTS.md §E19).
"""

from __future__ import annotations

import os

from ..datasets.generators import PROFILES
from ..shard import open_store
from ..storage.config import StorageConfig
from ..storage.engine import StorageEngine
from ..viz.chart import to_pbm
from .experiments import DATASETS
from .report import BenchTable

#: The swept shard counts (E19's x-axis).
SHARD_COUNTS = (1, 2, 4, 8)

_WIDTH = 256
_HEIGHT = 64


def _identity_sql(series):
    return "SELECT M4(v) FROM %s GROUP BY SPANS(%d)" % (series, _WIDTH)


def _load_series(engine, plan, n_points):
    for seed, (name, dataset) in enumerate(plan):
        t, v = PROFILES[dataset].generate(n_points, seed=seed)
        engine.create_series(name)
        engine.write_batch(name, t, v)
    engine.flush_all()


def _fingerprints(engine, plan):
    """``{series: (rows, pbm)}`` — the byte-identity evidence."""
    out = {}
    for name, _dataset in plan:
        table = engine.execute_sql(_identity_sql(name))
        matrix, _ = engine.render_series(name, _WIDTH, _HEIGHT)
        out[name] = (tuple(table.rows), to_pbm(matrix))
    return out


def shard_identity(tmp_dir, n_points=6_000,
                   shard_counts=SHARD_COUNTS, progress=None):
    """``{shards: bool}`` — byte/pixel identity vs the pre-shard engine.

    One series per Table 2 dataset; the reference store is a plain
    :class:`StorageEngine` (never touched by :mod:`repro.shard`).
    """
    say = progress or (lambda msg: None)
    plan = [("root.id.%s" % d.lower(), d) for d in DATASETS]
    ref_dir = os.path.join(tmp_dir, "identity-ref")
    with StorageEngine(ref_dir, StorageConfig()) as reference:
        _load_series(reference, plan, n_points)
        expected = _fingerprints(reference, plan)
    verdict = {}
    for n in shard_counts:
        store = os.path.join(tmp_dir, "identity-%d" % n)
        with open_store(store, StorageConfig(), shards=n) as engine:
            _load_series(engine, plan, n_points)
            got = _fingerprints(engine, plan)
        verdict[n] = got == expected
        say("E19 identity shards=%d: %s"
            % (n, "byte-identical" if verdict[n] else "MISMATCH"))
    return verdict


def shard_scaling(tmp_dir, n_points=20_000, n_series=8, users=8,
                  duration=2.0, width=_WIDTH, timeout_ms=2_000,
                  workers=8, queue_depth=32,
                  shard_counts=SHARD_COUNTS, progress=None):
    """Run E19; returns ``(rows, table)``.

    ``rows`` match the artifact schema's ``shards`` kind; ``table`` is
    the human rendering.  The store holds ``n_series`` series cycling
    through the Table 2 dataset profiles so the hash placement actually
    spreads load, and every shard count is driven by the same
    closed-loop session workload against an identically-shaped server
    (same admission pool, same deadline).
    """
    from ..server import ServerConfig, start_server
    from ..server.workload import SessionWorkload
    say = progress or (lambda msg: None)
    identity = shard_identity(tmp_dir, shard_counts=shard_counts,
                              progress=progress)
    plan = [("root.sweep%02d" % i, DATASETS[i % len(DATASETS)])
            for i in range(n_series)]
    table = BenchTable(
        "E19 shard scaling: %d series, %d closed-loop users, %.1fs "
        "window, cpu_count=%d"
        % (n_series, users, duration, os.cpu_count() or 1),
        ["shards", "mode", "users", "total", "ok", "throughput (req/s)",
         "p50 (s)", "p95 (s)", "speedup vs 1", "identical"])
    rows = []
    base_throughput = None
    for n in shard_counts:
        store = os.path.join(tmp_dir, "sweep-%d" % n)
        engine = open_store(store, StorageConfig(), shards=n)
        _load_series(engine, plan, n_points)
        handle = start_server(
            engine, ServerConfig(port=0, quiet=True, workers=workers,
                                 queue_depth=queue_depth),
            own_engine=True)
        try:
            workload = SessionWorkload(handle.url, width=width, seed=n,
                                       timeout_ms=timeout_ms)
            report = workload.run_closed(users=users, duration=duration)
        finally:
            handle.stop()
        if base_throughput is None:
            base_throughput = report.throughput or 1e-9
        speedup = report.throughput / base_throughput
        say("E19 shards=%d: %.1f req/s (%.2fx vs shards=1)"
            % (n, report.throughput, speedup))
        rows.append({
            "experiment": "E19",
            "shards": n,
            "mode": report.mode,
            "users": report.users,
            "total": report.total,
            "ok": report.ok,
            "throughput": report.throughput,
            "p50_seconds": report.percentile(0.50),
            "p95_seconds": report.percentile(0.95),
            "speedup_vs_1": speedup,
            "identical": bool(identity.get(n, False)),
        })
        table.add_row(n, report.mode, report.users, report.total,
                      report.ok, report.throughput,
                      report.percentile(0.50), report.percentile(0.95),
                      speedup, identity.get(n, False))
    return rows, table

"""Tile cache under concurrency: invalidation racing queries.

The linearizability claim: because write/delete invalidate tiles while
holding the series *write* lock, and the tiled operator stitches while
holding the series *read* lock, a cached query observes either all of a
mutation or none of it.  The checkers here take the read lock once and
run the tiled and plain operators back to back under it — the two must
agree byte-for-byte no matter how writers interleave, cold or warm.

A second test hammers the bare ``TileCache`` with concurrent inserts,
lookups and invalidations to pin its internal accounting invariants
(byte budget, index consistency, epoch fencing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import M4LSMOperator, TiledM4Operator
from repro.core.tiles import TileCache, TileEntry
from repro.storage import StorageConfig, StorageEngine

from .harness import Interleaver, run_threads

DOMAIN = 4096
W = 64


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invalidation_vs_query(tmp_path, seed):
    # Batch size == flush threshold: every write_batch seals a chunk, so
    # checkers never hit the "unflushed points" guard (the same shape as
    # test_races.test_flush_vs_query).
    config = StorageConfig(avg_series_point_number_threshold=32,
                           points_per_page=16,
                           tile_cache_bytes=4 * 1024 * 1024,
                           tile_cache_spans=8)
    interleave = Interleaver(seed)
    rounds = 40
    with StorageEngine(tmp_path / "db", config) as engine:
        engine.create_series("s")
        t = np.arange(DOMAIN, dtype=np.int64)
        engine.write_batch("s", t, np.sin(t / 13.0) * 5)
        engine.flush_all()

        def writer(index):
            jitter = interleave.stream(index)
            rng = np.random.default_rng((seed, index))

            def work():
                for _ in range(rounds):
                    lo = int(rng.integers(0, DOMAIN - 64))
                    if rng.random() < 0.25:
                        engine.delete("s", lo, lo + 32)
                    else:
                        ts = np.arange(lo, lo + 32, dtype=np.int64)
                        engine.write_batch("s", ts, ts * 0.01)
                    jitter()
            return work

        def checker(index):
            jitter = interleave.stream(index)
            rng = np.random.default_rng((seed, index, 7))
            tiled = TiledM4Operator(engine)
            plain = M4LSMOperator(engine)

            def work():
                for _ in range(rounds):
                    # Power-of-two aligned viewports at random phases.
                    z = int(rng.integers(0, 3))
                    s = 1 << z
                    start = int(rng.integers(0, DOMAIN // (2 * s))) * s
                    end = start + W * s
                    # One read-lock hold = one stable snapshot: the
                    # cached and uncached answers must coincide in it.
                    with engine.series_lock("s").read():
                        a = tiled.query("s", start, end, W)
                        b = plain.query("s", start, end, W)
                    assert a == b, (z, start)
                    jitter()
            return work

        workers = [writer(0), writer(1)] + [checker(i)
                                            for i in range(2, 6)]
        run_threads(workers)
        # Quiescent final check over the whole domain, warm and cold.
        tiled = TiledM4Operator(engine)
        plain = M4LSMOperator(engine)
        expected = plain.query("s", 0, DOMAIN, W)
        assert tiled.query("s", 0, DOMAIN, W) == expected
        assert tiled.query("s", 0, DOMAIN, W) == expected
        cache = engine.tile_cache
        assert cache.bytes <= cache.capacity_bytes


@pytest.mark.parametrize("seed", [0, 1])
def test_cache_accounting_under_contention(seed):
    cache = TileCache(20_000, spans_per_tile=8)
    interleave = Interleaver(seed)
    n_threads, n_ops = 8, 300

    def worker(index):
        jitter = interleave.stream(index)
        rng = np.random.default_rng((seed, index))

        def work():
            for _ in range(n_ops):
                series = "s%d" % rng.integers(0, 3)
                tile = int(rng.integers(0, 40))
                roll = rng.random()
                if roll < 0.45:
                    epoch = cache.epoch(series)
                    jitter()
                    entry = TileEntry(cells=None, skipped=(),
                                      nbytes=int(rng.integers(50, 400)))
                    cache.insert(series, 0, tile, entry, epoch)
                elif roll < 0.8:
                    cache.lookup(series, 0, tile)
                elif roll < 0.95:
                    lo = tile * 8
                    cache.invalidate(series, lo, lo + 12)
                else:
                    cache.invalidate_series(series)
                assert cache.bytes <= cache.capacity_bytes
                jitter()
        return work

    run_threads([worker(i) for i in range(n_threads)])
    # Final bookkeeping consistency: stats, snapshot and the byte sum
    # all agree after the dust settles.
    stats = cache.stats()
    snapshot = cache.snapshot()
    assert stats["tiles"] == len(snapshot) == len(cache)
    assert stats["bytes"] == sum(e.nbytes for _s, _z, _k, e in snapshot)
    assert stats["bytes"] <= cache.capacity_bytes

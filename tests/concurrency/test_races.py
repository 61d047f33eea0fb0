"""Targeted race regressions, one test per historical hazard.

Each test pins down a specific interleaving the thread-safety layer
must survive: flush racing queries, concurrent flush_all, racing
series creation, and concurrent obs.json persistence (which must never
leave a torn file).  Interleavings are explored with seeded jitter so a
failing seed can be replayed.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.m4lsm import M4LSMOperator
from repro.storage import StorageConfig, StorageEngine

from .harness import Interleaver, run_threads


@pytest.mark.parametrize("seed", [0, 1])
def test_flush_vs_query(tmp_path, seed):
    """One thread writes+flushes, another queries the same series.

    Queries must only ever see fully sealed chunks: every chunk list
    snapshot is a prefix of the next (append-only), and every M4 query
    over the committed range succeeds without torn reads.
    """
    config = StorageConfig(avg_series_point_number_threshold=40,
                           points_per_page=20, chunks_per_tsfile=4)
    engine = StorageEngine(tmp_path / "db", config)
    engine.create_series("s")
    interleave = Interleaver(seed)
    rounds = 100

    def writes():
        jitter = interleave.stream(0)
        for it in range(rounds):
            t = (it * 40 + np.arange(40, dtype=np.int64)) * 5
            engine.write_batch("s", t, t * 0.5)
            jitter()

    def queries():
        jitter = interleave.stream(1)
        seen = 0
        for _ in range(rounds):
            chunks = engine.chunks_for("s")
            assert len(chunks) >= seen, "chunk list went backwards"
            seen = len(chunks)
            if chunks:
                t_qe = max(c.end_time for c in chunks) + 1
                result = M4LSMOperator(engine).query("s", 0, t_qe, 8)
                for span in result.spans:
                    for p in (span.first, span.last, span.bottom,
                              span.top):
                        if p is not None:
                            assert p.v == p.t * 0.5
            jitter()

    try:
        run_threads([writes, queries])
    finally:
        engine.close()


def test_concurrent_flush_all(tmp_path):
    """flush_all racing flush_all (and itself racing writers) must not
    drop, duplicate, or double-seal points."""
    config = StorageConfig(avg_series_point_number_threshold=1_000,
                           points_per_page=100)
    engine = StorageEngine(tmp_path / "db", config)
    names = ["f%d" % i for i in range(4)]
    for name in names:
        engine.create_series(name)
        t = np.arange(150, dtype=np.int64) * 3
        engine.write_batch(name, t, t * 1.0)  # buffered: below threshold

    try:
        run_threads([engine.flush_all for _ in range(6)])
        for name in names:
            assert engine.total_points(name) == 150
    finally:
        engine.close()


def test_concurrent_create_series(tmp_path):
    """Racing create_series on same and distinct names: ids stay unique,
    re-creation is idempotent, the catalog holds each series once."""
    engine = StorageEngine(tmp_path / "db", StorageConfig())
    n_threads = 8

    def creator(index):
        def work():
            shared = engine.create_series("shared")
            own = engine.create_series("own-%d" % index)
            assert engine.create_series("own-%d" % index) == own
            return shared, own
        return work

    try:
        results = run_threads([creator(i) for i in range(n_threads)])
        shared_ids = {shared for shared, _own in results}
        own_ids = [own for _shared, own in results]
        assert len(shared_ids) == 1
        assert len(set(own_ids)) == n_threads
        assert shared_ids.isdisjoint(own_ids)
        assert sorted(engine.series_names()) \
            == sorted(["shared"] + ["own-%d" % i for i in range(n_threads)])
    finally:
        engine.close()
    # Reopen: the catalog replayed exactly one entry per series.
    with StorageEngine(engine.data_dir) as reopened:
        assert sorted(reopened.series_names()) \
            == sorted(["shared"] + ["own-%d" % i for i in range(n_threads)])


def test_persist_obs_is_atomic(tmp_path):
    """Concurrent obs.json writers + a hot JSON reader: every read must
    parse.  A torn write (truncated JSON) would poison the next engine
    startup; the unique-temp + rename protocol makes that impossible."""
    engine = StorageEngine(tmp_path / "db", StorageConfig())
    engine.create_series("s")
    t = np.arange(200, dtype=np.int64)
    engine.write_batch("s", t, t * 1.0)
    engine.flush_all()
    obs_path = engine._obs_path()
    stop = threading.Event()

    def persister():
        for _ in range(50):
            engine._persist_obs()

    def reader():
        parsed = 0
        while not stop.is_set() or parsed == 0:
            try:
                with open(obs_path, "r", encoding="utf-8") as f:
                    raw = f.read()
            except FileNotFoundError:
                continue
            data = json.loads(raw)  # a torn file raises here
            assert "metrics" in data and "iostats" in data
            parsed += 1
        return parsed

    def persist_then_stop():
        try:
            run_threads([persister for _ in range(4)], barrier=False)
        finally:
            stop.set()

    try:
        writers_done = threading.Thread(target=persist_then_stop)
        writers_done.start()
        assert reader() > 0
        writers_done.join(30)
        assert not writers_done.is_alive()
        # No temp litter left behind.
        leftovers = [p for p in (tmp_path / "db").iterdir()
                     if p.name.startswith("obs.json.")]
        assert leftovers == []
    finally:
        engine.close()

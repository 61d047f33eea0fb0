"""Property-based concurrency tests.

Two properties the thread-safety layer must uphold for *any* workload,
not just the hand-picked stress schedules:

* **per-series linearizability** — threads applying arbitrary op
  sequences (write batches and deletes) to their own series
  concurrently must leave each series in exactly the state produced by
  running that thread's sequence alone on a solo engine.  Cross-thread
  interleaving shifts global version numbers around, but per-series
  version order follows program order, so the merged output is
  invariant.
* **ChunkCache invariants** — under arbitrary concurrent get/put
  streams the points budget is never exceeded and hit+miss accounting
  matches the number of gets exactly (no lost updates).

Thread scheduling is an input Hypothesis cannot minimize, so examples
stay few and small: the value here is many *shapes* of op sequences,
with the heavy schedule exploration left to tests/concurrency.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import StorageConfig, StorageEngine
from repro.storage.cache import ChunkCache
from repro.storage.iostats import IoStats


def _op_sequence():
    """One thread's program: a list of write-batch / delete ops."""
    write = st.tuples(st.just("write"), st.integers(1, 40))
    delete = st.tuples(st.just("delete"), st.integers(0, 300),
                       st.integers(0, 100))
    return st.lists(st.one_of(write, delete), min_size=1, max_size=6)


def _apply(engine, name, ops):
    """Run one op sequence against one series, deterministically.

    Writes append monotonically (each batch continues where the last
    ended); deletes cover ``[start, start+length]``.
    """
    next_t = 0
    for op in ops:
        if op[0] == "write":
            _tag, count = op
            t = np.arange(next_t, next_t + count, dtype=np.int64) * 7
            engine.write_batch(name, t, (t % 13) * 0.5)
            next_t += count
        else:
            _tag, start, length = op
            engine.delete(name, start, start + length)


def _final_state(engine, name):
    engine.flush(name)
    from repro.storage.merge import merge_arrays
    reader = engine.data_reader()
    chunks = [(*reader.load_chunk(meta), meta.version)
              for meta in engine.chunks_for(name)]
    t, v = merge_arrays(chunks, engine.deletes_for(name))
    return t.tolist(), v.tolist()


@given(st.lists(_op_sequence(), min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_concurrent_equals_sequential_per_series(tmp_path_factory,
                                                 programs):
    config = StorageConfig(avg_series_point_number_threshold=25,
                           points_per_page=10)
    base = tmp_path_factory.mktemp("prop-conc")
    names = ["s%d" % i for i in range(len(programs))]

    with StorageEngine(base / "concurrent", config) as concurrent:
        for name in names:
            concurrent.create_series(name)
        barrier = threading.Barrier(len(programs))
        errors = []

        def worker(name, ops):
            try:
                barrier.wait(timeout=30)
                _apply(concurrent, name, ops)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(name, ops))
                   for name, ops in zip(names, programs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads), "deadlock"
        concurrent_states = {name: _final_state(concurrent, name)
                             for name in names}

    # Replay each program alone; the per-series outcome must be equal.
    for name, ops in zip(names, programs):
        with StorageEngine(base / ("solo-%s" % name), config) as solo:
            solo.create_series(name)
            _apply(solo, name, ops)
            assert _final_state(solo, name) == concurrent_states[name], \
                "series %s diverged from its sequential replay" % name


@given(st.integers(50, 400),
       st.lists(st.tuples(st.booleans(), st.integers(0, 30)),
                min_size=1, max_size=60),
       st.integers(0, 4))
@settings(max_examples=15, deadline=None)
def test_chunk_cache_invariants_under_concurrency(capacity, ops, seed):
    stats = IoStats()
    cache = ChunkCache(capacity_points=capacity, stats=stats)
    arrays = {k: np.arange(k % 45 + 5) for k in range(31)}
    n_threads = 4
    gets = [0] * n_threads

    def worker(index):
        rng = np.random.default_rng((seed, index))
        for is_get, key in ops:
            if rng.random() < 0.3:  # thread-local shuffle of the plan
                is_get = not is_get
            if is_get:
                got = cache.get(key)
                gets[index] += 1
                if got is not None:
                    assert got.size == key % 45 + 5
            else:
                cache.put(key, arrays[key])
            assert cache.points <= cache.capacity

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads), "deadlock"
    counts = cache.stats()
    assert counts["hits"] + counts["misses"] == sum(gets)
    assert counts["points"] <= capacity
    assert stats.cache_hits == counts["hits"]
    assert stats.cache_misses == counts["misses"]

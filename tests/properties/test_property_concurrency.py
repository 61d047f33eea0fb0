"""Property-based concurrency tests.

The property the thread-safety layer must uphold for *any* workload,
not just the hand-picked stress schedules, is **per-series
linearizability**: threads applying arbitrary op sequences (write
batches and deletes) to their own series concurrently must leave each
series in exactly the state produced by running that thread's sequence
alone on a solo engine.  Cross-thread interleaving shifts global
version numbers around, but per-series version order follows program
order, so the merged output is invariant.

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

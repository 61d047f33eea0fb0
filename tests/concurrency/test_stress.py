"""Concurrency stress suite: N writers + M readers on one engine.

Two regimes, both at 8 threads x 100 iterations:

* **pixel-exact reads** — each writer appends monotonically to its own
  series in exact flush-threshold multiples, so every committed prefix
  is a sealed-chunk snapshot; readers re-derive the expected M4 result
  by replaying the deterministic value function over the committed
  prefix and demand *exact* equality.  This is the linearizability
  claim made executable: a concurrent M4 query equals a serial query
  over some committed prefix.
* **mixed operations** — writers, range-deleters and readers race on
  shared state (plus flush_all calls); afterwards the store must hold
  exactly the written points minus the deleted ranges, with both
  operators agreeing.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.m4 import M4UDFOperator, m4_aggregate_arrays
from repro.core.m4lsm import M4LSMOperator
from repro.storage import StorageConfig, StorageEngine

from .harness import Interleaver, run_threads

N_WRITERS = 4
N_READERS = 4
ITERATIONS = 100
THRESHOLD = 50           # flush threshold; writers commit exact multiples
STEP = 10                # regular time step, so prefixes are derivable
W = 16                   # spans per stress query


def _config():
    return StorageConfig(avg_series_point_number_threshold=THRESHOLD,
                         points_per_page=20)


def _value_of(t):
    """The deterministic value function every thread can re-derive."""
    t = np.asarray(t, dtype=np.int64)
    return np.round(np.sin(t * 1e-3) * 100.0 + (t % 97) * 0.25, 6)


def test_writers_vs_readers_pixel_exact(tmp_path):
    engine = StorageEngine(tmp_path / "db", _config())
    series = ["w%d" % i for i in range(N_WRITERS)]
    for name in series:
        engine.create_series(name)
    interleave = Interleaver(seed=42)

    def writer(index):
        name = series[index]
        jitter = interleave.stream(index)

        def work():
            for it in range(ITERATIONS):
                base = it * THRESHOLD
                t = (base + np.arange(THRESHOLD, dtype=np.int64)) * STEP
                engine.write_batch(name, t, _value_of(t))
                jitter()
        return work

    def reader(index):
        jitter = interleave.stream(N_WRITERS + index)

        def work():
            for it in range(ITERATIONS):
                name = series[(index + it) % N_WRITERS]
                chunks = engine.chunks_for(name)
                if not chunks:
                    continue
                t_qs = min(c.start_time for c in chunks)
                t_qe = max(c.end_time for c in chunks) + 1
                use_udf = bool(it % 2)
                operator = M4UDFOperator(engine) if use_udf \
                    else M4LSMOperator(engine)
                result = operator.query(name, t_qs, t_qe, W)
                # Serial replay of the committed prefix: timestamps are
                # k*STEP for k in [0, n), values from the shared value
                # function.  Later writes land at t >= t_qe (monotone
                # append), so they cannot leak into this range.
                n = (t_qe - 1) // STEP + 1
                t_all = np.arange(n, dtype=np.int64) * STEP
                expected = m4_aggregate_arrays(t_all, _value_of(t_all),
                                               t_qs, t_qe, W)
                assert result.semantically_equal(expected), \
                    "query over committed prefix [%d, %d) of %r is not " \
                    "pixel-exact" % (t_qs, t_qe, name)
                if use_udf:
                    # The UDF path runs the very same scan as the
                    # replay, so it must match bit for bit.
                    assert result == expected
                jitter()
        return work

    try:
        run_threads([writer(i) for i in range(N_WRITERS)]
                    + [reader(j) for j in range(N_READERS)])
        # Quiescent check: every point of every writer arrived intact.
        engine.flush_all()
        for name in series:
            n = ITERATIONS * THRESHOLD
            assert engine.total_points(name) == n
    finally:
        engine.close()


def test_mixed_write_delete_query_stress(tmp_path):
    engine = StorageEngine(tmp_path / "db", _config())
    series = ["m%d" % i for i in range(3)]
    for name in series:
        engine.create_series(name)
    interleave = Interleaver(seed=7)

    # watermarks[name]: highest committed (flushed) exclusive time bound.
    watermarks = {name: 0 for name in series}
    deleted = {name: [] for name in series}  # closed [a, b] ranges
    book_lock = threading.Lock()

    def writer(index):
        name = series[index]
        jitter = interleave.stream(index)

        def work():
            for it in range(ITERATIONS):
                base = it * THRESHOLD
                t = (base + np.arange(THRESHOLD, dtype=np.int64)) * STEP
                engine.write_batch(name, t, _value_of(t))
                with book_lock:
                    watermarks[name] = int(t[-1]) + 1
                jitter()
        return work

    def deleter(index):
        import random
        rng = random.Random(99_000 + index)
        jitter = interleave.stream(3 + index)

        def work():
            for _ in range(ITERATIONS // 2):
                name = rng.choice(series)
                with book_lock:
                    high = watermarks[name]
                if high < 4 * STEP:
                    continue
                # Delete strictly below the committed watermark: those
                # points are sealed with versions older than this
                # delete's, and the writer never revisits old times —
                # so the range is deterministically gone forever.
                a = rng.randrange(0, high - 2 * STEP)
                b = min(a + rng.randrange(1, 3 * STEP), high - 1)
                engine.delete(name, a, b)
                with book_lock:
                    deleted[name].append((a, b))
                jitter()
        return work

    def reader(index):
        import random
        rng = random.Random(123_000 + index)
        jitter = interleave.stream(5 + index)

        def work():
            for it in range(ITERATIONS):
                name = rng.choice(series)
                with book_lock:
                    high = watermarks[name]
                if high <= 0:
                    continue
                operator = M4UDFOperator(engine) if it % 2 \
                    else M4LSMOperator(engine)
                result = operator.query(name, 0, high, W)
                # Every surviving representation point must carry the
                # value function's value — torn reads would not.
                for span in result.spans:
                    for point in (span.first, span.last, span.bottom,
                                  span.top):
                        if point is None:
                            continue
                        assert 0 <= point.t < high
                        assert point.v == float(_value_of([point.t])[0])
                jitter()
        return work

    def flusher():
        for _ in range(ITERATIONS // 4):
            engine.flush_all()

    try:
        run_threads([writer(i) for i in range(3)]
                    + [deleter(i) for i in range(2)]
                    + [reader(i) for i in range(2)]
                    + [flusher])
        engine.flush_all()
        # Quiescent replay: exactly the written points minus the
        # recorded deleted ranges, and both operators agree.
        for name in series:
            n = ITERATIONS * THRESHOLD
            t_all = np.arange(n, dtype=np.int64) * STEP
            keep = np.ones(n, dtype=bool)
            for a, b in deleted[name]:
                keep &= ~((t_all >= a) & (t_all <= b))
            expected_t = t_all[keep]
            udf = M4UDFOperator(engine)
            merged = udf.merged_series(name, 0, int(t_all[-1]) + 1)
            np.testing.assert_array_equal(merged.timestamps, expected_t)
            np.testing.assert_array_equal(merged.values,
                                          _value_of(expected_t))
            a = udf.query(name, 0, int(t_all[-1]) + 1, W)
            b = M4LSMOperator(engine).query(name, 0, int(t_all[-1]) + 1, W)
            assert a.semantically_equal(b)
    finally:
        engine.close()

"""The execution slot's lock order: slot before series, writers never.

A query holds the process's execution slot for its whole engine work,
so the slot is the outermost lock.  A query inside the slot may block
on a series write lock; that is safe only because writers never take
the slot, so the writer always finishes and the query goes on.  Every
thread is joined with a timeout: a deadlock fails the test.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.storage import StorageConfig, StorageEngine

COUNT = "SELECT COUNT(v) FROM %s GROUP BY SPANS(1)"


def _load(engine, name, n):
    engine.create_series(name)
    engine.write_batch(name, np.arange(n, dtype=np.int64),
                       np.arange(n, dtype=np.float64))
    engine.flush_all()


def _started(fn):
    out = {}

    def run():
        out["table"] = fn()
        out["done"] = time.monotonic()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def test_reader_in_slot_waits_for_writer_that_never_takes_it(tmp_path):
    with StorageEngine(tmp_path / "db", StorageConfig()) as engine:
        _load(engine, "s1", 100)
        _load(engine, "s2", 50)
        held, go = threading.Event(), threading.Event()

        def writer():
            lock = engine.series_lock("s1")
            with lock.write():
                held.set()
                go.wait(10)
                # Re-enters its own write lock while the reader sits
                # inside the slot: a writer taking the slot deadlocks.
                engine.write_batch("s1", np.array([1000], dtype=np.int64),
                                   np.array([1.0]))
                engine.flush("s1")

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        assert held.wait(10)
        slot_waits = engine.metrics.histogram("exec_slot_wait_seconds")
        entered = slot_waits.count + 1
        reader1, out1 = _started(lambda: engine.execute_sql(COUNT % "s1"))
        deadline = time.monotonic() + 10
        while slot_waits.count < entered:   # recorded once it holds it
            assert time.monotonic() < deadline, "reader never took the slot"
            time.sleep(0.005)
        reader2, out2 = _started(lambda: engine.execute_sql(COUNT % "s2"))
        time.sleep(0.2)
        # s1's reader holds the slot and waits on the write lock; s2's
        # reader, on a series nobody writes, waits for the slot alone.
        assert reader1.is_alive() and reader2.is_alive()
        go.set()
        for thread in (writer_thread, reader1, reader2):
            thread.join(10)
            assert not thread.is_alive(), "deadlock: %s" % thread.name
        # The s1 read took effect after the write it waited for.
        assert out1["table"].rows[0][-1] == 101
        assert out2["table"].rows[0][-1] == 50
        assert out1["done"] <= out2["done"]

"""Lock unit tests: RWLock reentrancy, exclusion, writer preference;
the execution slot's reentrancy, exclusion and deadline."""

from __future__ import annotations

import threading
import time

import pytest

from repro.storage import RWLock


def test_many_concurrent_readers():
    lock = RWLock()
    inside = []
    barrier = threading.Barrier(4)

    def reader():
        with lock.read():
            barrier.wait(timeout=10)  # all 4 hold the read side at once
            inside.append(1)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert len(inside) == 4


def test_writer_is_exclusive():
    lock = RWLock()
    counter = {"value": 0, "max_seen": 0}

    def writer():
        for _ in range(200):
            with lock.write():
                counter["value"] += 1
                counter["max_seen"] = max(counter["max_seen"],
                                          counter["value"])
                counter["value"] -= 1

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert counter["max_seen"] == 1  # never two writers inside


def test_write_lock_is_reentrant():
    lock = RWLock()
    with lock.write():
        with lock.write():
            with lock.read():   # holder may take the read side too
                pass
    # Fully released: another thread can now acquire (and release).
    def other():
        lock.acquire_write()
        lock.release_write()

    t = threading.Thread(target=other)
    t.start()
    t.join(5)
    assert not t.is_alive()


def test_read_lock_is_reentrant():
    lock = RWLock()
    with lock.read():
        with lock.read():
            pass
    with lock.write():  # fully released afterwards
        pass


def test_read_to_write_upgrade_raises():
    lock = RWLock()
    with lock.read():
        with pytest.raises(RuntimeError):
            lock.acquire_write()


def test_reader_blocks_writer_until_release():
    lock = RWLock()
    order = []
    lock.acquire_read()

    def writer():
        with lock.write():
            order.append("writer")

    t = threading.Thread(target=writer)
    t.start()
    time.sleep(0.05)
    assert order == []  # writer parked behind the reader
    order.append("reader-release")
    lock.release_read()
    t.join(5)
    assert order == ["reader-release", "writer"]


def test_waiting_writer_blocks_new_readers():
    """Writer preference: once a writer waits, fresh readers queue
    behind it instead of starving it."""
    lock = RWLock()
    events = []
    lock.acquire_read()
    writer_waiting = threading.Event()

    def writer():
        writer_waiting.set()
        with lock.write():
            events.append("writer")

    def late_reader():
        writer_waiting.wait(5)
        time.sleep(0.05)  # let the writer reach its wait loop
        with lock.read():
            events.append("late-reader")

    tw = threading.Thread(target=writer)
    tr = threading.Thread(target=late_reader)
    tw.start()
    tr.start()
    time.sleep(0.15)
    lock.release_read()
    tw.join(5)
    tr.join(5)
    assert events == ["writer", "late-reader"]


def test_release_errors():
    lock = RWLock()
    with pytest.raises(RuntimeError):
        lock.release_read()
    with pytest.raises(RuntimeError):
        lock.release_write()


class TestLockWaitObs:
    """Contention observability: wait times land in histograms and,
    inside a detailed request trace, as ``lock.wait`` spans."""

    def _observed(self, registry, side):
        snapshot = registry.snapshot()["histograms"]
        key = 'lock_wait_seconds{series="s1",side="%s"}' % side
        return snapshot[key]["count"] if key in snapshot else 0

    def test_uncontended_acquisitions_are_recorded(self):
        from repro.obs import MetricsRegistry
        from repro.storage.locks import LockWaitObs

        registry = MetricsRegistry()
        lock = RWLock(obs=LockWaitObs(registry, "s1"))
        with lock.read():
            pass
        with lock.write():
            pass
        assert self._observed(registry, "read") == 1
        assert self._observed(registry, "write") == 1

    def test_reentrant_acquisitions_are_not_timed(self):
        from repro.obs import MetricsRegistry
        from repro.storage.locks import LockWaitObs

        registry = MetricsRegistry()
        lock = RWLock(obs=LockWaitObs(registry, "s1"))
        with lock.write():
            with lock.write():      # reentrant: cannot wait
                pass
            with lock.read():       # holder re-entering the read side
                pass
        assert self._observed(registry, "write") == 1
        assert self._observed(registry, "read") == 0

    def test_contended_wait_is_measured(self):
        from repro.obs import MetricsRegistry
        from repro.storage.locks import LockWaitObs

        registry = MetricsRegistry()
        lock = RWLock(obs=LockWaitObs(registry, "s1"))
        lock.acquire_write()
        waited = []

        def reader():
            started = time.perf_counter()
            with lock.read():
                waited.append(time.perf_counter() - started)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        lock.release_write()
        thread.join(5)
        snapshot = registry.snapshot()["histograms"]
        entry = snapshot['lock_wait_seconds{series="s1",side="read"}']
        assert entry["count"] == 1
        assert entry["sum"] >= 0.04  # saw most of the 50ms hold

    def test_wait_attaches_to_an_active_detailed_trace(self):
        from repro.obs import MetricsRegistry, Tracer
        from repro.storage.locks import LockWaitObs

        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        lock = RWLock(obs=LockWaitObs(registry, "s1"))
        root = tracer.root_span("request", endpoint="test")
        with root:
            with lock.read():
                pass
        waits = root.find_all("lock.wait")
        assert len(waits) == 1
        assert waits[0].attrs == {"series": "s1", "side": "read"}

    def test_no_trace_means_no_span_but_still_a_histogram(self):
        from repro.obs import MetricsRegistry
        from repro.storage.locks import LockWaitObs

        registry = MetricsRegistry()
        lock = RWLock(obs=LockWaitObs(registry, "s1"))
        with lock.read():
            pass
        assert self._observed(registry, "read") == 1


class TestExecSlot:
    """The execution slot: reentrant, exclusive, timed like RWLock."""

    def test_reentrant_holds_wait_and_are_timed_once(self):
        from repro.obs import MetricsRegistry
        from repro.storage.locks import ExecSlot

        registry = MetricsRegistry()
        slot = ExecSlot()
        with slot.hold(registry):
            with slot.hold(registry):
                pass
        assert registry.histogram("exec_slot_wait_seconds").count == 1
        with slot.hold(registry):  # fully released: free to take again
            pass
        assert registry.histogram("exec_slot_wait_seconds").count == 2

    def test_expired_wait_leaves_the_slot_usable(self):
        from repro.errors import DeadlineExceededError
        from repro.obs.metrics import NULL_REGISTRY
        from repro.storage.deadline import Deadline, deadline_scope
        from repro.storage.locks import ExecSlot

        slot = ExecSlot()
        outcome = []

        def waiter():
            with deadline_scope(Deadline(0.05)):
                try:
                    with slot.hold(NULL_REGISTRY):
                        outcome.append("entered")
                except DeadlineExceededError:
                    outcome.append("expired")

        with slot.hold(NULL_REGISTRY):
            thread = threading.Thread(target=waiter)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
        assert outcome == ["expired"]
        thread = threading.Thread(target=waiter)
        thread.start()
        thread.join(10)
        assert not thread.is_alive() and outcome == ["expired", "entered"]

    def test_one_holder_at_a_time_under_forced_switches(self):
        import sys

        from repro.obs.metrics import NULL_REGISTRY
        from repro.storage.locks import ExecSlot

        slot = ExecSlot()
        inside = [0]
        peak = [0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker():
                for _ in range(300):
                    with slot.hold(NULL_REGISTRY):
                        with slot.hold(NULL_REGISTRY):
                            inside[0] += 1
                            peak[0] = max(peak[0], inside[0])
                            inside[0] -= 1

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1 and inside[0] == 0

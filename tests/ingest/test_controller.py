"""Unit tests for :class:`repro.ingest.IngestController`."""

import threading

import numpy as np
import pytest

from repro.core import M4UDFOperator
from repro.errors import IngestBackpressureError, SeriesNotFoundError
from repro.ingest import IngestController, LiveFeed, batch_nbytes


def _counter(engine, name):
    doc = engine.metrics.snapshot()["counters"].get(name)
    return doc["value"] if doc else 0


@pytest.fixture
def controller(engine):
    ctl = IngestController(engine)
    yield ctl
    ctl.close()


def _batch(lo, n):
    t = np.arange(lo, lo + n, dtype=np.int64)
    return t, np.sin(t * 0.01)


class TestSubmitAndApply:
    def test_ack_shape(self, controller):
        t, v = _batch(0, 50)
        ack = controller.submit("s", t, v)
        assert ack["accepted"] == 50
        assert ack["pending_batches"] >= 0
        assert ack["pending_bytes"] >= 0

    def test_points_become_queryable(self, engine, controller):
        t, v = _batch(0, 300)
        controller.submit("s", t, v)
        assert controller.drain()
        merged = M4UDFOperator(engine).merged_series("s", 0, 300)
        assert np.array_equal(merged.timestamps, t)
        assert np.array_equal(merged.values, v)

    def test_apply_order_is_accept_order(self, engine, controller):
        t, _ = _batch(0, 20)
        controller.submit("s", t, np.full(20, 1.0))
        controller.submit("s", t, np.full(20, 2.0))  # same timestamps
        assert controller.drain()
        merged = M4UDFOperator(engine).merged_series("s", 0, 20)
        assert np.all(merged.values == 2.0)  # last write won

    def test_out_of_order_batches_counted(self, engine, controller):
        controller.submit("s", *_batch(100, 50))
        controller.drain()
        controller.submit("s", *_batch(0, 50))  # behind the watermark
        controller.drain()
        assert _counter(engine, "ingest_out_of_order_batches_total") == 1
        assert _counter(engine, "ingest_points_total") == 100

    def test_auto_create_off_rejects_unknown_series(self, engine):
        ctl = IngestController(engine, auto_create=False)
        try:
            with pytest.raises(SeriesNotFoundError):
                ctl.submit("nope", *_batch(0, 5))
            engine.create_series("known")
            ctl.submit("known", *_batch(0, 5))
            assert ctl.drain()
        finally:
            ctl.close()

    @pytest.mark.parametrize("t, v", [
        ([], []),
        ([1, 2], [1.0]),
        ([[1, 2]], [[1.0, 2.0]]),
    ])
    def test_malformed_arrays_raise(self, controller, t, v):
        with pytest.raises(ValueError):
            controller.submit("s", t, v)


class TestReadsDuringApply:
    def test_reader_waits_for_the_flush_instead_of_failing(self, engine):
        # Park the writer between write_batch and flush: a reader of the
        # series must block on the series lock, then see the points.
        parked, release = threading.Event(), threading.Event()
        flush = engine.flush

        def parked_flush(series):
            parked.set()
            release.wait(5.0)
            flush(series)

        engine.flush = parked_flush
        ctl = IngestController(engine)
        outcome = {}

        def read():
            try:
                outcome["points"] = sum(c.n_points
                                        for c in engine.chunks_for("s"))
            except Exception as exc:  # noqa: BLE001 - the failure asserted
                outcome["error"] = exc

        try:
            ctl.submit("s", *_batch(0, 40))
            assert parked.wait(5.0)
            reader = threading.Thread(target=read)
            reader.start()
            reader.join(0.2)
            assert reader.is_alive(), outcome
            release.set()
            reader.join(5.0)
            assert not reader.is_alive()
            assert outcome == {"points": 40}
        finally:
            release.set()
            ctl.close()


class TestBackpressure:
    def test_queue_full_sheds_with_retry_after(self, engine):
        # A queue one byte too small for the batch sheds at enqueue
        # time, before the writer can race to drain it.
        ctl = IngestController(engine,
                               queue_bytes=batch_nbytes(100) - 1,
                               retry_after_seconds=3)
        try:
            with pytest.raises(IngestBackpressureError) as exc_info:
                ctl.submit("s", *_batch(0, 100))
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after == 3
            assert _counter(engine, "ingest_sheds_total") == 1
        finally:
            ctl.close()

    def test_tenant_budget_is_per_tenant(self, engine):
        budget = batch_nbytes(100) + 1
        ctl = IngestController(engine, tenant_budget_bytes=budget)
        try:
            # Holding the controller's condition keeps the writer from
            # draining between submits (its lock is reentrant for this
            # thread), making the budget arithmetic deterministic.
            with ctl._cond:
                ctl.submit("s", *_batch(0, 100), tenant="a")
                with pytest.raises(IngestBackpressureError):
                    ctl.submit("s", *_batch(0, 100), tenant="a")
                # A different tenant spends its *own* budget.
                ctl.submit("s", *_batch(100, 100), tenant="b")
            assert ctl.drain()
            assert _counter(engine, "ingest_sheds_total") == 1
            assert _counter(engine, "ingest_points_total") == 200
        finally:
            ctl.close()

    def test_submit_after_close_sheds(self, engine):
        ctl = IngestController(engine)
        ctl.close()
        with pytest.raises(IngestBackpressureError):
            ctl.submit("s", *_batch(0, 5))

    def test_close_is_idempotent(self, engine):
        ctl = IngestController(engine)
        ctl.submit("s", *_batch(0, 5))
        ctl.close()
        ctl.close()
        assert _counter(engine, "ingest_points_total") == 5


class TestLiveFeedWiring:
    def test_applied_ranges_are_published(self, engine):
        feed = LiveFeed(metrics=engine.metrics)
        ctl = IngestController(engine, live_feed=feed)
        try:
            ctl.submit("s", *_batch(1000, 64))
            ctl.drain()
            head, ranges, reset = feed.wait("s", 0, timeout=5.0)
            assert head >= 1 and not reset
            assert ranges == ((1000, 1064),)
        finally:
            ctl.close()
            feed.close()

    def test_stats_snapshot(self, engine):
        ctl = IngestController(engine)
        try:
            ctl.submit("s", *_batch(0, 10))
            ctl.drain()
            stats = ctl.stats()
            assert stats["accepted_batches"] == 1
            assert stats["applied_batches"] == 1
            assert stats["pending_bytes"] == 0
        finally:
            ctl.close()

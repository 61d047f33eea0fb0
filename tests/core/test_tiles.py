"""Unit tests for the tile cache: key scheme, LRU budget, epoch-checked
inserts and invalidation accounting — no engine involved."""

import pytest

from repro.core.tiles import (
    TileCache,
    TileEntry,
    snap_viewport,
    tile_eligible,
)
from repro.errors import InvalidQueryRangeError
from repro.obs import MetricsRegistry


def entry(nbytes=100):
    return TileEntry(cells=None, skipped=(), nbytes=nbytes)


def fresh_insert(cache, series, level, tile, e=None):
    """Insert with an epoch taken now (the no-race fast path)."""
    return cache.insert(series, level, tile, e or entry(),
                        cache.epoch(series))


class TestEligibility:
    def test_power_of_two_grid(self):
        # 1024 units / 256 spans = width 4 = 2**2.
        assert tile_eligible(0, 1024, 256) == 2
        assert tile_eligible(4096, 4096 + 1024, 256) == 2

    def test_level_zero(self):
        assert tile_eligible(0, 256, 256) == 0

    def test_duration_not_multiple_of_w(self):
        assert tile_eligible(0, 1025, 256) is None

    def test_span_width_not_power_of_two(self):
        assert tile_eligible(0, 256 * 3, 256) is None

    def test_start_off_grid(self):
        assert tile_eligible(2, 2 + 1024, 256) is None

    def test_degenerate_inputs(self):
        assert tile_eligible(0, 0, 256) is None
        assert tile_eligible(10, 5, 256) is None
        assert tile_eligible(0, 1024, 0) is None


class TestSnapViewport:
    def test_snapped_contains_and_is_eligible(self):
        for t_qs, t_qe, w in [(3, 1000, 256), (0, 1, 128),
                              (12345, 99999, 512), (7, 8, 4)]:
            start, end = snap_viewport(t_qs, t_qe, w)
            assert start <= t_qs and end >= t_qe
            assert tile_eligible(start, end, w) is not None

    def test_minimal_level(self):
        # [0, 1024) at w=256 is already eligible: snapping is identity.
        assert snap_viewport(0, 1024, 256) == (0, 1024)

    def test_tile_grid_alignment(self):
        start, end = snap_viewport(37, 9000, 256, tile_spans=64)
        s = (end - start) // 256
        assert start % (s * 64) == 0
        assert tile_eligible(start, end, 256) is not None

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidQueryRangeError):
            snap_viewport(10, 10, 256)
        with pytest.raises(InvalidQueryRangeError):
            snap_viewport(0, 100, 0)


class TestTileRange:
    def test_key_to_time_range(self):
        cache = TileCache(10_000, spans_per_tile=8)
        assert cache.tile_range(0, 0) == (0, 8)
        assert cache.tile_range(3, 2) == (2 * 8 * 8, 3 * 8 * 8)
        lo, hi = cache.tile_range(5, -1)
        assert (lo, hi) == (-8 * 32, 0)


class TestLruBudget:
    def test_eviction_is_lru_ordered(self):
        cache = TileCache(250, spans_per_tile=4)
        for tile in range(2):
            assert fresh_insert(cache, "s", 0, tile)
        cache.lookup("s", 0, 0)  # refresh tile 0
        assert fresh_insert(cache, "s", 0, 2)  # evicts tile 1, the LRU
        assert cache.lookup("s", 0, 1) is None
        assert cache.lookup("s", 0, 0) is not None
        assert cache.lookup("s", 0, 2) is not None
        assert cache.bytes <= cache.capacity_bytes

    def test_oversized_entry_is_skipped(self):
        cache = TileCache(100, spans_per_tile=4)
        assert fresh_insert(cache, "s", 0, 0)
        assert not fresh_insert(cache, "s", 0, 1, entry(nbytes=101))
        # The resident tile survived the rejected insert.
        assert len(cache) == 1 and cache.lookup("s", 0, 0) is not None

    def test_reinsert_replaces_charge(self):
        cache = TileCache(1000, spans_per_tile=4)
        fresh_insert(cache, "s", 0, 0, entry(nbytes=400))
        fresh_insert(cache, "s", 0, 0, entry(nbytes=150))
        assert len(cache) == 1 and cache.bytes == 150

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TileCache(0)
        with pytest.raises(ValueError):
            TileCache(100, spans_per_tile=0)


class TestInvalidation:
    def test_overlap_only(self):
        cache = TileCache(10_000, spans_per_tile=8)
        for tile in range(4):           # level 0: [0,8) [8,16) [16,24) [24,32)
            fresh_insert(cache, "s", 0, tile)
        assert cache.invalidate("s", 8, 17) == 2
        assert cache.lookup("s", 0, 0) is not None
        assert cache.lookup("s", 0, 3) is not None
        assert cache.lookup("s", 0, 1) is None

    def test_cross_level(self):
        cache = TileCache(10_000, spans_per_tile=8)
        fresh_insert(cache, "s", 0, 0)   # [0, 8)
        fresh_insert(cache, "s", 4, 0)   # [0, 128)
        assert cache.invalidate("s", 100, 101) == 1
        assert cache.lookup("s", 0, 0) is not None
        assert cache.lookup("s", 4, 0) is None

    def test_other_series_untouched(self):
        cache = TileCache(10_000, spans_per_tile=8)
        fresh_insert(cache, "a", 0, 0)
        fresh_insert(cache, "b", 0, 0)
        assert cache.invalidate("a", 0, 8) == 1
        assert cache.lookup("b", 0, 0) is not None

    def test_empty_range_is_noop(self):
        cache = TileCache(10_000, spans_per_tile=8)
        fresh_insert(cache, "s", 0, 0)
        assert cache.invalidate("s", 5, 5) == 0
        assert len(cache) == 1

    def test_invalidate_series_and_all(self):
        cache = TileCache(10_000, spans_per_tile=8)
        fresh_insert(cache, "a", 0, 0)
        fresh_insert(cache, "a", 1, 0)
        fresh_insert(cache, "b", 0, 0)
        assert cache.invalidate_series("a") == 2
        assert len(cache) == 1
        assert cache.invalidate_all() == 1
        assert len(cache) == 0 and cache.bytes == 0


class TestEpochGuard:
    """A tile computed before an overlapping invalidation must never be
    inserted afterwards — the quarantine-thread race."""

    def test_racing_overlapping_invalidation_rejects(self):
        cache = TileCache(10_000, spans_per_tile=8)
        epoch = cache.epoch("s")
        cache.invalidate("s", 0, 8)      # overlaps level-0 tile 0
        assert not cache.insert("s", 0, 0, entry(), epoch)
        assert cache.lookup("s", 0, 0) is None

    def test_racing_disjoint_invalidation_accepts(self):
        cache = TileCache(10_000, spans_per_tile=8)
        epoch = cache.epoch("s")
        cache.invalidate("s", 800, 900)  # far from tile 0
        assert cache.insert("s", 0, 0, entry(), epoch)

    def test_series_wide_invalidation_fences_everything(self):
        cache = TileCache(10_000, spans_per_tile=8)
        epoch = cache.epoch("s")
        cache.invalidate_series("s")
        assert not cache.insert("s", 3, 99, entry(), epoch)

    def test_generation_bump_fences_every_series(self):
        cache = TileCache(10_000, spans_per_tile=8)
        epoch = cache.epoch("other")
        cache.invalidate_all()
        assert not cache.insert("other", 0, 0, entry(), epoch)

    def test_log_overflow_is_conservative(self):
        """Once the bounded log loses the epoch's vantage point, the
        insert is rejected even though no logged event overlaps."""
        cache = TileCache(10_000, spans_per_tile=8)
        epoch = cache.epoch("s")
        for _ in range(300):             # > _INVALIDATION_LOG entries
            cache.invalidate("s", 10_000, 10_001)
        assert not cache.insert("s", 0, 0, entry(), epoch)

    def test_fresh_epoch_after_invalidations_accepts(self):
        cache = TileCache(10_000, spans_per_tile=8)
        for _ in range(300):
            cache.invalidate("s", 10_000, 10_001)
        assert fresh_insert(cache, "s", 0, 0)


class TestObservability:
    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        cache = TileCache(250, spans_per_tile=4, metrics=metrics)

        def value(name):
            return metrics.counter(name).value

        fresh_insert(cache, "s", 0, 0)
        cache.lookup("s", 0, 0)
        cache.lookup("s", 0, 1)
        fresh_insert(cache, "s", 0, 1)
        fresh_insert(cache, "s", 0, 2)   # evicts the LRU (budget 250)
        cache.invalidate("s", 0, 1 << 20)
        epoch = cache.epoch("s")
        cache.invalidate("s", 0, 8)
        cache.insert("s", 0, 0, entry(), epoch)
        cache.count_bypass()
        assert value("tile_cache_hits_total") == 1
        assert value("tile_cache_misses_total") == 1
        assert value("tile_cache_evictions_total") == 1
        assert value("tile_cache_invalidations_total") == 2
        assert value("tile_cache_rejected_inserts_total") == 1
        assert value("tile_cache_bypass_total") == 1
        assert metrics.gauge("tile_cache_tiles").value == len(cache)
        assert metrics.gauge("tile_cache_bytes").value == cache.bytes

    def test_stats_and_snapshot(self):
        cache = TileCache(10_000, spans_per_tile=8)
        fresh_insert(cache, "s", 0, 1)
        fresh_insert(cache, "s", 0, 0)
        cache.lookup("s", 0, 1)          # now the most recent
        stats = cache.stats()
        assert stats["tiles"] == 2 and stats["spans_per_tile"] == 8
        assert stats["bytes"] == cache.bytes
        keys = [(s, z, k) for s, z, k, _ in cache.snapshot()]
        assert keys == [("s", 0, 0), ("s", 0, 1)]  # LRU order, old first

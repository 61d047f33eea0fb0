"""Incremental tile maintenance under streaming appends: tail appends
dirty cells instead of dropping tiles, repairs are byte- and
pixel-identical to a full recompute, and interior/out-of-order writes
fall back to overlap invalidation."""

import numpy as np
import pytest

from repro.bench import make_operator, prepare_engine
from repro.core import M4LSMOperator, TiledM4Operator
from repro.core.tiles import snap_viewport
from repro.datasets import generate_torture
from repro.server.service import render_chart
from repro.storage import StorageConfig, StorageEngine

CACHE = {"tile_cache_bytes": 8 * 1024 * 1024, "tile_cache_spans": 16}


def _counter(engine, name):
    doc = engine.metrics.snapshot()["counters"].get(name)
    return doc["value"] if doc else 0


def _make_engine(tmp_path, name="db", **config_kwargs):
    config_kwargs.setdefault("tile_cache_bytes", 8 * 1024 * 1024)
    config_kwargs.setdefault("tile_cache_spans", 16)
    config = StorageConfig(avg_series_point_number_threshold=200,
                           **config_kwargs)
    return StorageEngine(tmp_path / name, config)


def _load(engine, lo, hi, fn=np.sin):
    t = np.arange(lo, hi, dtype=np.int64)
    engine.write_batch("s", t, fn(t / 13.0))
    engine.flush_all()


class TestTailAppendRepair:
    def test_tail_append_dirties_then_repairs_byte_identical(
            self, tmp_path):
        """The streaming common case: an append past the series max
        marks cells dirty (no tile is dropped) and the next lookup
        repairs exactly those cells, matching the uncached answer."""
        with _make_engine(tmp_path) as engine:
            engine.create_series("s")
            _load(engine, 0, 1500)
            start, end = snap_viewport(0, 2048, 128)  # 8 tiles of 256
            tiled = TiledM4Operator(engine)
            tiled.query("s", start, end, 128)  # warm all 8 tiles
            _load(engine, 1500, 1900)          # tail: [1500, 1900)
            # Tiles 5, 6, 7 overlap the appended range -> dirty, kept.
            assert _counter(engine, "tile_cache_dirty_marks_total") == 3
            assert _counter(engine, "tile_cache_invalidations_total") == 0
            expected = M4LSMOperator(engine).query("s", start, end, 128)
            assert tiled.query("s", start, end, 128) == expected
            assert _counter(engine, "tile_cache_cell_repairs_total") > 0
            # Repaired tiles are clean: the warm re-query repairs nothing.
            repairs = _counter(engine, "tile_cache_cell_repairs_total")
            assert tiled.query("s", start, end, 128) == expected
            assert _counter(engine,
                            "tile_cache_cell_repairs_total") == repairs

    def test_interior_write_falls_back_to_invalidation(self, tmp_path):
        """An overwrite inside the existing range cannot use cell
        repair (clean cells' aggregates may change) — it must drop the
        overlapping tiles, and the re-query still matches."""
        with _make_engine(tmp_path) as engine:
            engine.create_series("s")
            _load(engine, 0, 2048)
            start, end = snap_viewport(0, 2048, 128)
            tiled = TiledM4Operator(engine)
            tiled.query("s", start, end, 128)
            _load(engine, 100, 150, fn=np.cos)  # interior overwrite
            assert _counter(engine,
                            "tile_cache_invalidations_total") > 0
            assert _counter(engine, "tile_cache_dirty_marks_total") == 0
            expected = M4LSMOperator(engine).query("s", start, end, 128)
            assert tiled.query("s", start, end, 128) == expected


@pytest.mark.parametrize("dataset", ["BallSpeed", "MF03", "KOB", "RcvTime"])
def test_growth_byte_identity(dataset):
    """Repeated tail batches on every dataset profile: after each
    round the tiled operator answers byte-identically, cold and warm,
    and only the dirty-repair path (never invalidation) ran."""
    with prepare_engine(dataset, n_points=3000, **CACHE) as prepared:
        engine, series = prepared.engine, prepared.series
        plain = make_operator(prepared, "m4lsm")
        tiled = make_operator(prepared, "m4lsm-tiles")
        hi = max(c.end_time for c in engine.chunks_for(series)) + 1
        start, end = snap_viewport(prepared.t_qs, hi + 6 * 400, 128,
                                   tile_spans=16)
        rng = np.random.default_rng(5)
        for _ in range(6):
            t = np.arange(hi, hi + 400, dtype=np.int64)
            engine.write_batch(series, t, rng.normal(0, 1, 400))
            engine.flush_all()
            hi += 400
            expected = plain.query(series, start, end, 128)
            assert tiled.query(series, start, end, 128) == expected
            assert tiled.query(series, start, end, 128) == expected
        assert _counter(engine, "tile_cache_dirty_marks_total") > 0
        assert _counter(engine, "tile_cache_invalidations_total") == 0


def test_torture_replay_identity_mid_stream(tmp_path):
    """Replaying a torture stream (out-of-order, late, duplicate
    batches) with tiled queries interleaved mid-stream: every answer
    matches the uncached operator on the same store state."""
    stream = generate_torture(n_points=4000, batch_size=250,
                              out_of_order_fraction=0.25,
                              duplicate_fraction=0.05, seed=23)
    with _make_engine(tmp_path) as engine:
        engine.create_series("s")
        tiled = TiledM4Operator(engine)
        plain = M4LSMOperator(engine)
        start, end = snap_viewport(0, 4000, 128, tile_spans=16)
        for i, (t, v) in enumerate(stream.batches):
            engine.write_batch("s", t, v)
            if i % 3 == 2:
                engine.flush_all()
                expected = plain.query("s", start, end, 128)
                assert tiled.query("s", start, end, 128) == expected
                assert tiled.query("s", start, end, 128) == expected
        engine.flush_all()
        assert tiled.query("s", start, end, 128) \
            == plain.query("s", start, end, 128)
        # Nearly every torture batch carries lagged points, so the
        # store must have taken the invalidation fallback (the pure
        # tail path is covered by TestTailAppendRepair above).
        assert _counter(engine, "tile_cache_invalidations_total") > 0


def test_pixel_identity_after_appends(tmp_path):
    """`render_chart` with a warm (then repaired) cache draws the same
    pixels as a cacheless engine holding the same points."""
    matrices = []
    for i, cache_bytes in enumerate((0, 8 * 1024 * 1024)):
        config = StorageConfig(avg_series_point_number_threshold=100,
                               tile_cache_bytes=cache_bytes,
                               tile_cache_spans=16)
        with StorageEngine(tmp_path / ("db%d" % i), config) as engine:
            engine.create_series("s")
            _load(engine, 0, 1500)
            start, end = snap_viewport(0, 2048, 128)
            render_chart(engine, "s", 128, 48, t_qs=start, t_qe=end)
            _load(engine, 1500, 2000, fn=np.cos)   # tail append
            matrix, result = render_chart(engine, "s", 128, 48,
                                          t_qs=start, t_qe=end)
            matrix2, result2 = render_chart(engine, "s", 128, 48,
                                            t_qs=start, t_qe=end)
            assert np.array_equal(matrix, matrix2) and result == result2
            if cache_bytes:
                assert len(engine.tile_cache) > 0
            matrices.append(matrix)
    assert np.array_equal(matrices[0], matrices[1])

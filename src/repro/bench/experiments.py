"""The paper's experiments (Figures 10-14, Tables, ablations) as
reusable sweep functions.

Each function prepares engines, sweeps one axis, and returns one or more
:class:`BenchTable` objects whose rows mirror the series the paper plots.
The pytest-benchmark files under ``benchmarks/`` are thin wrappers that
time individual queries; the EXPERIMENTS.md generator calls these
functions directly.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.index import StepRegression
from ..datasets.generators import PROFILES, dataset_summary
from ..viz.pixels import compare_pixels
from ..viz.raster import PixelGrid, rasterize
from ..viz.reduction import REDUCERS
from .harness import bench_points, make_operator, prepare_engine, timed_query
from .report import BenchTable

DATASETS = ("BallSpeed", "MF03", "KOB", "RcvTime")
DEFAULT_W = 100
DEFAULT_OVERLAP = 10
DEFAULT_DELETE_PCT = 10


def table2_datasets(n_points=None):
    """E1 — Table 2: dataset summary at the bench scale."""
    table = BenchTable("Table 2: dataset summary (scaled)",
                       ["Dataset", "Entire time range", "# Points",
                        "# Points (paper)"])
    for name, duration, count in dataset_summary(bench_points(n_points)):
        table.add_row(name, duration, count, PROFILES[name].paper_points)
    return table


def fig8_9_step_regression(n_points=20_000, chunk_points=1000):
    """E2 — Figures 8/9: timestamp-position steps and learned parameters."""
    table = BenchTable(
        "Fig 8/9: step regression per dataset (first chunk)",
        ["Dataset", "median delta", "K", "segments", "max err (pos)",
         "delta mean", "delta std"])
    for name in DATASETS:
        t, _v = PROFILES[name].generate(n_points)
        chunk_t = t[:chunk_points]
        deltas = np.diff(chunk_t)
        regression = StepRegression.fit(chunk_t)
        table.add_row(name, float(np.median(deltas)), regression.slope,
                      regression.n_segments, regression.max_error,
                      float(deltas.mean()), float(deltas.std()))
    return table


def fig10_vary_w(n_points=None, w_values=(10, 100, 500, 1000, 2000),
                 overlap_pct=DEFAULT_OVERLAP, repeats=1):
    """E3 — Figure 10: latency vs the number of time spans w."""
    tables = []
    for dataset in DATASETS:
        table = BenchTable("Fig 10 (%s): vary w" % dataset,
                           ["w", "M4-UDF (s)", "M4-LSM (s)",
                            "LSM chunk loads", "UDF chunk loads", "equal"])
        with prepare_engine(dataset, n_points=n_points,
                            overlap_pct=overlap_pct) as prepared:
            udf = make_operator(prepared, "m4udf")
            lsm = make_operator(prepared, "m4lsm")
            for w in w_values:
                udf_run = timed_query(udf, prepared, w, repeats=repeats)
                lsm_run = timed_query(lsm, prepared, w, repeats=repeats)
                table.add_row(
                    w, udf_run.seconds, lsm_run.seconds,
                    lsm_run.stats.chunk_loads, udf_run.stats.chunk_loads,
                    udf_run.result.semantically_equal(lsm_run.result))
        tables.append(table)
    return tables


def fig11_vary_range(n_points=None, w=DEFAULT_W,
                     fractions=(0.0625, 0.125, 0.25, 0.5, 1.0),
                     overlap_pct=DEFAULT_OVERLAP, repeats=1):
    """E4 — Figure 11: latency vs query time range length."""
    tables = []
    for dataset in DATASETS:
        table = BenchTable("Fig 11 (%s): vary query range" % dataset,
                           ["range fraction", "M4-UDF (s)", "M4-LSM (s)",
                            "UDF chunk loads", "equal"])
        with prepare_engine(dataset, n_points=n_points,
                            overlap_pct=overlap_pct) as prepared:
            udf = make_operator(prepared, "m4udf")
            lsm = make_operator(prepared, "m4lsm")
            duration = prepared.t_qe - prepared.t_qs
            for fraction in fractions:
                t_qe = prepared.t_qs + max(int(duration * fraction), w)
                udf_run = timed_query(udf, prepared, w, t_qe=t_qe,
                                      repeats=repeats)
                lsm_run = timed_query(lsm, prepared, w, t_qe=t_qe,
                                      repeats=repeats)
                table.add_row(
                    fraction, udf_run.seconds, lsm_run.seconds,
                    udf_run.stats.chunk_loads,
                    udf_run.result.semantically_equal(lsm_run.result))
        tables.append(table)
    return tables


def fig12_vary_overlap(n_points=None, w=DEFAULT_W,
                       overlaps=(0, 10, 20, 30, 40), repeats=1,
                       datasets=DATASETS):
    """E5 — Figure 12: latency vs chunk overlap percentage."""
    tables = []
    for dataset in datasets:
        table = BenchTable("Fig 12 (%s): vary chunk overlap %%" % dataset,
                           ["overlap %", "M4-UDF (s)", "M4-LSM (s)",
                            "LSM index lookups", "equal"])
        for overlap in overlaps:
            with prepare_engine(dataset, n_points=n_points,
                                overlap_pct=overlap) as prepared:
                udf = make_operator(prepared, "m4udf")
                lsm = make_operator(prepared, "m4lsm")
                udf_run = timed_query(udf, prepared, w, repeats=repeats)
                lsm_run = timed_query(lsm, prepared, w, repeats=repeats)
                table.add_row(
                    overlap, udf_run.seconds, lsm_run.seconds,
                    lsm_run.stats.index_lookups,
                    udf_run.result.semantically_equal(lsm_run.result))
        tables.append(table)
    return tables


def fig13_vary_delete_pct(n_points=None, w=DEFAULT_W,
                          delete_pcts=(0, 10, 20, 30, 40), repeats=1,
                          datasets=DATASETS):
    """E6 — Figure 13: latency vs delete percentage."""
    tables = []
    for dataset in datasets:
        table = BenchTable("Fig 13 (%s): vary delete %%" % dataset,
                           ["delete %", "M4-UDF (s)", "M4-LSM (s)",
                            "UDF chunk loads", "equal"])
        for delete_pct in delete_pcts:
            with prepare_engine(dataset, n_points=n_points,
                                overlap_pct=DEFAULT_OVERLAP,
                                delete_pct=delete_pct) as prepared:
                udf = make_operator(prepared, "m4udf")
                lsm = make_operator(prepared, "m4lsm")
                udf_run = timed_query(udf, prepared, w, repeats=repeats)
                lsm_run = timed_query(lsm, prepared, w, repeats=repeats)
                table.add_row(
                    delete_pct, udf_run.seconds, lsm_run.seconds,
                    udf_run.stats.chunk_loads,
                    udf_run.result.semantically_equal(lsm_run.result))
        tables.append(table)
    return tables


def fig14_vary_delete_range(n_points=None, w=DEFAULT_W, n_deletes=20,
                            range_multipliers=(0.1, 0.5, 1, 5, 20),
                            repeats=1, datasets=DATASETS):
    """E7 — Figure 14: latency vs delete time range length.

    Range lengths are multiples of the average chunk time span, so the
    largest setting wipes whole chunks (where the paper sees M4-UDF's
    latency fall, most visibly on the skewed datasets).
    """
    tables = []
    for dataset in datasets:
        table = BenchTable("Fig 14 (%s): vary delete range" % dataset,
                           ["range x chunk span", "M4-UDF (s)",
                            "M4-LSM (s)", "UDF chunk loads", "equal"])
        probe = PROFILES[dataset].generate(bench_points(n_points))[0]
        chunk_span = int((probe[-1] - probe[0])
                         // max(probe.size // 1000, 1))
        for multiplier in range_multipliers:
            delete_range = max(int(chunk_span * multiplier), 1)
            with prepare_engine(dataset, n_points=n_points,
                                overlap_pct=DEFAULT_OVERLAP,
                                n_deletes=n_deletes,
                                delete_range=delete_range) as prepared:
                udf = make_operator(prepared, "m4udf")
                lsm = make_operator(prepared, "m4lsm")
                udf_run = timed_query(udf, prepared, w, repeats=repeats)
                lsm_run = timed_query(lsm, prepared, w, repeats=repeats)
                table.add_row(
                    multiplier, udf_run.seconds, lsm_run.seconds,
                    udf_run.stats.chunk_loads,
                    udf_run.result.semantically_equal(lsm_run.result))
        tables.append(table)
    return tables


def fig1_pixel_accuracy(n_points=200_000, width=400, height=200,
                        dataset="MF03"):
    """E8 — Figures 1/3/16: pixel-exactness of M4 vs the baselines."""
    table = BenchTable(
        "Fig 1: pixel error at %dx%d (%s)" % (width, height, dataset),
        ["Reducer", "points kept", "differing pixels", "error ratio"])
    t, v = PROFILES[dataset].generate(n_points)
    from ..core.series import TimeSeries
    series = TimeSeries(t, v, validate=False)
    t_qs, t_qe = int(t[0]), int(t[-1]) + 1
    grid = PixelGrid(t_qs, t_qe, float(v.min()), float(v.max()),
                     width, height)
    reference = rasterize(series, grid)
    for name, reducer in REDUCERS.items():
        reduced = reducer(t, v, t_qs, t_qe, width)
        comparison = compare_pixels(reference, rasterize(reduced, grid))
        table.add_row(name, len(reduced), comparison.differing_pixels,
                      comparison.error_ratio)
    return table


def headline_scaling(w=1000, point_counts=(100_000, 400_000, 1_000_000),
                     dataset="MF03", repeats=1):
    """E9 — the ~700 ms / 10 M points headline, as a scaling series.

    Reports both operators at increasing sizes; the per-point latency of
    M4-UDF is ~constant while M4-LSM's falls, which is the paper's
    argument made substrate-independent.
    """
    table = BenchTable("Headline: scaling at w=%d (%s)" % (w, dataset),
                       ["points", "M4-UDF (s)", "M4-LSM (s)", "speedup",
                        "LSM points decoded", "UDF points decoded"])
    for n_points in point_counts:
        with prepare_engine(dataset, n_points=n_points) as prepared:
            udf = make_operator(prepared, "m4udf")
            lsm = make_operator(prepared, "m4lsm")
            udf_run = timed_query(udf, prepared, w, repeats=repeats)
            lsm_run = timed_query(lsm, prepared, w, repeats=repeats)
            table.add_row(n_points, udf_run.seconds, lsm_run.seconds,
                          udf_run.seconds / max(lsm_run.seconds, 1e-9),
                          lsm_run.stats.points_decoded,
                          udf_run.stats.points_decoded)
    return table


def tile_cache_speedup(n_points=None, w=512, overlap_pct=DEFAULT_OVERLAP,
                       delete_pct=DEFAULT_DELETE_PCT,
                       cache_bytes=64 * 1024 * 1024, seed=7,
                       datasets=("BallSpeed", "KOB")):
    """E15 — M4 tile cache on a warmed pan/zoom session trace.

    Replays one seeded dashboard session (overview, zooms, pans, zoom
    out — :func:`repro.server.workload.zoom_pan_session`), with every
    viewport snapped to the power-of-two span grid the cache indexes
    by, three times over the same engine:

    * ``uncached`` — the plain M4-LSM operator (the baseline every
      other experiment measures);
    * ``tiled cold`` — the tile-cache operator against an empty cache
      (pays tile computation, but later viewports already reuse tiles
      the earlier ones planted);
    * ``tiled warm`` — the same trace again, fully warmed: interior
      tiles are all hits and only the two partial edge runs per
      viewport are computed.

    Every viewport's three results must be byte-identical (the cache's
    correctness contract); the warmed pass's p50 is the acceptance
    number (>= 2x over uncached).
    """
    import random

    from ..server.workload import zoom_pan_session
    from ..core.tiles import snap_viewport

    def p50(latencies):
        return sorted(latencies)[len(latencies) // 2]

    tables = []
    for dataset in datasets:
        table = BenchTable(
            "Tile cache (%s): pan/zoom session, w=%d, %d MiB budget"
            % (dataset, w, cache_bytes // (1024 * 1024)),
            ["pass", "viewports", "p50 (s)", "total (s)", "p50 speedup",
             "tile hits", "tile misses", "identical"])
        with prepare_engine(dataset, n_points=n_points,
                            overlap_pct=overlap_pct,
                            delete_pct=delete_pct,
                            tile_cache_bytes=cache_bytes) as prepared:
            plain = make_operator(prepared, "m4lsm")
            tiled = make_operator(prepared, "m4lsm-tiles")
            rng = random.Random(seed)
            viewports = [
                snap_viewport(start, end, w) for start, end in
                zoom_pan_session(prepared.t_qs, prepared.t_qe, rng)]
            metrics = prepared.engine.metrics

            def replay(operator):
                hits0 = metrics.counter("tile_cache_hits_total").value
                miss0 = metrics.counter("tile_cache_misses_total").value
                latencies, results = [], []
                for start, end in viewports:
                    started = time.perf_counter()
                    results.append(
                        operator.query(prepared.series, start, end, w))
                    latencies.append(time.perf_counter() - started)
                hits = metrics.counter("tile_cache_hits_total").value
                misses = metrics.counter("tile_cache_misses_total").value
                return latencies, results, hits - hits0, misses - miss0

            base_lat, base_res, _, _ = replay(plain)
            cold_lat, cold_res, cold_hits, cold_miss = replay(tiled)
            warm_lat, warm_res, warm_hits, warm_miss = replay(tiled)
            base_p50 = p50(base_lat)
            for label, lat, res, hits, misses in (
                    ("uncached", base_lat, base_res, 0, 0),
                    ("tiled cold", cold_lat, cold_res, cold_hits,
                     cold_miss),
                    ("tiled warm", warm_lat, warm_res, warm_hits,
                     warm_miss)):
                table.add_row(
                    label, len(viewports), p50(lat), sum(lat),
                    base_p50 / max(p50(lat), 1e-9), hits, misses,
                    all(a == b for a, b in zip(base_res, res)))
        tables.append(table)
    return tables


def ablation_index(n_points=None, w=DEFAULT_W, overlap_pct=30, repeats=1,
                   datasets=("MF03", "KOB")):
    """E10 — step regression index vs binary-search fallback."""
    tables = []
    for dataset in datasets:
        table = BenchTable("Ablation (%s): chunk index" % dataset,
                           ["index", "M4-LSM (s)", "pages decoded",
                            "index lookups"])
        with prepare_engine(dataset, n_points=n_points,
                            overlap_pct=overlap_pct,
                            points_per_page=100) as prepared:
            for label, use_regression in (("step regression", True),
                                          ("binary search", False)):
                lsm = make_operator(prepared, "m4lsm",
                                    use_regression=use_regression)
                run = timed_query(lsm, prepared, w, repeats=repeats)
                table.add_row(label, run.seconds, run.stats.pages_decoded,
                              run.stats.index_lookups)
        tables.append(table)
    return tables


def ablation_lazy(n_points=None, w=DEFAULT_W, overlap_pct=30,
                  delete_pct=20, repeats=1, datasets=("MF03", "KOB")):
    """E11 — lazy loading vs eager reloading of invalidated chunks."""
    tables = []
    for dataset in datasets:
        table = BenchTable("Ablation (%s): lazy loading" % dataset,
                           ["strategy", "M4-LSM (s)", "chunk loads",
                            "points decoded"])
        with prepare_engine(dataset, n_points=n_points,
                            overlap_pct=overlap_pct,
                            delete_pct=delete_pct) as prepared:
            for label, lazy in (("lazy", True), ("eager", False)):
                lsm = make_operator(prepared, "m4lsm", lazy=lazy)
                run = timed_query(lsm, prepared, w, repeats=repeats)
                table.add_row(label, run.seconds, run.stats.chunk_loads,
                              run.stats.points_decoded)
        tables.append(table)
    return tables


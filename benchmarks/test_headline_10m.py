"""E9 — the headline claim: ~700 ms to represent 10 M points in 1000
pixel columns.

Absolute milliseconds are substrate-bound (the paper ran Java on an HDD;
this is Python), so the claim is reproduced as a *scaling series*: at
w=1000 the M4-UDF latency grows linearly with the point count while the
M4-LSM latency is governed by w and the split-chunk count — so the
speedup widens with scale, which is exactly what makes 10M/700ms work in
the deployed system.  Set REPRO_BENCH_POINTS=10000000 to run the full
headline point count.
"""

from repro.bench import bench_points, headline_scaling, make_operator

from conftest import get_engine, print_tables


def test_headline_query_w1000(benchmark, engine_cache):
    prepared = get_engine(engine_cache, dataset="MF03", overlap_pct=10)
    lsm = make_operator(prepared, "m4lsm")
    result = benchmark.pedantic(
        lsm.query,
        args=(prepared.series, prepared.t_qs, prepared.t_qe, 1000),
        rounds=3, iterations=1)
    assert len(result) == 1000


def test_headline_scaling_table(benchmark):
    # The headline shape needs points >> w * chunk_size (10M vs 1000
    # spans of 1000-point chunks in the paper); run at least 2.5M here.
    top = max(bench_points(), 2_500_000)
    counts = (top // 10, top // 4, top)
    table = benchmark.pedantic(headline_scaling,
                               kwargs={"point_counts": counts},
                               rounds=1, iterations=1)
    print_tables(table)
    speedups = table.column("speedup")
    # The gap widens with scale: the largest size shows the best speedup
    # (tolerance for wall-clock noise).
    assert speedups[-1] >= speedups[0] * 0.8
    # ...and it is a gap in M4-LSM's favour: it wins at the top size and
    # is at worst within noise of M4-UDF at the smallest, where nearly
    # every chunk is split and has to be opened (once) anyway.
    assert speedups[-1] >= 1.0
    assert speedups[0] >= 0.8
    # And at the top size M4-LSM decodes a clear minority of the points.
    lsm_points = table.column("LSM points decoded")
    udf_points = table.column("UDF points decoded")
    assert lsm_points[-1] * 2 < udf_points[-1]

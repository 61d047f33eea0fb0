"""Extra ablations beyond the paper's figures:

* streaming (heap) vs vectorized UDF merge — the two MergeReader
  implementations, semantically identical, an order of magnitude apart;
* metadata-accelerated aggregation vs merge-everything aggregation —
  the extension operator built on the same chunk statistics.
"""

import pytest

from repro.bench import make_operator
from repro.core.aggregation import aggregate_lsm, aggregate_udf

from conftest import get_engine, print_tables
from repro.bench.report import BenchTable


@pytest.mark.parametrize("streaming", [False, True])
def test_udf_merge_implementations(benchmark, engine_cache, streaming):
    prepared = get_engine(engine_cache, dataset="MF03", overlap_pct=10,
                          n_points=100_000)
    udf = make_operator(prepared, "m4udf", streaming=streaming)
    result = benchmark.pedantic(
        udf.query, args=(prepared.series, prepared.t_qs, prepared.t_qe,
                         100),
        rounds=1, iterations=1)
    assert len(result) == 100


@pytest.mark.parametrize("kind", ["lsm", "udf"])
def test_aggregation_operators(benchmark, engine_cache, kind):
    prepared = get_engine(engine_cache, dataset="MF03", overlap_pct=10)
    runner = aggregate_lsm if kind == "lsm" else aggregate_udf
    result = benchmark.pedantic(
        runner, args=(prepared.engine, prepared.series, prepared.t_qs,
                      prepared.t_qe, 100, ("count", "avg", "max_value")),
        rounds=2, iterations=1)
    assert sum(c for c in result.column("count") if c) \
        == prepared.timestamps.size


def test_aggregation_io_table(benchmark, engine_cache):
    prepared = get_engine(engine_cache, dataset="MF03", overlap_pct=10)
    overlapping = len(prepared.engine.metadata_reader(prepared.series)
                      .chunks_overlapping(prepared.t_qs, prepared.t_qe))
    table = BenchTable("Ablation: aggregation operators (MF03, %d "
                       "overlapping chunks)" % overlapping,
                       ["w", "operator", "chunk loads", "points decoded"])
    widths = (10, 100, 1000)

    def sweep():
        for w in widths:
            for name, runner in (("metadata (LSM)", aggregate_lsm),
                                 ("merge-all (UDF)", aggregate_udf)):
                before = prepared.engine.stats.snapshot()
                runner(prepared.engine, prepared.series, prepared.t_qs,
                       prepared.t_qe, w, ("count", "avg"))
                diff = prepared.engine.stats.diff(before)
                table.add_row(w, name, diff.chunk_loads,
                              diff.points_decoded)
        return table

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_tables(table)
    loads = {(w, name): n for w, name, n in zip(
        table.column("w"), table.column("operator"),
        table.column("chunk loads"))}
    for w in widths:
        # The sweep opens every chunk at most once; merge-all opens all.
        assert loads[w, "metadata (LSM)"] <= overlapping \
            <= loads[w, "merge-all (UDF)"], w
    # Coarse spans leave most chunks whole: their statistics suffice.
    assert loads[10, "metadata (LSM)"] < loads[10, "merge-all (UDF)"]

"""Regenerate EXPERIMENTS.md: run every paper experiment and record
measured tables next to the paper's expected shapes.

Usage::

    python scripts/generate_experiments.py [output.md]

Scale via REPRO_BENCH_POINTS (default 400,000 points per dataset).
"""

from __future__ import annotations

import os
import platform
import sys
import time

from repro.bench import (
    ablation_index,
    ablation_lazy,
    bench_points,
    load_artifact,
    fig1_pixel_accuracy,
    fig8_9_step_regression,
    fig10_vary_w,
    fig11_vary_range,
    fig12_vary_overlap,
    fig13_vary_delete_pct,
    fig14_vary_delete_range,
    headline_scaling,
    table2_datasets,
)

_SECTIONS = (
    ("E1 / Table 2 — dataset summary",
     "The four dataset profiles at bench scale (paper point counts for "
     "reference). The synthetic generators match each dataset's "
     "frequency regularity, gap structure and time skew.",
     lambda: [table2_datasets()]),
    ("E2 / Figures 8-9 — step regression",
     "Paper: timestamps show tilt/level steps; K = 1/median(delta). "
     "Expected: BallSpeed perfectly regular (1 segment, zero error); "
     "KOB learns K = 1/9000 ms with level segments at the gaps.",
     lambda: [fig8_9_step_regression()]),
    ("E3 / Figure 10 — varying the number of time spans w",
     "Paper shape: M4-UDF flat in w; M4-LSM grows with w; the skewed "
     "KOB/RcvTime grow more slowly (short chunks are rarely split). "
     "The chunk-load columns are the substrate-independent signal.",
     lambda: fig10_vary_w()),
    ("E4 / Figure 11 — varying the query time range",
     "Paper shape: both grow with range length; M4-UDF much faster "
     "(it loads every chunk in range), M4-LSM damped (the split-chunk "
     "fraction falls as the range grows).",
     lambda: fig11_vary_range()),
    ("E5 / Figure 12 — varying chunk overlap percentage",
     "Paper shape: M4-UDF grows with overlap (merge CPU); M4-LSM almost "
     "constant (merge-free; overlap only adds index probes for the "
     "BP/TP overwrite checks).",
     lambda: fig12_vary_overlap()),
    ("E6 / Figure 13 — varying delete percentage",
     "Paper shape: M4-UDF nearly constant (binary-search delete "
     "application); M4-LSM trends up mildly but stays small overall.",
     lambda: fig13_vary_delete_pct()),
    ("E7 / Figure 14 — varying delete time range",
     "Paper shape: M4-UDF *falls* as ranges grow (fully-deleted chunks "
     "are skipped before loading — see its chunk-loads column); "
     "M4-LSM stays small (candidates are robust under deletes).",
     lambda: fig14_vary_delete_range()),
    ("E8 / Figures 1, 3, 16 — pixel-exact visualization",
     "Paper claim: M4 is error-free in two-color line charts. "
     "Expected: zero differing pixels for M4; non-zero for every "
     "other reducer.",
     lambda: [fig1_pixel_accuracy()]),
    ("E9 — headline (700 ms for 10 M points at w=1000)",
     "Absolute times are substrate-bound (Java+HDD vs Python); the "
     "reproducible shape is the scaling: M4-UDF grows linearly with "
     "the point count while M4-LSM is governed by w and split chunks, "
     "so the speedup widens with scale.",
     lambda: [headline_scaling()]),
    ("E10 — ablation: step regression index vs binary search",
     "Both indexes answer exactly; step regression predicts the row "
     "from the timestamp, keeping page decodes at least as low.",
     lambda: ablation_index()),
    ("E11 — ablation: lazy loading vs eager reloading",
     "Lazy loading defers chunk reads after failed verifications; "
     "expected: lazy decodes no more points than eager, usually fewer. "
     "Round 1 settles almost every span of these stores from metadata, "
     "so lazy and eager (and E10's two indexes) differ by a handful of "
     "probes at most; at 50k points they show 0 index probes and equal "
     "loads, and CI runs E10/E11 there as guards of the `lazy=` / "
     "`use_regression=` switches, not as evidence of the paper's "
     "effect.  E11b (`benchmarks/test_ablation_fused_and_agg.py`) "
     "keeps the UDF-merge and aggregation ablations; its fused-path "
     "ablation went with its switch, since the fold and the later "
     "rounds are one Algorithm 1.",
     lambda: ablation_lazy()),
)


# E15 measures a warmed cache over whole sessions and is too slow to
# re-run inline here; its bench writes a schema-validated JSON artifact
# into benchmarks/ (see repro.bench.schema), and this script renders
# the checked-in artifact — anything pre-schema is refused.
# (name, reading, artifact file, regeneration command, column order)
_ARTIFACTS = (
    ("E15 — M4 tile cache on pan/zoom sessions (beyond paper)",
     "At 200,000 points on 2 CPUs a warmed 10-viewport session answers "
     "with p50 ~2.2x (BallSpeed) / ~2.2x (KOB) faster than uncached "
     "M4-LSM in the checked-in run, byte-identical on every viewport. "
     "The cold filling pass is *slower* than uncached (0.70x / 0.49x): "
     "it computes whole tiles of which the session uses only part. "
     "Uncached M4-LSM takes only ~2 ms per viewport here, and the warm "
     "pass still computes two edge runs per viewport, so the warm "
     "speed-up sits at the bench's 2x bound: seven runs read 1.97-2.20x "
     "(BallSpeed) and 1.78-3.43x (KOB), and four of them fell below 2x "
     "on one dataset.",
     "BENCH_tiles.json",
     "PYTHONPATH=src python -m pytest -q -s benchmarks/test_tile_cache_speedup.py",
     ("pass", "viewports", "p50_seconds", "total_seconds",
      "p50_speedup", "tile_hits", "tile_misses", "identical")),
)


def _cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def _artifact_sections(bench_dir="benchmarks"):
    """Markdown sections for E15, rendered from BENCH_*.json."""
    lines = []
    for title, reading, artifact, command, columns in _ARTIFACTS:
        path = os.path.join(bench_dir, artifact)
        lines.append("## %s" % title)
        lines.append("")
        lines.append("Regenerated by `%s` → `benchmarks/%s` (rendered "
                     "from the checked-in artifact, not re-run here)."
                     % (command, artifact))
        lines.append("")
        if not os.path.exists(path):
            lines.append("_Artifact `%s` not found — run the bench "
                         "above to produce it._" % artifact)
            lines.append("")
            continue
        lines.append("**Reading:** %s" % reading)
        lines.append("")
        rows = load_artifact(path)["rows"]
        groups = {}
        for row in rows:
            groups.setdefault(row.get("experiment", title), []).append(row)
        for experiment, group in groups.items():
            lines.append("### %s" % experiment)
            lines.append("")
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in group:
                lines.append("| " + " | ".join(_cell(row.get(c))
                                               for c in columns) + " |")
            lines.append("")
    return lines


def _matrix_section(bench_dir="benchmarks"):
    """The E16 scenario-matrix section, from BENCH_matrix.json.

    Unlike the one-axis paper sweeps above, the matrix crosses the
    axes (cardinality x overlap x delete x operator x tile cache x
    ingest); the artifact doubles as the CI regression-gate
    baseline (``repro bench --check``), so the numbers printed here
    are exactly the numbers future PRs are gated against.
    """
    path = os.path.join(bench_dir, "BENCH_matrix.json")
    lines = ["## E16 — scenario matrix (beyond paper; the CI "
             "regression-gate baseline)", ""]
    lines.append(
        "Regenerated by `PYTHONPATH=src python scripts/"
        "refresh_baseline.py` → `benchmarks/BENCH_matrix.json`; gated "
        "cells (✓) fail `repro bench --check` on a >20% p50 "
        "regression (noise-floored) or *any* I/O-counter regression.")
    lines.append("")
    if not os.path.exists(path):
        lines.append("_Artifact `BENCH_matrix.json` not found — run "
                     "`repro bench --matrix` to produce it._")
        lines.append("")
        return lines
    doc = load_artifact(path, kind="matrix")
    meta = doc["meta"]
    lines.append("**Substrate:** %s points/series, git `%s`, %s." % (
        "{:,}".format(meta["points"]), meta["git_sha"],
        meta["machine_id"]))
    lines.append("")
    columns = ("cell", "gate", "p50 (s)", "p99 (s)", "chunk loads",
               "pages decoded", "points decoded", "identity")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "---|" * len(columns))
    for row in doc["rows"]:
        if row.get("ingest"):
            continue  # streaming cells are rendered in E17
        identity = ("ok" if row["identity"]["equal"] else "MISMATCH") \
            if row["identity"]["checked"] else "(reference)"
        lines.append("| `%s` | %s | %s | %s | %d | %d | %d | %s |"
                     % (row["id"], "✓" if row["gate"] else "",
                        _cell(row["wall"]["p50_seconds"]),
                        _cell(row["wall"]["p99_seconds"]),
                        row["io"].get("chunk_loads", 0),
                        row["io"].get("pages_decoded", 0),
                        row["io"].get("points_decoded", 0), identity))
    lines.append("")
    lines.append(
        "**Reading:** at this scale (50 chunks, w = 128) every chunk "
        "is split by a span bound, so M4-LSM's chunk-major sweep opens "
        "each once — the same loads as M4-UDF, never more; overlap "
        "moves merge cost onto M4-UDF and candidate iterations onto "
        "M4-LSM; deletes barely move either; the warmed tile cache "
        "answers eligible viewports with zero chunk loads.  "
        "Cardinality 8/32 cells show query cost is flat in store "
        "series count while open/prepare cost is not.")
    lines.append("")
    return lines


def _ingest_section(bench_dir="benchmarks"):
    """The E17 streaming-ingest section, from the same matrix artifact.

    Renders the ``ingest=`` cells: queries timed *while* a background
    pump streams writes into a dedicated series through the bounded
    ingest queue.  The sustained cells document dashboards-during-
    ingest cost; the late-skew cells exercise the out-of-order
    invalidation fallback; the overload cell documents the
    backpressure contract (offered rate above the queue budget must
    shed, never queue unboundedly).
    """
    path = os.path.join(bench_dir, "BENCH_matrix.json")
    lines = ["## E17 — queries under streaming ingest (beyond paper)",
             ""]
    lines.append(
        "Part of the scenario matrix above (same artifact, same "
        "refresh command); cells whose id carries `ingest=RATE;"
        "skew=...` run their timed queries while an in-process pump "
        "streams that many points/s into a dedicated `ingest-feed` "
        "series through the bounded ingest queue "
        "(`repro.ingest.IngestController`).")
    lines.append("")
    if not os.path.exists(path):
        lines.append("_Artifact `BENCH_matrix.json` not found — run "
                     "`repro bench --matrix` to produce it._")
        lines.append("")
        return lines
    doc = load_artifact(path, kind="matrix")
    rows = [row for row in doc["rows"] if row.get("ingest")]
    if not rows:
        lines.append("_No ingest cells in the checked-in artifact — "
                     "refresh it to populate this section._")
        lines.append("")
        return lines
    columns = ("cell", "gate", "p50 (s)", "p99 (s)", "offered pts/s",
               "applied pts", "sheds", "late batches", "identity")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "---|" * len(columns))
    for row in rows:
        ingest = row["ingest"]
        identity = ("ok" if row["identity"]["equal"] else "MISMATCH") \
            if row["identity"]["checked"] else "(reference)"
        lines.append("| `%s` | %s | %s | %s | %d | %d | %d | %d | %s |"
                     % (row["id"], "✓" if row["gate"] else "",
                        _cell(row["wall"]["p50_seconds"]),
                        _cell(row["wall"]["p99_seconds"]),
                        ingest["offered_rate"], ingest["points"],
                        ingest["sheds"], ingest["late_batches"],
                        identity))
    lines.append("")
    lines.append(
        "**Reading:** query results stay byte-identical to the idle "
        "reference while ingest runs (the pump's writes never touch "
        "the queried series); sustained rates shed nothing; only the "
        "overload cell — offered well above the queue budget — sheds, "
        "which is the 429/Retry-After contract doing its job.  The "
        "tiled cells keep their zero-chunk-load warm path because "
        "tail appends to another series dirty no shared tiles.")
    lines.append("")
    return lines


# The system benches the perf/ ledger and the test suite took over:
# one line each naming where its check lives now.
_RETIRED = (
    "**E13 (server throughput)**: served throughput and latency are "
    "the `perf/` ledger's `overview`, `zoom` and `pan_tiles` workloads "
    "(`reads_per_s`, `read_p50_ms`); shedding under overload with "
    "deadline-bounded accepted latency is `tests/server/"
    "test_workload.py::TestAgainstLiveServer::"
    "test_open_loop_overload_sheds_and_bounds_accepted_latency`.",
    "**E14 (read-side CRC tax)**: retired with the switch it "
    "measured; every page payload is CRC-checked on read, and "
    "`tests/storage/test_checksums.py` checks that damage is caught.",
    "**E18 (replication lag and failover)**: `tests/replication/"
    "test_http_replication.py::test_stream_converges_and_lag_is_"
    "observable` (queued and replicated acks drain to zero lag with "
    "fingerprint-equal replicas) and `::test_lease_expiry_auto_"
    "promotes_the_standby`; no ledger workload covers replication "
    "yet (ROADMAP item 1).",
    "**E19 (shard scaling)**: sharded serving is the ledger's "
    "`fleet_sharded` workload; byte identity at 1, 2 and 4 shards is "
    "`tests/shard/test_engine_contract.py`, and shards=4 reaching 2x "
    "the closed-loop throughput of shards=1 on >= 4 CPUs is "
    "`tests/shard/test_server_sharded.py::"
    "test_four_shards_double_closed_loop_throughput`.",
)


def _retired_section():
    lines = ["## E13, E14, E18, E19 — system benches, retired", ""]
    lines.extend("- %s" % line for line in _RETIRED)
    lines.append("")
    return lines


def main(out_path="EXPERIMENTS.md"):
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerated by `python scripts/generate_experiments.py` "
        "(also covered by `pytest benchmarks/ --benchmark-only`, which "
        "asserts each shape).",
        "",
        "* scale: **%d points per dataset** (REPRO_BENCH_POINTS; paper "
        "ran 1.3M-10M)" % bench_points(),
        "* substrate: pure-Python engine, %s, Python %s"
        % (platform.machine(), platform.python_version()),
        "* chunks of 1000 points, compaction off (paper Table 4)",
        "",
        "Latency columns are wall-clock seconds of this substrate and "
        "are only meaningful *relative to each other*; the chunk-load / "
        "page-decode / probe columns are substrate-independent and are "
        "the primary evidence of shape reproduction.",
        "",
    ]
    for title, expectation, runner in _SECTIONS:
        print("running: %s" % title, flush=True)
        started = time.perf_counter()
        tables = runner()
        elapsed = time.perf_counter() - started
        lines.append("## %s" % title)
        lines.append("")
        lines.append("**Expected (paper):** %s" % expectation)
        lines.append("")
        for table in tables:
            lines.append(table.render_markdown())
            lines.append("")
        lines.append("_(measured in %.1f s)_" % elapsed)
        lines.append("")
    lines.extend(_artifact_sections())
    lines.extend(_matrix_section())
    lines.extend(_ingest_section())
    lines.extend(_retired_section())
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    print("wrote %s" % out_path)


if __name__ == "__main__":
    main(*sys.argv[1:])

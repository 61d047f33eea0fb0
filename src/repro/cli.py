"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``  — materialize a synthetic dataset profile as CSV
* ``load``      — ingest a CSV into a storage directory
* ``info``      — inspect a storage directory (series, chunks, deletes)
* ``query``     — run a SQL statement and print the result table
              (``--explain`` adds the span tree and M4-LSM trace)
* ``render``    — M4-reduce a series and draw it (ASCII or PBM file)
* ``fsck``      — verify every checksum in a store (exits non-zero on
              data-affecting damage; ``--quarantine`` records damaged
              chunks so reads skip them)
* ``compact``   — run full compaction on a storage directory
* ``stats``     — print the store's observability snapshot (counters,
              histogram quantiles, slow queries; text/JSON/Prometheus)
* ``serve``     — expose a store over HTTP (``repro.server``): SQL
              queries, M4 renders, stats/health, admission control;
              ``--replicate-to`` ships writes to hot standbys,
              ``--standby`` boots a replica
* ``promote``   — turn a running standby into a writable primary
              (manual failover; ``POST /replication/promote``)
* ``loadgen``   — drive a running server with seeded pan/zoom
              dashboard sessions and report throughput/latency
              (``--ingest RATE`` adds a streaming-write pump)
* ``ingest``    — stream a seeded torture workload (out-of-order,
              late, duplicate batches) into a running server's
              ``POST /ingest``, honouring Retry-After backpressure
* ``trace``     — request traces: list/fetch from a running server
              (``--url``), or probe a store locally and print the
              span tree; ``--chrome`` exports Chrome trace_event JSON
* ``profile``   — sampling wall-clock profiler: collapsed stacks from
              a running server (``--url``) or a local probe loop
* ``bench``     — scenario-matrix benchmark driver: run the standing
              cardinality x overlap x delete x operator x tile-cache
              matrix into one schema'd artifact
              (``--matrix``), and gate it against the checked-in
              baseline (``--check``, exit 1 on regression)

Every command operates on a plain directory, so the same store can be
inspected, queried and extended across invocations (recovery included).
"""

from __future__ import annotations

import argparse
import os
import sys

from .datasets.generators import PROFILES
from .datasets.loader import load_csv, save_csv
from .errors import ReproError


def _add_tile_cache(subparser):
    subparser.add_argument(
        "--tile-cache", type=int, nargs="?", const=16 * 1024 * 1024,
        default=0, metavar="BYTES",
        help="enable the M4 viewport tile cache with this LRU byte "
             "budget (bare flag = 16 MiB; pan/zoom queries reuse "
             "cached tiles, results are byte-identical either way)")


def _add_shards(subparser):
    subparser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard the store across N engine worker processes "
             "(hash-placed by series; 1 = in-process fast path, "
             "byte-identical to an unsharded store; default: follow "
             "the store's pinned shards.json topology)")


def _open_store(args, config, must_exist=True):
    """Open ``args.db`` honouring ``--shards`` and pinned topology.

    Returns a plain ``StorageEngine`` (one shard) or a
    :class:`~repro.shard.router.ShardRouter` — both context managers
    answering the same store surface, so no command asks which.
    """
    from .shard import open_store
    path = _require_store(args.db) if must_exist else args.db
    return open_store(path, config, shards=getattr(args, "shards", None))


def build_parser():
    """The argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="M4-LSM reproduction: LSM time series store with a "
                    "merge-free M4 visualization operator.")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset profile as CSV")
    generate.add_argument("--dataset", choices=sorted(PROFILES),
                          default="MF03")
    generate.add_argument("--points", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True,
                          help="output CSV path")

    load = commands.add_parser("load", help="ingest a CSV into a store")
    load.add_argument("--db", required=True, help="storage directory")
    load.add_argument("--series", required=True, help="series name")
    load.add_argument("--csv", required=True, help="input CSV path")
    load.add_argument("--chunk-points", type=int, default=1000)
    _add_shards(load)

    info = commands.add_parser("info", help="inspect a storage directory")
    info.add_argument("--db", required=True)

    query = commands.add_parser("query", help="run a SQL statement")
    query.add_argument("--db", required=True)
    query.add_argument("sql", help="statement, e.g. "
                       "\"SELECT M4(s) FROM x GROUP BY SPANS(100)\"")
    query.add_argument("--max-rows", type=int, default=40)
    query.add_argument("--explain", action="store_true",
                       help="after the result table, print the span tree "
                            "and (for M4-LSM) the per-span query trace")
    _add_tile_cache(query)
    _add_shards(query)

    render = commands.add_parser(
        "render", help="M4-reduce a series and draw a line chart")
    render.add_argument("--db", required=True)
    render.add_argument("--series", required=True)
    render.add_argument("--width", type=int, default=100)
    render.add_argument("--height", type=int, default=24)
    render.add_argument("--out", help="write a PBM image instead of ASCII")
    _add_tile_cache(render)
    _add_shards(render)

    compact = commands.add_parser(
        "compact", help="fold overlaps and deletes into fresh chunks")
    compact.add_argument("--db", required=True)

    fsck = commands.add_parser(
        "fsck", help="verify every checksum in a store")
    fsck.add_argument("--db", required=True, help="storage directory")
    fsck.add_argument("--json", action="store_true",
                      help="print the report as JSON instead of text")
    fsck.add_argument("--quarantine", action="store_true",
                      help="record damaged chunks in the store's "
                           "quarantine registry so degraded reads skip "
                           "them")
    fsck.add_argument("--no-pages", action="store_true",
                      help="skip page payload verification (fast: only "
                           "magics, metadata and record logs)")

    stats = commands.add_parser(
        "stats", help="print the store's observability snapshot")
    stats.add_argument("db", help="storage directory")
    stats.add_argument("--format", choices=("text", "json", "prometheus"),
                       default="text")
    stats.add_argument("--probe", metavar="SERIES",
                       help="run a full-range M4-LSM probe query against "
                            "SERIES before reporting")
    stats.add_argument("--probe-w", type=int, default=100,
                       help="span count for the probe query")

    serve = commands.add_parser(
        "serve", help="serve a store over HTTP (queries, renders, stats)")
    serve.add_argument("--db", required=True, help="storage directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=4,
                       help="admission worker pool size")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="queued requests before shedding with 503")
    serve.add_argument("--timeout", type=float, default=10.0,
                       help="default per-request deadline (seconds)")
    serve.add_argument("--max-timeout", type=float, default=60.0,
                       help="cap on client-requested deadlines (seconds)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    serve.add_argument("--strict", action="store_true",
                       help="disable degraded reads: a corrupt chunk "
                            "fails the request with 500 instead of a "
                            "flagged partial answer")
    serve.add_argument("--ingest-queue-bytes", type=int,
                       default=8 * 1024 * 1024, metavar="BYTES",
                       help="bounded ingest queue budget; past it "
                            "POST /ingest sheds with 429 + Retry-After "
                            "(default 8 MiB)")
    serve.add_argument("--ingest-tenant-budget", type=int, default=0,
                       metavar="BYTES",
                       help="per-tenant share of the ingest queue "
                            "(0 = no per-tenant cap)")
    serve.add_argument("--live-subscribers", type=int, default=64,
                       metavar="N",
                       help="max concurrent GET /live waiters before "
                            "shedding with 503")
    serve.add_argument("--live-poll", type=float, default=10.0,
                       metavar="SECONDS",
                       help="default long-poll wait for GET /live")
    serve.add_argument("--replicate-to", action="append", default=[],
                       metavar="URL",
                       help="ship every acknowledged write to this "
                            "standby URL (repeatable); makes this node "
                            "the replication primary")
    serve.add_argument("--standby", action="store_true",
                       help="boot as a hot standby: reads are served "
                            "with bounded staleness, writes answer 409 "
                            "naming the primary, state arrives via the "
                            "primary's POST /replicate stream")
    serve.add_argument("--node-id", default="",
                       help="stable replication node id (default: a "
                            "derived random id)")
    serve.add_argument("--advertise", default="", metavar="URL",
                       help="URL this node advertises to peers (write "
                            "redirects point here); default "
                            "http://HOST:PORT")
    serve.add_argument("--lease", type=float, default=5.0,
                       metavar="SECONDS",
                       help="replication lease: idle-heartbeat cadence "
                            "on the primary, silence budget before an "
                            "--auto-promote standby takes over")
    serve.add_argument("--auto-promote", action="store_true",
                       help="standby only: self-promote once the "
                            "primary has been silent longer than "
                            "--lease")
    serve.add_argument("--ingest-ack",
                       choices=("queued", "applied", "replicated"),
                       default="queued",
                       help="POST /ingest ack durability: queued "
                            "(enqueue), applied (WAL on this node) or "
                            "replicated (every live replica acked the "
                            "shipped frames)")
    _add_tile_cache(serve)
    _add_shards(serve)

    promote = commands.add_parser(
        "promote", help="turn a running standby into a writable primary")
    promote.add_argument("--url", required=True,
                         help="standby base URL, e.g. "
                              "http://127.0.0.1:8732")
    promote.add_argument("--json", action="store_true",
                         help="print the resulting replication status "
                              "as JSON")

    loadgen = commands.add_parser(
        "loadgen", help="drive a server with pan/zoom dashboard sessions")
    loadgen.add_argument("--url", required=True,
                         help="server base URL, e.g. http://127.0.0.1:8731")
    loadgen.add_argument("--series", action="append",
                         help="series to load (repeatable; default: all)")
    loadgen.add_argument("--mode", choices=("closed", "open"),
                         default="closed")
    loadgen.add_argument("--users", type=int, default=4,
                         help="concurrent users (closed-loop)")
    loadgen.add_argument("--rate", type=float,
                         help="arrival rate in req/s (open-loop)")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="run length in seconds")
    loadgen.add_argument("--width", type=int, default=256,
                         help="spans per query (dashboard pixel width)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--timeout-ms", type=int,
                         help="per-request deadline sent to the server")
    loadgen.add_argument("--align", action="store_true",
                         help="snap session viewports to the power-of-two "
                              "span grid so a --tile-cache server can "
                              "reuse tiles across pans and zooms")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of text")
    loadgen.add_argument("--trace-every", type=int, default=16,
                         metavar="N",
                         help="set the traceparent sampled flag on every "
                              "Nth request so the server retains those "
                              "traces (0 = never; default 16)")
    loadgen.add_argument("--ingest", type=float, default=0.0,
                         metavar="RATE",
                         help="also stream tail-append writes at RATE "
                              "points/s while the dashboard sessions "
                              "run; acks/sheds land in the report")
    loadgen.add_argument("--ingest-batch", type=int, default=200,
                         metavar="N",
                         help="points per POST /ingest batch for the "
                              "--ingest pump")
    loadgen.add_argument("--ingest-series", default="ingest-feed",
                         metavar="NAME",
                         help="series the --ingest pump appends to "
                              "(kept separate from dashboard series)")

    ingest = commands.add_parser(
        "ingest", help="stream a seeded torture workload into a server")
    ingest.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8731")
    ingest.add_argument("--series", default="torture",
                        help="target series (auto-created)")
    ingest.add_argument("--points", type=int, default=10_000)
    ingest.add_argument("--batch-size", type=int, default=500)
    ingest.add_argument("--ooo-fraction", type=float, default=0.1,
                        help="fraction of points delayed into later "
                             "batches (out-of-order arrival)")
    ingest.add_argument("--dup-fraction", type=float, default=0.02,
                        help="fraction of timestamps re-emitted later "
                             "with a different value (last wins)")
    ingest.add_argument("--max-lag", type=int, default=4,
                        help="max batches a late point lags behind")
    ingest.add_argument("--dataset", choices=sorted(PROFILES),
                        help="value shape (default: unit random walk)")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--rate", type=float, default=0.0,
                        help="pace batches at RATE points/s "
                             "(0 = as fast as acks allow)")
    ingest.add_argument("--tenant",
                        help="tenant label for per-tenant byte budgets")
    ingest.add_argument("--json", action="store_true",
                        help="print the summary as JSON")

    trace = commands.add_parser(
        "trace", help="inspect request traces (server or local probe)")
    trace.add_argument("db", nargs="?",
                       help="storage directory: run one traced probe "
                            "query locally and print its span tree")
    trace.add_argument("--url",
                       help="running server base URL: list retained "
                            "traces, or fetch one with --id")
    trace.add_argument("--id", dest="trace_id", metavar="ID",
                       help="request id (r000042) or trace id to fetch "
                            "from the server")
    trace.add_argument("--limit", type=int, default=20,
                       help="listing length (server mode)")
    trace.add_argument("--series", metavar="SERIES",
                       help="series for the local probe (default: first "
                            "with data)")
    trace.add_argument("--w", type=int, default=100,
                       help="span count for the local probe query")
    trace.add_argument("--chrome", metavar="OUT",
                       help="write the trace as Chrome trace_event JSON "
                            "to OUT (open in about:tracing / Perfetto)")
    _add_tile_cache(trace)

    profile = commands.add_parser(
        "profile", help="sampling wall-clock profiler (collapsed stacks)")
    profile.add_argument("db", nargs="?",
                         help="storage directory: profile a local probe "
                              "query loop")
    profile.add_argument("--url",
                         help="running server base URL: start the "
                              "server's profiler, wait, stop, print")
    profile.add_argument("--seconds", type=float, default=2.0,
                         help="sampling window length")
    profile.add_argument("--interval-ms", type=float, default=5.0,
                         help="sampling interval in milliseconds")
    profile.add_argument("--series", metavar="SERIES",
                         help="series for the local probe loop")
    profile.add_argument("--w", type=int, default=100,
                         help="span count for local probe queries")
    profile.add_argument("--out", metavar="FILE",
                         help="write collapsed stacks to FILE "
                              "(flamegraph.pl format) instead of stdout")
    _add_tile_cache(profile)

    bench = commands.add_parser(
        "bench", help="scenario-matrix benchmark driver + regression "
                      "gate")
    bench.add_argument("--matrix", action="store_true",
                       help="run the scenario matrix and write the "
                            "artifact to --out")
    bench.add_argument("--list", action="store_true",
                       help="list matrix cells (id + gated flag) and "
                            "exit")
    bench.add_argument("--cells", metavar="PATTERN",
                       help="only run/list cells whose id contains any "
                            "of the comma-separated substrings; the "
                            "token 'gated' selects the CI-gated subset")
    bench.add_argument("--points", type=int, metavar="N",
                       help="points per series (default: "
                            "REPRO_BENCH_POINTS or 400000)")
    bench.add_argument("--repeats", type=int, default=5,
                       help="timed runs per cell; p50/p99 and the "
                            "noise floor come from these samples")
    bench.add_argument("--out", default="benchmarks/BENCH_matrix.json",
                       metavar="PATH",
                       help="artifact path written by --matrix and "
                            "checked by a bare --check")
    bench.add_argument("--check", nargs="?", const=True,
                       metavar="ARTIFACT",
                       help="gate an artifact (default: the one just "
                            "run, else --out) against --baseline; "
                            "exits 1 on any gated regression")
    bench.add_argument("--baseline",
                       default="benchmarks/BENCH_matrix.json",
                       metavar="PATH",
                       help="baseline artifact for --check")
    bench.add_argument("--threshold", type=float, default=0.20,
                       help="relative p50 regression allowance "
                            "(default 0.20; widened by the measured "
                            "noise floor)")
    bench.add_argument("--all-cells", action="store_true",
                       help="gate every cell, not only the gated "
                            "subset")
    bench.add_argument("--wall", choices=("auto", "strict", "off"),
                       default="auto",
                       help="wall-clock gating: auto = strict only "
                            "when both artifacts share a machine "
                            "fingerprint (I/O counters always gate)")
    return parser


def _engine_config(args, **overrides):
    """A :class:`StorageConfig` from the common CLI knob
    (``--tile-cache``)."""
    from .storage.config import StorageConfig
    return StorageConfig(tile_cache_bytes=getattr(args, "tile_cache", 0),
                         **overrides)


def _require_store(path):
    """``path`` for commands that read an existing store.

    ``StorageEngine`` creates its directory on open, so without this
    check a typo'd ``--db`` would silently materialize an empty store
    instead of failing.
    """
    if not os.path.isdir(path):
        raise ReproError("no store at %r (directory does not exist)"
                         % str(path))
    return path


def main(argv=None):
    """Entry point; returns a process exit code.

    Every anticipated failure — bad SQL, missing series, a corrupt or
    absent store, filesystem errors — prints a one-line ``error:``
    message and exits 1; tracebacks are reserved for actual bugs.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Reader went away (e.g. `repro stats db | head`); redirect
        # stdout to devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _cmd_generate(args):
    """``repro generate``: write a synthetic dataset profile to CSV.

    Args (from argparse): ``dataset`` (Table 2 profile name),
    ``points``, ``seed``, ``out`` (CSV path).  Returns 0; an
    unwritable path surfaces as ``OSError`` (caught in :func:`main`).
    """
    t, v = PROFILES[args.dataset].generate(args.points, seed=args.seed)
    save_csv(args.out, t, v)
    print("wrote %d points of %s to %s" % (t.size, args.dataset, args.out))
    return 0


def _cmd_load(args):
    """``repro load``: ingest a CSV into a store, flushed to TsFiles.

    Args (from argparse): ``db``, ``series``, ``csv``,
    ``chunk-points`` plus the shared engine flags.  Creates the store
    directory if needed; returns 0.  A malformed CSV raises
    :class:`~repro.errors.ReproError` (caught in :func:`main`).
    """
    from .shard import shard_of
    t, v = load_csv(args.csv)
    config = _engine_config(
        args, avg_series_point_number_threshold=args.chunk_points)
    with _open_store(args, config, must_exist=False) as engine:
        engine.create_series(args.series)
        engine.write_batch(args.series, t, v)
        engine.flush_all()
        chunks = engine.chunk_count(args.series)
        where = " on shard %02d" % shard_of(args.series, engine.n_shards) \
            if engine.n_shards > 1 else ""
    print("loaded %d points into %s (%d chunks%s)"
          % (t.size, args.series, chunks, where))
    return 0


def _cmd_info(args):
    """``repro info``: one summary row per series (points, chunks,
    deletes, time range).  Returns 0; a missing store exits 1 via
    :func:`_require_store`.
    """
    from .storage.config import StorageConfig
    with _open_store(args, StorageConfig()) as engine:
        if engine.recovery_summary:
            print("recovered: %s" % engine.recovery_summary)
        engine.flush_all()
        if engine.n_shards > 1:
            print("sharded store: %d shards" % engine.n_shards)
        print("%-30s %8s %8s %8s %22s" % ("series", "points", "chunks",
                                          "deletes", "time range"))
        rows, down = engine.series_info()
        for row in rows:
            time_range = "(empty)" if row["chunks"] == 0 else \
                "[%d, %d]" % (row["start_time"], row["end_time"])
            print("%-30s %8d %8d %8d %22s"
                  % (row["name"], row["points"], row["chunks"],
                     row["deletes"], time_range))
        if down:
            print("warning: shard(s) down, listing incomplete: %s"
                  % ", ".join("%02d" % s for s in down))
    return 0


def _cmd_query(args):
    """``repro query``: run one SQL statement, print a pretty table.

    With ``--explain`` also prints the span tree and the operator
    trace.  Returns 0; bad SQL, unknown series and malformed ranges
    raise :class:`~repro.errors.ReproError` (caught in :func:`main`).
    """
    with _open_store(args, _engine_config(args)) as engine:
        engine.flush_all()
        if not args.explain:
            table, trace = engine.execute_sql(args.sql), None
        elif engine.n_shards > 1:
            # The span tree and solver trace live in the worker process.
            raise ReproError("--explain needs a single engine (run it "
                             "against one shard-NN directory)")
        else:
            from .query.executor import Executor
            from .query.sql import parse as parse_sql
            table, trace = Executor(engine).explain(parse_sql(args.sql),
                                                    statement=args.sql)
        print(table.pretty(max_rows=args.max_rows))
        if args.explain:
            root = engine.tracer.last_root
            if root is not None:
                print()
                print("span tree:")
                print(root.render(indent=1))
            if trace is not None:
                print()
                print(trace.render())
    return 0


def _cmd_render(args):
    """``repro render``: reduce + rasterize a series (ASCII or PBM).

    Shares ``engine.render_series`` with ``GET /render``, so CLI and
    server pixels are byte-identical — with ``--tile-cache`` the chart
    is stitched from cached M4 tiles.
    Returns 0; an empty series raises :class:`~repro.errors.ReproError`.
    """
    from .viz.chart import save_pbm, to_ascii
    with _open_store(args, _engine_config(args)) as engine:
        engine.flush_all()
        matrix, _result = engine.render_series(args.series, args.width,
                                               args.height)
        if args.out:
            save_pbm(matrix, args.out)
            print("wrote %dx%d PBM to %s" % (args.width, args.height,
                                             args.out))
        else:
            print(to_ascii(matrix))
    return 0


def _cmd_stats(args):
    """``repro stats``: print the observability snapshot (text, JSON
    or Prometheus exposition).  ``--probe SERIES`` first runs one
    M4-LSM query so a cold store still shows non-zero counters.
    Returns 0, or 1 when the probe series is unknown or empty.  On a
    sharded store the snapshot is the router's merge of every shard.
    """
    from .obs import render_text, to_json, to_prometheus
    with _open_store(args, _engine_config(args)) as engine:
        if args.probe:
            engine.flush_all()
            engine.execute_sql(_probe_sql(engine, args.probe,
                                          args.probe_w))
        snapshot = engine.observability_snapshot()
    if args.format == "json":
        print(to_json(snapshot))
    elif args.format == "prometheus":
        print(to_prometheus(snapshot["metrics"]), end="")
    else:
        print(render_text(snapshot))
    return 0


def _cmd_fsck(args):
    """``repro fsck``: offline integrity check of a whole store.

    Returns 0 for a clean store (warnings allowed), 1 when any
    data-affecting error was found — the exit code is the contract
    scripts rely on.  ``--json`` emits the machine-readable report.
    """
    import json as json_module

    from .storage.fsck import fsck_store
    # A sharded root is walked shard by shard inside fsck_store.
    report = fsck_store(_require_store(args.db),
                        quarantine=args.quarantine,
                        verify_pages=not args.no_pages)
    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2,
                                sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


def _cmd_compact(args):
    """``repro compact``: merge-sort every series into one chunk
    sequence, dropping deleted/overwritten points (and invalidating
    any cached tiles).  Prints surviving point counts; returns 0.
    """
    with _open_store(args, _engine_config(args)) as engine:
        engine.flush_all()
        counts = engine.compact()
    for name, survivors in sorted(counts.items()):
        print("%s: %d points" % (name, survivors))
    return 0


def _cmd_serve(args):
    """``repro serve``: boot the HTTP query service over a store.

    Blocks until SIGTERM/Ctrl-C, then drains in-flight requests and
    closes the engine (persisting obs — and tiles, when configured).
    Returns 0.
    """
    import signal
    import threading

    from .server import ServerConfig, start_server

    engine = _open_store(args, _engine_config(args))
    if engine.recovery_summary:
        print("recovered: %s" % engine.recovery_summary)
    engine.flush_all()  # buffered WAL points become query-visible
    advertise = args.advertise
    if not advertise and args.port:
        advertise = "http://%s:%d" % (args.host, args.port)
    config = ServerConfig(host=args.host, port=args.port,
                          workers=args.workers,
                          queue_depth=args.queue_depth,
                          default_timeout_seconds=args.timeout,
                          max_timeout_seconds=max(args.max_timeout,
                                                  args.timeout),
                          quiet=args.quiet, strict=args.strict,
                          ingest_queue_bytes=args.ingest_queue_bytes,
                          ingest_tenant_budget_bytes=(
                              args.ingest_tenant_budget),
                          live_max_subscribers=args.live_subscribers,
                          live_poll_seconds=args.live_poll,
                          standby=args.standby,
                          replicate_to=tuple(args.replicate_to or ()),
                          node_id=args.node_id,
                          advertise_url=advertise,
                          lease_seconds=args.lease,
                          auto_promote=args.auto_promote,
                          ingest_ack=args.ingest_ack)
    try:
        handle = start_server(engine, config, own_engine=True)
    except ValueError as exc:
        # e.g. replication flags against a sharded store
        engine.close()
        print("error: %s" % exc, file=sys.stderr)
        return 1
    host, port = handle.address
    role = ""
    if args.standby:
        role = " [standby%s]" % (" auto-promote" if args.auto_promote
                                 else "")
    elif args.replicate_to:
        role = " [primary -> %s]" % ", ".join(args.replicate_to)
    if engine.n_shards > 1:
        role += " [%d shards]" % engine.n_shards
    print("serving %s on http://%s:%d%s (workers=%d queue=%d "
          "timeout=%.1fs); Ctrl-C to drain and stop"
          % (args.db, host, port, role, config.workers,
             config.queue_depth, config.default_timeout_seconds),
          flush=True)
    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread (tests); Ctrl-C still works
    try:
        while not stop.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        pass
    print("draining in-flight requests ...", flush=True)
    handle.stop()
    print("server stopped; obs.json persisted")
    return 0


def _cmd_loadgen(args):
    """``repro loadgen``: drive a server with pan/zoom session load.

    Closed-loop (``--users``) or open-loop (``--mode open --rate``);
    ``--align`` snaps viewports to the tile grid so a ``--tile-cache``
    server gets reusable tiles.  Returns 0 when any request succeeded,
    1 otherwise (or on transport errors / missing ``--rate``).
    """
    import json as json_module

    from .server.workload import SessionWorkload

    if args.mode == "open" and not args.rate:
        print("error: --mode open requires --rate", file=sys.stderr)
        return 1
    workload = SessionWorkload(args.url, series=args.series,
                               width=args.width, seed=args.seed,
                               timeout_ms=args.timeout_ms,
                               align=args.align,
                               trace_every=args.trace_every,
                               ingest_rate=args.ingest,
                               ingest_batch=args.ingest_batch,
                               ingest_series=args.ingest_series)
    try:
        report = workload.run(mode=args.mode, users=args.users,
                              rate=args.rate, duration=args.duration)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2,
                                sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_promote(args):
    """``repro promote``: manual failover for a running standby.

    Asks the node at ``--url`` to freeze its applier and become a
    writable primary (``POST /replication/promote``); idempotent on a
    node that is already primary.  Returns 0 on success, 1 when the
    node has no replication role (caught in :func:`main`).
    """
    import json as json_module

    from .server.client import ReproClient

    status = ReproClient(args.url).promote()
    if args.json:
        print(json_module.dumps(status, indent=2, sort_keys=True))
    else:
        print("promoted %s: role=%s epoch=%s head_seq=%s promotions=%s"
              % (args.url, status.get("role"), status.get("epoch"),
                 status.get("head_seq"), status.get("promotions")))
    return 0


def _cmd_ingest(args):
    """``repro ingest``: stream a seeded torture workload into a server.

    Generates batches with :func:`repro.datasets.generate_torture`
    (out-of-order, late and duplicate arrivals) and POSTs them to the
    server's ``/ingest`` endpoint through the client's shared
    :meth:`~repro.server.client.ReproClient.ingest_retry` loop — 429
    sheds wait out a jittered backoff floored at ``Retry-After``, so
    the stream is lossless under backpressure; the summary separates
    sheds from errors.  Returns 0 when every batch was eventually
    acked, 1 otherwise.
    """
    import json as json_module
    import time as time_module

    from .backoff import Backoff
    from .datasets import TortureConfig, generate_torture
    from .server.client import ReproClient

    stream = generate_torture(TortureConfig(
        n_points=args.points, batch_size=args.batch_size,
        out_of_order_fraction=args.ooo_fraction,
        duplicate_fraction=args.dup_fraction,
        max_lag_batches=args.max_lag,
        dataset=args.dataset, seed=args.seed))
    client = ReproClient(args.url)
    backoff = Backoff(base=0.05, cap=2.0)
    interval = (args.batch_size / args.rate) if args.rate > 0 else 0.0
    begin = time_module.monotonic()
    acked = points = errors = 0
    for k, (ts, vs) in enumerate(stream.batches):
        if interval:
            delay = begin + k * interval - time_module.monotonic()
            if delay > 0:
                time_module.sleep(delay)
        try:
            ack = client.ingest_retry(args.series,
                                      [int(t) for t in ts],
                                      [float(v) for v in vs],
                                      tenant=args.tenant,
                                      attempts=1000, backoff=backoff)
        except (OSError, ReproError) as exc:
            errors += 1
            print("error: batch %d failed: %s" % (k, exc),
                  file=sys.stderr)
            continue
        acked += 1
        points += ack["accepted"]
    sheds = client.ingest_retries
    elapsed = time_module.monotonic() - begin
    summary = dict(stream.stats())
    summary.update(series=args.series, batches_acked=acked,
                   points_acked=points, sheds=sheds, errors=errors,
                   seconds=round(elapsed, 3),
                   points_per_second=round(points / elapsed, 1)
                   if elapsed > 0 else 0.0)
    if args.json:
        print(json_module.dumps(summary, indent=2, sort_keys=True))
    else:
        print("streamed %d points in %d batches to %s in %.2fs "
              "(%.0f pts/s) | out-of-order=%d duplicates=%d | "
              "sheds=%d errors=%d"
              % (points, acked, args.series, elapsed,
                 summary["points_per_second"],
                 summary["out_of_order"],
                 summary["duplicates"], sheds, errors))
    return 0 if errors == 0 else 1


def _probe_sql(engine, series, w, what="probe"):
    """A full-range M4 statement over ``series`` (default: the first
    series with data) — the query a dashboard would send."""
    for row in engine.series_info()[0]:
        if row["chunks"] and series in (None, row["name"]):
            return "SELECT M4(v) FROM %s GROUP BY SPANS(%d)" \
                % (row["name"], w)
    raise ReproError("no series with data to %s (asked for %r)"
                     % (what, series or "any"))


def _render_trace_node(node, indent=0):
    """Span.render for the dict form served by ``GET /trace/<id>``."""
    seconds = node.get("seconds", 0.0)
    parts = ["%s%s  %.3f ms" % ("  " * indent, node.get("name", "?"),
                                seconds * 1e3)]
    attrs = node.get("attrs") or {}
    if attrs:
        parts.append(" ".join("%s=%s" % (k, v)
                              for k, v in sorted(attrs.items())))
    counters = node.get("counters") or {}
    if counters:
        parts.append("[%s]" % " ".join(
            "%s=%d" % (k, v) for k, v in sorted(counters.items())))
    lines = ["  ".join(parts)]
    for child in node.get("children") or []:
        lines.append(_render_trace_node(child, indent + 1))
    return "\n".join(lines)


def _write_chrome_trace(doc, path):
    import json as json_module
    with open(path, "w", encoding="utf-8") as f:
        json_module.dump(doc, f, sort_keys=True)
    print("wrote Chrome trace (%d events) to %s "
          "(open in about:tracing or https://ui.perfetto.dev)"
          % (len(doc.get("traceEvents", [])), path))


def _cmd_trace(args):
    """``repro trace``: request traces, two modes.

    Server mode (``--url``): list the server's retained traces, or
    fetch one by ``--id`` and print its span tree (``--chrome OUT``
    writes Chrome ``trace_event`` JSON instead).

    Local mode (``db``): run one fully-traced probe query against the
    store and print its span tree — the offline way to see lock waits
    and tile lookups without booting a server.
    Returns 0 on success, 1 on usage errors.
    """
    if args.url:
        from .server.client import ReproClient
        client = ReproClient(args.url)
        if args.trace_id:
            if args.chrome:
                _write_chrome_trace(client.trace(args.trace_id,
                                                 fmt="chrome"),
                                    args.chrome)
                return 0
            entry = client.trace(args.trace_id)
            print("%s %s endpoint=%s status=%d %.3f ms sampled=%s"
                  % (entry["request_id"], entry["trace_id"],
                     entry["endpoint"], entry["status"],
                     entry["seconds"] * 1e3, entry["sampled"]))
            print(_render_trace_node(entry["root"]))
            return 0
        listing = client.trace_list(limit=args.limit)
        for row in listing["traces"]:
            print("%-8s %s %-7s %3d %8.3f ms%s"
                  % (row["request_id"], row["trace_id"], row["endpoint"],
                     row["status"], row["seconds"] * 1e3,
                     "  [sampled]" if row["sampled"] else ""))
        store = listing["store"]
        print("retained %d/%d seen (capacity %d)"
              % (store["retained"], store["seen"], store["capacity"]))
        return 0
    if not args.db:
        print("error: need a storage directory or --url",
              file=sys.stderr)
        return 1
    from .obs import make_traceparent, parse_traceparent, to_chrome_trace
    with _open_store(args, _engine_config(args)) as engine:
        if not engine.tracer.enabled:
            print("error: store was opened with metrics disabled",
                  file=sys.stderr)
            return 1
        engine.flush_all()
        sql = _probe_sql(engine, args.series, args.w, what="trace")
        ctx = parse_traceparent(make_traceparent(sampled=True))
        root = engine.tracer.root_span("request", endpoint="probe",
                                       request_id="probe",
                                       trace_id=ctx.trace_id)
        with root:
            engine.execute_sql(sql)
        entry = engine.traces.record(root, ctx.trace_id, "probe",
                                     "probe", 200, sampled=True)
        print(root.render())
        if args.chrome:
            _write_chrome_trace(to_chrome_trace(entry), args.chrome)
    return 0


def _cmd_profile(args):
    """``repro profile``: collapsed-stack wall-clock profile.

    Server mode (``--url``): start the server's sampler, wait
    ``--seconds`` (drive load separately, e.g. ``repro loadgen``),
    stop, and print/write the collapsed stacks.

    Local mode (``db``): sample a probe-query loop against the store.
    Output is one ``frame;frame;frame count`` line per distinct stack
    (pipe into flamegraph.pl).  Returns 0 on success, 1 on usage
    errors.
    """
    import time as time_module

    if args.interval_ms <= 0:
        print("error: --interval-ms must be positive", file=sys.stderr)
        return 1
    if args.url:
        from .server.client import ReproClient
        client = ReproClient(args.url)
        client.profile_start(interval_ms=args.interval_ms)
        time_module.sleep(max(args.seconds, 0.0))
        result = client.profile_stop()
        collapsed = result.get("collapsed", "")
        samples = result.get("profile", {}).get("samples", 0)
    elif args.db:
        from .obs import SamplingProfiler
        with _open_store(args, _engine_config(args)) as engine:
            engine.flush_all()
            sql = _probe_sql(engine, args.series, args.w,
                             what="profile")
            profiler = SamplingProfiler(
                interval=args.interval_ms / 1000.0)
            profiler.start()
            end = time_module.monotonic() + max(args.seconds, 0.0)
            while time_module.monotonic() < end:
                engine.execute_sql(sql)
            collapsed = profiler.stop()
            samples = profiler.stats()["samples"]
    else:
        print("error: need a storage directory or --url",
              file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(collapsed + ("\n" if collapsed else ""))
        print("wrote %d collapsed stacks (%d samples) to %s"
              % (len(collapsed.splitlines()), samples, args.out))
    else:
        print(collapsed)
    return 0


def _cmd_bench(args):
    """``repro bench``: the scenario-matrix driver and regression gate.

    ``--matrix`` runs the (optionally ``--cells``-filtered) matrix and
    writes one schema-validated artifact; ``--check`` gates an
    artifact against ``--baseline``.  Both can be combined — CI runs
    ``repro bench --matrix --cells gated --check`` — and the exit code
    is the contract: 0 clean, 1 on any regression, identity failure,
    missing gated cell, or schema-invalid artifact.
    """
    from .bench import (
        compare_artifacts,
        default_matrix,
        load_artifact,
        run_matrix,
        select_cells,
        write_artifact,
    )

    if args.list:
        for cell in select_cells(default_matrix(), pattern=args.cells):
            print("%-55s %s" % (cell.config.cell_id,
                                "[gated]" if cell.gate else ""))
        return 0
    if not args.matrix and not args.check:
        print("error: nothing to do (pass --matrix, --check or --list)",
              file=sys.stderr)
        return 1
    current = None
    if args.matrix:
        try:
            current = run_matrix(pattern=args.cells,
                                 points=args.points,
                                 repeats=args.repeats,
                                 progress=lambda msg: print(msg,
                                                            flush=True))
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        write_artifact(args.out, current)
        print("wrote %d cells to %s" % (len(current["rows"]), args.out))
    if args.check:
        if current is None:
            current = load_artifact(
                args.check if args.check is not True else args.out,
                kind="matrix")
        baseline = load_artifact(args.baseline, kind="matrix")
        report = compare_artifacts(current, baseline,
                                   threshold=args.threshold,
                                   gated_only=not args.all_cells,
                                   wall_mode=args.wall)
        print(report.render())
        return 0 if report.ok else 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "load": _cmd_load,
    "info": _cmd_info,
    "query": _cmd_query,
    "render": _cmd_render,
    "fsck": _cmd_fsck,
    "compact": _cmd_compact,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "promote": _cmd_promote,
    "loadgen": _cmd_loadgen,
    "ingest": _cmd_ingest,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
}

"""The traced pass: one op list replayed through every layer.

Client 0's first ops go, serially and unloaded, over HTTP to the child
server; then the server is stopped, the store is opened in-process and
the same ops are replayed through each layer's public entry point with
a span around every call (see spans.py for how self times follow).  The
layer tree of a query op is::

    http                 the round trip the client saw
      service            QueryService.query/render, in-process
        sql              parse(sql)
        shard            ShardRouter.execute_sql       (sharded only)
          executor       Executor.execute, on the owning engine
            operator     the operator the served path uses
        render_chart     render_chart                  (render ops)
          operator

``m4lsm``, ``m4udf``, ``meta``, ``decode`` and ``index`` are
stand-alone probes of the same op (no parent): unit costs and counts,
taken with ``engine.stats`` snapshots around the call.
"""

from __future__ import annotations

import json
import statistics
import time
from urllib.parse import parse_qsl, urlsplit

import child
from loadgen import Connection
from reference import DirectStore, Reference, count_mismatches
from workloads import sql_of

TRACE_OPS = 32
INDEX_PROBE_CHUNKS = 8


def _ms(seconds):
    return statistics.median(seconds) * 1e3 if seconds else None


def _tile_counters(port):
    counters = child.get_json(port, "/stats").get("metrics", {}) \
        .get("counters", {})
    return tuple(counters.get(name, {}).get("value", 0)
                 for name in ("tile_cache_hits_total",
                              "tile_cache_misses_total"))


def trace_ops_of(inputs):
    """``(ingest ops, read ops)`` the traced pass replays."""
    if inputs.feed is None:
        return [], inputs.sources[0].ops[:TRACE_OPS]
    feed = inputs.feed
    ingests = [feed.op(k) for k in range(TRACE_OPS)]
    slots = int(feed.slots_before[TRACE_OPS])
    return ingests, [feed.read_op(slots, back=i) for i in range(TRACE_OPS)]


def replay_http(port, ingests, reads, recorder):
    """Send the ops one at a time; returns ``(statuses, bodies of the
    timed reads, tile hit share)``.  A last pass over one keep-alive
    connection records ``http.keepalive`` spans (see README.md)."""
    conn = Connection(port)
    kept_alive = Connection(port, keep_alive=True)
    statuses = []
    try:
        for i, op in enumerate(ingests):
            with recorder.span("ingest.ack", i):
                statuses.append(conn.send(op)[0])
        for op in reads:                      # untimed: caches fill
            statuses.append(conn.send(op)[0])
        before = _tile_counters(port)
        bodies = []
        for i, op in enumerate(reads):
            with recorder.span("http", i):
                status, body = conn.send(op)
            statuses.append(status)
            bodies.append(body)
        after = _tile_counters(port)
        for i, op in enumerate(reads):
            with recorder.span("http.keepalive", i):
                statuses.append(kept_alive.send(op)[0])
    finally:
        conn.close()
        kept_alive.close()
    hits, misses = after[0] - before[0], after[1] - before[1]
    return statuses, bodies, hits / (hits + misses) if hits + misses else 0.0


def _call_service(service, op):
    if op.key[0] == "query":
        response = service.query(json.loads(op.body))
    else:
        response = service.render(dict(parse_qsl(urlsplit(op.path).query)))
    if response.status != 200:
        raise RuntimeError("in-process %s answered %d: %r"
                           % (op.key[0], response.status, response.body))


def _service_passes(engine, reads, recorder):
    """Warm, traced and untraced passes through ``QueryService``;
    returns the untraced pass's total seconds."""
    from repro.server.service import QueryService, ServerConfig
    service = QueryService(engine, ServerConfig(workers=2, quiet=True))
    try:
        for op in reads:
            _call_service(service, op)
        for i, op in enumerate(reads):
            with recorder.span("service", i, parent="http"):
                _call_service(service, op)
        start = time.perf_counter()
        for op in reads:
            _call_service(service, op)
        return time.perf_counter() - start
    finally:
        service.shutdown()


def _viewport(engine, key):
    """``(series, t_qs, t_qe, w)`` of an op; a render covers the series."""
    if key[0] == "query":
        return key[1:]
    chunks = engine.chunks_for(key[1])
    return (key[1], min(c.start_time for c in chunks),
            max(c.end_time for c in chunks) + 1, key[2])


def replay_layers(inputs, ingests, reads, bodies, recorder):
    """The in-process half of the traced pass.

    Returns ``(counts, untraced service seconds, mismatches)`` where
    ``counts`` holds the per-op sums the ratios are made from.
    """
    from repro import M4LSMOperator, M4UDFOperator
    from repro.core.tiles import TiledM4Operator
    from repro.query.executor import Executor
    from repro.query.sql import parse
    from repro.server.service import render_chart
    from repro.shard import open_store
    from repro.storage import StorageConfig

    config = StorageConfig(tile_cache_bytes=inputs.tile_cache_bytes)
    direct = DirectStore(inputs.path, config)
    counts = dict(chunks=0, lsm_loads=0, lsm_decoded=0, lsm_iterations=0,
                  udf_decoded=0, meta_reads=0, decode_bytes=0,
                  decode_per_chunk=[], index_probe=[])
    try:
        if direct.sharded:
            with open_store(inputs.path, config) as router:
                untraced = _service_passes(router, reads, recorder)
                for i, op in enumerate(reads):
                    with recorder.span("shard", i, parent="service"):
                        router.execute_sql(sql_of(op))
        else:
            untraced = _service_passes(direct.engine_for(reads[0].key[1]),
                                       reads, recorder)
        mismatches = count_mismatches(Reference(direct),
                                      zip(reads, bodies))

        for i, op in enumerate(reads):
            engine = direct.engine_for(op.key[1])
            stats = engine.stats
            if op.key[0] == "query":
                sql = sql_of(op)
                with recorder.span("sql", i, parent="service"):
                    parsed = parse(sql)
                with recorder.span("executor", i, parent="shard"
                                   if direct.sharded else "service"):
                    Executor(engine).execute(parsed, statement=sql)
                inner = "executor"
            else:
                with recorder.span("render_chart", i, parent="service"):
                    render_chart(engine, *op.key[1:])
                inner = "render_chart"
            series, t_qs, t_qe, w = _viewport(engine, op.key)
            tiled = engine.tile_cache is not None
            if tiled:
                with recorder.span("operator", i, parent=inner):
                    TiledM4Operator(engine).query(series, t_qs, t_qe, w)
            before = stats.snapshot()
            with recorder.span("m4lsm", i,
                               parent=None if tiled else inner):
                M4LSMOperator(engine).query(series, t_qs, t_qe, w)
            diff = stats.diff(before)
            counts["lsm_loads"] += diff.chunk_loads
            counts["lsm_decoded"] += diff.points_decoded
            counts["lsm_iterations"] += diff.candidate_iterations
            before = stats.snapshot()
            with recorder.span("m4udf", i):
                M4UDFOperator(engine).query(series, t_qs, t_qe, w)
            counts["udf_decoded"] += stats.diff(before).points_decoded

            before = stats.snapshot()
            with recorder.span("meta", i):
                metas = engine.metadata_reader(series) \
                    .chunks_overlapping(t_qs, t_qe)
            counts["meta_reads"] += stats.diff(before).metadata_reads
            counts["chunks"] += len(metas)
            if not metas:     # a viewport inside a transmission gap
                continue
            reader = engine.data_reader()
            before = stats.snapshot()
            with recorder.span("decode", i) as timed:
                for meta in metas:
                    reader.load_chunk(meta)
            counts["decode_bytes"] += stats.diff(before).bytes_read
            counts["decode_per_chunk"].append(timed["seconds"] / len(metas))
            indexes = [(reader.chunk_index(m),
                        (m.start_time + m.end_time) // 2)
                       for m in metas[:INDEX_PROBE_CHUNKS]]
            with recorder.span("index", i) as timed:
                for index, t in indexes:
                    index.exists(t)
                    index.position_after(t)
            counts["index_probe"].append(
                timed["seconds"] / (2 * len(indexes)))

        if ingests:       # ingest_mix: the next batches, written directly
            feed = inputs.feed
            engine = direct.engine_for(feed.name)
            for i in range(len(ingests)):
                t, v = feed.arrays(len(ingests) + i)
                with recorder.span("ingest.write", i, parent="ingest.ack"):
                    engine.write_batch(feed.name, t, v)
                    engine.flush(feed.name)
    finally:
        direct.close()
    return counts, untraced, mismatches


def layer_metrics(inputs, recorder, counts, untraced, hit_share, n_ops):
    """``(common, specific)`` per-layer metrics: ``common`` has every
    name in BENCHMARK.json's ``per_layer``; ``specific`` the layers only
    this workload exercises.  Values are ``(number, unit)``."""
    rtt = recorder.durations("http")
    service = recorder.durations("service")
    lsm_ms, udf_ms = _ms(recorder.durations("m4lsm")), \
        _ms(recorder.durations("m4udf"))
    writes = inputs.writes
    common = {
        "http.rtt_ms": (_ms(rtt), "ms"),
        "http.self_ms": (_ms(recorder.self_durations("http")), "ms"),
        "http.keepalive_stall_ms":
            (_ms(recorder.durations("http.keepalive")) - _ms(rtt), "ms"),
        "service.self_ms": (_ms(recorder.self_durations("service")), "ms"),
        "m4lsm.ms": (lsm_ms, "ms"),
        "m4udf.ms": (udf_ms, "ms"),
        "lsm_over_udf": (lsm_ms / udf_ms, "ratio"),
        "m4lsm.chunk_loads_per_chunk":
            (counts["lsm_loads"] / counts["chunks"], "ratio"),
        "m4lsm.decoded_share":
            (counts["lsm_decoded"] / counts["udf_decoded"], "share"),
        "m4lsm.candidate_iterations":
            (counts["lsm_iterations"] / n_ops, "count"),
        "meta.ms": (_ms(recorder.durations("meta")), "ms"),
        "meta.reads": (counts["meta_reads"] / n_ops, "count"),
        "decode.ms_per_chunk": (_ms(counts["decode_per_chunk"]), "ms"),
        "decode.bytes_read": (counts["decode_bytes"] / n_ops, "B"),
        "index.probe_us": (_ms(counts["index_probe"]) * 1e3, "us"),
        "tiles.hit_share": (hit_share, "share"),
        "write.batch_ms": (_ms(writes.batch_s), "ms"),
        "write.flush_ms": (_ms(writes.flush_s), "ms"),
        "write.bytes_per_user_byte":
            (inputs.store_bytes / (16.0 * writes.points), "ratio"),
        "accounted_share": (sum(service) / sum(rtt), "share"),
        "trace_overhead_share":
            ((sum(service) - untraced) / untraced, "share"),
    }
    specific = {}
    for name, unit, scale, seconds in (
            ("sql.parse_us", "us", 1e3, recorder.durations("sql")),
            ("executor.self_ms", "ms", 1, recorder.self_durations("executor")),
            ("viz.raster_ms", "ms", 1,
             recorder.self_durations("render_chart")),
            ("tiles.ms", "ms", 1, recorder.durations("operator")),
            ("shard.pipe_ms", "ms", 1, recorder.self_durations("shard")),
            ("ingest.ack_ms", "ms", 1, recorder.durations("ingest.ack")),
            ("ingest.write_ms", "ms", 1, recorder.durations("ingest.write")),
            ("ingest.self_ms", "ms", 1,
             recorder.self_durations("ingest.ack"))):
        if seconds:     # only the layers this workload exercises
            specific[name] = (_ms(seconds) * scale, unit)
    return common, specific

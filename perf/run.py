"""The repo benchmark: one command, every metric by name and unit.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced]

For each workload: generate the inputs from the seed, bulk-load a store,
boot ``python -m repro serve`` as a child process, drive it with 2
closed-loop clients, check outputs against M4-UDF, print the end-to-end
metrics.  ``--trace 1`` runs the traced pass instead and prints the
per-layer metrics.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); names, units and
bounds are fixed in BENCHMARK.json.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERF_DIR, "out")

SETUPS = 3            # set-ups per run; setup_s is their median
WARMUP_SHARE = 0.2    # of a timed phase, discarded before it
LATENCY_SHARE = 0.4   # of --seconds at 1 client; the rest at 2

E2E_UNITS = {
    "read_p50_ms": "ms", "read_p95_ms": "ms", "reads_per_s": "1/s",
    "acked_points_per_s": "points/s", "ack_p95_ms": "ms",
    "bytes_per_point": "B/point", "setup_s": "s",
}


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _set_up(workload, tmp, k, seed, scale):
    """One full set-up: inputs, bulk load, child boot until healthy."""
    import child
    import workloads
    start = time.perf_counter()
    inputs = workloads.make_inputs(workload, os.path.join(tmp, "db%d" % k),
                                   seed, scale)
    server = child.ServerChild(inputs.path, inputs.serve_args)
    try:
        port = server.wait_healthy()
    except BaseException:
        server.stop(kill=True)
        raise
    return inputs, server, port, time.perf_counter() - start


def run_workload(workload, seed, seconds, traced, scale=1.0):
    """Run one workload; returns the result document (also written to
    ``perf/out``).  Every process and directory it makes is gone when
    it returns, whether it returns or raises."""
    import machine
    started = time.perf_counter()
    load_start = machine.load_average()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-" % workload, dir=OUT_DIR)
    server = None
    try:
        setups = []
        for k in range(1 if traced else SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(setups[-1][0].path)
            inputs, server, port, took = _set_up(workload, tmp, k, seed,
                                                 scale)
            setups.append((inputs, took))
        measure = _traced if traced else _untraced
        result = measure(workload, inputs, server, port, seconds, setups)
    finally:
        if server is not None:
            server.stop(kill=True)
        shutil.rmtree(tmp, ignore_errors=True)
    load_end = machine.load_average()
    result.update(
        workload=workload, seed=seed, scale=scale, traced=traced,
        ops_sha256=inputs.digest, wall_s=time.perf_counter() - started,
        machine=dict(machine.describe(ROOT), load_1min_start=load_start,
                     load_1min_end=load_end,
                     noisy=max(load_start, load_end) > machine.nproc()))
    name = "%s_%s.json" % ("layers" if traced else "result", workload)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def _untraced(workload, inputs, server, port, seconds, setups):
    import child
    import loadgen
    import reference
    import workloads
    feed = inputs.feed
    cpu_start = time.process_time()
    if feed:    # writer and reader side by side for the whole window
        solo = duo = loadgen.run_closed_loop(
            port, inputs.sources, seconds, WARMUP_SHARE * seconds)
        windows = [duo]
    else:       # latency at 1 client, then throughput at 2 (README.md)
        solo, duo = windows = [
            loadgen.run_closed_loop(port, sources, share * seconds,
                                    WARMUP_SHARE * share * seconds,
                                    inputs.warm_cycles)
            for sources, share in ((inputs.sources[:1], LATENCY_SHARE),
                                   (inputs.sources, 1 - LATENCY_SHARE))]
    loadgen_cpu = time.process_time() - cpu_start
    samples = [s for w in windows for s in w.samples]
    kept = [k for w in windows for k in w.kept]
    tile_gauges = child.get_json(port, "/stats")["metrics"]["gauges"] \
        if inputs.tile_cache_bytes else {}
    server.stop(kill=feed is not None)     # ingest_mix: no clean shutdown
    store_bytes = workloads.dir_bytes(inputs.path) if feed \
        else inputs.store_bytes
    store = reference.DirectStore(inputs.path)
    try:
        mismatched = reference.count_mismatches(
            reference.Reference(store), kept)
        lost = reference.lost_feed_points(store.engine_for(feed.name),
                                          feed) if feed else 0
    finally:
        store.close()
    live = reference.expected_feed(feed)[0].size if feed \
        else inputs.live_points

    refused = sum(1 for s in samples if not s.ok)
    failed = min(refused + mismatched + lost, len(samples))
    latency = [(s.end - s.start) * 1e3 for s in solo.of("read")]
    if not latency:
        raise RuntimeError("no read was answered inside the window")
    q_read = loadgen.tail_quantile(len(latency))
    if feed:
        acks = duo.of("ingest")
        ack_ms = [(s.end - s.start) * 1e3 for s in acks]
        acked_rate = duo.rate("ingest", lambda sample: sample.points)
    else:   # the write path these workloads use is the bulk load
        ack_ms = [s * 1e3 for i, _ in setups for s in i.writes.batch_s]
        acked_rate = statistics.median(i.writes.points / i.writes.seconds
                                       for i, _ in setups)
    if not ack_ms:
        raise RuntimeError("no write was acknowledged inside the window")
    q_ack = loadgen.tail_quantile(len(ack_ms))
    values = {
        "read_p50_ms": loadgen.percentile(latency, 0.5),
        "read_p95_ms": loadgen.percentile(latency, q_read),
        "reads_per_s": duo.rate("read"),
        "acked_points_per_s": acked_rate,
        "ack_p95_ms": loadgen.percentile(ack_ms, q_ack),
        "bytes_per_point": store_bytes / live,
        "setup_s": statistics.median(took for _, took in setups),
    }
    detail = {
        "window_s": sum(w.seconds for w in windows),
        "warmup_s": sum(w.warmup_s for w in windows),
        "latency_reads": len(latency), "read_tail_quantile": q_read,
        "throughput_reads": len(duo.of("read")),
        "throughput_clients": "beside the writer" if feed else
                              "2 clients (1 client alone: %.1f/s)"
                              % solo.rate("read"),
        "acks": len(ack_ms), "ack_tail_quantile": q_ack,
        "ack_source": "served /ingest" if feed else "bulk load write_batch",
        "reads_checked": len(kept), "reads_mismatched": mismatched,
        "acked_points_lost": lost, "refused_or_errored": refused,
        "failed_share": failed / len(samples),
        "store_bytes": store_bytes, "live_points": int(live),
        "setup_runs_s": [took for _, took in setups],
        "loadgen_cpu_s": loadgen_cpu,
    }
    if tile_gauges:
        detail["tile_cache_bytes"] = \
            tile_gauges["tile_cache_bytes"]["value"]
        detail["tile_cache_budget"] = inputs.tile_cache_bytes
    gated = {m["name"] for m in _benchmark_spec()["end_to_end"]}
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
               for name, value in values.items()}
    return {
        "correct": failed == 0, "attempted": len(samples),
        "failed": failed, "detail": detail,
        "metrics": {k: v for k, v in metrics.items() if k in gated},
        # too unsteady on this machine for a bound (REPEATABILITY.md)
        "printed_only": {k: v for k, v in metrics.items()
                         if k not in gated},
    }


def _traced(workload, inputs, server, port, seconds, setups):
    import layers
    import spans
    recorder = spans.SpanRecorder()
    ingests, reads = layers.trace_ops_of(inputs)
    statuses, bodies, hit_share = layers.replay_http(port, ingests, reads,
                                                     recorder)
    server.stop()
    counts, untraced, mismatched = layers.replay_layers(
        inputs, ingests, reads, bodies, recorder)
    common, specific = layers.layer_metrics(inputs, recorder, counts,
                                            untraced, hit_share, len(reads))
    recorder.write(os.path.join(OUT_DIR, "trace_%s.json" % workload),
                   workload=workload, ops_sha256=inputs.digest)
    failed = sum(1 for s in statuses if s != 200) + mismatched
    as_metric = lambda pair: {"value": pair[0], "unit": pair[1]}
    return {
        "correct": failed == 0, "attempted": len(statuses),
        "failed": failed,
        "detail": {"ops_replayed": len(reads), "reads_checked": len(reads),
                   "reads_mismatched": mismatched,
                   "setup_runs_s": [took for _, took in setups]},
        "metrics": {k: as_metric(v) for k, v in common.items()},
        "workload_layers": {k: as_metric(v) for k, v in specific.items()},
    }


def print_result(result):
    detail = result["detail"]
    print("== %s  seed=%d  %s  ops sha256=%s"
          % (result["workload"], result["seed"],
             "traced pass" if result["traced"] else
             "%.1fs timed after %.1fs warm-up"
             % (detail["window_s"], detail["warmup_s"]),
             result["ops_sha256"][:16]))
    notes = {}
    if not result["traced"]:
        notes = {
            "read_p50_ms": "n=%d reads, 1 client" % detail["latency_reads"],
            "read_p95_ms": "p%.1f of n=%d" % (
                100 * detail["read_tail_quantile"],
                detail["latency_reads"]),
            "reads_per_s": "n=%d reads, %s" % (
                detail["throughput_reads"], detail["throughput_clients"]),
            "ack_p95_ms": "p%.1f of n=%d, %s" % (
                100 * detail["ack_tail_quantile"], detail["acks"],
                detail["ack_source"]),
            "acked_points_per_s": detail["ack_source"],
            "bytes_per_point": "%d B / %d live points" % (
                detail["store_bytes"], detail["live_points"]),
            "setup_s": "median of %d set-ups" % len(detail["setup_runs_s"]),
        }
    for group in ("metrics", "printed_only", "workload_layers"):
        for name, metric in result.get(group, {}).items():
            print("  %-28s %14.4f %-9s %s" % (name, metric["value"],
                                              metric["unit"],
                                              notes.get(name, "")))
    if not result["traced"]:
        print("  %-28s %14.4f %-9s %d of %d attempted; %d reads checked "
              "against M4-UDF, %d mismatched; %d acked points lost"
              % ("failed_share", detail["failed_share"], "share",
                 result["failed"], result["attempted"],
                 detail["reads_checked"], detail["reads_mismatched"],
                 detail["acked_points_lost"]))
        if "tile_cache_bytes" in detail:
            print("  tile cache holds %d of %d bytes"
                  % (detail["tile_cache_bytes"],
                     detail["tile_cache_budget"]))
    machine = result["machine"]
    print("  wall %.1fs; load avg %.2f -> %.2f on %d cores%s"
          % (result["wall_s"], machine["load_1min_start"],
             machine["load_1min_end"], machine["nproc"],
             "  NOISY" if machine["noisy"] else ""))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: %s holds no src/repro package to measure" % ROOT,
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="default: every workload, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="store size multiplier (smoke tests only)")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    # The server child, and the shard workers a router spawns, inherit
    # the environment; they must find the package too.
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    signal.signal(signal.SIGTERM, _terminate)

    started = time.perf_counter()
    correct = True
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.scale)
        print_result(result)
        correct = correct and result["correct"]
    if not args.workload:
        print("full set: %.1fs wall" % (time.perf_counter() - started),
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end trace smoke: serve, load, fetch a trace, validate it.

CI runs this after the server smoke as a "does request tracing actually
work over the wire" check: a tiny store is served, a short loadgen
burst runs with aggressive trace sampling, then one sampled request's
trace is fetched back by the id the load generator recorded and
validated both as a span tree (admission wait + an engine span under
one root) and as Chrome ``trace_event`` JSON (the exact schema
about:tracing and Perfetto load).  Exits non-zero on any violation.

Usage: PYTHONPATH=src python scripts/trace_smoke.py
"""

import pathlib
import sys
import tempfile

import numpy as np

from repro.server import ReproClient, ServerConfig, start_server
from repro.server.workload import SessionWorkload
from repro.storage import StorageConfig, StorageEngine


def _names(node, out):
    out.append(node["name"])
    for child in node.get("children", ()):
        _names(child, out)
    return out


def _check_chrome(doc):
    """Validate the Chrome trace_event schema; returns a fail reason
    or None."""
    if doc.get("displayTimeUnit") != "ms":
        return "displayTimeUnit is not 'ms'"
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return "traceEvents missing or empty"
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        return "no complete (ph=X) events"
    for event in complete:
        for field in ("name", "cat", "ts", "dur", "pid", "tid"):
            if field not in event:
                return "event %r missing %r" % (event.get("name"), field)
        if event["ts"] < 0 or event["dur"] < 0:
            return "negative timestamp in %r" % event["name"]
    threads = {e["tid"] for e in complete}
    named = {e["tid"] for e in events if e.get("ph") == "M"
             and e.get("name") == "thread_name"}
    if threads - named:
        return "tids without thread_name metadata: %r" % (threads - named)
    return None


def main():
    data_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-smoke-"))
    engine = StorageEngine(
        data_dir / "db",
        StorageConfig(avg_series_point_number_threshold=500))
    t = np.arange(20_000, dtype=np.int64) * 7
    engine.create_series("smoke")
    engine.write_batch("smoke", t, np.sin(t / 211.0))
    engine.flush_all()

    handle = start_server(engine, ServerConfig(port=0, quiet=True))
    print("serving on %s" % handle.url)
    client = ReproClient(handle.url)

    workload = SessionWorkload(handle.url, width=128, seed=0,
                               timeout_ms=5000, trace_every=3)
    report = workload.run(mode="closed", users=2, duration=1.5)
    print(report.render())
    if report.ok == 0 or report.errors:
        print("FAIL: loadgen burst did not complete cleanly",
              file=sys.stderr)
        return 1

    sampled = [s for s in report.samples if s["sampled"]]
    if not sampled:
        print("FAIL: no sampled requests in %d samples"
              % len(report.samples), file=sys.stderr)
        return 1

    sample = sampled[-1]
    entry = client.trace(sample["request_id"])
    if entry["trace_id"] != sample["trace_id"]:
        print("FAIL: trace id mismatch (%r != %r)"
              % (entry["trace_id"], sample["trace_id"]), file=sys.stderr)
        return 1
    names = _names(entry["root"], [])
    print("trace %s: %d spans: %s"
          % (entry["request_id"], len(names), ", ".join(sorted(set(names)))))
    if names[0] != "request":
        print("FAIL: root span is %r, not 'request'" % names[0],
              file=sys.stderr)
        return 1
    if "admission.queue_wait" not in names:
        print("FAIL: trace has no admission.queue_wait span",
              file=sys.stderr)
        return 1
    if not any(n.startswith(("operator.", "tiles.")) for n in names):
        print("FAIL: trace has no engine-level span", file=sys.stderr)
        return 1

    chrome = client.trace(sample["request_id"], fmt="chrome")
    reason = _check_chrome(chrome)
    if reason is not None:
        print("FAIL: invalid Chrome trace: %s" % reason, file=sys.stderr)
        return 1

    listing = client.trace_list(limit=10)
    if not listing["traces"] or listing["store"]["retained"] == 0:
        print("FAIL: trace listing is empty", file=sys.stderr)
        return 1

    handle.stop()
    engine.close()
    print("OK: trace retrieved and Chrome export valid (%d events)"
          % len(chrome["traceEvents"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

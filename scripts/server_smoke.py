"""End-to-end server smoke: build a store, serve it, load-test it.

CI runs this after the unit suites as a "does the whole stack actually
serve traffic" check: a tiny store is built through the public engine
API, a real server boots on an ephemeral port, one closed-loop loadgen
burst runs against it, and the process exits non-zero unless the burst
completed requests and the server drained cleanly (parseable
``obs.json`` included), and unless ``obs.json`` counts at least one
execution-slot wait (``exec_slot_wait_seconds``) per request served.

Usage: PYTHONPATH=src python scripts/server_smoke.py
"""

import json
import pathlib
import sys
import tempfile

import numpy as np

from repro.server import ReproClient, ServerConfig, start_server
from repro.server.workload import SessionWorkload
from repro.storage import StorageConfig, StorageEngine


def main():
    data_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-smoke-"))
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
    assert client.healthz()["status"] == "ok"

    workload = SessionWorkload(handle.url, width=128, seed=0,
                               timeout_ms=5000)
    report = workload.run(mode="closed", users=4, duration=2.0)
    print(report.render())

    handle.stop()
    engine.close()
    snapshot = json.loads((data_dir / "db" / "obs.json").read_text())

    if report.ok == 0 or report.throughput <= 0:
        print("FAIL: no completed requests", file=sys.stderr)
        return 1
    if report.errors:
        print("FAIL: %d transport/server errors" % report.errors,
              file=sys.stderr)
        return 1
    if "metrics" not in snapshot:
        print("FAIL: obs.json missing metrics section", file=sys.stderr)
        return 1
    slot = snapshot["metrics"]["histograms"].get("exec_slot_wait_seconds")
    if slot is None or slot["count"] < report.ok:
        print("FAIL: exec_slot_wait_seconds counts %s waits for %d "
              "requests served" % (slot and slot["count"], report.ok),
              file=sys.stderr)
        return 1
    print("OK: %.1f req/s, obs.json intact, %d slot waits"
          % (report.throughput, slot["count"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

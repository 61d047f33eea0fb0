"""Primary/standby integration over live HTTP servers.

Covers the whole wire loop: ack-after-ship ingest, standby write
redirects, client read failover, manual + lease promotion, the
anti-entropy sweep repairing a hand-diverged replica, and the
replication surface in ``/stats`` and ``/healthz``.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import NotPrimaryError
from repro.replication.antientropy import content_fingerprint
from repro.server import ReproClient


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def stream(client, n_batches=10, batch=50, series="s"):
    for k in range(n_batches):
        t = list(range(k * batch, (k + 1) * batch))
        client.ingest_retry(series, t, [float(x) for x in t],
                            attempts=50)


def test_replicated_ack_means_standby_has_it(make_pair):
    pair = make_pair(ingest_ack="replicated")
    ack = pair.client.ingest("s", [1, 2, 3], [1.0, 2.0, 3.0])
    assert ack["durability"] == "replicated"
    # No sleep: the ack itself is the synchronization point.
    assert content_fingerprint(pair.standby_engine) \
        == content_fingerprint(pair.primary_engine)


@pytest.mark.parametrize("ack", ["queued", "replicated"])
def test_stream_converges_and_lag_is_observable(make_pair, ack):
    pair = make_pair(ingest_ack=ack)
    stream(pair.client)
    # A queued ack returns before the ship, so the lag drains after it.
    assert wait_for(lambda: pair.client.replication_status()
                    ["replicas"][0]["lag_records"] == 0)
    status = pair.client.replication_status()
    assert status["role"] == "primary"
    [replica] = status["replicas"]
    assert replica["acked_seq"] == status["head_seq"]
    assert replica["lag_records"] == 0
    standby_status = pair.standby_client.replication_status()
    assert standby_status["role"] == "standby"
    assert standby_status["standby"]["applied_seq"] == status["head_seq"]
    assert content_fingerprint(pair.standby_engine) \
        == content_fingerprint(pair.primary_engine)
    # Lag gauges are exported on both sides.
    stats = pair.client.stats()
    assert "replication" in stats
    prom = pair.standby_client.stats(fmt="prometheus")
    assert "replication_lag_records" in prom


def known_primary(pair):
    """The standby can only name the primary after first contact."""
    return pair.standby_client.replication_status() \
        .get("standby", {}).get("primary")


def test_standby_redirects_writes_to_primary(make_pair):
    pair = make_pair()
    assert wait_for(lambda: known_primary(pair))
    raw = pair.standby_client.request(
        "POST", "/ingest",
        body=b'{"series": "s", "timestamps": [1], "values": [2.0]}',
        headers={"Content-Type": "application/json"})
    # The client followed the 409 redirect and the write landed on the
    # primary; the standby named it in the Location header.
    assert raw.status == 200
    assert pair.standby_client.redirects == 1
    assert pair.standby_client.endpoint == pair.client.endpoint
    assert wait_for(lambda: "s" in pair.primary_engine.series_names())


def test_standby_409_without_follow_raises_not_primary(make_pair):
    pair = make_pair()
    assert wait_for(lambda: known_primary(pair))
    lone = ReproClient(pair.standby_client.endpoints[0])
    lone._switch_to = lambda url: None  # disable the redirect follow
    with pytest.raises(NotPrimaryError) as excinfo:
        lone.ingest("s", [1], [1.0])
    assert excinfo.value.primary == pair.client.endpoint


def test_reads_fail_over_to_the_standby(make_pair):
    pair = make_pair(ingest_ack="replicated")
    stream(pair.client, n_batches=4)
    both = ReproClient([pair.client.endpoint,
                        pair.standby_client.endpoint])
    rows = both.query("SELECT M4(v) FROM s GROUP BY SPANS(4)")["rows"]
    # Hard-kill the primary's listener (no graceful drain).
    pair.primary._server.shutdown()
    pair.primary._server.server_close()
    rows2 = both.query("SELECT M4(v) FROM s GROUP BY SPANS(4)")["rows"]
    assert rows2 == rows
    assert both.failovers >= 1
    assert both.endpoint == pair.standby_client.endpoint


def test_manual_promotion_freezes_the_old_stream(make_pair):
    pair = make_pair(ingest_ack="replicated")
    stream(pair.client, n_batches=3)
    status = pair.standby_client.promote()
    assert status["role"] == "primary"
    assert status["promotions"] == 1
    # Promotion is idempotent.
    assert pair.standby_client.promote()["promotions"] == 1
    # The new primary accepts writes directly now.
    ack = pair.standby_client.ingest("s", [99_999], [1.0])
    assert ack["accepted"] == 1
    # The old primary keeps running but its shipper freezes: writes
    # there no longer reach (or overwrite) the new timeline.
    pair.client.ingest("s", [99_999], [-1.0])
    assert wait_for(lambda: pair.client.replication_status()
                    ["replicas"][0]["frozen"])
    merged = pair.standby_client.query(
        "SELECT M4(v) FROM s WHERE time >= 99999 AND time < 100000 "
        "GROUP BY SPANS(1)")
    values = [row for row in merged["rows"]]
    assert values  # the new primary's write survived
    fp = content_fingerprint(pair.standby_engine)["s"]
    assert fp["points"] == 151  # 3*50 streamed + the promoted write


def test_lease_expiry_auto_promotes_the_standby(make_pair):
    pair = make_pair(ingest_ack="replicated", auto_promote=True,
                     lease_seconds=0.6)
    stream(pair.client, n_batches=2)
    # Kill the primary's listener and stop its shipper: silence.
    pair.primary._server.shutdown()
    pair.primary._server.server_close()
    pair.primary.service.replication.stop()
    assert wait_for(lambda: pair.standby_client.replication_status()
                    ["role"] == "primary", timeout=10.0)
    status = pair.standby_client.replication_status()
    assert status["promotions"] == 1
    assert pair.standby_client.ingest("s", [5000], [1.0])["accepted"] == 1


def test_heartbeats_keep_the_lease_alive_when_idle(make_pair):
    pair = make_pair(ingest_ack="replicated", auto_promote=True,
                     lease_seconds=0.8)
    stream(pair.client, n_batches=1)
    time.sleep(2.0)  # several leases of write silence
    assert pair.standby_client.replication_status()["role"] == "standby"
    assert pair.client.replication_status()["replicas"][0]["heartbeats"] \
        >= 1


def test_sweep_repairs_a_diverged_replica(make_pair):
    pair = make_pair(ingest_ack="replicated")
    stream(pair.client, n_batches=4)
    # Diverge the standby behind replication's back: delete a range
    # directly on its engine (e.g. a restored-from-backup replica).
    pair.standby_engine.delete("s", 50, 150)
    pair.standby_engine.flush("s")
    assert content_fingerprint(pair.standby_engine) \
        != content_fingerprint(pair.primary_engine)
    report = pair.client.replication_sweep()
    assert report["clean"] is True
    [replica] = report["replicas"]
    assert replica["divergent"] == ["s"]
    assert replica["repaired"] == 1
    assert replica["divergent_after"] == []
    assert content_fingerprint(pair.standby_engine) \
        == content_fingerprint(pair.primary_engine)
    # A second sweep reports nothing to do.
    report2 = pair.client.replication_sweep()
    assert report2["clean"] is True
    assert report2["replicas"][0]["divergent"] == []


def test_sweep_on_a_standby_is_refused(make_pair):
    pair = make_pair()
    raw = pair.standby_client.request("POST", "/replication/sweep",
                                      body=b"{}")
    assert raw.status == 409


def test_healthz_reports_replication_workers(make_pair):
    pair = make_pair()
    doc = pair.client.healthz()
    assert doc["status"] == "ok"
    assert doc["replication_role"] == "primary"
    shipper_keys = [key for key in doc["workers"]
                    if key.startswith("shipper:")]
    assert shipper_keys and all(doc["workers"][k] for k in shipper_keys)
    standby_doc = pair.standby_client.healthz()
    assert standby_doc["replication_role"] == "standby"
    assert standby_doc["workers"]["ingest-writer"] is True


def test_healthz_degrades_when_the_ingest_writer_dies(make_pair):
    pair = make_pair()
    service = pair.primary.service
    dead = threading.Thread(target=lambda: None)
    dead.start()
    dead.join()
    service._ingest._thread = dead  # simulate a crashed writer thread
    doc = pair.client.healthz()
    assert doc["status"] == "degraded"
    assert doc["workers"]["ingest-writer"] is False


def test_replication_fingerprint_endpoint_matches_local(make_pair):
    pair = make_pair(ingest_ack="replicated")
    stream(pair.client, n_batches=2)
    over_wire = pair.client.replication_fingerprint()["fingerprint"]
    local = content_fingerprint(pair.primary_engine)
    assert over_wire == local


def test_standby_restart_resyncs_from_snapshot(make_pair):
    """A replica that lost its replication cursor (restart) snapshots
    back to identical content and then follows the live stream."""
    pair = make_pair(ingest_ack="replicated")
    stream(pair.client, n_batches=3)
    applier = pair.standby.service.replication.applier
    # Simulate a restarted replica: cursor gone, epoch forgotten.
    with applier._lock:
        applier._epoch = None
        applier._applied = 0
    resyncs_before = pair.client.replication_status()["replicas"][0][
        "resyncs"]
    stream(pair.client, n_batches=2, batch=10, series="s2")
    assert wait_for(
        lambda: pair.client.replication_status()["replicas"][0]
        ["resyncs"] > resyncs_before)
    assert wait_for(
        lambda: content_fingerprint(pair.standby_engine)
        == content_fingerprint(pair.primary_engine))

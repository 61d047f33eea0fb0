"""One store surface, two topologies.

Whatever ``open_store`` returns — an in-process ``StorageEngine`` or a
``ShardRouter`` over worker processes — must answer the same calls with
the same bytes.  The expected answers come from the low-level entry
points (``Executor``, ``render_chart``, ``compute_delta_spans``) on a
plain reference engine holding the same data, so a failure names the
topology that diverged.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.errors import StorageError
from repro.query.executor import Executor
from repro.query.render import compute_delta_spans, render_chart
from repro.query.sql import parse as parse_sql
from repro.shard import open_store
from repro.storage import StorageConfig, StorageEngine
from repro.viz.chart import to_pbm

NAMES = ["root.a", "root.b", "root.c", "root.d"]
SQL = ("SELECT M4(v) FROM %s GROUP BY SPANS(64)",
       "SELECT COUNT(v) FROM %s GROUP BY SPANS(8)",
       "SELECT time, value FROM %s WHERE time >= 100 AND time < 400")
RANGES = [(0, 500), (7000, 9001)]
CONFIG = StorageConfig(avg_series_point_number_threshold=500)


def _load(engine):
    for seed, name in enumerate(NAMES):
        rng = np.random.default_rng(seed)
        t = np.arange(3000, dtype=np.int64) * 5
        engine.create_series(name)
        engine.write_batch(name, t, np.sin(t / 131.0) * 4
                           + rng.normal(0, 0.3, t.size))
    engine.delete(NAMES[0], 1000, 2000)
    engine.flush_all()


@pytest.fixture(scope="module")
def expected(tmp_path_factory):
    """The answers, from the layer below the surface under test."""
    with StorageEngine(tmp_path_factory.mktemp("ref"), CONFIG) as ref:
        _load(ref)
        out = {"rows": {}, "pbm": {}, "deltas": {}, "info": [],
               "chunks": {}}
        for name in NAMES:
            out["rows"][name] = [
                (table.columns, table.rows) for table in (
                    Executor(ref).execute(parse_sql(sql % name))
                    for sql in SQL)]
            out["pbm"][name] = to_pbm(render_chart(ref, name, 128, 48)[0])
            out["deltas"][name] = compute_delta_spans(ref, name, RANGES,
                                                      100)
            chunks = ref.chunks_for(name)
            out["chunks"][name] = len(chunks)
            out["info"].append({
                "name": name, "chunks": len(chunks),
                "start_time": min(c.start_time for c in chunks),
                "end_time": max(c.end_time for c in chunks),
                "points": sum(c.n_points for c in chunks),
                "deletes": len(ref.deletes_for(name))})
        return out


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=["shards=1", "shards=2", "shards=4"])
def store(request, tmp_path_factory):
    # At 4 shards the names land on shards 2, 0, 2, 1: shard 3 owns
    # nothing, so every call also crosses an idle worker.
    path = str(tmp_path_factory.mktemp("db%d" % request.param))
    with open_store(path, CONFIG, shards=request.param) as engine:
        assert engine.n_shards == request.param
        assert len(engine.shard_workers()) == (request.param
                                               if request.param > 1 else 0)
        _load(engine)
        yield engine


def test_execute_sql_rows(store, expected):
    for name in NAMES:
        got = [store.execute_sql(sql % name) for sql in SQL]
        assert [(t.columns, t.rows) for t in got] == expected["rows"][name]


def test_render_series_pbm_bytes(store, expected):
    for name in NAMES:
        matrix, result = store.render_series(name, 128, 48)
        assert to_pbm(matrix) == expected["pbm"][name]
        assert not result.degraded


def test_delta_spans(store, expected):
    for name in NAMES:
        got = store.delta_spans(name, RANGES, 100)
        assert json.dumps(got) == json.dumps(expected["deltas"][name])


def test_series_info_and_chunk_count(store, expected):
    rows, down = store.series_info()
    assert (rows, down) == (expected["info"], [])
    for name in NAMES:
        assert store.chunk_count(name) == expected["chunks"][name]


def test_compact_reports_every_series(store):
    # Last in the module: compaction rewrites the chunk layout.
    assert store.compact() == {NAMES[0]: 2799, NAMES[1]: 3000,
                               NAMES[2]: 3000, NAMES[3]: 3000}


# -- maintenance commands on a sharded root (used to open an empty engine
# there: exit 0, nothing checked, stray catalog/mods/obs files) ---------------


@pytest.fixture
def sharded_root(tmp_path):
    root = str(tmp_path / "sdb")
    with open_store(root, CONFIG, shards=2) as engine:
        _load(engine)
    return root


def test_maintenance_commands_reach_the_shards(sharded_root, capsys):
    assert main(["compact", "--db", sharded_root]) == 0
    assert "root.a: 2799 points" in capsys.readouterr().out
    assert main(["stats", sharded_root, "--format", "json",
                 "--probe", "root.b"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert set(snapshot["shards"]) == {"shard-00", "shard-01"}
    assert snapshot["iostats"]["metadata_reads"] > 0
    assert main(["fsck", "--db", sharded_root, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] and report["chunks_checked"] > 0
    assert main(["trace", sharded_root]) == 0
    assert main(["profile", sharded_root, "--seconds", "0.05"]) == 0
    assert sorted(os.listdir(sharded_root)) == ["shard-00", "shard-01",
                                                "shards.json"]


def test_fsck_names_the_damaged_shard(sharded_root, capsys):
    victim = os.path.join(sharded_root, "shard-01", "000001.tsfile")
    with open(victim, "r+b") as f:
        f.seek(2048)  # inside the first chunk's page payload
        f.write(b"\xff" * 64)
    assert main(["fsck", "--db", sharded_root]) == 1
    assert "shard-01/000001.tsfile" in capsys.readouterr().out


def test_single_engine_refuses_a_sharded_root(sharded_root):
    with pytest.raises(StorageError, match="sharded"):
        StorageEngine(sharded_root)
    assert sorted(os.listdir(sharded_root)) == ["shard-00", "shard-01",
                                                "shards.json"]

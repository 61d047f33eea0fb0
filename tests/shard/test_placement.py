"""Placement math and the pinned on-disk topology."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.errors import StorageError
from repro.shard import (
    TOPOLOGY_FILE,
    open_store,
    read_topology,
    resolve_shards,
    shard_dir,
    shard_of,
    write_topology,
)
from repro.shard.placement import MAX_SHARDS
from repro.storage import StorageConfig, StorageEngine


class TestShardOf:
    def test_matches_crc32_mod_n(self):
        for name in ("root.a", "root.b", "ball", "sweep07", "日本語"):
            expected = zlib.crc32(name.encode("utf-8")) % 4
            assert shard_of(name, 4) == expected

    def test_stable_known_values(self):
        # Frozen: a placement change silently reshuffles every store.
        assert shard_of("root.a", 4) == zlib.crc32(b"root.a") % 4
        assert shard_of("root.a", 1) == 0

    def test_spreads_series(self):
        owners = {shard_of("root.s%d" % i, 8) for i in range(200)}
        assert owners == set(range(8))

    def test_rejects_bad_counts(self, tmp_path):
        with pytest.raises(ValueError):
            shard_of("root.a", 0)
        with pytest.raises(StorageError, match=r"\[1, %d\]" % MAX_SHARDS):
            resolve_shards(str(tmp_path), requested=MAX_SHARDS + 1)


class TestTopology:
    def test_pin_roundtrip(self, tmp_path):
        write_topology(str(tmp_path), 4)
        assert read_topology(str(tmp_path))["shards"] == 4
        doc = json.loads((tmp_path / TOPOLOGY_FILE).read_text())
        assert doc == {"version": 1, "shards": 4, "placement": "crc32"}

    def test_missing_is_none(self, tmp_path):
        assert read_topology(str(tmp_path)) is None

    def test_corrupt_file_errors(self, tmp_path):
        (tmp_path / TOPOLOGY_FILE).write_text("not json")
        with pytest.raises(StorageError):
            read_topology(str(tmp_path))

    def test_pinned_wins_over_default(self, tmp_path):
        store = str(tmp_path)
        write_topology(store, 4)
        assert resolve_shards(store) == 4
        assert resolve_shards(store, requested=4) == 4

    def test_explicit_mismatch_errors(self, tmp_path):
        store = str(tmp_path)
        write_topology(store, 4)
        with pytest.raises(StorageError, match="pinned"):
            resolve_shards(store, requested=2)

    def test_refuses_sharding_unsharded_data(self, tmp_path):
        with StorageEngine(tmp_path / "db", StorageConfig()) as eng:
            eng.create_series("s")
            eng.write("s", 1, 1.0)
            eng.flush_all()
        with pytest.raises(StorageError, match="unsharded"):
            resolve_shards(str(tmp_path / "db"), requested=4)

    def test_shard_dir_layout(self, tmp_path):
        assert shard_dir(str(tmp_path), 3).endswith("shard-03")


class TestOpenStore:
    def test_one_shard_is_plain_engine(self, tmp_path):
        with open_store(str(tmp_path / "db"), StorageConfig(),
                        shards=1) as eng:
            assert isinstance(eng, StorageEngine)
            assert eng.n_shards == 1
        # shards=1 must not pin a topology: the store stays a plain
        # single-engine directory.
        assert read_topology(str(tmp_path / "db")) is None

    def test_multi_shard_pins_and_reopens(self, tmp_path):
        store = str(tmp_path / "db")
        with open_store(store, StorageConfig(), shards=2) as eng:
            assert eng.n_shards == 2
        assert read_topology(store)["shards"] == 2
        # Reopen with no flag: the pinned topology decides.
        with open_store(store, StorageConfig()) as eng:
            assert eng.n_shards == 2

    def test_placement_survives_restart(self, tmp_path):
        store = str(tmp_path / "db")
        names = ["root.s%d" % i for i in range(20)]
        with open_store(store, StorageConfig(), shards=4) as eng:
            before = {n: eng.series_shard(n) for n in names}
        with open_store(store, StorageConfig()) as eng:
            after = {n: eng.series_shard(n) for n in names}
        assert before == after
        assert set(before.values()) == set(range(4))

"""Legacy ``BENCH_*.json`` → versioned-schema converter tests."""

import json

import pytest

from repro.bench import SCHEMA_VERSION, SchemaError, load_artifact
from repro.bench.convert import (
    convert_file,
    convert_legacy,
    detect_kind,
    main,
)

LEGACY_ROWS = {
    "server": {
        "experiment": "E14", "mode": "shed", "users": 16, "total": 400,
        "ok": 390, "shed": 10, "timeouts": 0, "throughput": 120.0,
        "p50_seconds": 0.05, "p95_seconds": 0.2, "p99_seconds": 0.4,
        "shed_rate": 0.025,
    },
    "durability": {
        "experiment": "E15", "path": "ingest", "regime": "steady",
        "verify_on_seconds": 1.2, "verify_off_seconds": 1.0,
        "overhead": 0.2,
    },
    "tiles": {
        "experiment": "E16", "pass": "warm", "viewports": 24,
        "p50_seconds": 0.01, "total_seconds": 0.4, "p50_speedup": 6.5,
        "tile_hits": 40, "tile_misses": 8, "identical": True,
    },
}


class TestDetectKind:
    @pytest.mark.parametrize("kind", sorted(LEGACY_ROWS))
    def test_each_legacy_shape_detected(self, kind):
        assert detect_kind([LEGACY_ROWS[kind]]) == kind

    def test_unknown_shape_rejected(self):
        with pytest.raises(SchemaError):
            detect_kind([{"mystery": 1}])
        with pytest.raises(SchemaError):
            detect_kind([])


class TestConvertLegacy:
    @pytest.mark.parametrize("kind", sorted(LEGACY_ROWS))
    def test_converted_artifact_validates(self, kind):
        doc = convert_legacy({"rows": [LEGACY_ROWS[kind]]},
                             created_unix=1234.5)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["kind"] == kind
        assert doc["rows"] == [LEGACY_ROWS[kind]]

    def test_substrate_is_marked_unknown(self):
        doc = convert_legacy({"rows": [LEGACY_ROWS["tiles"]]})
        meta = doc["meta"]
        assert meta["converted"] is True
        # Unknown machine_id keeps wall-clock comparisons advisory.
        assert meta["machine_id"] == "unknown"
        assert meta["git_sha"] == "unknown"
        assert meta["points"] == 0

    def test_rows_are_preserved_verbatim(self):
        row = dict(LEGACY_ROWS["durability"], extra_field="kept")
        doc = convert_legacy({"rows": [row]})
        assert doc["rows"][0]["extra_field"] == "kept"

    def test_legacy_row_missing_fields_rejected(self):
        row = dict(LEGACY_ROWS["tiles"])
        del row["identical"]
        with pytest.raises(SchemaError):
            convert_legacy({"rows": [row]})

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            convert_legacy([1, 2, 3])


class TestConvertFile:
    def write(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_converts_then_idempotent(self, tmp_path):
        path = self.write(tmp_path / "BENCH_tiles.json",
                          {"rows": [LEGACY_ROWS["tiles"]]})
        assert convert_file(path) == "converted"
        loaded = load_artifact(path, kind="tiles")
        assert loaded["meta"]["converted"] is True
        # Second pass recognises the schema and leaves the file alone.
        before = open(path, encoding="utf-8").read()
        assert convert_file(path) == "ok"
        assert open(path, encoding="utf-8").read() == before

    def test_main_reports_per_file(self, tmp_path, capsys):
        good = self.write(tmp_path / "BENCH_server.json",
                          {"rows": [LEGACY_ROWS["server"]]})
        bad = self.write(tmp_path / "BENCH_junk.json", {"rows": [{}]})
        assert main([good, bad]) == 1
        captured = capsys.readouterr()
        assert "converted" in captured.out
        assert captured.err.startswith("error:")

    def test_main_without_args_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestRepoArtifacts:
    @pytest.mark.parametrize("name,kind", [
        ("BENCH_server.json", "server"),
        ("BENCH_durability.json", "durability"),
        ("BENCH_tiles.json", "tiles"),
    ])
    def test_checked_in_artifacts_are_schema_valid(self, name, kind):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", name)
        if not os.path.exists(path):
            pytest.skip("%s not present" % name)
        load_artifact(path, kind=kind)

"""Unit tests for the versioned bench-artifact schema."""

import glob
import json
import os

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    SchemaError,
    load_artifact,
    new_artifact,
    validate_artifact,
    write_artifact,
)
from repro.bench.schema import META_FIELDS, artifact_meta, machine_id


def matrix_row(cell_id="card=1;ov=0;del=0;op=m4lsm;tiles=off",
               gate=True, p50=0.01, chunk_loads=10):
    return {
        "id": cell_id,
        "config": {"dataset": "MF03"},
        "gate": gate,
        "repeats": 3,
        "wall": {"p50_seconds": p50, "p99_seconds": p50 * 1.2,
                 "samples": [p50, p50 * 1.1, p50 * 1.2]},
        "io": {"chunk_loads": chunk_loads, "pages_decoded": 40,
               "points_decoded": 4000, "bytes_read": 65536,
               "index_lookups": 12},
        "identity": {"checked": True, "equal": True},
    }


def matrix_doc(rows=None, **meta_extra):
    return new_artifact("matrix", rows or [matrix_row()], 4000,
                        **meta_extra)


class TestValidate:
    def test_fresh_artifact_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_matrix.json"
        doc = matrix_doc()
        write_artifact(str(path), doc)
        loaded = load_artifact(str(path), kind="matrix")
        assert loaded["schema"] == SCHEMA_VERSION
        assert [r["id"] for r in loaded["rows"]] \
            == [r["id"] for r in doc["rows"]]

    def test_returns_doc_for_chaining(self):
        doc = matrix_doc()
        assert validate_artifact(doc) is doc

    def test_pre_schema_artifact_names_the_converter(self):
        with pytest.raises(SchemaError) as exc:
            validate_artifact({"rows": [matrix_row()]})
        assert "pre-schema artifact" in str(exc.value)

    def test_wrong_version_rejected(self):
        doc = matrix_doc()
        doc["schema"] = "repro-bench/99"
        with pytest.raises(SchemaError):
            validate_artifact(doc)

    def test_unknown_kind_rejected(self):
        doc = matrix_doc()
        doc["kind"] = "turbo"
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc)
        assert "matrix" in str(exc.value)

    @pytest.mark.parametrize("field", sorted(META_FIELDS))
    def test_each_missing_meta_field_rejected(self, field):
        doc = matrix_doc()
        del doc["meta"][field]
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc)
        assert field in str(exc.value)

    @pytest.mark.parametrize("field", ["id", "config", "gate", "repeats",
                                       "wall", "io", "identity"])
    def test_each_missing_row_field_rejected(self, field):
        row = matrix_row()
        del row[field]
        doc = matrix_doc()
        doc["rows"] = [row]
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc)
        assert ("%r" % field) in str(exc.value)

    def test_bool_never_passes_as_number(self):
        doc = matrix_doc()
        doc["meta"]["cpu_count"] = True
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc)
        assert "bool" in str(exc.value)

    def test_empty_samples_rejected(self):
        row = matrix_row()
        row["wall"]["samples"] = []
        doc = matrix_doc()
        doc["rows"] = [row]
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc)
        assert "samples" in str(exc.value)

    def test_duplicate_cell_ids_rejected(self):
        doc = matrix_doc()
        doc["rows"] = [matrix_row(), matrix_row()]
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc)
        assert "duplicate" in str(exc.value)

    def test_empty_rows_rejected(self):
        doc = matrix_doc()
        doc["rows"] = []
        with pytest.raises(SchemaError):
            validate_artifact(doc)

    def test_errors_fit_on_one_line(self):
        doc = matrix_doc()
        del doc["meta"]["git_sha"]
        with pytest.raises(SchemaError) as exc:
            validate_artifact(doc, path="x.json")
        message = str(exc.value)
        assert "\n" not in message and message.startswith("x.json:")


class TestLoadWrite:
    def test_not_json_is_a_one_line_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_artifact(str(path))
        assert "\n" not in str(exc.value)

    def test_missing_file_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            load_artifact(str(tmp_path / "absent.json"))

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_matrix.json"
        write_artifact(str(path), matrix_doc())
        with pytest.raises(SchemaError) as exc:
            load_artifact(str(path), kind="tiles")
        assert "expected 'tiles'" in str(exc.value)

    def test_write_refuses_invalid_doc(self, tmp_path):
        doc = matrix_doc()
        del doc["meta"]["points"]
        path = tmp_path / "bad.json"
        with pytest.raises(SchemaError):
            write_artifact(str(path), doc)
        assert not path.exists()

    def test_written_json_is_stable(self, tmp_path):
        path = tmp_path / "BENCH_matrix.json"
        doc = matrix_doc()
        write_artifact(str(path), doc)
        first = path.read_text(encoding="utf-8")
        write_artifact(str(path), doc)
        assert path.read_text(encoding="utf-8") == first
        assert first.endswith("\n")
        # sort_keys makes diffs reviewable.
        parsed = json.loads(first)
        assert list(parsed) == sorted(parsed)


class TestMeta:
    def test_machine_id_shape(self):
        fingerprint = machine_id()
        assert fingerprint.count("/") == 2
        assert "py" in fingerprint and fingerprint.endswith("cpu")

    def test_artifact_meta_extra_fields_ride_along(self):
        meta = artifact_meta(1234, repeats=7)
        assert meta["points"] == 1234
        assert meta["repeats"] == 7
        assert meta["machine_id"] == machine_id()


_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")
_ARTIFACTS = sorted(os.path.basename(path) for path in
                    glob.glob(os.path.join(_BENCH_DIR, "BENCH_*.json")))


class TestRepoArtifacts:
    def test_glob_finds_the_checked_in_artifacts(self):
        assert {"BENCH_matrix.json", "BENCH_tiles.json"} <= set(_ARTIFACTS)

    @pytest.mark.parametrize("name,kind", [
        (name, name[len("BENCH_"):-len(".json")]) for name in _ARTIFACTS])
    def test_checked_in_artifacts_are_schema_valid(self, name, kind):
        load_artifact(os.path.join(_BENCH_DIR, name), kind=kind)

"""The ``repro bench --check`` contract: exit codes and gate verdicts.

Baseline/current artifacts are synthesized (valid per the schema) so
every scenario — clean pass, injected 2x p50 slowdown, within-noise
drift, counter regression, identity failure, missing gated cell,
schema-invalid file — is deterministic and instant.
"""

import copy
import json

import pytest

from repro.bench import SchemaError, compare_artifacts, new_artifact
from repro.bench.compare import ABS_WALL_SLACK_SECONDS
from repro.cli import main

POINTS = 50_000


def cell_row(cell_id, gate=True, p50=0.100, spread=0.02, chunk_loads=120,
             checked=True, equal=True):
    samples = [p50, p50 * (1 + spread), p50 * (1 + spread / 2)]
    return {
        "id": cell_id,
        "config": {"operator": "m4lsm"},
        "gate": gate,
        "repeats": len(samples),
        "wall": {"p50_seconds": p50, "p99_seconds": max(samples),
                 "samples": samples},
        "io": {"chunk_loads": chunk_loads, "pages_decoded": 400,
               "points_decoded": 40000, "bytes_read": 655360,
               "index_lookups": 64},
        "identity": {"checked": checked, "equal": equal},
    }


def artifact(rows=None):
    rows = rows if rows is not None else [
        cell_row("card=1;ov=0;del=0;op=m4lsm;tiles=off"),
        cell_row("card=1;ov=20;del=20;op=m4lsm;tiles=off",
                 p50=0.150, chunk_loads=180),
        cell_row("card=32;ov=0;del=0;op=m4lsm;tiles=off",
                 gate=False, p50=0.900),
    ]
    return new_artifact("matrix", rows, POINTS)


def scaled(doc, wall=1.0, io=1.0):
    """A deep copy with wall samples and/or counters multiplied."""
    out = copy.deepcopy(doc)
    for row in out["rows"]:
        row["wall"]["p50_seconds"] *= wall
        row["wall"]["p99_seconds"] *= wall
        row["wall"]["samples"] = [s * wall
                                  for s in row["wall"]["samples"]]
        row["io"] = {k: int(v * io) for k, v in row["io"].items()}
    return out


class TestCompare:
    def test_self_comparison_passes(self):
        doc = artifact()
        report = compare_artifacts(doc, doc)
        assert report.ok
        assert report.cells_checked == 2           # gated cells only
        assert "PASS" in report.render()

    def test_injected_2x_slowdown_fails(self):
        base = artifact()
        report = compare_artifacts(scaled(base, wall=2.0), base)
        assert not report.ok
        rendered = report.render()
        assert "FAIL" in rendered and "p50" in rendered

    def test_within_noise_drift_passes(self):
        base = artifact()
        report = compare_artifacts(scaled(base, wall=1.10), base)
        assert report.ok

    def test_noisy_samples_widen_the_allowance(self):
        base = artifact(rows=[cell_row("cell-a", p50=0.100, spread=0.40)])
        # +50% would fail the 20% threshold, but the baseline's own
        # repeats vary by 40%, so the allowance widens past it.
        current = artifact(rows=[cell_row("cell-a", p50=0.150,
                                          spread=0.40)])
        assert compare_artifacts(current, base).ok

    def test_sub_millisecond_cells_never_wall_gate(self):
        base = artifact(rows=[cell_row("cell-a", p50=0.0004)])
        current = artifact(rows=[cell_row("cell-a", p50=0.0008)])
        # 2x slower but within the absolute slack.
        assert 0.0008 < 0.0004 * 1.2 + ABS_WALL_SLACK_SECONDS
        assert compare_artifacts(current, base).ok

    def test_io_regression_fails_even_with_wall_off(self):
        base = artifact()
        report = compare_artifacts(scaled(base, io=2.0), base,
                                   wall_mode="off")
        assert not report.ok
        assert "chunk_loads" in report.render()

    def test_io_tolerance_absorbs_tiny_drift(self):
        base = artifact()
        current = copy.deepcopy(base)
        for row in current["rows"]:
            row["io"]["chunk_loads"] += 1          # one extra probe
        assert compare_artifacts(current, base).ok

    def test_identity_failure_fails(self):
        base = artifact()
        current = copy.deepcopy(base)
        current["rows"][0]["identity"]["equal"] = False
        report = compare_artifacts(current, base)
        assert not report.ok
        assert "identity" in report.render()

    def test_missing_gated_cell_fails(self):
        base = artifact()
        current = copy.deepcopy(base)
        del current["rows"][0]
        report = compare_artifacts(current, base)
        assert not report.ok
        assert "missing" in report.render()

    def test_missing_ungated_cell_ignored(self):
        base = artifact()
        current = copy.deepcopy(base)
        current["rows"] = [row for row in current["rows"] if row["gate"]]
        assert compare_artifacts(current, base).ok

    def test_ungated_cells_checked_with_all_cells(self):
        base = artifact()
        report = compare_artifacts(base, base, gated_only=False)
        assert report.cells_checked == 3

    def test_new_cell_is_informational(self):
        base = artifact()
        current = copy.deepcopy(base)
        current["rows"].append(cell_row("brand-new-cell"))
        report = compare_artifacts(current, base)
        assert report.ok
        assert "new cell" in report.render()

    def test_cross_machine_wall_is_advisory(self):
        base = artifact()
        current = scaled(base, wall=3.0)
        base["meta"]["machine_id"] = "other-arch/py3.9/64cpu"
        report = compare_artifacts(current, base)
        assert report.ok                   # warn, not fail
        rendered = report.render()
        assert "advisory" in rendered and "WARN" in rendered

    def test_strict_mode_overrides_machine_mismatch(self):
        base = artifact()
        current = scaled(base, wall=3.0)
        base["meta"]["machine_id"] = "other-arch/py3.9/64cpu"
        report = compare_artifacts(current, base, wall_mode="strict")
        assert not report.ok

    def test_mismatched_scales_are_not_comparable(self):
        base = artifact()
        current = copy.deepcopy(base)
        current["meta"]["points"] = POINTS * 2
        with pytest.raises(SchemaError) as exc:
            compare_artifacts(current, base)
        assert "not comparable" in str(exc.value)


class TestCheckCli:
    def write(self, path, doc):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return str(path)

    def test_clean_check_exits_zero(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", artifact())
        cur = self.write(tmp_path / "cur.json", artifact())
        assert main(["bench", "--check", cur, "--baseline", base]) == 0
        assert "bench gate: PASS" in capsys.readouterr().out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        doc = artifact()
        base = self.write(tmp_path / "base.json", doc)
        cur = self.write(tmp_path / "cur.json", scaled(doc, wall=2.0))
        assert main(["bench", "--check", cur, "--baseline", base]) == 1
        assert "bench gate: FAIL" in capsys.readouterr().out

    def test_schema_invalid_artifact_is_a_one_line_error(self, tmp_path,
                                                         capsys):
        doc = artifact()
        del doc["meta"]["machine_id"]
        base = self.write(tmp_path / "base.json", artifact())
        cur = self.write(tmp_path / "cur.json", doc)
        assert main(["bench", "--check", cur, "--baseline", base]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_pre_schema_artifact_names_the_converter(self, tmp_path,
                                                     capsys):
        base = self.write(tmp_path / "base.json", artifact())
        cur = self.write(tmp_path / "cur.json", {"rows": [{}]})
        assert main(["bench", "--check", cur, "--baseline", base]) == 1
        assert "pre-schema artifact" in capsys.readouterr().err

    def test_threshold_flag_respected(self, tmp_path, capsys):
        doc = artifact()
        base = self.write(tmp_path / "base.json", doc)
        cur = self.write(tmp_path / "cur.json", scaled(doc, wall=1.5))
        assert main(["bench", "--check", cur, "--baseline", base,
                     "--threshold", "0.2"]) == 1
        capsys.readouterr()
        assert main(["bench", "--check", cur, "--baseline", base,
                     "--threshold", "0.8"]) == 0

    def test_list_prints_the_matrix(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "card=1;ov=0;del=0;op=m4udf;tiles=off" in out
        assert "[gated]" in out

    def test_nothing_to_do_is_an_error(self, capsys):
        assert main(["bench"]) == 1
        assert "nothing to do" in capsys.readouterr().err

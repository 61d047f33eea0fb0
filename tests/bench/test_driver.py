"""Unit tests for the scenario-matrix driver and its noise helpers."""

import pytest

from repro.bench import (
    Cell,
    CellConfig,
    default_matrix,
    grew_by,
    median,
    noise_allowance,
    rel_spread,
    run_matrix,
    select_cells,
    validate_artifact,
    wall_ratio,
    within_factor,
)
from repro.bench.driver import generate_cell_data, quantile

TINY = 2_000


class TestNoiseHelpers:
    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_quantile(self):
        values = list(range(100))
        assert quantile(values, 0.0) == 0
        assert quantile(values, 0.5) == 50
        assert quantile(values, 0.99) == 99
        assert quantile([7], 0.99) == 7

    def test_rel_spread(self):
        assert rel_spread([1.0, 1.0, 1.0]) == 0.0
        assert rel_spread([1.0, 1.5, 2.0]) == pytest.approx(2 / 3)
        assert rel_spread([0.0, 0.0]) == 0.0

    def test_noise_allowance_widens_with_spread(self):
        tight = [1.0, 1.01, 1.02]
        assert noise_allowance(tight, tight, 0.2) == 0.2
        noisy = [1.0, 1.2, 1.5]
        # rel_spread = (1.5 - 1.0) / median 1.2; allowance doubles it.
        assert noise_allowance(tight, noisy, 0.2) \
            == pytest.approx(2 * 0.5 / 1.2)

    def test_wall_ratio_clamps_to_floor(self):
        assert wall_ratio(1e-4, 1e-6) == 1.0
        assert wall_ratio(0.05, 0.001) == pytest.approx(10.0)
        assert wall_ratio(0.05, 0.025) == pytest.approx(2.0)

    def test_within_factor(self):
        assert within_factor(1e-4, 1e-6, 1.5)          # both sub-floor
        assert within_factor(0.012, 0.01, 1.5)
        assert not within_factor(0.02, 0.01, 1.5)
        # A raised floor encodes "small in absolute terms".
        assert within_factor(0.02, 0.01, 1.5, floor=0.02)

    def test_grew_by(self):
        # Sub-floor value: a tiny run cannot refute a growth claim.
        assert grew_by(1e-4, 1e-5, 100)
        assert grew_by(0.1, 0.01, 2)
        assert not grew_by(0.1, 0.09, 2)


class TestMatrixShape:
    def test_default_matrix_covers_the_required_cells(self):
        cells = default_matrix()
        assert len(cells) >= 24
        ids = [c.config.cell_id for c in cells]
        assert len(set(ids)) == len(ids)
        gated = [c for c in cells if c.gate]
        assert len(gated) >= 8
        # Every axis is represented somewhere in the matrix.
        assert any(c.config.cardinality > 1 for c in cells)
        assert any(c.config.overlap_pct > 0 for c in cells)
        assert any(c.config.delete_pct > 0 for c in cells)
        assert any(c.config.tiles for c in cells)
        assert {c.config.operator for c in cells} \
            == {"m4udf", "m4lsm", "m4lsm-tiles"}

    def test_cell_id_format(self):
        config = CellConfig(cardinality=8, overlap_pct=20, delete_pct=10,
                            operator="m4udf", tiles=True)
        assert config.cell_id \
            == "card=8;ov=20;del=10;op=m4udf;tiles=on"

    def test_fingerprint_shared_across_operators(self):
        a = CellConfig(operator="m4udf", overlap_pct=20)
        b = CellConfig(operator="m4lsm", overlap_pct=20, w=256)
        c = CellConfig(operator="m4lsm", overlap_pct=30)
        assert a.store_fingerprint(TINY) == b.store_fingerprint(TINY)
        assert a.store_fingerprint(TINY) != c.store_fingerprint(TINY)
        assert a.store_fingerprint(TINY) != a.store_fingerprint(TINY * 2)

    def test_select_cells_by_substring(self):
        cells = default_matrix()
        tiles = select_cells(cells, pattern="tiles=on")
        assert tiles and all(c.config.tiles for c in tiles)
        both = select_cells(cells, pattern="op=m4lsm-tiles,card=32")
        assert both
        assert all(c.config.operator == "m4lsm-tiles"
                   or c.config.cardinality == 32 for c in both)

    def test_select_cells_gated_token(self):
        cells = default_matrix()
        gated = select_cells(cells, pattern="gated")
        assert gated == [c for c in cells if c.gate]
        gated_udf = select_cells(cells, pattern="gated,op=m4udf")
        assert gated_udf
        assert all(c.gate and c.config.operator == "m4udf"
                   for c in gated_udf)

    def test_select_cells_gated_only_flag(self):
        cells = default_matrix()
        assert select_cells(cells, gated_only=True) \
            == [c for c in cells if c.gate]


class TestGenerateCellData:
    def test_primary_plus_extras(self):
        config = CellConfig(dataset="KOB", cardinality=3, seed=5)
        series = generate_cell_data(config, 500)
        assert [name for name, _, _ in series] \
            == ["kob", "extra-000", "extra-001"]
        for _, t, v in series:
            assert len(t) == len(v) == 500
        # Extra series are genuinely distinct data, not copies.
        assert list(series[1][2][:20]) != list(series[2][2][:20])


class TestRunMatrixTiny:
    # Big enough that the working set outgrows the chunk cache (the
    # cold/warm I/O contrast the matrix documents); small enough to
    # stay in the fast suite.
    POINTS = 20_000

    @pytest.fixture(scope="class")
    def artifact(self):
        cells = [
            Cell(CellConfig(operator="m4udf", overlap_pct=20,
                            delete_pct=20), gate=True),
            Cell(CellConfig(operator="m4lsm", overlap_pct=20,
                            delete_pct=20), gate=True),
            Cell(CellConfig(operator="m4lsm", overlap_pct=20,
                            delete_pct=20, tiles=True), gate=False),
            Cell(CellConfig(operator="m4lsm-tiles", overlap_pct=20,
                            delete_pct=20, tiles=True), gate=False),
        ]
        return run_matrix(cells=cells, points=self.POINTS, repeats=2)

    def test_artifact_validates(self, artifact):
        assert validate_artifact(artifact) is artifact
        assert artifact["kind"] == "matrix"
        assert artifact["meta"]["points"] == self.POINTS
        assert artifact["meta"]["repeats"] == 2

    def test_every_cell_reported(self, artifact):
        rows = {row["id"]: row for row in artifact["rows"]}
        assert len(rows) == 4
        assert sum(1 for row in rows.values() if row["gate"]) == 2

    def test_identity_checks(self, artifact):
        for row in artifact["rows"]:
            op = row["config"]["operator"]
            if op == "m4udf":
                assert not row["identity"]["checked"]
            else:
                assert row["identity"]["checked"]
            assert row["identity"]["equal"], row["id"]

    def test_wall_and_io_populated(self, artifact):
        for row in artifact["rows"]:
            assert len(row["wall"]["samples"]) == 2
            assert row["wall"]["p50_seconds"] > 0
            assert row["io"]["points_decoded"] >= 0

    def test_gated_counters_always_recorded(self, artifact):
        from repro.bench.compare import GATED_IO_COUNTERS
        for row in artifact["rows"]:
            for counter in GATED_IO_COUNTERS:
                value = row["io"][counter]
                assert isinstance(value, int) and value >= 0, row["id"]

    def test_warmed_tiles_do_no_chunk_io(self, artifact):
        tiled = [row for row in artifact["rows"]
                 if row["config"]["operator"] == "m4lsm-tiles"]
        assert tiled and tiled[0]["io"]["chunk_loads"] == 0

    def test_empty_selection_raises(self):
        with pytest.raises(ValueError):
            run_matrix(pattern="no-such-cell", points=TINY)

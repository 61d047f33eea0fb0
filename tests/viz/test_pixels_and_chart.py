"""Unit tests for pixel comparison metrics and chart output."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.viz import (
    column_value_extents,
    compare_pixels,
    diff_overlay,
    save_pbm,
    side_by_side,
    to_ascii,
    to_pbm,
)


@pytest.fixture
def matrices():
    ref = np.zeros((3, 4), dtype=bool)
    ref[1, 1] = ref[2, 2] = True
    cand = np.zeros((3, 4), dtype=bool)
    cand[1, 1] = cand[0, 3] = True
    return ref, cand


class TestComparePixels:
    def test_identical(self, matrices):
        ref, _ = matrices
        comparison = compare_pixels(ref, ref.copy())
        assert comparison.is_exact()
        assert comparison.error_ratio == 0.0
        assert comparison.ssim_like == 1.0

    def test_differences_classified(self, matrices):
        ref, cand = matrices
        comparison = compare_pixels(ref, cand)
        assert comparison.missing_pixels == 1   # (2,2) missing
        assert comparison.spurious_pixels == 1  # (0,3) spurious
        assert comparison.differing_pixels == 2
        assert comparison.reference_lit == 2
        assert not comparison.is_exact()

    def test_error_ratio(self, matrices):
        ref, cand = matrices
        assert compare_pixels(ref, cand).error_ratio == 2 / 12

    def test_shape_mismatch_rejected(self, matrices):
        ref, _ = matrices
        with pytest.raises(ReproError):
            compare_pixels(ref, np.zeros((2, 2), dtype=bool))

    def test_empty_canvases(self):
        a = np.zeros((2, 2), dtype=bool)
        comparison = compare_pixels(a, a)
        assert comparison.ssim_like == 1.0

    def test_column_value_extents(self, matrices):
        ref, _ = matrices
        assert column_value_extents(ref) == [(-1, -1), (1, 1), (2, 2),
                                             (-1, -1)]


class TestAscii:
    def test_renders_top_row_first(self):
        matrix = np.array([[True, False], [False, True]])
        art = to_ascii(matrix)
        assert art.splitlines() == [".#", "#."]

    def test_custom_glyphs(self):
        matrix = np.array([[True]])
        assert to_ascii(matrix, lit="X", dark="_") == "X"

    def test_downsampling_wide_matrix(self):
        matrix = np.zeros((2, 400), dtype=bool)
        matrix[0, 399] = True
        art = to_ascii(matrix, max_width=100)
        lines = art.splitlines()
        assert len(lines[0]) == 100
        assert lines[1].endswith("#")

    def test_non_2d_rejected(self):
        with pytest.raises(ReproError):
            to_ascii(np.zeros(4, dtype=bool))

    def test_side_by_side(self):
        matrix = np.array([[True, False]])
        out = side_by_side(matrix, matrix, gap=" | ")
        assert out == "#. | #."

    def test_side_by_side_height_mismatch(self):
        with pytest.raises(ReproError):
            side_by_side(np.zeros((1, 2), dtype=bool),
                         np.zeros((2, 2), dtype=bool))


class TestPbm:
    def test_header_and_body(self):
        matrix = np.array([[True, False]])
        pbm = to_pbm(matrix)
        assert pbm.startswith("P1\n2 1\n")
        assert "1 0" in pbm

    def test_save_and_parse(self, tmp_path):
        matrix = np.array([[True, False], [False, True]])
        path = tmp_path / "img.pbm"
        save_pbm(matrix, path)
        content = path.read_text().split()
        assert content[0] == "P1"
        assert content[1:3] == ["2", "2"]


    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (100, 50), (2, 1),
                                       (0, 0), (0, 4), (3, 0)])
    def test_matches_joined_text(self, shape):
        matrix = np.random.default_rng(sum(shape)).random(shape) < 0.4
        assert to_pbm(matrix) == _joined_pbm(matrix)


def _joined_pbm(matrix):
    """Reference P1 serialisation: one string join per row."""
    m = np.asarray(matrix, dtype=bool)[::-1]
    header = "P1\n%d %d\n" % (m.shape[1], m.shape[0])
    body = "\n".join(" ".join("1" if cell else "0" for cell in row)
                     for row in m)
    return header + body + "\n"


class TestDiffOverlay:
    def test_marks_all_four_states(self, matrices):
        ref, cand = matrices
        overlay = diff_overlay(ref, cand)
        assert "#" in overlay and "-" in overlay and "+" in overlay \
            and "." in overlay

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            diff_overlay(np.zeros((1, 1), dtype=bool),
                         np.zeros((2, 2), dtype=bool))

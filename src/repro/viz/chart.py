"""Human-viewable chart output: ASCII art and PBM image export.

These are convenience surfaces over the binary matrices produced by
:mod:`repro.viz.raster` — used by the examples to show, in a terminal,
that the M4 rendering of a million-point series is indistinguishable
from the full rendering.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError


def to_ascii(matrix, lit="#", dark=".", max_width=120):
    """Render a binary matrix as ASCII art (top row first).

    Wide matrices are downsampled column-wise by OR-ing neighbours so the
    art fits a terminal; that preserves lit-ness, not exact pixels.
    """
    m = np.asarray(matrix, dtype=bool)
    if m.ndim != 2:
        raise ReproError("expected a 2-D pixel matrix")
    if m.shape[1] > max_width:
        factor = -(-m.shape[1] // max_width)  # ceil division
        pad = (-m.shape[1]) % factor
        padded = np.pad(m, ((0, 0), (0, pad)))
        m = padded.reshape(m.shape[0], -1, factor).any(axis=2)
    rows = []
    for row in m[::-1]:  # row 0 is the chart bottom; print top first
        rows.append("".join(lit if cell else dark for cell in row))
    return "\n".join(rows)


def side_by_side(left, right, gap="   ", **kwargs):
    """Two matrices rendered next to each other for visual comparison."""
    a = to_ascii(left, **kwargs).splitlines()
    b = to_ascii(right, **kwargs).splitlines()
    if len(a) != len(b):
        raise ReproError("matrices differ in height")
    return "\n".join(la + gap + lb for la, lb in zip(a, b))


def to_pbm(matrix):
    """Serialize a binary matrix as a plain-text PBM (P1) image."""
    m = np.asarray(matrix, dtype=bool)[::-1]  # image origin is top-left
    height, width = m.shape
    header = "P1\n%d %d\n" % (width, height)
    if not m.size:
        return header + "\n" * max(height, 1)
    # One byte array: '0'/'1' cells, ' ' between them, '\n' per row.
    body = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    body[:, 0::2] = m + ord("0")
    body[:, -1] = ord("\n")
    return header + body.tobytes().decode("ascii")


def save_pbm(matrix, path):
    """Write a binary matrix as a PBM file."""
    with open(path, "w", encoding="ascii") as f:
        f.write(to_pbm(matrix))


def diff_overlay(reference, candidate):
    """Character matrix marking agreement: ``#`` both lit, ``-`` missing
    (reference only), ``+`` spurious (candidate only), ``.`` both dark."""
    ref = np.asarray(reference, dtype=bool)
    cand = np.asarray(candidate, dtype=bool)
    if ref.shape != cand.shape:
        raise ReproError("matrices differ in shape")
    out = np.full(ref.shape, ".", dtype="<U1")
    out[ref & cand] = "#"
    out[ref & ~cand] = "-"
    out[~ref & cand] = "+"
    return "\n".join("".join(row) for row in out[::-1])

"""Text-to-raster rendering with the 5x7 bitmap font.

Rendering parameters (scale, tracking, margins) are deliberately simple
and deterministic so the OCR engine in :mod:`repro.imaging.ocr` can invert
the process.  This is how the synthetic corpus embeds URLs in images and
how login-page "screenshots" are composed.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.font import GLYPH_HEIGHT, GLYPH_WIDTH, glyph_for
from repro.imaging.image import BLACK, WHITE, Image

#: Blank columns inserted between consecutive glyphs, in font cells.
TRACKING = 1
#: Blank rows inserted between consecutive lines, in font cells.
LEADING = 2


def _line_matrix(text: str) -> np.ndarray:
    """Compose one line of text into a boolean matrix (True = ink)."""
    if not text:
        return np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH), dtype=bool)
    columns = len(text) * GLYPH_WIDTH + (len(text) - 1) * TRACKING
    matrix = np.zeros((GLYPH_HEIGHT, columns), dtype=bool)
    x = 0
    for char in text:
        matrix[:, x : x + GLYPH_WIDTH] = glyph_for(char)
        x += GLYPH_WIDTH + TRACKING
    return matrix


def render_text(
    text: str,
    scale: int = 2,
    fg: tuple[int, int, int] = BLACK,
    bg: tuple[int, int, int] = WHITE,
    margin: int = 4,
) -> Image:
    """Render a single line of text as an :class:`Image`.

    ``scale`` multiplies the 5x7 cell size; ``margin`` is the border in
    output pixels on every side.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    matrix = _line_matrix(text)
    scaled = matrix.repeat(scale, axis=0).repeat(scale, axis=1)
    height, width = scaled.shape
    image = Image.new(width + 2 * margin, height + 2 * margin, bg)
    region = image.pixels[margin : margin + height, margin : margin + width]
    region[scaled] = fg
    return image


def render_lines(
    lines: list[str],
    scale: int = 2,
    fg: tuple[int, int, int] = BLACK,
    bg: tuple[int, int, int] = WHITE,
    margin: int = 4,
) -> Image:
    """Render multiple lines of text, top to bottom, left-aligned."""
    if not lines:
        raise ValueError("render_lines requires at least one line")
    matrices = [_line_matrix(line) for line in lines]
    line_height = GLYPH_HEIGHT + LEADING
    total_rows = line_height * len(lines) - LEADING
    total_cols = max(matrix.shape[1] for matrix in matrices)
    combined = np.zeros((total_rows, total_cols), dtype=bool)
    for index, matrix in enumerate(matrices):
        y = index * line_height
        combined[y : y + GLYPH_HEIGHT, : matrix.shape[1]] = matrix
    scaled = combined.repeat(scale, axis=0).repeat(scale, axis=1)
    height, width = scaled.shape
    image = Image.new(width + 2 * margin, height + 2 * margin, bg)
    region = image.pixels[margin : margin + height, margin : margin + width]
    region[scaled] = fg
    return image

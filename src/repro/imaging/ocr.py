"""Template-matching OCR for images rendered with the 5x7 bitmap font.

Section IV-B of the paper scans inline and attached images for URLs
"using a combination of Optical Character Recognition libraries".  This
module plays that role for the raster substrate: it recovers the text of
an image produced by :mod:`repro.imaging.render` (possibly re-scaled or
lightly degraded) without being told the rendering parameters.

The engine works in four steps:

1. binarise the image into ink/background (auto polarity),
2. estimate the cell scale from ink run lengths,
3. segment lines and, per line, search a small set of grid alignments,
4. decode each grid cell by nearest-glyph template matching.

Steps 3 and 4 are whole-array kernels.  One integral image (summed-area
table) of the ink mask serves every scale; one fancy-indexed lookup of
its corners yields the ink count of all 7x5 font cells of every glyph
cell of every grid alignment of a line, with coordinates clipped to the
mask exactly as array slicing clips a block.  A bit is set when
``2 * ink >= area > 0``, the integer form of ``block.mean() >= 0.5``, so
the bits equal a per-cell loop's (``tests/test_imaging_ocr.py`` keeps
that loop as the reference).  Step 4 flattens each cell to a 35-vector
``a`` and matches all cells of all alignments against the glyph stack
``g`` in one matrix product: the Hamming distance is
``|a| + |g| - 2 * a . g``.  Every term is a 0/1 product and every
partial sum an integer of at most 35, exact in floating point whatever
order the product sums in, so the distances, and the first-minimum
glyph ``argmin`` picks, equal a broadcast XOR's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.imaging.font import GLYPH_HEIGHT, GLYPH_WIDTH, GLYPHS
from repro.imaging.image import Image, integral_image

#: Width of one glyph cell including tracking, in font units.
_CELL_WIDTH = GLYPH_WIDTH + 1

_GLYPH_ITEMS = sorted(GLYPHS.items())
_GLYPH_STACK = np.stack([glyph for _, glyph in _GLYPH_ITEMS])
_GLYPH_CHARS = [char for char, _ in _GLYPH_ITEMS]
_SPACE = _GLYPH_CHARS.index(" ")
#: The glyphs as the columns of a ``(35, G)`` matrix, and their ink counts.
_GLYPH_MATRIX = _GLYPH_STACK.reshape(len(_GLYPH_STACK), -1).T.astype(np.float32)
_GLYPH_INK = _GLYPH_MATRIX.sum(axis=0)


@dataclass(frozen=True)
class OcrResult:
    """The decoded text together with a mean per-cell confidence in [0, 1]."""

    text: str
    confidence: float


def _binarize(image: Image) -> np.ndarray:
    """Return a boolean ink mask; ink is the minority class."""
    gray = image.to_grayscale()
    low, high = float(gray.min()), float(gray.max())
    if high - low < 1e-9:  # flat image, no ink
        return np.zeros(gray.shape, dtype=bool)
    mask = gray < (low + high) / 2.0
    if mask.mean() > 0.5:
        mask = ~mask
    return mask


def _run_lengths(mask: np.ndarray) -> Counter:
    """Count lengths of consecutive-True runs along both axes.

    Runs are counted row by row, rows first and then columns, so the
    counter's insertion order (``most_common``'s tie-break) is scan order.
    """
    lengths = []
    for axis_mask in (mask, mask.T):
        padded = np.zeros((axis_mask.shape[0], axis_mask.shape[1] + 2), dtype=bool)
        padded[:, 1:-1] = axis_mask
        # Row-major, each line's edges alternate run start, run end.
        edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
        lengths.append(edges[1::2] - edges[::2])
    return Counter(np.concatenate(lengths).tolist())


def _estimate_scale(mask: np.ndarray) -> int:
    """Estimate the pixel size of one font cell from ink run lengths.

    Glyph strokes are one font cell thick, so the most common run length
    is a reliable estimate of the rendering scale.
    """
    counts = _run_lengths(mask)
    if not counts:
        return 1
    scale, _ = counts.most_common(1)[0]
    return max(1, scale)


def _line_bands(mask: np.ndarray, scale: int) -> list[tuple[int, int]]:
    """Split the ink mask into vertical line bands [top, bottom)."""
    row_has_ink = mask.any(axis=1)
    bands: list[tuple[int, int]] = []
    top = None
    for y, has_ink in enumerate(row_has_ink):
        if has_ink and top is None:
            top = y
        elif not has_ink and top is not None:
            bands.append((top, y))
            top = None
    if top is not None:
        bands.append((top, len(row_has_ink)))
    # Glyphs like "=" have internal blank rows: merge adjacent bands that
    # still fit within one 7-cell line.
    merged: list[tuple[int, int]] = []
    for band in bands:
        if merged and band[1] - merged[-1][0] <= GLYPH_HEIGHT * scale:
            merged[-1] = (merged[-1][0], band[1])
        else:
            merged.append(band)
    return merged


def _grid_bits(
    integral: np.ndarray, x_origins: np.ndarray, y_origin, scale: int
) -> np.ndarray:
    """Downsample the glyph cells at ``(x_origins[i], y_origin)`` to 7x5 bits.

    Returns an ``(n, 7, 5)`` boolean array, or ``(r, n, 7, 5)`` when
    ``y_origin`` is an array of ``r`` rows: every row paired with every
    x origin.  Each bit is the majority vote of its ``scale x scale``
    block, clipped to the mask; a block that lies wholly outside the mask
    is unset.  The block sums come from one fancy-indexed lookup of the
    integral image, and ``2 * ink >= area`` is the exact integer form of
    ``mean >= 0.5``.
    """
    height, width = integral.shape[0] - 1, integral.shape[1] - 1
    ys = np.clip(np.asarray(y_origin)[..., None] + scale * np.arange(GLYPH_HEIGHT + 1), 0, height)
    xs = np.clip(x_origins[:, None] + scale * np.arange(GLYPH_WIDTH + 1), 0, width)
    corners = integral[ys[..., :, None, None], xs]  # (..., 8, n, 6)
    ink = (corners[..., 1:, :, 1:] - corners[..., :-1, :, 1:]
           - corners[..., 1:, :, :-1] + corners[..., :-1, :, :-1])
    area = np.diff(ys)[..., :, None, None] * np.diff(xs, axis=1)
    return np.moveaxis((area > 0) & (2 * ink >= area), -3, -2)


def _match_glyphs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest glyph index and similarity in [0, 1] for each ``(7, 5)`` cell.

    The Hamming distance of a flattened cell ``a`` to glyph ``g`` is
    ``|a| + |g| - 2 * a . g``, one matrix product for all cells; its
    entries are integers of at most 35, exact in float32.  A cell with no
    ink is at distance 0 from the all-blank space glyph only (glyphs are
    distinct), so it reads as a space with similarity 1.
    """
    cells = bits.reshape(len(bits), -1).astype(np.float32)
    distances = cells.sum(axis=1)[:, None] + _GLYPH_INK - 2 * (cells @ _GLYPH_MATRIX)
    best = distances.argmin(axis=1)
    nearest = distances[np.arange(len(best)), best].astype(np.int64)
    return best, 1.0 - nearest / (GLYPH_WIDTH * GLYPH_HEIGHT)


def _decode_line(
    mask: np.ndarray, integral: np.ndarray, band: tuple[int, int], scale: int
) -> tuple[str, float]:
    """Decode one line band, searching grid alignments for the best fit.

    A glyph may have blank leading columns (e.g. "!") and blank top rows
    (e.g. "_"), so the cell grid is tried at small offsets in both axes:
    each row offset whose 7-cell grid still covers the band, times each
    column offset.  All alignments are read and matched in one kernel
    call, then ranked in search order (row offset, then column offset) by
    ``(mean score, ink characters, -row offset)``: ties on score prefer
    (a) alignments that decode more ink characters (an all-blank reading
    of "..." also scores perfectly) and (b) deeper row offsets (a lone
    bottom-row stroke is "_", not a mid-row "-").  Each mean is
    ``np.add.reduce`` over the alignment's own contiguous scores divided
    by their count, which is how ``np.mean`` computes it.
    """
    top, bottom = band
    row_offsets = [row for row in range(GLYPH_HEIGHT)
                   if (GLYPH_HEIGHT - row) * scale >= bottom - top]
    if not row_offsets:  # taller than one line at this scale
        return "", -1.0
    inked = np.flatnonzero(mask[top:bottom].any(axis=0))
    if inked.size == 0:
        return "", 1.0
    x_first, x_last = int(inked[0]), int(inked[-1])
    pitch = _CELL_WIDTH * scale
    # One run of cells per column offset; every start is <= x_last, so
    # each alignment has at least one cell.
    alignments = []
    for col_offset in range(GLYPH_WIDTH):
        x_origin = x_first - col_offset * scale
        alignments.append(x_origin + pitch * np.arange(-(-(x_last + 1 - x_origin) // pitch)))
    bounds = np.cumsum([0] + [len(x_origins) for x_origins in alignments]).tolist()
    y_origins = top - scale * np.array(row_offsets)
    bits = _grid_bits(integral, np.concatenate(alignments), y_origins, scale)
    glyphs, scores = _match_glyphs(bits.reshape(-1, GLYPH_HEIGHT, GLYPH_WIDTH))
    glyphs = glyphs.reshape(len(row_offsets), -1)
    scores = scores.reshape(len(row_offsets), -1)

    best_text = ""
    best_key: tuple[float, int, int] = (-1.0, -1, -1)
    for row, row_offset in enumerate(row_offsets):
        for start, stop in zip(bounds, bounds[1:]):
            mean_score = float(np.add.reduce(scores[row, start:stop]) / (stop - start))
            n_ink = int(np.count_nonzero(glyphs[row, start:stop] != _SPACE))
            key = (mean_score, n_ink, -row_offset)
            if key > best_key:
                best_key = key
                best_text = "".join(
                    _GLYPH_CHARS[index] for index in glyphs[row, start:stop].tolist()).rstrip()
    return best_text, best_key[0]


def _decode_at_scale(
    mask: np.ndarray, integral: np.ndarray, scale: int
) -> tuple[str, float, int]:
    """Decode the whole mask at one candidate scale."""
    from repro._budget import OCR_BAND_UNITS, current_budget

    budget = current_budget()
    bands = _line_bands(mask, scale)
    lines: list[str] = []
    scores: list[float] = []
    for band in bands:
        if budget is not None:
            # One line band costs a full alignment sweep of glyph
            # matches; charging per band bounds adversarially busy
            # images without touching the per-cell kernels.
            budget.charge(OCR_BAND_UNITS, "ocr-tiles")
        text, score = _decode_line(mask, integral, band, scale)
        lines.append(text)
        scores.append(score)
    joined = "\n".join(lines)
    ink_chars = sum(1 for char in joined if char not in " \n")
    return joined, float(np.mean(scores)) if scores else 0.0, ink_chars


def ocr_image(image: Image) -> OcrResult:
    """Recover the text content of a bitmap-font rendered image.

    Returns an :class:`OcrResult`; the text is canonically uppercase
    (the font folds case) and lines are joined with ``"\\n"``.

    The run-length scale estimate can be a multiple of the true cell
    size when the image is dominated by blocky glyphs (a lone "." at
    scale 2 is pixel-identical to a one-cell feature at scale 4), so the
    estimate's divisors are also tried and the best-scoring decode wins.
    Note that images consisting *only* of baseline-free strokes ("_"
    alone) are inherently ambiguous without a reference line.
    """
    mask = _binarize(image)
    if not mask.any():
        return OcrResult(text="", confidence=1.0)
    estimate = _estimate_scale(mask)
    # Smaller scales first: on equal decode quality the finer grid wins
    # (a ":" whose two dots fooled the run-length estimate into 2x).
    candidates = sorted(
        divisor for divisor in range(1, estimate + 1) if estimate % divisor == 0
    )
    integral = integral_image(mask)
    best_text, best_key = "", (-1.0, -1)
    for scale in candidates:
        text, score, ink_chars = _decode_at_scale(mask, integral, scale)
        key = (score, ink_chars)
        if key > best_key:
            best_key = key
            best_text = text
    return OcrResult(text=best_text, confidence=best_key[0])

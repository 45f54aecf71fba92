"""QR module-matrix construction: function patterns, masking, penalties.

Matrices are numpy boolean arrays (True = dark module) indexed
``[row, column]`` with (0, 0) at the top-left, as in ISO/IEC 18004.

A version's function patterns, reserved modules and data-module order
are pure functions of the version: :func:`function_layout` builds them
once per version and hands out read-only arrays, so no caller can change
what the next encode or decode of that version sees.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.qr.tables import (
    ALIGNMENT_POSITIONS,
    ECLevel,
    bch_format_bits,
    bch_version_bits,
    matrix_size,
)


def _place_finder(matrix: np.ndarray, reserved: np.ndarray, row: int, col: int) -> None:
    """Place a 7x7 finder pattern with its top-left corner at (row, col)."""
    for r in range(-1, 8):
        for c in range(-1, 8):
            rr, cc = row + r, col + c
            if not (0 <= rr < matrix.shape[0] and 0 <= cc < matrix.shape[1]):
                continue
            in_outer = 0 <= r <= 6 and 0 <= c <= 6
            on_ring = in_outer and (r in (0, 6) or c in (0, 6))
            in_core = 2 <= r <= 4 and 2 <= c <= 4
            matrix[rr, cc] = on_ring or in_core
            reserved[rr, cc] = True


def _place_alignment(matrix: np.ndarray, reserved: np.ndarray, row: int, col: int) -> None:
    """Place a 5x5 alignment pattern centred at (row, col)."""
    for r in range(-2, 3):
        for c in range(-2, 3):
            ring = max(abs(r), abs(c)) != 1
            matrix[row + r, col + c] = ring
            reserved[row + r, col + c] = True


def _place_function_patterns(version: int) -> tuple[np.ndarray, np.ndarray]:
    """Build (matrix, reserved) with all function patterns placed."""
    size = matrix_size(version)
    matrix = np.zeros((size, size), dtype=bool)
    reserved = np.zeros((size, size), dtype=bool)

    _place_finder(matrix, reserved, 0, 0)
    _place_finder(matrix, reserved, 0, size - 7)
    _place_finder(matrix, reserved, size - 7, 0)

    # Timing patterns.
    for i in range(8, size - 8):
        matrix[6, i] = i % 2 == 0
        reserved[6, i] = True
        matrix[i, 6] = i % 2 == 0
        reserved[i, 6] = True

    # Alignment patterns (skip any that would overlap a finder).
    positions = ALIGNMENT_POSITIONS.get(version, ())
    for row in positions:
        for col in positions:
            near_finder = (
                (row <= 8 and col <= 8)
                or (row <= 8 and col >= size - 9)
                or (row >= size - 9 and col <= 8)
            )
            if not near_finder:
                _place_alignment(matrix, reserved, row, col)

    # Dark module.
    matrix[size - 8, 8] = True
    reserved[size - 8, 8] = True

    # Reserve format-information areas (filled in later).
    for i in range(9):
        if i != 6:
            reserved[8, i] = True
            reserved[i, 8] = True
    for i in range(8):
        reserved[8, size - 1 - i] = True
        reserved[size - 1 - i, 8] = True

    # Reserve version-information areas for versions >= 7.
    if version >= 7:
        for i in range(18):
            reserved[size - 11 + i % 3, i // 3] = True
            reserved[i // 3, size - 11 + i % 3] = True

    return matrix, reserved


def _data_module_order(reserved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Data-module (rows, cols) in QR placement order.

    The zigzag starts at the bottom-right, walks column pairs right to
    left, alternating upward/downward, and skips the vertical timing
    pattern in column 6.
    """
    size = reserved.shape[0]
    coordinates: list[tuple[int, int]] = []
    col = size - 1
    upward = True
    while col > 0:
        if col == 6:  # skip the vertical timing column entirely
            col -= 1
        rows = range(size - 1, -1, -1) if upward else range(size)
        for row in rows:
            for dc in (0, -1):
                if not reserved[row, col + dc]:
                    coordinates.append((row, col + dc))
        upward = not upward
        col -= 2
    return tuple(np.array(axis, dtype=np.intp) for axis in zip(*coordinates))


class FunctionLayout(NamedTuple):
    """One version's module layout; every array is read-only.

    ``matrix`` holds the function patterns (data modules light),
    ``reserved`` marks every module that does not carry data, and
    ``rows``/``cols`` list the data modules in placement order.
    """

    matrix: np.ndarray
    reserved: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


@lru_cache(maxsize=None)
def function_layout(version: int) -> FunctionLayout:
    """The layout of ``version``, built on first use and shared thereafter.

    The arrays are read-only: a caller that needs to write copies first,
    so the shared layout always equals a fresh build.
    """
    matrix, reserved = _place_function_patterns(version)
    layout = FunctionLayout(matrix, reserved, *_data_module_order(reserved))
    for array in layout:
        array.flags.writeable = False
    return layout


def build_function_patterns(version: int) -> tuple[np.ndarray, np.ndarray]:
    """Return fresh (matrix, reserved) arrays with all function patterns placed.

    ``reserved`` marks every module that does not carry data: finder,
    separator, timing and alignment patterns, the dark module, and the
    format/version information areas.
    """
    layout = function_layout(version)
    return layout.matrix.copy(), layout.reserved.copy()


def data_module_coordinates(version: int) -> list[tuple[int, int]]:
    """Data-module (row, col) coordinates in QR placement order."""
    layout = function_layout(version)
    return list(zip(layout.rows.tolist(), layout.cols.tolist()))


def mask_condition(mask_id: int, row: int, col: int) -> bool:
    """The eight ISO/IEC 18004 data-mask conditions."""
    if mask_id == 0:
        return (row + col) % 2 == 0
    if mask_id == 1:
        return row % 2 == 0
    if mask_id == 2:
        return col % 3 == 0
    if mask_id == 3:
        return (row + col) % 3 == 0
    if mask_id == 4:
        return (row // 2 + col // 3) % 2 == 0
    if mask_id == 5:
        return (row * col) % 2 + (row * col) % 3 == 0
    if mask_id == 6:
        return ((row * col) % 2 + (row * col) % 3) % 2 == 0
    if mask_id == 7:
        return ((row + col) % 2 + (row * col) % 3) % 2 == 0
    raise ValueError(f"invalid mask id {mask_id}")


@lru_cache(maxsize=None)
def _mask_matrix(size: int, mask_id: int) -> np.ndarray:
    """The read-only ``(size, size)`` pattern of one mask, built once."""
    pattern = _mask_pattern(size, mask_id)
    pattern.flags.writeable = False
    return pattern


def _mask_pattern(size: int, mask_id: int) -> np.ndarray:
    rows, cols = np.indices((size, size))
    if mask_id == 0:
        return (rows + cols) % 2 == 0
    if mask_id == 1:
        return rows % 2 == 0
    if mask_id == 2:
        return cols % 3 == 0
    if mask_id == 3:
        return (rows + cols) % 3 == 0
    if mask_id == 4:
        return (rows // 2 + cols // 3) % 2 == 0
    if mask_id == 5:
        return (rows * cols) % 2 + (rows * cols) % 3 == 0
    if mask_id == 6:
        return ((rows * cols) % 2 + (rows * cols) % 3) % 2 == 0
    if mask_id == 7:
        return ((rows + cols) % 2 + (rows * cols) % 3) % 2 == 0
    raise ValueError(f"invalid mask id {mask_id}")


def apply_mask(matrix: np.ndarray, reserved: np.ndarray, mask_id: int) -> np.ndarray:
    """XOR the data modules with the mask pattern (involutive)."""
    mask = _mask_matrix(matrix.shape[0], mask_id) & ~reserved
    return matrix ^ mask


#: The 1:1:3:1:1 finder-like sequence with four light modules on one side.
_FINDER_PATTERN = np.array([1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0], dtype=bool)


def _penalty_runs(lines: np.ndarray) -> int:
    """N1 over every line at once: each run of ``k >= 5`` scores ``k - 2``.

    A run boundary sits wherever a module differs from its predecessor,
    plus one at each line end.  Laid out as ``(n, size + 1)``, the end of
    one line and the start of the next are adjacent in the flattened
    mask, so the spurious run between them has length 1 and never scores.
    """
    n, size = lines.shape
    change = np.ones((n, size + 1), dtype=bool)
    change[:, 1:size] = lines[:, 1:] != lines[:, :-1]
    lengths = np.diff(np.flatnonzero(change))
    return int((lengths[lengths >= 5] - 2).sum())


def _penalty_finder_like(lines: np.ndarray) -> int:
    """N3 over every line at once: 40 per window matching the pattern or
    its reverse (the pattern is not a palindrome, so never both)."""
    windows = sliding_window_view(lines, len(_FINDER_PATTERN), axis=1)
    forward = (windows == _FINDER_PATTERN).all(axis=-1)
    backward = (windows == _FINDER_PATTERN[::-1]).all(axis=-1)
    return 40 * int((forward | backward).sum())


def penalty_score(matrix: np.ndarray) -> int:
    """The four-rule mask evaluation score of ISO/IEC 18004 section 8.8.2."""
    lines = np.concatenate((matrix, matrix.T))  # every row, then every column
    # N1: runs of the same color.
    score = _penalty_runs(lines)
    # N2: 2x2 blocks of the same color.
    same = (
        (matrix[:-1, :-1] == matrix[:-1, 1:])
        & (matrix[:-1, :-1] == matrix[1:, :-1])
        & (matrix[:-1, :-1] == matrix[1:, 1:])
    )
    score += 3 * int(same.sum())
    # N3: finder-like patterns.
    score += _penalty_finder_like(lines)
    # N4: dark-module proportion.
    dark_percent = matrix.mean() * 100.0
    score += 10 * int(abs(dark_percent - 50.0) // 5)
    return score


def place_format_information(
    matrix: np.ndarray, ec_level: ECLevel, mask_id: int
) -> None:
    """Write both copies of the 15-bit format information in place."""
    size = matrix.shape[0]
    bits = bch_format_bits(ec_level, mask_id)
    values = [(bits >> (14 - i)) & 1 == 1 for i in range(15)]  # b14 first

    # Copy 1, around the top-left finder.
    copy1 = (
        [(8, 0), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 7), (8, 8)]
        + [(7, 8), (5, 8), (4, 8), (3, 8), (2, 8), (1, 8), (0, 8)]
    )
    # Copy 2, split between the bottom-left and top-right finders.
    copy2 = [(size - 1 - i, 8) for i in range(7)] + [
        (8, size - 8 + i) for i in range(8)
    ]
    for (row, col), value in zip(copy1, values):
        matrix[row, col] = value
    for (row, col), value in zip(copy2, values):
        matrix[row, col] = value


def place_version_information(matrix: np.ndarray, version: int) -> None:
    """Write both copies of the 18-bit version information (version >= 7)."""
    if version < 7:
        return
    size = matrix.shape[0]
    bits = bch_version_bits(version)
    for i in range(18):
        value = (bits >> i) & 1 == 1
        matrix[size - 11 + i % 3, i // 3] = value
        matrix[i // 3, size - 11 + i % 3] = value


def read_format_information(matrix: np.ndarray) -> tuple[ECLevel, int]:
    """Recover (EC level, mask id) via nearest-codeword format decoding."""
    from repro.qr.tables import FORMAT_CODEWORDS

    size = matrix.shape[0]
    copy1 = (
        [(8, 0), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 7), (8, 8)]
        + [(7, 8), (5, 8), (4, 8), (3, 8), (2, 8), (1, 8), (0, 8)]
    )
    copy2 = [(size - 1 - i, 8) for i in range(7)] + [
        (8, size - 8 + i) for i in range(8)
    ]
    best: tuple[int, tuple[ECLevel, int]] | None = None
    for coords in (copy1, copy2):
        observed = 0
        for row, col in coords:
            observed = (observed << 1) | int(matrix[row, col])
        for codeword, decoded in FORMAT_CODEWORDS.items():
            distance = bin(observed ^ codeword).count("1")
            if best is None or distance < best[0]:
                best = (distance, decoded)
    assert best is not None
    distance, decoded = best
    if distance > 3:  # BCH(15,5) corrects at most 3 bit errors
        raise ValueError(f"unreadable format information (distance {distance})")
    return decoded

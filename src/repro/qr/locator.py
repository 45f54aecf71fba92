"""Locate and sample a QR symbol inside a raster image.

The locator implements the classic finder-pattern search: it scans for
the 1:1:3:1:1 dark/light run signature horizontally, confirms it
vertically, clusters the candidate centres, identifies the three finder
patterns geometrically, and samples the module grid.  Symbols are
assumed axis-aligned (as produced by the mail substrate's renderer) but
may sit anywhere in the image at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.imaging.image import Image, integral_image
from repro.qr.tables import matrix_size


class QRLocateError(ValueError):
    """No QR symbol could be located in the image."""


@dataclass(frozen=True)
class FinderCandidate:
    """A candidate finder-pattern centre, in pixel coordinates."""

    x: float
    y: float
    module_size: float


def _binarize(image: Image) -> np.ndarray:
    gray = image.to_grayscale()
    low, high = float(gray.min()), float(gray.max())
    if high - low < 1e-9:
        return np.zeros(gray.shape, dtype=bool)
    return gray < (low + high) / 2.0


#: The finder signature: dark, light, dark, light, dark in 1:1:3:1:1.
_FINDER_COLOURS = np.array([True, False, True, False, True])
_FINDER_RATIOS = np.array([1.0, 1.0, 3.0, 1.0, 1.0])


def _run_table(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The maximal runs of every row of ``mask``, in row-major order.

    Returns ``(keys, rows, starts, lengths, values)``.  ``keys`` is
    ``row * (width + 1) + start``, ascending, so ``np.searchsorted`` finds
    the run holding any pixel.  Each line gets a sentinel boundary at
    ``width``; the step from it to the next line's start is a spurious
    length-1 "run", which is dropped.
    """
    height, width = mask.shape
    change = np.ones((height, width + 1), dtype=bool)
    np.not_equal(mask[:, 1:], mask[:, :-1], out=change[:, 1:width])
    bounds = np.flatnonzero(change)
    keys = bounds[:-1]
    lengths = np.diff(bounds)
    real = keys % (width + 1) != width
    keys, lengths = keys[real], lengths[real]
    rows, starts = np.divmod(keys, width + 1)
    return keys, rows, starts, lengths, mask[rows, starts]


def _ratio_units(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which ``(n, 5)`` run windows approximate 1:1:3:1:1, and their unit.

    The float64 arithmetic of the scalar test, elementwise: a window
    matches when its total is at least 7 and every run lies within
    ``max(0.55 * unit, 1)`` of ``ratio * unit``, ``unit = total / 7``.
    """
    total = lengths.sum(axis=1)
    unit = total / 7.0
    tolerance = np.maximum(unit * 0.55, 1.0)
    close = np.abs(lengths - _FINDER_RATIOS * unit[:, None]) <= tolerance[:, None]
    return (total >= 7) & close.all(axis=1), unit


def _finder_windows(rows: np.ndarray, lengths: np.ndarray, values: np.ndarray):
    """Indices ``i`` of the finder-like windows ``runs[i:i + 5]`` on one line.

    Maximal runs on one line alternate in colour, so a window on one
    line reads dark, light, dark, light, dark exactly when its first run
    is dark; only those windows take the ratio test.
    """
    if len(lengths) < 5:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    index = np.flatnonzero((rows[:-4] == rows[4:]) & values[:-4])
    match, unit = _ratio_units(sliding_window_view(lengths, 5)[index])
    return index[match], unit[match]


def find_finder_candidates(mask: np.ndarray) -> list[FinderCandidate]:
    """All pixel positions whose row+column signature matches a finder.

    A row window's candidate is the sub-pixel centre of its 3-module
    core run, confirmed vertically through that column: the column runs
    ``k - 2 .. k + 2`` around the run ``k`` holding the pixel, cut to
    ``unit * 4.5`` rows either side, must read 1:1:3:1:1 at a unit within
    a factor of two.  Only the outer two runs can be cut.  The vertical
    centre is that of run ``k``, so all rows of a real finder collapse
    onto one point and clustering cannot be skewed by adjacent data rows
    that merely mimic the horizontal run.
    """
    height = mask.shape[0]
    _, rows, starts, lengths, values = _run_table(mask)
    index, unit = _finder_windows(rows, lengths, values)
    if not len(index):
        return []
    core = index + 2
    y = rows[core]
    # Pixels [start, start + length - 1] have centre start + (length-1)/2.
    x_precise = starts[core] + (lengths[core] - 1) / 2.0
    x = np.rint(x_precise).astype(np.int64)

    col_keys, col_x, col_starts, col_lengths, col_values = _run_table(
        np.ascontiguousarray(mask.T))
    k = np.searchsorted(col_keys, x * (height + 1) + y, side="right") - 1
    window = np.clip(k[:, None] + np.arange(-2, 3), 0, len(col_keys) - 1)
    inside = (k >= 2) & (k + 2 < len(col_keys))
    inside &= (col_x[window[:, 0]] == x) & (col_x[window[:, 4]] == x)
    half = np.rint(unit * 4.5).astype(np.int64)
    y0, y1 = np.maximum(0, y - half), np.minimum(height, y + half + 1)
    cut = col_lengths[window]
    cut[:, 0] = col_starts[window[:, 1]] - np.maximum(col_starts[window[:, 0]], y0)
    cut[:, 4] = np.minimum(col_starts[window[:, 4]] + cut[:, 4], y1) - col_starts[window[:, 4]]
    inside &= (cut[:, 0] > 0) & (cut[:, 4] > 0)
    colours = (col_values[window] == _FINDER_COLOURS).all(axis=1)
    match, unit_v = _ratio_units(cut)
    confirmed = inside & colours & match & (0.5 * unit <= unit_v) & (unit_v <= 2.0 * unit)
    y_center = col_starts[k] + (col_lengths[k] - 1) / 2.0
    return [
        FinderCandidate(float(x_precise[i]), float(y_center[i]), float(unit[i]))
        for i in np.flatnonzero(confirmed)
    ]


def _centroid(xs: list[float], ys: list[float], units: list[float]) -> tuple[float, float, float]:
    """``np.mean`` of the xs and ys and ``np.median`` of the units, cheaply.

    ``np.mean`` of a float64 array is ``np.add.reduce`` over it divided by
    its length, so that is what runs, without ``np.mean``'s wrapper.
    ``np.median`` is the middle element of the sorted values, or the mean
    of the middle two, ``(low + high) / 2`` in float64 as Python computes it.
    """
    n = len(xs)
    middle = sorted(units)
    unit = middle[n // 2] if n % 2 else (middle[n // 2 - 1] + middle[n // 2]) / 2
    return (float(np.add.reduce(np.array(xs)) / n),
            float(np.add.reduce(np.array(ys)) / n), unit)


def _cluster(candidates: list[FinderCandidate]) -> list[FinderCandidate]:
    """Merge candidates belonging to one finder pattern.

    Every candidate has already been refined to the sub-pixel centre of
    its finder core (horizontally and vertically), so all rows of a real
    finder land on nearly the same point: a one-module radius suffices,
    and clusters need at least two supporting rows.  A cluster's
    centroid (the mean centre and median module size) is recomputed only
    when it grows.
    """
    members: list[tuple[list[float], list[float], list[float]]] = []
    centroids: list[tuple[float, float, float]] = []
    for candidate in candidates:
        for index, (centroid_x, centroid_y, unit) in enumerate(centroids):
            limit = max(unit, candidate.module_size) * 1.0
            if abs(candidate.x - centroid_x) <= limit and abs(candidate.y - centroid_y) <= limit:
                xs, ys, units = members[index]
                xs.append(candidate.x)
                ys.append(candidate.y)
                units.append(candidate.module_size)
                centroids[index] = _centroid(xs, ys, units)
                break
        else:
            members.append(([candidate.x], [candidate.y], [candidate.module_size]))
            centroids.append((candidate.x, candidate.y, candidate.module_size))
    return [
        FinderCandidate(*centroid)
        for (xs, _, _), centroid in zip(members, centroids)
        if len(xs) >= 2
    ]


def _cell_edges(centres: np.ndarray, module: float, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-module sampling window around each centre, clipped to ``[0, limit]``."""
    low = np.rint(centres - module * 0.25).astype(np.int64)
    high = np.maximum(np.rint(centres + module * 0.25).astype(np.int64), low + 1)
    return np.clip(low, 0, limit), np.clip(high, 0, limit)


def _sample_modules(
    mask: np.ndarray, origin_x: float, origin_y: float, module_x: float, module_y: float, size: int
) -> np.ndarray:
    """Majority-vote each module's central window into a ``(size, size)`` matrix.

    Ink counts come from one integral-image lookup; ``2 * ink >= area``
    is the exact integer form of ``window.mean() >= 0.5``.  A window
    wholly outside the mask reads light.
    """
    height, width = mask.shape
    steps = np.arange(size)
    x0, x1 = _cell_edges(origin_x + steps * module_x, module_x, width)
    y0, y1 = _cell_edges(origin_y + steps * module_y, module_y, height)
    table = integral_image(mask)
    ink = (table[np.ix_(y1, x1)] - table[np.ix_(y0, x1)]
           - table[np.ix_(y1, x0)] + table[np.ix_(y0, x0)])
    area = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    return (y1 > y0)[:, None] & (x1 > x0)[None, :] & (2 * ink >= area)


def _identify_corners(
    centers: list[FinderCandidate],
) -> tuple[FinderCandidate, FinderCandidate, FinderCandidate]:
    """Return (top_left, top_right, bottom_left) assuming axis alignment."""
    best = None
    for i, corner in enumerate(centers):
        others = [c for j, c in enumerate(centers) if j != i]
        for right in others:
            for bottom in others:
                if right is bottom:
                    continue
                dx_r, dy_r = right.x - corner.x, right.y - corner.y
                dx_b, dy_b = bottom.x - corner.x, bottom.y - corner.y
                if dx_r <= 0 or dy_b <= 0:
                    continue
                # Axis-aligned: right lies along +x, bottom along +y.
                if abs(dy_r) > abs(dx_r) * 0.2 or abs(dx_b) > abs(dy_b) * 0.2:
                    continue
                # Data regions can mimic finder runs; prefer the triple
                # that is both square (equal spans) and best aligned to
                # the axes, which spurious candidates are not.
                score = abs(abs(dx_r) - abs(dy_b)) + abs(dy_r) + abs(dx_b)
                if best is None or score < best[0]:
                    best = (score, corner, right, bottom)
    if best is None:
        raise QRLocateError("could not identify three finder patterns")
    return best[1], best[2], best[3]


def locate_qr_matrix(image: Image) -> np.ndarray:
    """Find one QR symbol in ``image`` and return its sampled module matrix."""
    mask = _binarize(image)
    if not mask.any():
        raise QRLocateError("image contains no dark pixels")
    candidates = find_finder_candidates(mask)
    centers = _cluster(candidates)
    if len(centers) < 3:
        raise QRLocateError(f"found {len(centers)} finder patterns, need 3")
    top_left, top_right, bottom_left = _identify_corners(centers)

    module = float(
        np.median([top_left.module_size, top_right.module_size, bottom_left.module_size])
    )
    span_x = top_right.x - top_left.x
    span_y = bottom_left.y - top_left.y
    size = int(round(((span_x + span_y) / 2.0) / module)) + 7
    # Snap to the nearest valid symbol size (17 + 4 * version).
    version = max(1, round((size - 17) / 4))
    size = matrix_size(version)
    # Per-axis module sizes: sub-pixel centre errors otherwise accumulate
    # into half-module drift at the far edge of larger symbols.
    module_x = span_x / (size - 7)
    module_y = span_y / (size - 7)

    origin_x = top_left.x - 3.0 * module_x
    origin_y = top_left.y - 3.0 * module_y

    return _sample_modules(mask, origin_x, origin_y, module_x, module_y, size)

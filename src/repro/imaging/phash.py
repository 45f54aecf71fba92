"""Perceptual image hashes: pHash (DCT-based) and dHash (gradient-based).

Section V-A: "we use fuzzy hashes: pHash (perceptual hash) and dHash
(differential hash). [...] The (dis)similarity is measured by the hamming
distance between the screenshot's hash and the hash of the real legitimate
pages."  Both hashes operate on grayscale data, which is why the
``hue-rotate(4deg)`` evasion of Section V-C does not defeat them.

The thumbnail reduction is fully vectorized: block sums are computed
with ``np.add.reduceat`` over *integer* per-mille BT.601 luminance
(``299·R + 587·G + 114·B``), which is exact in int64 and therefore
independent of summation order — the vectorized fast path is
bit-identical to a naive per-block double loop by construction (see
``tests/test_imaging_phash.py``), not merely close in floating point.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image

#: Number of bits in either hash.
HASH_BITS = 64

#: Integer per-mille ITU-R BT.601 luminance weights (R, G, B).
_LUMA_WEIGHTS = np.array([299, 587, 114], dtype=np.int64)


def _block_edges(src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and pixel counts of ``dst`` blocks covering ``src``.

    Blocks are the half-open `linspace` bins; degenerate bins (possible
    only when upscaling, ``src < dst``) are widened to a single pixel so
    every block mean is defined.
    """
    edges = np.linspace(0, src, dst + 1).astype(int)
    starts = edges[:-1]
    ends = np.maximum(edges[1:], starts + 1)
    return starts, ends - starts


def _resize_gray(image: Image, width: int, height: int) -> np.ndarray:
    """Grayscale + block-mean resize to (height, width).

    Block averaging (rather than nearest-neighbour) keeps the hash stable
    under small noise, which is the whole point of a fuzzy hash.
    """
    luma = image.pixels.astype(np.int64) @ _LUMA_WEIGHTS  # exact, (H, W)
    y_starts, y_counts = _block_edges(luma.shape[0], height)
    x_starts, x_counts = _block_edges(luma.shape[1], width)
    # reduceat sums [starts[i], starts[i+1]); a non-increasing pair —
    # a degenerate upscaling bin — yields the single row/col at starts[i],
    # which matches the one-pixel widening of ``_block_edges``.
    sums = np.add.reduceat(np.add.reduceat(luma, y_starts, axis=0), x_starts, axis=1)
    counts = np.outer(y_counts, x_counts)
    return sums / (counts * 1000.0)


def phash(image: Image) -> int:
    """64-bit DCT perceptual hash.

    The image is reduced to 32x32 grayscale, transformed with a 2-D DCT,
    and the top-left 8x8 low-frequency block (excluding the DC term for
    the median) is thresholded at its median.
    """
    # Imported here, not at module level: scipy.fft adds about 0.35 s to
    # every process that merely imports the browser.
    from scipy.fft import dctn

    small = _resize_gray(image, 32, 32)
    spectrum = dctn(small, norm="ortho")
    block = spectrum[:8, :8].copy()
    median = float(np.median(block.flatten()[1:]))  # exclude DC coefficient
    bits = (block.flatten() > median).astype(np.uint8)
    return _bits_to_int(bits)


def dhash(image: Image) -> int:
    """64-bit difference hash: horizontal gradient signs on a 9x8 thumbnail.

    A one-gray-level dead zone keeps bits stable in flat regions, where
    the raw sign of a near-zero difference would flip under noise or the
    slight luminance drift of a hue rotation.
    """
    small = _resize_gray(image, 9, 8)
    bits = ((small[:, 1:] - small[:, :-1]) > 1.0).astype(np.uint8).flatten()
    return _bits_to_int(bits)


def _bits_to_int(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8))  # MSB-first, like << folding
    return int.from_bytes(packed.tobytes(), "big")


def hamming_distance(hash_a: int, hash_b: int) -> int:
    """Number of differing bits between two hashes."""
    return int(bin(hash_a ^ hash_b).count("1"))

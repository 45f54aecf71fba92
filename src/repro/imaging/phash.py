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
:func:`fingerprint` feeds both hashes from one luminance array, since
the classifier always wants the pair.

The DCT is numpy's own FFT by Makhoul's reordering, so hashing needs no
scipy.  Its coefficients differ from ``scipy.fft.dctn(norm="ortho")``
only by rounding (about 1e-12 against a DC term near 8,000); the hash
thresholds them at their median, and the tests pin the 64 bits, not the
coefficients, to scipy's on random, flat, striped and quantised inputs.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image

#: Number of bits in either hash.
HASH_BITS = 64

#: Integer per-mille ITU-R BT.601 luminance weights (R, G, B).
_LUMA_WEIGHTS = (299, 587, 114)


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


def _luma(image: Image) -> np.ndarray:
    """Integer per-mille BT.601 luminance, one int32 per pixel."""
    pixels = image.pixels
    # The products are cast to int32 explicitly, so the result type does
    # not hang on NumPy's promotion rules (NumPy 1.x would pick uint16 for
    # uint8 times a small scalar and wrap).  int32 holds one pixel's
    # luminance (at most 255,000); block sums below use int64.
    return sum(
        np.multiply(pixels[..., channel], weight, dtype=np.int32)
        for channel, weight in enumerate(_LUMA_WEIGHTS)
    )


def _block_mean(luma: np.ndarray, width: int, height: int) -> np.ndarray:
    """Block-mean resize of a luminance array to (height, width) gray levels.

    Block averaging (rather than nearest-neighbour) keeps the hash stable
    under small noise, which is the whole point of a fuzzy hash.
    """
    y_starts, y_counts = _block_edges(luma.shape[0], height)
    x_starts, x_counts = _block_edges(luma.shape[1], width)
    # reduceat sums [starts[i], starts[i+1]); a non-increasing pair —
    # a degenerate upscaling bin — yields the single row/col at starts[i],
    # which matches the one-pixel widening of ``_block_edges``.
    column_sums = np.add.reduceat(luma, x_starts, axis=1, dtype=np.int64)
    sums = np.add.reduceat(column_sums, y_starts, axis=0)
    counts = np.outer(y_counts, x_counts)
    return sums / (counts * 1000.0)


def _resize_gray(image: Image, width: int, height: int) -> np.ndarray:
    """Grayscale + block-mean resize to (height, width)."""
    return _block_mean(_luma(image), width, height)


def _dct_ortho(values: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DCT-II along ``axis``, from one complex FFT of length N.

    Makhoul's reordering (even samples ascending, then odd samples
    descending) turns the DCT into an FFT: ``X[k] = Re(exp(-iπk/2N) ·
    FFT(v)[k])``, scaled by ``sqrt(1/N)`` at ``k = 0`` and ``sqrt(2/N)``
    elsewhere, which is ``scipy.fft.dct(..., norm="ortho")``.
    """
    values = np.moveaxis(values, axis, -1)
    n = values.shape[-1]
    reordered = np.concatenate((values[..., ::2], values[..., 1::2][..., ::-1]), axis=-1)
    twiddle = np.exp(-1j * np.pi * np.arange(n) / (2 * n))
    coefficients = (np.fft.fft(reordered, axis=-1) * twiddle).real
    coefficients[..., 0] *= np.sqrt(1.0 / n)
    coefficients[..., 1:] *= np.sqrt(2.0 / n)
    return np.moveaxis(coefficients, -1, axis)


def phash(image: Image) -> int:
    """64-bit DCT perceptual hash.

    The image is reduced to 32x32 grayscale, transformed with a 2-D DCT,
    and the top-left 8x8 low-frequency block (excluding the DC term for
    the median) is thresholded at its median.
    """
    return _phash_of_luma(_luma(image))


def dhash(image: Image) -> int:
    """64-bit difference hash: horizontal gradient signs on a 9x8 thumbnail.

    A one-gray-level dead zone keeps bits stable in flat regions, where
    the raw sign of a near-zero difference would flip under noise or the
    slight luminance drift of a hue rotation.
    """
    return _dhash_of_luma(_luma(image))


def fingerprint(image: Image) -> tuple[int, int]:
    """``(phash(image), dhash(image))`` from one luminance pass."""
    luma = _luma(image)
    return _phash_of_luma(luma), _dhash_of_luma(luma)


def _phash_of_luma(luma: np.ndarray) -> int:
    small = _block_mean(luma, 32, 32)
    block = _dct_ortho(_dct_ortho(small, axis=0), axis=1)[:8, :8]
    median = float(np.median(block.flatten()[1:]))  # exclude DC coefficient
    bits = (block.flatten() > median).astype(np.uint8)
    return _bits_to_int(bits)


def _dhash_of_luma(luma: np.ndarray) -> int:
    small = _block_mean(luma, 9, 8)
    bits = ((small[:, 1:] - small[:, :-1]) > 1.0).astype(np.uint8).flatten()
    return _bits_to_int(bits)


def _bits_to_int(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8))  # MSB-first, like << folding
    return int.from_bytes(packed.tobytes(), "big")


def hamming_distance(hash_a: int, hash_b: int) -> int:
    """Number of differing bits between two hashes."""
    return int(bin(hash_a ^ hash_b).count("1"))

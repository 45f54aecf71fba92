"""Perceptual-hash tests: robustness, sensitivity, and the hue-rotate evasion."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn

from repro.imaging.effects import add_gaussian_noise, crop_border, hue_rotate, overlay_text
from repro.imaging.image import Image
from repro.imaging.phash import (
    HASH_BITS,
    _dct_ortho,
    _resize_gray,
    dhash,
    hamming_distance,
    phash,
)
from repro.imaging.render import render_lines


def _page_like(text_lines, bg=(244, 246, 248)):
    base = render_lines(text_lines, scale=2, margin=6, bg=bg)
    page = Image.new(max(200, base.width), max(150, base.height + 40), bg)
    page.fill_rect(0, 0, page.width, 24, (20, 60, 120))
    page.paste(base, 0, 30)
    return page


class TestHashBasics:
    def test_hash_is_64_bits(self):
        image = _page_like(["SIGN IN"])
        assert 0 <= phash(image) < 2**HASH_BITS
        assert 0 <= dhash(image) < 2**HASH_BITS

    def test_identical_images_zero_distance(self):
        a = _page_like(["LOGIN PAGE"])
        b = _page_like(["LOGIN PAGE"])
        assert hamming_distance(phash(a), phash(b)) == 0
        assert hamming_distance(dhash(a), dhash(b)) == 0

    def test_different_layouts_large_distance(self):
        a = _page_like(["CORPORATE LOGIN", "EMAIL", "PASSWORD"])
        b = Image.new(200, 150, (30, 30, 30))
        b.fill_rect(20, 100, 160, 30, (240, 240, 240))
        assert hamming_distance(phash(a), phash(b)) > 10

    def test_hamming_distance_symmetric(self):
        a, b = phash(_page_like(["A"])), phash(_page_like(["B B B"]))
        assert hamming_distance(a, b) == hamming_distance(b, a)


class TestRobustness:
    """The paper: "robust against small alterations in the images, such
    as scaling, cropping, or noise"."""

    def test_scaling_invariance(self):
        image = _page_like(["ACCOUNT PORTAL", "EMAIL", "PASSWORD"])
        scaled = image.resize(int(image.width * 1.5), int(image.height * 1.5))
        assert hamming_distance(phash(image), phash(scaled)) <= 6
        assert hamming_distance(dhash(image), dhash(scaled)) <= 6

    def test_noise_invariance(self):
        image = _page_like(["ACCOUNT PORTAL"])
        noisy = add_gaussian_noise(image, 12.0, random.Random(3))
        assert hamming_distance(phash(image), phash(noisy)) <= 6
        assert hamming_distance(dhash(image), dhash(noisy)) <= 6

    def test_small_crop_invariance(self):
        image = _page_like(["ACCOUNT PORTAL", "EMAIL"])
        cropped = crop_border(image, 2)
        assert hamming_distance(phash(image), phash(cropped)) <= 8

    def test_small_overlay_tolerated(self):
        image = _page_like(["ACCOUNT PORTAL", "EMAIL", "PASSWORD"])
        stamped = overlay_text(image, "victim@corp.example", 10, image.height - 16)
        assert hamming_distance(phash(image), phash(stamped)) <= 8


class TestHueRotateEvasion:
    """Section V-C: hue-rotate(4deg) "is not efficient against CrawlerBox
    [...] because we employ fuzzy hashes which primarily work on
    grayscale information"."""

    def test_hue_rotation_does_not_change_phash(self):
        image = _page_like(["SIGN IN TO CONTINUE", "EMAIL", "PASSWORD"])
        rotated = hue_rotate(image, 4.0)
        assert rotated != image  # the pixels did change ...
        assert hamming_distance(phash(image), phash(rotated)) <= 2  # ... the hash did not

    def test_hue_rotation_does_not_change_dhash(self):
        image = _page_like(["SIGN IN TO CONTINUE"])
        rotated = hue_rotate(image, 4.0)
        assert hamming_distance(dhash(image), dhash(rotated)) <= 2

    def test_larger_rotations_also_survive(self):
        image = _page_like(["SIGN IN", "EMAIL"])
        for degrees in (10.0, 45.0, -4.0):
            rotated = hue_rotate(image, degrees)
            assert hamming_distance(phash(image), phash(rotated)) <= 4, degrees

    def test_hue_rotate_zero_is_near_identity(self):
        image = _page_like(["X"])
        assert hamming_distance(phash(image), phash(hue_rotate(image, 0.0))) == 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    degrees=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_hue_rotation_hash_invariance_property(seed, degrees):
    """Hue rotation preserves both hashes on luminance-structured images.

    Real login pages have genuine luminance structure (dark text, light
    backgrounds).  On *isoluminant* color boundaries a hue rotation can
    flip the contrast polarity and with it the hash — so the generator
    enforces a minimum luminance separation, matching the domain the
    paper's claim applies to.
    """

    def luminance(color):
        return 0.299 * color[0] + 0.587 * color[1] + 0.114 * color[2]

    rng = random.Random(seed)
    background = (rng.randrange(256), rng.randrange(256), rng.randrange(256))
    foreground = (rng.randrange(256), rng.randrange(256), rng.randrange(256))
    while abs(luminance(foreground) - luminance(background)) < 40:
        foreground = (rng.randrange(256), rng.randrange(256), rng.randrange(256))
    image = Image.new(64, 48, background)
    image.fill_rect(8, 8, 30, 20, foreground)
    rotated = hue_rotate(image, degrees)
    assert hamming_distance(phash(image), phash(rotated)) <= 6
    assert hamming_distance(dhash(image), dhash(rotated)) <= 6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
def test_hamming_distance_is_metric_like(a, b):
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert 0 <= hamming_distance(a, b) <= 64


# ----------------------------------------------------------------------
# Vectorized fast path == naive reference, bit for bit
# ----------------------------------------------------------------------
def _resize_gray_reference(image, width, height):
    """Per-block double loop over the same exact-integer definition.

    Integer per-mille BT.601 luminance summed per block, divided once:
    exact in int64, so the vectorized ``np.add.reduceat`` path must
    reproduce it bit for bit — not merely within float tolerance.
    """
    pixels = image.pixels
    y_edges = np.linspace(0, pixels.shape[0], height + 1).astype(int)
    x_edges = np.linspace(0, pixels.shape[1], width + 1).astype(int)
    out = np.zeros((height, width))
    for row in range(height):
        y0 = int(y_edges[row])
        y1 = max(int(y_edges[row + 1]), y0 + 1)
        for col in range(width):
            x0 = int(x_edges[col])
            x1 = max(int(x_edges[col + 1]), x0 + 1)
            total = 0
            for y in range(y0, y1):
                for x in range(x0, x1):
                    r, g, b = (int(v) for v in pixels[y, x][:3])
                    total += 299 * r + 587 * g + 114 * b
            out[row, col] = total / ((y1 - y0) * (x1 - x0) * 1000.0)
    return out


def _bits_to_int_reference(bits):
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


def _phash_reference(image):
    small = _resize_gray_reference(image, 32, 32)
    spectrum = dctn(small, norm="ortho")
    block = spectrum[:8, :8].copy()
    median = float(np.median(block.flatten()[1:]))
    return _bits_to_int_reference((block.flatten() > median).astype(np.uint8))


def _dhash_reference(image):
    small = _resize_gray_reference(image, 9, 8)
    bits = ((small[:, 1:] - small[:, :-1]) > 1.0).astype(np.uint8).flatten()
    return _bits_to_int_reference(bits)


def _synthetic_images():
    rng = random.Random(2024)
    flat = Image.new(64, 48, (128, 128, 128))
    noise = Image.new(40, 40, (0, 0, 0))
    noise.pixels = np.array(
        [[[rng.randrange(256) for _ in range(3)] for _ in range(40)] for _ in range(40)],
        dtype=noise.pixels.dtype,
    )
    h_gradient = Image.new(100, 30, (0, 0, 0))
    for x in range(100):
        h_gradient.fill_rect(x, 0, 1, 30, (int(255 * x / 99),) * 3)
    v_gradient = Image.new(30, 100, (0, 0, 0))
    for y in range(100):
        v_gradient.fill_rect(0, y, 30, 1, (0, int(255 * y / 99), 200))
    page = _page_like(["REFERENCE LOGIN", "EMAIL", "PASSWORD"])
    tiny = Image.new(5, 4, (200, 40, 90))  # smaller than the 32x32 grid: upscale path
    tiny.fill_rect(1, 1, 2, 2, (10, 220, 30))
    odd = Image.new(37, 53, (250, 250, 245))  # block edges that do not divide evenly
    odd.fill_rect(5, 7, 20, 30, (12, 34, 56))
    return {
        "flat": flat, "noise": noise, "h_gradient": h_gradient,
        "v_gradient": v_gradient, "page": page, "tiny": tiny, "odd": odd,
    }


class TestVectorizedBitIdentity:
    """The reduceat/packbits fast path vs a four-deep python loop."""

    @pytest.mark.parametrize("name", list(_synthetic_images()))
    def test_resize_gray_exact(self, name):
        image = _synthetic_images()[name]
        for width, height in ((32, 32), (9, 8), (3, 7)):
            fast = _resize_gray(image, width, height)
            reference = _resize_gray_reference(image, width, height)
            assert np.array_equal(fast, reference), (name, width, height)

    @pytest.mark.parametrize("name", list(_synthetic_images()))
    def test_phash_bit_identical(self, name):
        image = _synthetic_images()[name]
        assert phash(image) == _phash_reference(image), name

    @pytest.mark.parametrize("name", list(_synthetic_images()))
    def test_dhash_bit_identical(self, name):
        image = _synthetic_images()[name]
        assert dhash(image) == _dhash_reference(image), name


# ----------------------------------------------------------------------
# The numpy-FFT DCT gives scipy's hash bits
# ----------------------------------------------------------------------
def _hash_bits(block):
    median = float(np.median(block.flatten()[1:]))
    return (block.flatten() > median).astype(np.uint8)


def _fft_dct_bits(values):
    return _hash_bits(_dct_ortho(_dct_ortho(values, axis=0), axis=1)[:8, :8])


def _scipy_dct_bits(values):
    return _hash_bits(dctn(values, norm="ortho")[:8, :8])


@st.composite
def _thumbnails(draw):
    """32x32 grayscale thumbnails: random, flat, striped and quantised."""
    kind = draw(st.sampled_from(["random", "flat", "striped", "quantised"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "random":
        return rng.random((32, 32)) * 255.0
    if kind == "flat":
        return np.full((32, 32), draw(st.floats(min_value=0.0, max_value=255.0)))
    if kind == "striped":
        period = draw(st.integers(min_value=1, max_value=16))
        values = np.zeros((32, 32))
        values[:, ::period] = draw(st.floats(min_value=1.0, max_value=255.0))
        return values.T.copy() if draw(st.booleans()) else values
    levels = draw(st.sampled_from([2, 3, 4, 8, 16]))
    return np.round(rng.random((32, 32)) * levels) / levels * 255.0


@settings(max_examples=200, deadline=None)
@given(_thumbnails())
def test_fft_dct_hash_bits_match_scipy(values):
    """The coefficients differ from scipy's by rounding only (~1e-12 on a
    DC term of ~8,000), so the pin is on the 64 hash bits, including the
    median ties of flat inputs."""
    assert np.array_equal(_fft_dct_bits(values), _scipy_dct_bits(values))


@pytest.mark.parametrize("name", list(_synthetic_images()))
def test_fft_dct_hash_bits_match_scipy_on_synthetic_images(name):
    small = _resize_gray(_synthetic_images()[name], 32, 32)
    assert np.array_equal(_fft_dct_bits(small), _scipy_dct_bits(small)), name


def test_block_sums_accumulate_in_int64():
    """A 128x128 block of white sums to 4.2e9 per-mille luminance, past
    int32: the thumbnail must still read exactly 255 everywhere."""
    white = Image.new(4096, 4096, (255, 255, 255))
    assert np.array_equal(_resize_gray(white, 32, 32), np.full((32, 32), 255.0))
    assert phash(white) == phash(Image.new(32, 32, (255, 255, 255)))
    assert dhash(white) == 0

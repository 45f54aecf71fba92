"""OCR round-trip tests, including property-based ones."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging import ocr
from repro.imaging.effects import add_gaussian_noise, crop_border
from repro.imaging.font import (
    GLYPH_HEIGHT,
    GLYPH_WIDTH,
    GLYPHS,
    normalize_char,
    supported_characters,
)
from repro.imaging.image import Image
from repro.imaging.ocr import ocr_image
from repro.imaging.render import render_lines, render_text


class TestFont:
    def test_all_glyphs_are_7x5(self):
        for char, glyph in GLYPHS.items():
            assert glyph.shape == (7, 5), char

    def test_glyphs_are_distinct(self):
        seen = {}
        for char, glyph in GLYPHS.items():
            key = glyph.tobytes()
            assert key not in seen, f"{char!r} duplicates {seen.get(key)!r}"
            seen[key] = char

    def test_lowercase_folds_to_uppercase(self):
        assert normalize_char("a") == "A"
        assert normalize_char("z") == "Z"

    def test_unknown_char_falls_back(self):
        assert normalize_char("é") == "?"

    def test_supported_characters_cover_urls(self):
        chars = supported_characters()
        for needed in "HTTPS://A-B.COM/PATH?X=1&Y=2":
            assert needed in chars


class TestOcrRoundTrip:
    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    def test_single_line_scales(self, scale):
        text = "HELLO WORLD 123"
        result = ocr_image(render_text(text, scale=scale))
        assert result.text == text

    def test_url_roundtrip(self):
        url = "HTTPS://EVIL-SITE.COM/DHFYWFH?TOKEN=ABC123"
        assert ocr_image(render_text(url, scale=2)).text == url

    def test_multiline(self):
        lines = ["DEAR USER,", "PLEASE SIGN IN AT", "HTTP://LOGIN.EXAMPLE.RU/A"]
        assert ocr_image(render_lines(lines, scale=2)).text == "\n".join(lines)

    def test_lowercase_input_reads_as_uppercase(self):
        assert ocr_image(render_text("hello", scale=2)).text == "HELLO"

    def test_empty_image(self):
        result = ocr_image(Image.new(50, 20))
        assert result.text == ""
        assert result.confidence == 1.0

    def test_noise_robustness(self):
        image = render_text("SCAN THIS CODE NOW", scale=3)
        noisy = add_gaussian_noise(image, 30.0, random.Random(5))
        assert ocr_image(noisy).text == "SCAN THIS CODE NOW"

    def test_inverted_polarity(self):
        image = render_text("INVERSE", scale=2, fg=(255, 255, 255), bg=(0, 0, 0))
        assert ocr_image(image).text == "INVERSE"

    def test_cropped_margins(self):
        image = render_text("MARGINS", scale=3, margin=10)
        cropped = crop_border(image, 6)
        assert ocr_image(cropped).text == "MARGINS"

    def test_confidence_high_for_clean_render(self):
        result = ocr_image(render_text("CLEAN", scale=2))
        assert result.confidence > 0.95


_OCR_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:/.-_?=&"


@settings(max_examples=25, deadline=None)
@given(
    text=st.text(alphabet=_OCR_ALPHABET, min_size=1, max_size=24),
    scale=st.integers(min_value=2, max_value=3),
)
def test_ocr_roundtrip_property(text, scale):
    """Any renderable text recovers exactly (modulo trailing spaces).

    Strings made solely of baseline-free strokes ("_", "__") are
    inherently ambiguous without a reference line and are excluded (see
    the ocr_image docstring).
    """
    from hypothesis import assume

    assume(text.strip("_- ") != "")
    rendered = render_text(text, scale=scale)
    assert ocr_image(rendered).text == text.rstrip()


# ----------------------------------------------------------------------
# Integral-image kernels == the per-cell loops they replaced
# ----------------------------------------------------------------------
def _cell_bits_reference(mask, x, y, scale):
    """Downsample a glyph cell at (x, y) to a 7x5 boolean matrix, one
    ``block.mean()`` per font cell."""
    bits = np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH), dtype=bool)
    height, width = mask.shape
    for row in range(GLYPH_HEIGHT):
        y0, y1 = y + row * scale, y + (row + 1) * scale
        if y1 <= 0 or y0 >= height:
            continue
        for col in range(GLYPH_WIDTH):
            x0, x1 = x + col * scale, x + (col + 1) * scale
            if x1 <= 0 or x0 >= width:
                continue
            block = mask[max(y0, 0) : y1, max(x0, 0) : x1]
            if block.size:
                bits[row, col] = block.mean() >= 0.5
    return bits


def _match_glyph_reference(bits):
    distances = np.logical_xor(ocr._GLYPH_STACK, bits).reshape(len(ocr._GLYPH_CHARS), -1)
    distances = distances.sum(axis=1)
    best = int(distances.argmin())
    similarity = 1.0 - distances[best] / (GLYPH_WIDTH * GLYPH_HEIGHT)
    return ocr._GLYPH_CHARS[best], float(similarity)


def _decode_line_reference(mask, band, scale):
    """Decode one line band cell by cell, searching grid alignments."""
    top, bottom = band
    line_mask = mask[top:bottom]
    col_has_ink = line_mask.any(axis=0)
    inked = np.flatnonzero(col_has_ink)
    if inked.size == 0:
        return "", 1.0
    x_first, x_last = int(inked[0]), int(inked[-1])
    band_height = bottom - top

    best_text = ""
    best_key = (-1.0, -1, -1)
    for row_offset in range(GLYPH_HEIGHT):
        y_origin = top - row_offset * scale
        if band_height > GLYPH_HEIGHT * scale and row_offset > 0:
            break
        if y_origin + GLYPH_HEIGHT * scale < bottom:
            continue
        for col_offset in range(GLYPH_WIDTH):
            x_origin = x_first - col_offset * scale
            n_cells = int(np.ceil((x_last + 1 - x_origin) / (ocr._CELL_WIDTH * scale)))
            if n_cells <= 0:
                continue
            chars = []
            scores = []
            for index in range(n_cells):
                x = x_origin + index * ocr._CELL_WIDTH * scale
                bits = _cell_bits_reference(mask, x, y_origin, scale)
                if not bits.any():
                    chars.append(" ")
                    scores.append(1.0)
                    continue
                char, similarity = _match_glyph_reference(bits)
                chars.append(char)
                scores.append(similarity)
            mean_score = float(np.mean(scores)) if scores else 0.0
            n_ink_chars = sum(1 for char in chars if char != " ")
            key = (mean_score, n_ink_chars, -row_offset)
            if key > best_key:
                best_key = key
                best_text = "".join(chars).rstrip()
    return best_text, best_key[0]


def _run_lengths_reference(mask):
    counts = Counter()
    for axis_mask in (mask, mask.T):
        padded = np.zeros((axis_mask.shape[0], axis_mask.shape[1] + 2), dtype=bool)
        padded[:, 1:-1] = axis_mask
        diff = np.diff(padded.astype(np.int8), axis=1)
        for row_diff in diff:
            starts = np.flatnonzero(row_diff == 1)
            ends = np.flatnonzero(row_diff == -1)
            for start, end in zip(starts, ends):
                counts[int(end - start)] += 1
    return counts


def _ocr_reference(image):
    """``ocr_image`` assembled from the reference loops."""
    mask = ocr._binarize(image)
    if not mask.any():
        return ocr.OcrResult(text="", confidence=1.0)
    counts = _run_lengths_reference(mask)
    estimate = max(1, counts.most_common(1)[0][0]) if counts else 1
    best_text, best_key = "", (-1.0, -1)
    for scale in (d for d in range(1, estimate + 1) if estimate % d == 0):
        decoded = [_decode_line_reference(mask, band, scale)
                   for band in ocr._line_bands(mask, scale)]
        joined = "\n".join(text for text, _ in decoded)
        score = float(np.mean([score for _, score in decoded])) if decoded else 0.0
        key = (score, sum(1 for char in joined if char not in " \n"))
        if key > best_key:
            best_key, best_text = key, joined
    return ocr.OcrResult(text=best_text, confidence=best_key[0])


def _random_mask(seed, height, width, density):
    return np.random.default_rng(seed).random((height, width)) < density


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    height=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=60),
    density=st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95]),
    scale=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_grid_bits_match_cell_loop(seed, height, width, density, scale, data):
    """Integral-image block sums give the per-cell ``mean >= 0.5`` bits for
    cell origins before, inside and past the edges of the mask."""
    mask = _random_mask(seed, height, width, density)
    y = data.draw(st.integers(min_value=-8 * scale, max_value=height + 2), label="y")
    xs = data.draw(
        st.lists(st.integers(min_value=-6 * scale, max_value=width + 6), min_size=1, max_size=8),
        label="xs",
    )
    fast = ocr._grid_bits(ocr.integral_image(mask), np.array(xs), y, scale)
    for bits, x in zip(fast, xs):
        assert np.array_equal(bits, _cell_bits_reference(mask, x, y, scale)), (x, y)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    height=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=60),
    density=st.sampled_from([0.05, 0.5, 0.95]),
)
def test_run_lengths_match_row_loop(seed, height, width, density):
    """Same counts in the same insertion order (``most_common``'s tie-break)."""
    mask = _random_mask(seed, height, width, density)
    assert list(ocr._run_lengths(mask).items()) == list(_run_lengths_reference(mask).items())


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.text(alphabet=_OCR_ALPHABET + " ", min_size=1, max_size=12),
                   min_size=1, max_size=3),
    scale=st.integers(min_value=1, max_value=4),
    noise=st.sampled_from([0.0, 20.0, 60.0]),
    inverted=st.booleans(),
    crop=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_ocr_image_matches_reference_decode(lines, scale, noise, inverted, crop, seed):
    """Equal text and confidence on rendered, noised, inverted and cropped text."""
    fg, bg = ((255, 255, 255), (0, 0, 0)) if inverted else ((0, 0, 0), (255, 255, 255))
    image = render_lines(lines, scale=scale, fg=fg, bg=bg, margin=5)
    if noise:
        image = add_gaussian_noise(image, noise, random.Random(seed))
    if crop:
        image = crop_border(image, crop)
    assert ocr_image(image) == _ocr_reference(image)


@pytest.mark.parametrize("text", ["HELLO WORLD 123", "...", "_", "A-B", "!:!", "HTTPS://X.RU/?A=1"])
@pytest.mark.parametrize("scale", [1, 2, 3, 4])
def test_ocr_image_matches_reference_on_examples(text, scale):
    image = render_text(text, scale=scale)
    assert ocr_image(image) == _ocr_reference(image)


# ----------------------------------------------------------------------
# The images the parse stage scans: QR symbols and corpus images
# ----------------------------------------------------------------------
@pytest.mark.parametrize("version", range(1, 11))
@pytest.mark.parametrize("scale", [1, 2, 3, 4])
def test_ocr_image_matches_reference_on_qr_symbols(version, scale):
    """A QR symbol is no text, but every alignment of its bands is still
    read and ranked; the batched kernels must rank them as the loops do."""
    from repro.qr.encoder import encode_qr

    matrix = encode_qr(f"HTTPS://X.RU/{version}", version=version)
    image = Image.from_bool_matrix(matrix, scale=scale, border=4)
    assert ocr_image(image) == _ocr_reference(image)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ocr_image_matches_reference_on_every_corpus_image(seed, monkeypatch):
    """Every image the parse stage scans in a scale-0.1 corpus (inline and
    attached images, rasterised PDF pages) reads as the loops read it."""
    from repro.dataset import CorpusGenerator
    from repro.mail.parser import EmailParser

    images = []
    monkeypatch.setattr(
        EmailParser, "_scan_image", lambda self, image, *rest: images.append(image))
    parser = EmailParser()
    for message in CorpusGenerator(seed=seed, scale=0.1).generate().messages:
        parser.parse(message)
    assert len(images) >= 10
    assert any(ocr_image(image).text for image in images)
    for image in images:
        assert ocr_image(image) == _ocr_reference(image)

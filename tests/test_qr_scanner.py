"""Locator + payload-extraction tests, including the faulty-QR bug."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.effects import add_gaussian_noise
from repro.imaging.image import Image
from repro.imaging.render import render_lines
from repro.qr.encoder import encode_qr, qr_image
from repro.qr.locator import (
    FinderCandidate,
    QRLocateError,
    _binarize,
    _cluster,
    _identify_corners,
    _sample_modules,
    find_finder_candidates,
    locate_qr_matrix,
)
from repro.qr.scanner import (
    decode_qr_image,
    extract_url_lenient,
    extract_url_strict,
    scan_image_for_urls,
)
from repro.qr.tables import ECLevel, matrix_size


class TestLocator:
    def test_locate_plain_symbol(self):
        image = qr_image("LOCATE ME", scale=4)
        assert decode_qr_image(image) == "LOCATE ME"

    @pytest.mark.parametrize("scale", [2, 3, 5, 7])
    def test_various_scales(self, scale):
        image = qr_image("SCALE", scale=scale)
        assert decode_qr_image(image) == "SCALE"

    def test_embedded_with_offset(self):
        symbol = qr_image("OFFSET", scale=3)
        canvas = Image.new(400, 300)
        canvas.paste(symbol, 211, 87)
        assert decode_qr_image(canvas) == "OFFSET"

    def test_embedded_next_to_text(self):
        symbol = qr_image("WITH TEXT", scale=3)
        text = render_lines(["SCAN THE CODE BELOW", "TO RE-ENROLL MFA"], scale=2)
        canvas = Image.new(max(text.width, symbol.width) + 20, text.height + symbol.height + 30)
        canvas.paste(text, 10, 5)
        canvas.paste(symbol, 10, text.height + 15)
        assert decode_qr_image(canvas) == "WITH TEXT"

    def test_noisy_symbol(self):
        image = qr_image("NOISY", scale=4)
        noisy = add_gaussian_noise(image, 30.0, random.Random(8))
        assert decode_qr_image(noisy) == "NOISY"

    def test_data_region_finder_mimics(self):
        """Regression: a data region forming a 1:1:3:1:1 run must not
        contaminate a real finder's centre estimate (grid drift)."""
        payload = "https://secure-auth-webmail.io/t000239ae1c"
        image = qr_image(payload, ec_level=ECLevel.L, scale=3)
        assert decode_qr_image(image) == payload

    def test_scale_one_symbols(self):
        payload = "https://tiny.example/1px"
        assert decode_qr_image(qr_image(payload, scale=1)) == payload

    def test_random_payload_sweep(self):
        import string

        rng = random.Random(42)
        for _ in range(40):
            length = rng.randint(5, 100)
            payload = "".join(
                rng.choice(string.ascii_letters + string.digits + ":/.#?=-_ ")
                for _ in range(length)
            )
            level = rng.choice(list(ECLevel))
            scale = rng.choice([2, 3, 4])
            try:
                image = qr_image(payload, ec_level=level, scale=scale)
            except Exception:
                continue
            assert decode_qr_image(image) == payload, (length, level, scale)

    def test_blank_image_raises(self):
        with pytest.raises(QRLocateError):
            locate_qr_matrix(Image.new(100, 100))

    def test_text_only_image_raises(self):
        with pytest.raises(QRLocateError):
            locate_qr_matrix(render_lines(["JUST SOME TEXT", "NO CODE HERE"], scale=2))


class TestStrictExtraction:
    """The email-filter behaviour: the payload must BE a URL."""

    def test_valid_url_accepted(self):
        assert extract_url_strict("https://evil.com/a?b=1#f") == "https://evil.com/a?b=1#f"

    def test_http_accepted(self):
        assert extract_url_strict("http://evil.com/") == "http://evil.com/"

    def test_whitespace_trimmed(self):
        assert extract_url_strict("  https://evil.com/  ") == "https://evil.com/"

    @pytest.mark.parametrize(
        "payload",
        [
            "xxx https://evil.com/",
            "[https://evil.com/",
            "** https://evil.com/t/1",
            "qr:https://evil.com/x",
            "https://evil.com/a https://other.com/b",
            "not a url at all",
            "ftp://evil.com/",
        ],
    )
    def test_faulty_payloads_rejected(self, payload):
        assert extract_url_strict(payload) is None


class TestLenientExtraction:
    """The mobile-camera behaviour: carve the URL out of garbage."""

    @pytest.mark.parametrize(
        "payload,expected",
        [
            ("xxx https://evil.com/", "https://evil.com/"),
            ("[https://evil.com/t", "https://evil.com/t"),
            ("scan me: HTTPS://EVIL.COM/T", "HTTPS://EVIL.COM/T"),
            ("https://evil.com/a.", "https://evil.com/a"),
            ("https://clean.example/x", "https://clean.example/x"),
        ],
    )
    def test_carves_url(self, payload, expected):
        assert extract_url_lenient(payload) == expected

    def test_no_url_returns_none(self):
        assert extract_url_lenient("nothing here") is None


class TestFaultyQrBug:
    """The exploited mismatch: filters reject, mobile cameras extract."""

    @pytest.mark.parametrize("prefix", ["xxx ", "[", "** ", ")) "])
    def test_divergence_end_to_end(self, prefix):
        payload = prefix + "https://evil-site.com/dhfYWfH"
        image = qr_image(payload, ec_level=ECLevel.L, scale=3)
        assert scan_image_for_urls(image, lenient=False) == []
        assert scan_image_for_urls(image, lenient=True) == ["https://evil-site.com/dhfYWfH"]

    def test_clean_payload_both_extract(self):
        image = qr_image("https://evil-site.com/x", scale=3)
        assert scan_image_for_urls(image, lenient=False) == ["https://evil-site.com/x"]
        assert scan_image_for_urls(image, lenient=True) == ["https://evil-site.com/x"]

    def test_undecodable_image_returns_empty(self):
        assert scan_image_for_urls(Image.new(60, 60)) == []


# ----------------------------------------------------------------------
# The vectorised finder search against the per-pixel loops it replaced
# ----------------------------------------------------------------------
def _runs_reference(row):
    """Consecutive runs as (start, length, value)."""
    runs = []
    start = 0
    current = bool(row[0])
    for index in range(1, len(row)):
        value = bool(row[index])
        if value != current:
            runs.append((start, index - start, current))
            start = index
            current = value
    runs.append((start, len(row) - start, current))
    return runs


def _ratio_match_reference(lengths):
    """If five runs approximate 1:1:3:1:1, return the unit module size."""
    total = sum(lengths)
    if total < 7:
        return None
    unit = total / 7.0
    for length, ratio in zip(lengths, (1, 1, 3, 1, 1)):
        if abs(length - ratio * unit) > max(unit * 0.55, 1.0):
            return None
    return unit


def _is_finder_colours(window):
    return window[0][2] and not window[1][2] and window[2][2] and not window[3][2] and window[4][2]


def _vertical_center_reference(mask, x, y, unit):
    height = mask.shape[0]
    half = int(round(unit * 4.5))
    y0, y1 = max(0, y - half), min(height, y + half + 1)
    column = mask[y0:y1, x]
    if not column.any():
        return None
    runs = _runs_reference(column)
    center_offset = y - y0
    for index in range(len(runs) - 4):
        window = runs[index : index + 5]
        if not _is_finder_colours(window):
            continue
        unit_v = _ratio_match_reference([run[1] for run in window])
        if unit_v is None or not (0.5 * unit <= unit_v <= 2.0 * unit):
            continue
        middle = window[2]
        if middle[0] <= center_offset < middle[0] + middle[1]:
            return y0 + middle[0] + (middle[1] - 1) / 2.0
    return None


def _find_finder_candidates_reference(mask):
    candidates = []
    for y in range(mask.shape[0]):
        runs = _runs_reference(mask[y])
        for index in range(len(runs) - 4):
            window = runs[index : index + 5]
            if not _is_finder_colours(window):
                continue
            unit = _ratio_match_reference([run[1] for run in window])
            if unit is None:
                continue
            x_center_precise = window[2][0] + (window[2][1] - 1) / 2.0
            x_center = int(round(x_center_precise))
            y_center = _vertical_center_reference(mask, x_center, y, unit)
            if y_center is not None:
                candidates.append(FinderCandidate(x_center_precise, y_center, unit))
    return candidates


def _cluster_reference(candidates):
    clusters = []
    for candidate in candidates:
        best_cluster = None
        for cluster in clusters:
            centroid_x = float(np.mean([c.x for c in cluster]))
            centroid_y = float(np.mean([c.y for c in cluster]))
            unit = float(np.median([c.module_size for c in cluster]))
            limit = max(unit, candidate.module_size) * 1.0
            if abs(candidate.x - centroid_x) <= limit and abs(candidate.y - centroid_y) <= limit:
                best_cluster = cluster
                break
        if best_cluster is not None:
            best_cluster.append(candidate)
        else:
            clusters.append([candidate])
    merged = []
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        xs = float(np.mean([c.x for c in cluster]))
        ys = float(np.mean([c.y for c in cluster]))
        unit = float(np.median([c.module_size for c in cluster]))
        merged.append(FinderCandidate(xs, ys, unit))
    return merged


def _sample_modules_reference(mask, origin_x, origin_y, module_x, module_y, size):
    matrix = np.zeros((size, size), dtype=bool)
    height, width = mask.shape
    for row in range(size):
        for col in range(size):
            cx = origin_x + col * module_x
            cy = origin_y + row * module_y
            x0 = int(round(cx - module_x * 0.25))
            x1 = max(int(round(cx + module_x * 0.25)), x0 + 1)
            y0 = int(round(cy - module_y * 0.25))
            y1 = max(int(round(cy + module_y * 0.25)), y0 + 1)
            x0, x1 = max(0, x0), min(width, x1)
            y0, y1 = max(0, y0), min(height, y1)
            if x0 >= x1 or y0 >= y1:
                continue
            matrix[row, col] = mask[y0:y1, x0:x1].mean() >= 0.5
    return matrix


def _locate_reference(mask):
    """``locate_qr_matrix`` on a mask, built from the reference loops."""
    if not mask.any():
        raise QRLocateError("image contains no dark pixels")
    centers = _cluster_reference(_find_finder_candidates_reference(mask))
    if len(centers) < 3:
        raise QRLocateError(f"found {len(centers)} finder patterns, need 3")
    top_left, top_right, bottom_left = _identify_corners(centers)
    module = float(np.median([top_left.module_size, top_right.module_size, bottom_left.module_size]))
    span_x = top_right.x - top_left.x
    span_y = bottom_left.y - top_left.y
    size = int(round(((span_x + span_y) / 2.0) / module)) + 7
    size = matrix_size(max(1, round((size - 17) / 4)))
    module_x = span_x / (size - 7)
    module_y = span_y / (size - 7)
    return _sample_modules_reference(
        mask, top_left.x - 3.0 * module_x, top_left.y - 3.0 * module_y, module_x, module_y, size)


def _outcome(locate, argument):
    try:
        return locate(argument)
    except QRLocateError as error:
        return str(error)


def _assert_locator_matches_reference(mask):
    candidates = find_finder_candidates(mask)
    assert candidates == _find_finder_candidates_reference(mask)
    assert _cluster(candidates) == _cluster_reference(candidates)
    # A uniform image binarises to all-light, whatever its colour.
    image = Image.from_bool_matrix(mask) if mask.any() else Image.new(mask.shape[1], mask.shape[0])
    fast, slow = _outcome(locate_qr_matrix, image), _outcome(_locate_reference, _binarize(image))
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert isinstance(fast, np.ndarray) and fast.dtype == bool
        assert np.array_equal(fast, slow)


@st.composite
def _random_masks(draw):
    height = draw(st.one_of(st.just(1), st.integers(1, 48)))
    width = draw(st.one_of(st.just(1), st.integers(1, 48)))
    fill = draw(st.sampled_from(["noise", "blocks", "dark", "light"]))
    if fill in ("dark", "light"):
        return np.full((height, width), fill == "dark")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 0.95))
    if fill == "noise":
        return rng.random((height, width)) < density
    # Blocky masks have long runs, so finder-like windows are common.
    block = draw(st.integers(1, 4))
    cells = rng.random((-(-height // block), -(-width // block))) < density
    return cells.repeat(block, 0).repeat(block, 1)[:height, :width]


@st.composite
def _symbol_masks(draw):
    version = draw(st.integers(1, 10))
    scale = draw(st.integers(1, 6))
    level = draw(st.sampled_from(list(ECLevel)))
    matrix = encode_qr(draw(st.sampled_from(["HELLO", "0123456789", "qr"])), level, version=version)
    symbol = matrix.repeat(scale, 0).repeat(scale, 1)
    # Offsets place the symbol anywhere; a negative quiet zone crops it.
    top, left = draw(st.integers(-2 * scale, 30)), draw(st.integers(-2 * scale, 30))
    bottom, right = draw(st.integers(-2 * scale, 30)), draw(st.integers(-2 * scale, 30))
    mask = np.pad(symbol, ((max(top, 0), max(bottom, 0)), (max(left, 0), max(right, 0))))
    mask = mask[max(-top, 0) : mask.shape[0] - max(-bottom, 0), max(-left, 0) : mask.shape[1] - max(-right, 0)]
    salt = draw(st.sampled_from([0.0, 0.0, 0.002, 0.01, 0.05]))
    if salt:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mask = mask ^ (rng.random(mask.shape) < salt)
    return np.ascontiguousarray(mask)


class TestLocatorMatchesReference:
    """The array kernels equal the per-pixel loops (see DESIGN.md §12)."""

    @settings(max_examples=150, deadline=None)
    @given(mask=_random_masks())
    def test_random_masks(self, mask):
        _assert_locator_matches_reference(mask)

    @settings(max_examples=40, deadline=None)
    @given(mask=_symbol_masks())
    def test_symbols(self, mask):
        _assert_locator_matches_reference(mask)

    @settings(max_examples=100, deadline=None)
    @given(
        mask=_random_masks(),
        origin=st.tuples(st.floats(-20.0, 60.0), st.floats(-20.0, 60.0)),
        module=st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0)),
        size=st.integers(1, 30),
    )
    def test_module_sampling(self, mask, origin, module, size):
        fast = _sample_modules(mask, origin[0], origin[1], module[0], module[1], size)
        slow = _sample_modules_reference(mask, origin[0], origin[1], module[0], module[1], size)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_corpus_image(self, seed, monkeypatch):
        from repro.dataset import CorpusGenerator
        from repro.mail.parser import EmailParser

        images = []
        monkeypatch.setattr(
            EmailParser, "_scan_image", lambda self, image, *rest: images.append(image))
        parser = EmailParser()
        for message in CorpusGenerator(seed=seed, scale=0.05).generate().messages:
            parser.parse(message)
        assert len(images) >= 10
        located = 0
        for image in images:
            _assert_locator_matches_reference(_binarize(image))
            located += not isinstance(_outcome(locate_qr_matrix, image), str)
        assert located > 0

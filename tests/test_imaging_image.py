"""Unit tests for the raster Image class."""

import numpy as np
import pytest

from repro.imaging.image import BLACK, WHITE, Image


class TestConstruction:
    def test_new_dimensions(self):
        image = Image.new(10, 6)
        assert image.width == 10
        assert image.height == 6
        assert image.size == (10, 6)

    def test_new_fill_color(self):
        image = Image.new(4, 4, (10, 20, 30))
        assert image.get_pixel(0, 0) == (10, 20, 30)
        assert image.get_pixel(3, 3) == (10, 20, 30)

    def test_new_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            Image.new(0, 5)
        with pytest.raises(ValueError):
            Image.new(5, -1)

    def test_pixels_must_be_3d(self):
        with pytest.raises(ValueError):
            Image(np.zeros((4, 4), dtype=np.uint8))

    def test_from_bool_matrix(self):
        matrix = np.array([[True, False], [False, True]])
        image = Image.from_bool_matrix(matrix, scale=2)
        assert image.size == (4, 4)
        assert image.get_pixel(0, 0) == BLACK
        assert image.get_pixel(2, 0) == WHITE
        assert image.get_pixel(2, 2) == BLACK

    def test_from_bool_matrix_border(self):
        matrix = np.array([[True]])
        image = Image.from_bool_matrix(matrix, scale=1, border=2)
        assert image.size == (5, 5)
        assert image.get_pixel(0, 0) == WHITE
        assert image.get_pixel(2, 2) == BLACK

    def test_from_bool_matrix_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Image.from_bool_matrix(np.array([[True]]), scale=0)


class TestPixelOps:
    def test_put_get_pixel(self):
        image = Image.new(3, 3)
        image.put_pixel(1, 2, (5, 6, 7))
        assert image.get_pixel(1, 2) == (5, 6, 7)

    def test_paste_basic(self):
        base = Image.new(10, 10, WHITE)
        stamp = Image.new(2, 2, BLACK)
        base.paste(stamp, 4, 4)
        assert base.get_pixel(4, 4) == BLACK
        assert base.get_pixel(5, 5) == BLACK
        assert base.get_pixel(6, 6) == WHITE

    def test_paste_clips_at_edges(self):
        base = Image.new(4, 4, WHITE)
        stamp = Image.new(3, 3, BLACK)
        base.paste(stamp, 3, 3)  # only 1x1 lands inside
        assert base.get_pixel(3, 3) == BLACK
        assert base.get_pixel(2, 2) == WHITE

    def test_paste_fully_outside_is_noop(self):
        base = Image.new(4, 4, WHITE)
        stamp = Image.new(2, 2, BLACK)
        base.paste(stamp, 10, 10)
        assert base.mean_color() == (255.0, 255.0, 255.0)

    def test_fill_rect(self):
        image = Image.new(6, 6, WHITE)
        image.fill_rect(1, 1, 2, 3, BLACK)
        assert image.get_pixel(1, 1) == BLACK
        assert image.get_pixel(2, 3) == BLACK
        assert image.get_pixel(3, 1) == WHITE

    def test_crop(self):
        image = Image.new(6, 6, WHITE)
        image.put_pixel(2, 3, BLACK)
        cropped = image.crop(2, 3, 2, 2)
        assert cropped.size == (2, 2)
        assert cropped.get_pixel(0, 0) == BLACK

    def test_crop_out_of_bounds(self):
        image = Image.new(4, 4)
        with pytest.raises(ValueError):
            image.crop(2, 2, 5, 5)


class TestTransforms:
    def test_grayscale_weights(self):
        image = Image.new(1, 1, (255, 0, 0))
        assert abs(image.to_grayscale()[0, 0] - 0.299 * 255) < 1e-6

    def test_resize_dimensions(self):
        image = Image.new(8, 8)
        assert image.resize(4, 2).size == (4, 2)
        assert image.resize(16, 16).size == (16, 16)

    def test_resize_preserves_solid_color(self):
        image = Image.new(8, 8, (3, 4, 5))
        small = image.resize(2, 2)
        assert small.get_pixel(0, 0) == (3, 4, 5)

    def test_equality_and_copy(self):
        image = Image.new(3, 3, (1, 2, 3))
        duplicate = image.copy()
        assert image == duplicate
        duplicate.put_pixel(0, 0, (9, 9, 9))
        assert image != duplicate

    def test_hash_consistency(self):
        a = Image.new(3, 3, (1, 2, 3))
        b = Image.new(3, 3, (1, 2, 3))
        assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# Row-broadcast fills and repeat upscaling == the assignment forms
# ----------------------------------------------------------------------
class TestFillKernelsMatchAssignment:
    """The fast paths give the pixels of the plain numpy assignments."""

    @pytest.mark.parametrize("width,height", [(1, 1), (7, 3), (320, 260)])
    @pytest.mark.parametrize("color", [WHITE, BLACK, (244, 246, 248), (1, 2, 3)])
    def test_new(self, width, height, color):
        expected = np.empty((height, width, 3), dtype=np.uint8)
        expected[:, :] = color
        image = Image.new(width, height, color)
        assert np.array_equal(image.pixels, expected)
        assert image.pixels.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize(
        "rect",
        [
            (2, 3, 5, 4),  # inside
            (0, 0, 20, 12),  # the whole image
            (15, 8, 10, 10),  # clipped right and bottom
            (-4, -2, 7, 5),  # negative offset, clipped left and top
            (-30, 2, 5, 5),  # wholly left of the image
            (3, 20, 4, 4),  # wholly below the image
            (5, 5, 0, 4),  # zero width
            (5, 5, 4, 0),  # zero height
            (5, 5, -3, 4),  # negative width
            (4, 6, 1, 1),  # one pixel
            (0, 11, 20, 1),  # one row
        ],
    )
    def test_fill_rect(self, rect):
        rng = np.random.default_rng(7)
        start = rng.integers(0, 256, size=(12, 20, 3), dtype=np.uint8)
        x, y, width, height = rect
        expected = start.copy()
        x0, y0 = max(x, 0), max(y, 0)
        x1, y1 = min(x + width, 20), min(y + height, 12)
        if x1 > x0 and y1 > y0:
            expected[y0:y1, x0:x1] = (9, 99, 199)
        image = Image(start)
        image.fill_rect(x, y, width, height, (9, 99, 199))
        assert np.array_equal(image.pixels, expected)

    @pytest.mark.parametrize("scale", [1, 2, 3, 5])
    @pytest.mark.parametrize("border", [0, 2])
    def test_from_bool_matrix(self, scale, border):
        matrix = np.random.default_rng(scale).random((9, 13)) < 0.4
        padded = np.pad(matrix, border, constant_values=False)
        scaled = np.kron(padded, np.ones((scale, scale), dtype=bool))
        expected = np.empty(scaled.shape + (3,), dtype=np.uint8)
        expected[~scaled] = (200, 10, 20)
        expected[scaled] = (5, 6, 7)
        image = Image.from_bool_matrix(matrix, scale=scale, fg=(5, 6, 7), bg=(200, 10, 20),
                                       border=border)
        assert np.array_equal(image.pixels, expected)

    @pytest.mark.parametrize("scale", [1, 2, 4])
    def test_render_text_upscale(self, scale):
        from repro.imaging.render import _line_matrix, render_text

        scaled = np.kron(_line_matrix("AB:1"), np.ones((scale, scale), dtype=bool))
        expected = np.full((scaled.shape[0] + 6, scaled.shape[1] + 6, 3), 255, dtype=np.uint8)
        expected[3:-3, 3:-3][scaled] = 0
        assert np.array_equal(render_text("AB:1", scale=scale, margin=3).pixels, expected)

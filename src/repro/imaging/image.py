"""A minimal in-memory RGB raster image.

The reproduction needs real pixel data flowing through the pipeline
(QR codes embedded in message images, login-page screenshots, OCR input)
but must stay dependency-light, so this module implements a small image
class on top of a ``(height, width, 3)`` ``uint8`` numpy array.
"""

from __future__ import annotations

import numpy as np

#: Conventional colors used across the substrate.
WHITE = (255, 255, 255)
BLACK = (0, 0, 0)


def integral_image(mask: np.ndarray) -> np.ndarray:
    """Summed-area table: ``table[y, x]`` counts the ink in ``mask[:y, :x]``."""
    table = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.int64)
    np.cumsum(mask, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return table


class Image:
    """An RGB raster image backed by a numpy array.

    The pixel buffer is always ``uint8`` with shape ``(height, width, 3)``.
    All mutating operations work in place; transforming operations return
    new :class:`Image` instances.
    """

    def __init__(self, pixels: np.ndarray):
        pixels = np.asarray(pixels)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) pixel array, got shape {pixels.shape}")
        self.pixels = np.array(pixels, dtype=np.uint8, order="C")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def new(cls, width: int, height: int, color: tuple[int, int, int] = WHITE) -> "Image":
        """Create a solid-color image of the given size."""
        if width <= 0 or height <= 0:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        # Filling one row and broadcasting it is ~40x faster than
        # assigning the colour tuple to every pixel; the constructor's
        # C-order copy materialises the broadcast.
        row = np.empty((1, width, 3), dtype=np.uint8)
        row[0] = color
        return cls(np.broadcast_to(row, (height, width, 3)))

    @classmethod
    def from_bool_matrix(
        cls,
        matrix: np.ndarray,
        scale: int = 1,
        fg: tuple[int, int, int] = BLACK,
        bg: tuple[int, int, int] = WHITE,
        border: int = 0,
    ) -> "Image":
        """Render a boolean matrix (True = foreground) as an image.

        Used to rasterise QR-code module matrices and font glyphs.
        ``scale`` is the pixel size of one matrix cell and ``border`` the
        quiet-zone width in cells.
        """
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if scale < 1:
            raise ValueError("scale must be >= 1")
        padded = np.pad(matrix, border, constant_values=False)
        scaled = padded.repeat(scale, axis=0).repeat(scale, axis=1)
        buf = np.empty(scaled.shape + (3,), dtype=np.uint8)
        buf[~scaled] = bg
        buf[scaled] = fg
        return cls(buf)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    def copy(self) -> "Image":
        return Image(self.pixels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self) -> int:  # content hash, stable across copies
        return hash((self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height})"

    # ------------------------------------------------------------------
    # Pixel access and composition
    # ------------------------------------------------------------------
    def get_pixel(self, x: int, y: int) -> tuple[int, int, int]:
        r, g, b = self.pixels[y, x]
        return (int(r), int(g), int(b))

    def put_pixel(self, x: int, y: int, color: tuple[int, int, int]) -> None:
        self.pixels[y, x] = color

    def paste(self, other: "Image", x: int, y: int) -> None:
        """Paste ``other`` onto this image with its top-left corner at (x, y).

        The pasted region is clipped to this image's bounds.
        """
        if x >= self.width or y >= self.height:
            return
        x0, y0 = max(x, 0), max(y, 0)
        x1 = min(x + other.width, self.width)
        y1 = min(y + other.height, self.height)
        if x1 <= x0 or y1 <= y0:
            return
        sx0, sy0 = x0 - x, y0 - y
        self.pixels[y0:y1, x0:x1] = other.pixels[sy0 : sy0 + (y1 - y0), sx0 : sx0 + (x1 - x0)]

    def crop(self, x: int, y: int, width: int, height: int) -> "Image":
        """Return the sub-image at (x, y) of the given size."""
        if width <= 0 or height <= 0:
            raise ValueError("crop size must be positive")
        if x < 0 or y < 0 or x + width > self.width or y + height > self.height:
            raise ValueError("crop rectangle out of bounds")
        return Image(self.pixels[y : y + height, x : x + width])

    def fill_rect(self, x: int, y: int, width: int, height: int, color: tuple[int, int, int]) -> None:
        x0, y0 = max(x, 0), max(y, 0)
        x1 = min(x + width, self.width)
        y1 = min(y + height, self.height)
        if x1 > x0 and y1 > y0:
            region = self.pixels[y0:y1, x0:x1]
            region[0] = color  # one row from the tuple, then row copies
            region[1:] = region[0]

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def to_grayscale(self) -> np.ndarray:
        """Return a float (H, W) luminance array using ITU-R BT.601 weights."""
        rgb = self.pixels.astype(np.float64)
        return 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]

    def resize(self, width: int, height: int) -> "Image":
        """Nearest-neighbour resize (sufficient for hashing and OCR)."""
        if width <= 0 or height <= 0:
            raise ValueError("resize dimensions must be positive")
        ys = (np.arange(height) * (self.height / height)).astype(int).clip(0, self.height - 1)
        xs = (np.arange(width) * (self.width / width)).astype(int).clip(0, self.width - 1)
        return Image(self.pixels[np.ix_(ys, xs)])

    def mean_color(self) -> tuple[float, float, float]:
        means = self.pixels.reshape(-1, 3).mean(axis=0)
        return (float(means[0]), float(means[1]), float(means[2]))

"""Deterministic page rasterisation from a :class:`VisualSpec`.

The layout mimics a typical login portal: brand header band, centred
login box with title, labelled input fields, a submit button, and a
footer.  Clones of the same spec rasterise identically; small noise,
crops, victim-email overlays, and hue rotations perturb pixels without
destroying the grayscale structure the fuzzy hashes read.

A screenshot is a pure function of a small *screenshot key* (see
``PageSession.screenshot_key``): ``("visual", spec, overlay_text,
logo_label, dynamic_hue)`` for a page with a :class:`VisualSpec`, or
``("lines", lines)`` for a text-only page.  :func:`render_screenshot`
is the one render path from such a key.  Phishing kits clone the same
few brand pages, so a corpus run sees a handful of distinct keys;
:func:`screenshot_fingerprint` therefore memoises the ``(phash,
dhash)`` pair per key in a bounded LRU (``SCREENSHOT_MEMO_SIZE``
entries of two ints each, never pixels).  The logo subrequest and the
signals read that produce a key happen outside the memo, so request
logs and fault draws are the same on a hit as on a miss.
"""

from __future__ import annotations

from repro._memo import LRU
from repro.imaging.effects import hue_rotate
from repro.imaging.image import Image
from repro.imaging.phash import fingerprint
from repro.imaging.render import render_lines, render_text
from repro.web.site import VisualSpec

PAGE_WIDTH = 320
PAGE_HEIGHT = 260

#: Distinct screenshot keys whose fingerprints are kept.  A seed-1 run
#: at scale 0.05 sees 17; each entry is a key plus two ints.
SCREENSHOT_MEMO_SIZE = 512

_SCREENSHOT_MEMO: LRU[tuple[int, int]] = LRU(SCREENSHOT_MEMO_SIZE)


def render_screenshot(key: tuple) -> Image:
    """Rasterise a screenshot key (see the module docstring)."""
    if key[0] == "lines":
        return render_lines(list(key[1]), scale=2)
    _, spec, overlay_text, logo_label, dynamic_hue = key
    logo_image = None
    if logo_label is not None:
        logo_image = render_text(logo_label, scale=1, margin=1)
    image = render_visual(spec, overlay_text=overlay_text, logo_image=logo_image)
    if dynamic_hue and not spec.hue_rotate_deg:
        image = hue_rotate(image, dynamic_hue)
    return image


def screenshot_fingerprint(key: tuple) -> tuple[int, int]:
    """``(phash, dhash)`` of ``render_screenshot(key)``, memoised per key."""
    pair = _SCREENSHOT_MEMO.get(key)
    if pair is None:
        pair = fingerprint(render_screenshot(key))
        _SCREENSHOT_MEMO.put(key, pair)
    return pair


def screenshot_memo_info() -> dict:
    """Hit/miss/size counters of the screenshot fingerprint memo."""
    return _SCREENSHOT_MEMO.info()


def clear_screenshot_memo() -> None:
    """Drop all memoised fingerprints and reset the counters."""
    _SCREENSHOT_MEMO.clear()


def render_visual(
    spec: VisualSpec,
    width: int = PAGE_WIDTH,
    height: int = PAGE_HEIGHT,
    overlay_text: str | None = None,
    logo_image: Image | None = None,
) -> Image:
    """Rasterise a page description into a screenshot-sized image."""
    image = Image.new(width, height, spec.background)
    variant = spec.layout_variant % 12

    # Brand header band: height and alignment depend on the layout.
    header_height = height // 6 + (variant % 3) * 14
    image.fill_rect(0, 0, width, header_height, spec.header_color)
    if spec.brand:
        brand = render_text(spec.brand.upper(), scale=2, fg=(255, 255, 255), bg=spec.header_color, margin=2)
        brand_x = 10 if variant % 2 == 0 else max(10, (width - brand.width) // 2)
        image.paste(brand, brand_x, max(0, (header_height - brand.height) // 2))
    if logo_image is None and spec.logo_text:
        logo_image = render_text(spec.logo_text[:10].upper(), scale=1, margin=1)
    if logo_image is not None:
        image.paste(logo_image, width - logo_image.width - 8, 4)

    # Some layouts add a side navigation rail.
    if variant in (2, 5, 8, 11):
        image.fill_rect(0, header_height, 36, height - header_height, spec.header_color)

    # Login box: position and width depend on the layout.
    box_x = width // 8 + ((variant // 3) % 3) * 18
    box_y = header_height + 10 + (variant % 2) * 10
    box_w = width * 3 // 4 - ((variant // 2) % 3) * 24
    box_h = height - box_y - 28
    image.fill_rect(box_x, box_y, box_w, box_h, spec.box_color)

    cursor_y = box_y + 8
    title = render_text(spec.title.upper()[:24], scale=1, fg=(40, 40, 40), bg=spec.box_color, margin=1)
    image.paste(title, box_x + 10, cursor_y)
    cursor_y += title.height + 6

    # Input fields: label + outlined box.
    for label in spec.fields:
        label_img = render_text(label.upper()[:18], scale=1, fg=(90, 90, 90), bg=spec.box_color, margin=1)
        image.paste(label_img, box_x + 10, cursor_y)
        cursor_y += label_img.height + 2
        field_h = 14
        image.fill_rect(box_x + 10, cursor_y, box_w - 20, field_h, (250, 250, 250))
        image.fill_rect(box_x + 10, cursor_y, box_w - 20, 1, (180, 180, 180))
        image.fill_rect(box_x + 10, cursor_y + field_h - 1, box_w - 20, 1, (180, 180, 180))
        image.fill_rect(box_x + 10, cursor_y, 1, field_h, (180, 180, 180))
        image.fill_rect(box_x + 9 + box_w - 20, cursor_y, 1, field_h, (180, 180, 180))
        cursor_y += field_h + 6

    # Submit button.
    if spec.button_text:
        button_h = 18
        image.fill_rect(box_x + 10, cursor_y, box_w - 20, button_h, spec.button_color)
        button_label = render_text(spec.button_text.upper()[:16], scale=1, fg=(255, 255, 255), bg=spec.button_color, margin=1)
        image.paste(
            button_label,
            box_x + 10 + max(0, (box_w - 20 - button_label.width) // 2),
            cursor_y + max(0, (button_h - button_label.height) // 2),
        )
        cursor_y += button_h + 4

    # Footer.
    if spec.footer:
        footer = render_text(spec.footer.upper()[:40], scale=1, fg=(120, 120, 120), bg=spec.background, margin=1)
        image.paste(footer, 10, height - footer.height - 4)

    # Victim-email (or other) overlay stamped by the serving kit.
    if overlay_text:
        stamp = render_text(overlay_text.upper()[:34], scale=1, fg=(70, 70, 70), bg=spec.box_color, margin=1)
        image.paste(stamp, box_x + 10, box_y + box_h - stamp.height - 4)

    if spec.hue_rotate_deg:
        image = hue_rotate(image, spec.hue_rotate_deg)
    return image

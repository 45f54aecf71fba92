"""Substrate micro-benchmarks: the pipeline's hot inner loops.

Not tied to a paper table; these keep the building blocks honest
(QR decode, OCR, perceptual hashing, script execution, page setup) and
make regressions visible.  ``bench_substrate_microbench`` writes its
per-call medians to ``benchmarks/results/bench_substrate_microbench``.
"""

import random
import statistics
import timeit

from repro.imaging.phash import dhash, phash
from repro.imaging.ocr import ocr_image
from repro.imaging.render import render_lines
from repro.js import Interpreter
from repro.qr.encoder import qr_image
from repro.qr.scanner import decode_qr_image


def bench_qr_encode_decode(benchmark):
    def roundtrip():
        image = qr_image("https://evil-site.example/dhfYWfH#e=dmljdGltQGNvcnA=", scale=3)
        return decode_qr_image(image)

    payload = benchmark(roundtrip)
    assert payload.startswith("https://")


def bench_ocr_url_extraction(benchmark):
    image = render_lines(["YOUR MAILBOX IS FULL", "HTTPS://EVIL.EXAMPLE/RENEW"], scale=2)
    result = benchmark(ocr_image, image)
    assert "HTTPS://EVIL.EXAMPLE/RENEW" in result.text


def bench_perceptual_hashing(benchmark):
    from repro.browser.render import render_visual
    from repro.kits.brands import COMPANY_BRANDS

    image = render_visual(COMPANY_BRANDS[0].spec)

    def hash_both():
        return phash(image), dhash(image)

    p_value, d_value = benchmark(hash_both)
    assert p_value and d_value


def bench_phishscript_obfuscated_reveal(benchmark):
    from repro.kits.scripts import victim_check_script

    source = victim_check_script("a")

    def execute():
        interp = Interpreter(rng=random.Random(1))
        try:
            interp.run(source)
        except Exception:  # noqa: BLE001 - host objects absent; parse+eval cost only
            pass
        return interp.steps

    steps = benchmark(execute)
    assert steps > 0


def _per_call_us(fn, number: int, repeat: int = 7) -> float:
    """Median over ``repeat`` timings of ``number`` calls, in µs per call."""
    return 1e6 * statistics.median(timeit.repeat(fn, number=number, repeat=repeat)) / number


def bench_substrate_microbench(benchmark, comparison):
    """Page setup and QR location, the two costs per crawled page and image."""
    from repro.browser.browser import Browser
    from repro.browser.dom import _parse_document, parse_html
    from repro.browser.profile import human_chrome_profile
    from repro.browser.session import PageSession
    from repro.dataset import CorpusGenerator
    from repro.imaging.image import Image
    from repro.qr.encoder import encode_qr
    from repro.qr.locator import locate_qr_matrix

    corpus = CorpusGenerator(seed=2024, scale=0.02).generate()
    message = next(
        message for message in corpus.messages
        if message.ground_truth.get("category") == "credential-phishing")
    browser = Browser(corpus.world.network, human_chrome_profile(), rng=random.Random(1),
                      timestamp=message.delivered_at)
    page = browser.visit(message.ground_truth["landing_url"]).sessions[0]
    assert page.parsed.inline_scripts or page.parsed.external_scripts

    def build_session():
        return PageSession(browser, page.url, page.response, page.referrer)

    symbol = Image.from_bool_matrix(
        encode_qr("https://evil-site.example/dhfYWfH", version=5), scale=4, border=4)
    body = page.response.body
    session_us = _per_call_us(build_session, number=200)
    locate_us = _per_call_us(lambda: locate_qr_matrix(symbol), number=20)
    hit_us = _per_call_us(lambda: parse_html(body), number=2000)
    miss_us = _per_call_us(lambda: _parse_document(body), number=200)

    comparison.row("PageSession build, kit landing page (us)", "n/a", f"{session_us:.1f}")
    comparison.row("locate_qr_matrix, version 5 at scale 4 (us)", "n/a", f"{locate_us:.1f}")
    comparison.row("parse_html memo hit / miss (us)", "n/a", f"{hit_us:.2f} / {miss_us:.1f}")
    comparison.note(f"page: {page.url.raw} ({len(body)} bytes of markup, seed-2024 scale-0.02 corpus)")
    comparison.metric("page_session_build_us", session_us)
    comparison.metric("locate_qr_v5_scale4_us", locate_us)
    comparison.metric("parse_html_hit_us", hit_us)
    comparison.metric("parse_html_miss_us", miss_us)
    assert hit_us < miss_us

    benchmark.pedantic(build_session, rounds=1, iterations=1)


def _triage_images() -> list:
    """Every image the parse stage scans in the triage-pool corpus
    (``repro run --scale 0.1``, seed 1): inline and attached images and
    rasterised PDF pages."""
    from repro.dataset import CorpusGenerator
    from repro.mail.parser import EmailParser

    images = []

    class Collector(EmailParser):
        def _scan_image(self, image, *rest):
            images.append(image)

    parser = Collector()
    for message in CorpusGenerator(seed=1, scale=0.1).generate().messages:
        parser.parse(message)
    return images


def bench_image_scans(benchmark, comparison):
    """OCR and QR decode, the two scans the parse stage runs per image."""
    images = _triage_images()

    def decode(image):
        try:
            return decode_qr_image(image)
        except ValueError:  # QRLocateError / QRDecodeError: no symbol
            return None

    decoded = sum(decode(image) is not None for image in images)
    rows = []
    for label, scan in (("ocr_image", ocr_image), ("decode_qr_image", decode)):
        per_image = [_per_call_us(lambda: scan(image), number=3, repeat=5) for image in images]
        median_us, total_ms = statistics.median(per_image), sum(per_image) / 1000.0
        rows.append((label, median_us, total_ms))
        comparison.row(f"{label}, triage corpus images (median us/image)", "n/a", f"{median_us:.1f}")
        comparison.row(f"{label}, one pass over them (ms)", "n/a", f"{total_ms:.1f}")
        comparison.metric(f"{label}_median_us", median_us)
        comparison.metric(f"{label}_pass_ms", total_ms)
    sizes = sorted({(image.width, image.height) for image in images})
    comparison.note(f"{len(images)} images ({decoded} QR symbols decode) from the seed-1 "
                    f"scale-0.1 corpus; sizes {sizes}")
    assert len(images) >= 10 and decoded > 0

    benchmark.pedantic(lambda: [(ocr_image(image), decode(image)) for image in images],
                       rounds=1, iterations=1)

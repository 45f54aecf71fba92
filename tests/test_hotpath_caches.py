"""Hot-path caches: the JS parse LRU, the screenshot fingerprint memo,
the spear-reference memo and the parsed-header memo.

All four are pure wins only if they are invisible: a cached parse
must yield an AST equal to a fresh parse, a memoised fingerprint must
equal the hashes of a freshly rendered screenshot, a memoized
reference crawl must yield the same pHash/dHash reference set a fresh
crawl would, and an ingest through a warm header memo must give the
records a cold one gives.  These tests pin the invisibility and the actually-caching
behaviour (hit counters, LRU eviction, per-key isolation).
"""

from __future__ import annotations

import pytest

from repro._memo import LRU
from repro.browser.render import (
    SCREENSHOT_MEMO_SIZE,
    _SCREENSHOT_MEMO,
    clear_screenshot_memo,
    render_screenshot,
    screenshot_fingerprint,
    screenshot_memo_info,
)
from repro.imaging.image import Image
from repro.imaging.phash import dhash, phash
from repro.js.parser import (
    PARSE_CACHE_SIZE,
    _source_key,
    clear_parse_cache,
    parse,
    parse_cache_info,
)

SCRIPT = """
var tries = 0;
function check(blocked) {
    if (blocked) { return -1; }
    tries = tries + 1;
    return tries * 10;
}
check(false) + check(false);
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_parse_cache()
    clear_screenshot_memo()
    yield
    clear_parse_cache()
    clear_screenshot_memo()


class TestParseCache:
    def test_cached_parse_equals_fresh_parse(self):
        cached = parse(SCRIPT)
        fresh = parse(SCRIPT, use_cache=False)
        assert cached == fresh  # AST dataclass equality, node for node

    def test_repeat_parse_hits_and_returns_same_object(self):
        first = parse(SCRIPT)
        before = parse_cache_info()
        second = parse(SCRIPT)
        after = parse_cache_info()
        assert second is first  # shared immutable AST, no reparse
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["maxsize"] == PARSE_CACHE_SIZE

    def test_different_sources_do_not_collide(self):
        a = parse("var x = 1;")
        b = parse("var x = 2;")
        assert a != b
        assert parse("var x = 1;") is a
        assert parse("var x = 2;") is b

    def test_bypass_does_not_touch_cache(self):
        before = parse_cache_info()
        parse(SCRIPT, use_cache=False)
        after = parse_cache_info()
        assert (after["hits"], after["misses"], after["size"]) == (
            before["hits"], before["misses"], before["size"])

    def test_clear_resets_counters_and_evicts(self):
        first = parse(SCRIPT)
        clear_parse_cache()
        info = parse_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (0, 0, 0)
        assert parse(SCRIPT) is not first  # reparsed after eviction

    def test_lru_evicts_least_recently_used(self):
        cache = LRU(maxsize=2)
        key_a, key_b, key_c = (_source_key(s) for s in ("a;", "b;", "c;"))
        cache.put(key_a, parse("a;", use_cache=False))
        cache.put(key_b, parse("b;", use_cache=False))
        assert cache.get(key_a) is not None  # touch a: b becomes LRU
        cache.put(key_c, parse("c;", use_cache=False))
        assert cache.get(key_b) is None  # evicted
        assert cache.get(key_a) is not None
        assert cache.get(key_c) is not None

    def test_interpretation_unaffected_by_caching(self):
        # The cache hands the SAME Program object to every interpreter,
        # which is only sound because execution never mutates the AST.
        from repro.js.interp import Interpreter

        results = []
        for use_cache in (True, True, False):
            interpreter = Interpreter()
            program = parse(SCRIPT, use_cache=use_cache)
            results.append(interpreter.run_program(program, interpreter.globals))
        assert results[0] == results[1] == results[2] == 30


def _analyse(world, messages) -> list[bytes]:
    from repro.core import CrawlerBox
    from repro.core.export import record_to_wire

    box = CrawlerBox.for_world(world)
    return [record_to_wire(box.analyze(message, index)) for index, message in enumerate(messages)]


def _hotlinking_session(small_corpus):
    """A crawled landing page whose screenshot fetches the brand's logo."""
    from repro.core import CrawlerBox

    box = CrawlerBox.for_world(small_corpus.world)
    box.crawler.retain_results = True
    for index, message in enumerate(small_corpus.messages):
        box.analyze(message, index)
        for result in box.crawler.crawled:
            for session in result.sessions:
                visual = getattr(session.response, "visual", None)
                if visual is not None and visual.logo_url:
                    return session
        box.crawler.crawled.clear()
    raise AssertionError("expected a page that hotlinks its brand's logo")


class TestScreenshotMemo:
    def test_fingerprint_equals_fresh_hashes_for_every_crawled_session(self, small_corpus):
        from repro.core import CrawlerBox

        box = CrawlerBox.for_world(small_corpus.world)
        box.crawler.retain_results = True
        checked = 0
        for index, message in enumerate(small_corpus.messages):
            box.analyze(message, index)
            for result in box.crawler.crawled:
                for session in result.sessions:
                    screenshot = session.screenshot()
                    assert session.fingerprint() == (phash(screenshot), dhash(screenshot))
                    checked += 1
            box.crawler.crawled.clear()  # bound memory: sessions hold interpreters
        info = screenshot_memo_info()
        assert checked > 100
        # Analysis plus this loop fingerprinted every session; most hit.
        assert info["hits"] > info["misses"] > 0

    def test_cold_and_warm_memo_give_identical_records(self):
        from repro.dataset import CorpusGenerator

        # A fresh (identical) world per pass: kit servers keep state
        # across visits, so only the memo may differ between passes.
        cold_corpus = CorpusGenerator(seed=2024, scale=0.03).generate()
        cold = _analyse(cold_corpus.world, cold_corpus.messages)
        cold_info = screenshot_memo_info()
        warm_corpus = CorpusGenerator(seed=2024, scale=0.03).generate()
        warm = _analyse(warm_corpus.world, warm_corpus.messages)
        warm_info = screenshot_memo_info()
        assert cold == warm
        assert cold_info["misses"] > 0
        # The warm pass renders nothing new.
        assert warm_info["misses"] == cold_info["misses"]
        assert warm_info["hits"] > cold_info["hits"]

    def test_memo_hit_still_issues_logo_subrequest(self, small_corpus):
        session = _hotlinking_session(small_corpus)
        logo_url = session.resolve_url(session.response.visual.logo_url)
        portal = small_corpus.world.network.website(logo_url.host)
        issued = []
        subrequest = session.browser.subrequest

        def logging_subrequest(method, url, *args, **kwargs):
            issued.append((url.raw, kwargs.get("kind")))
            return subrequest(method, url, *args, **kwargs)

        session.browser.subrequest = logging_subrequest
        session.fingerprint()  # miss or hit, depending on earlier tests
        before = screenshot_memo_info()
        served_before = len(portal.access_log)
        pair = session.fingerprint()
        after = screenshot_memo_info()
        assert after["hits"] == before["hits"] + 1
        assert issued == [(logo_url.raw, "resource")] * 2
        # The impersonated organisation sees the hotlink on a hit too.
        assert len(portal.access_log) == served_before + 1
        assert pair == session.fingerprint()

    def test_keys_differing_in_one_render_input_render_different_pixels(self):
        from repro.kits.brands import COMPANY_BRANDS

        spec = COMPANY_BRANDS[0].spec
        assert not spec.hue_rotate_deg
        base = ("visual", spec, None, None, 0.0)
        variants = (
            ("visual", spec, "victim@example.com", None, 0.0),
            ("visual", spec, None, "EVILCORP", 0.0),
            ("visual", spec, None, None, 30.0),
        )
        base_pixels = render_screenshot(base).pixels
        for key in variants:
            assert key != base
            assert not (render_screenshot(key).pixels == base_pixels).all(), key

    def test_memo_stores_int_pairs_and_evicts_at_its_constant(self):
        from repro.kits.brands import COMPANY_BRANDS

        first = ("visual", COMPANY_BRANDS[0].spec, None, None, 0.0)
        pair = screenshot_fingerprint(first)
        assert pair == (phash(render_screenshot(first)), dhash(render_screenshot(first)))
        for index in range(SCREENSHOT_MEMO_SIZE):
            screenshot_fingerprint(("lines", (f"PAGE {index}",)))
        stored = list(_SCREENSHOT_MEMO._entries.values())
        assert len(stored) == SCREENSHOT_MEMO_SIZE == screenshot_memo_info()["maxsize"]
        assert all(
            isinstance(value, tuple) and len(value) == 2
            and all(type(half) is int for half in value)
            for value in stored
        )
        assert not any(isinstance(half, Image) for value in stored for half in value)
        misses = screenshot_memo_info()["misses"]
        assert screenshot_fingerprint(first) == pair  # evicted: recomputed
        assert screenshot_memo_info()["misses"] == misses + 1


class TestSpearReferenceMemo:
    def test_reference_crawl_memoized_per_world(self, small_corpus):
        from repro.core.spearphish import SpearPhishClassifier
        from repro.kits.brands import COMPANY_BRANDS

        network = small_corpus.world.network
        brands = COMPANY_BRANDS
        first = SpearPhishClassifier.from_portals(network, brands)
        second = SpearPhishClassifier.from_portals(network, brands)
        # Same memoized reference pages (one crawl), independent classifiers.
        assert first is not second
        assert first.references == second.references
        cache = network.__dict__["_spear_reference_cache"]
        key = tuple((brand.name, brand.login_domain) for brand in brands)
        assert list(cache[key]) == first.references
        # Both classifiers share the one memoized tuple for this key.
        assert all(a is b for a, b in zip(first.references, second.references))

    def test_memo_matches_fresh_crawl(self, small_corpus):
        from repro.core.spearphish import SpearPhishClassifier
        from repro.kits.brands import COMPANY_BRANDS

        network = small_corpus.world.network
        brands = COMPANY_BRANDS
        memoized = SpearPhishClassifier.from_portals(network, brands)
        fresh = SpearPhishClassifier._crawl_references(network, brands)
        assert memoized.references == list(fresh)


def _rfc822(message) -> bytes:
    """A corpus message as RFC-822 bytes, from its text and HTML parts."""
    import email.message
    import email.policy

    root = email.message.EmailMessage(policy=email.policy.default)
    root["From"] = message.sender
    root["To"] = message.recipient
    root["Subject"] = message.subject
    root["Received"] = f"from relay ([{message.sending_ip}]) by mx.corp.example"
    texts = [part for part in message.parts
             if part.content_type in ("text/plain", "text/html") and isinstance(part.content, str)]
    if not texts:
        root.set_content("", charset="utf-8")
    for position, part in enumerate(texts):
        add = root.set_content if position == 0 else root.add_alternative
        add(part.decoded_text(), subtype=part.content_type.split("/")[1], charset="utf-8")
    return root.as_bytes()


class TestHeaderMemo:
    def test_cold_and_warm_memo_give_identical_records(self):
        from repro.browser.dom import clear_dom_memo
        from repro.dataset import CorpusGenerator
        from repro.mail.ingest import clear_header_memo, header_memo_info, ingest_eml_bytes

        # Rendered once: a multipart render draws a random boundary.
        raws = [_rfc822(message) for message in
                CorpusGenerator(seed=2024, scale=0.03).generate().messages[:40]]
        passes = []
        clear_header_memo()
        for _ in ("cold", "warm"):
            # A fresh (identical) world per pass, and every other memo
            # emptied: only the header memo differs between passes.
            clear_parse_cache()
            clear_screenshot_memo()
            clear_dom_memo()
            corpus = CorpusGenerator(seed=2024, scale=0.03).generate()
            before = header_memo_info()
            records = _analyse(corpus.world, [ingest_eml_bytes(raw) for raw in raws])
            after = header_memo_info()
            passes.append((records, after["hits"] - before["hits"],
                           after["misses"] - before["misses"]))
        (cold, cold_hits, cold_misses), (warm, warm_hits, warm_misses) = passes
        assert cold == warm
        assert cold_misses > 0
        # The warm pass parses no header it has seen.
        assert warm_misses == 0
        assert warm_hits == cold_hits + cold_misses

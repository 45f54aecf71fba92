"""Browser substrate tests: DOM, sessions, navigation, cookies, signals."""

import random

import pytest

from repro.browser.browser import Browser, VisitOutcome
from repro.browser.dom import _DOM_MEMO, _parse_document, clear_dom_memo, dom_memo_info, parse_html
from repro.browser.profile import (
    BrowserProfile,
    datacenter_scanner_profile,
    human_chrome_profile,
    mobile_phone_profile,
)
from repro.js.interp import Interpreter, JSArray, NativeFunction
from repro.web.context import ClientContext
from repro.web.http import HttpRequest, HttpResponse
from repro.web.network import Network
from repro.web.site import Page, Website
from repro.web.tls import TLSCertificate


def _simple_network(html="<html><body>hi</body></html>", domain="site.example"):
    network = Network()
    site = Website(domain, ip="7.7.7.7")
    site.add_page("/", Page(html=html))
    network.host_website(site)
    network.issue_certificate(TLSCertificate(domain, "CA", float("-inf"), float("inf")))
    return network, site


def _browser(network, profile=None, seed=1):
    return Browser(network, profile or human_chrome_profile(), rng=random.Random(seed), timestamp=10.0)


class TestDomParsing:
    def test_scripts_and_resources(self):
        doc = parse_html(
            """<html><head><title>T</title><script>var a=1;</script>
            <script src="/app.js"></script><link href="/style.css"/></head>
            <body><img src="/logo.png"/><a href="https://x.example/">go</a>
            <form action="/collect" method="POST"><input type="password" name="p"/></form>
            <div id="content">hidden</div></body></html>"""
        )
        assert doc.title == "T"
        assert doc.inline_scripts == ["var a=1;"]
        assert doc.external_scripts == ["/app.js"]
        assert "/logo.png" in doc.resource_urls and "/style.css" in doc.resource_urls
        assert doc.anchors == ["https://x.example/"]
        assert doc.forms[0].has_password_field
        assert doc.element_by_id("content").text == "hidden"

    def test_text_extraction(self):
        doc = parse_html("<html><body><p>Hello</p><p>World</p></body></html>")
        assert "Hello" in doc.text and "World" in doc.text

    def test_form_without_password(self):
        doc = parse_html('<form action="/a"><input type="text" name="q"/></form>')
        assert not doc.forms[0].has_password_field


class TestVisits:
    def test_simple_visit(self):
        network, _ = _simple_network()
        result = _browser(network).visit("https://site.example/")
        assert result.outcome == VisitOutcome.OK
        assert result.url_chain == ["https://site.example/"]
        assert result.final_session is not None

    def test_nxdomain_outcome(self):
        network, _ = _simple_network()
        result = _browser(network).visit("https://ghost.example/")
        assert result.outcome == VisitOutcome.NXDOMAIN

    def test_bad_url_outcome(self):
        network, _ = _simple_network()
        assert _browser(network).visit("not-a-url").outcome == VisitOutcome.BAD_URL

    def test_server_redirect_followed(self):
        network, site = _simple_network()
        target = Website("target.example", ip="7.7.7.8")
        target.set_default(Page(html="<html><body>final</body></html>"))
        network.host_website(target)
        network.issue_certificate(TLSCertificate("target.example", "CA", float("-inf"), float("inf")))
        site.add_handler("/jump", lambda r, c: HttpResponse.redirect("https://target.example/"))
        result = _browser(network).visit("https://site.example/jump")
        assert result.url_chain == ["https://site.example/jump", "https://target.example/"]
        assert "final" in result.final_response.body

    def test_redirect_loop_detected(self):
        network, site = _simple_network()
        site.add_handler("/loop", lambda r, c: HttpResponse.redirect("/loop"))
        result = _browser(network).visit("https://site.example/loop")
        assert result.outcome == VisitOutcome.REDIRECT_LOOP

    def test_script_navigation(self):
        html = """<html><head><script>location.href = 'https://site.example/next';</script></head><body></body></html>"""
        network, site = _simple_network(html)
        site.add_page("/next", Page(html="<html><body>arrived</body></html>"))
        result = _browser(network).visit("https://site.example/")
        assert result.url_chain[-1] == "https://site.example/next"

    def test_meta_refresh_navigation(self):
        html = '<html><head><meta http-equiv="refresh" content="0;url=https://site.example/meta"/></head><body></body></html>'
        network, site = _simple_network(html)
        site.add_page("/meta", Page(html="<html><body>meta target</body></html>"))
        result = _browser(network).visit("https://site.example/")
        assert result.url_chain[-1] == "https://site.example/meta"

    def test_http_error_classification(self):
        network, site = _simple_network()
        result = _browser(network).visit("https://site.example/does-not-exist")
        assert result.outcome == VisitOutcome.HTTP_ERROR

    def test_cookies_roundtrip(self):
        network, site = _simple_network()

        def _set_cookie(request, context):
            response = HttpResponse(status=200, body="<html></html>")
            response.headers.set("Set-Cookie", "sid=abc123; Path=/")
            return response

        def _echo_cookie(request, context):
            return HttpResponse(status=200, body=request.headers.get("Cookie", "none") or "none")

        site.add_handler("/set", _set_cookie)
        site.add_handler("/echo", _echo_cookie)
        browser = _browser(network)
        browser.visit("https://site.example/set")
        result = browser.visit("https://site.example/echo")
        assert "sid=abc123" in result.final_response.body

    def test_interception_quirk_headers(self):
        network, site = _simple_network()
        seen = {}

        def _capture(request, context):
            seen["cache"] = request.headers.get("Cache-Control")
            seen["pragma"] = request.headers.get("Pragma")
            return HttpResponse(status=200, body="<html></html>")

        site.add_handler("/capture", _capture)
        quirky = human_chrome_profile().derive(interception_cache_quirk=True)
        _browser(network, quirky).visit("https://site.example/capture")
        assert seen["cache"] == "no-cache" and seen["pragma"] == "no-cache"


class TestPageExecution:
    def test_scripts_see_profile_values(self):
        html = """<html><head><script>
        var ua = navigator.userAgent;
        var wd = navigator.webdriver;
        var tz = Intl.DateTimeFormat().resolvedOptions().timeZone;
        var sw = screen.width;
        </script></head><body></body></html>"""
        network, _ = _simple_network(html)
        profile = human_chrome_profile()
        result = _browser(network, profile).visit("https://site.example/")
        interp = result.final_session.interp
        assert interp.globals.lookup("ua") == profile.user_agent
        assert interp.globals.lookup("wd") is False
        assert interp.globals.lookup("tz") == profile.timezone
        assert interp.globals.lookup("sw") == float(profile.screen_width)

    def test_scanner_profile_exposes_webdriver(self):
        html = "<html><head><script>var wd = navigator.webdriver;</script></head><body></body></html>"
        network, _ = _simple_network(html)
        result = _browser(network, datacenter_scanner_profile()).visit("https://site.example/")
        assert result.final_session.interp.globals.lookup("wd") is True

    def test_element_manipulation(self):
        html = """<html><head><script>
        document.getElementById('content').style.display = 'block';
        document.getElementById('content').innerHTML = 'revealed';
        </script></head><body><div id="content" style="display:none">x</div></body></html>"""
        network, _ = _simple_network(html)
        result = _browser(network).visit("https://site.example/")
        element = result.final_session.elements["content"]
        assert element.get("style").get("display") == "block"
        assert element.get("innerHTML") == "revealed"

    def test_xhr_roundtrip(self):
        html = """<html><head><script>
        var xhr = new XMLHttpRequest();
        xhr.open('POST', '/api');
        xhr.onload = function() { window.__status = xhr.status; window.__body = xhr.responseText; };
        xhr.send('{"q":1}');
        </script></head><body></body></html>"""
        network, site = _simple_network(html)
        site.add_handler("/api", lambda r, c: HttpResponse(status=200, body="pong:" + r.body))
        result = _browser(network).visit("https://site.example/")
        window = result.final_session.window
        assert window.get("__status") == 200.0
        assert window.get("__body") == 'pong:{"q":1}'
        assert result.final_session.ajax_log[0].url.endswith("/api")

    def test_fetch_thenable(self):
        html = """<html><head><script>
        fetch('/api').then(function(r){ return r.text(); }).then(function(t){ window.__got = t; });
        </script></head><body></body></html>"""
        network, site = _simple_network(html)
        site.add_handler("/api", lambda r, c: HttpResponse(status=200, body="payload"))
        result = _browser(network).visit("https://site.example/")
        assert result.final_session.window.get("__got") == "payload"

    def test_mouse_events_trusted_for_human(self):
        html = """<html><head><script>
        window.__moves = 0; window.__trusted = 0;
        document.addEventListener('mousemove', function(e){
          window.__moves++; if (e.isTrusted) window.__trusted++;
        });
        </script></head><body></body></html>"""
        network, _ = _simple_network(html)
        result = _browser(network).visit("https://site.example/")
        window = result.final_session.window
        assert window.get("__moves") > 0
        assert window.get("__trusted") == window.get("__moves")

    def test_no_mouse_events_for_naive_scanner(self):
        html = """<html><head><script>
        window.__moves = 0;
        document.addEventListener('mousemove', function(e){ window.__moves++; });
        </script></head><body></body></html>"""
        network, _ = _simple_network(html)
        result = _browser(network, datacenter_scanner_profile()).visit("https://site.example/")
        assert result.final_session.window.get("__moves") == 0.0

    def test_signals_console_hijack(self):
        html = "<html><head><script>console.log = function(){};</script></head><body></body></html>"
        network, _ = _simple_network(html)
        result = _browser(network).visit("https://site.example/")
        assert result.final_session.signals().console_hijacked

    def test_signals_context_menu(self):
        html = "<html><head><script>document.addEventListener('contextmenu', function(e){ e.preventDefault(); });</script></head><body></body></html>"
        network, _ = _simple_network(html)
        assert _browser(network).visit("https://site.example/").final_session.signals().context_menu_blocked

    def test_signals_debugger_timer(self):
        html = "<html><head><script>setInterval(function(){ debugger; }, 1000);</script></head><body></body></html>"
        network, _ = _simple_network(html)
        signals = _browser(network).visit("https://site.example/").final_session.signals()
        assert signals.uses_debugger_timer
        assert signals.debugger_hits > 0

    def test_signals_hue_rotation(self):
        html = "<html><head><script>document.documentElement.style.filter = 'hue-rotate(4deg)';</script></head><body></body></html>"
        network, _ = _simple_network(html)
        assert _browser(network).visit("https://site.example/").final_session.signals().hue_rotation_deg == 4.0

    def test_resource_requests_carry_referrer(self):
        html = '<html><body><img src="https://cdn.example/logo.png"/></body></html>'
        network, _ = _simple_network(html)
        cdn = Website("cdn.example", ip="7.7.7.9")
        cdn.set_default(Page(html="img", content_type="image/png"))
        network.host_website(cdn)
        network.issue_certificate(TLSCertificate("cdn.example", "CA", float("-inf"), float("inf")))
        result = _browser(network).visit("https://site.example/")
        resource = [r for r in result.requests if r.kind == "resource"][0]
        assert resource.url == "https://cdn.example/logo.png"
        assert resource.referrer == "https://site.example/"

    def test_external_script_fetched_and_run(self):
        html = '<html><head><script src="/lib.js"></script></head><body></body></html>'
        network, site = _simple_network(html)
        site.add_handler("/lib.js", lambda r, c: HttpResponse(status=200, body="window.__lib = 'loaded';", content_type="text/javascript"))
        result = _browser(network).visit("https://site.example/")
        assert result.final_session.window.get("__lib") == "loaded"

    def test_load_local_html(self):
        network, _ = _simple_network()
        browser = _browser(network)
        session = browser.load_local_html(
            "<html><body><form><input type='password' name='p'/></form></body></html>"
        )
        assert session.parsed.forms[0].has_password_field

    def test_local_html_can_reach_network(self):
        network, site = _simple_network()
        site.add_handler("/beacon", lambda r, c: HttpResponse(status=200, body="ok"))
        html = """<html><head><script>
        var xhr = new XMLHttpRequest();
        xhr.open('GET', 'https://site.example/beacon');
        xhr.onload = function(){ window.__beacon = xhr.responseText; };
        xhr.send();
        </script></head><body></body></html>"""
        session = _browser(network).load_local_html(html)
        assert session.window.get("__beacon") == "ok"

    def test_mobile_profile_is_mobile(self):
        assert mobile_phone_profile().is_mobile
        assert not human_chrome_profile().is_mobile


_HIJACK_PAGE = """<html><head><title>Original</title><script>
console.log = function () {};
console.warn('from a');
Math.random = function () { return 0.5; };
JSON.stringify = function () { return 'hijacked'; };
navigator.userAgent = 'Hijacked/1.0';
document.title = 'Hijacked';
localStorage.getItem = function () { return 'stolen'; };
leaked = 42;
var button = document.getElementById('go');
button.addEventListener('click', function () { leaked = 43; });
button.innerHTML = 'changed';
</script></head><body><button id="go">Go</button></body></html>"""

_PLAIN_PAGE = '<html><head><title>Original</title></head><body><button id="go">Go</button></body></html>'

_PROBE = """[typeof leaked, Math.random() === 0.5, JSON.stringify({a: 1}), navigator.userAgent,
  document.title, localStorage.getItem('k'), document.getElementById('go').innerHTML]"""


class TestSessionIsolation:
    """Natives are shared per process; everything a script can reach is not."""

    def test_a_hijacking_page_leaves_the_next_session_pristine(self):
        network, site = _simple_network(_HIJACK_PAGE)
        site.add_page("/plain", Page(html=_PLAIN_PAGE))
        browser = _browser(network)
        hijacked = browser.visit("https://site.example/").final_session
        assert hijacked.signals().console_hijacked
        assert hijacked.interp.console_log == [("warn", "from a")]
        assert hijacked.interp.globals.lookup("leaked") == 42.0
        assert len(hijacked.listeners) == 1

        clean = browser.visit("https://site.example/plain").final_session
        assert clean.interp.console_log == []
        assert not clean.signals().console_hijacked
        assert clean.listeners == []
        assert not clean.interp.globals.has("leaked")
        probe = clean.interp.run(_PROBE)
        assert isinstance(probe, JSArray)
        assert probe.elements == [
            "undefined", False, '{"a":1}', browser.profile.user_agent, "Original", None, "Go"]
        # The pristine values are the process-wide natives themselves.
        fresh = Interpreter()
        for name, member in (("console", "log"), ("Math", "random"), ("JSON", "stringify")):
            native = clean.interp.globals.lookup(name).get(member)
            assert isinstance(native, NativeFunction)
            assert native is fresh.globals.lookup(name).get(member)
            assert native is not hijacked.interp.globals.lookup(name).get(member)
        assert clean.interp.globals.lookup(
            "localStorage").get("getItem") is not hijacked.interp.globals.lookup("localStorage").get("getItem")

    def test_natives_reject_property_writes(self):
        interp = Interpreter()
        interp.run("var caught = ''; try { Date.now = 1; } catch (e) { caught = e; }")
        assert "cannot set property" in interp.globals.lookup("caught")
        assert isinstance(Interpreter().globals.lookup("Date").properties["now"], NativeFunction)

    def test_timer_ids_start_at_one_in_every_session(self):
        html = """<html><head><script>
        var first = setTimeout(function () { window.__first = 1; }, 10);
        var second = setTimeout(function () { window.__second = 1; }, 10);
        clearTimeout(first);
        </script></head><body></body></html>"""
        network, _ = _simple_network(html)
        browser = _browser(network)
        for _ in range(2):
            session = browser.visit("https://site.example/").final_session
            assert session.interp.globals.lookup("first") == 1.0
            assert session.interp.globals.lookup("second") == 2.0
            assert not session.window.has("__first")
            assert session.window.get("__second") == 1.0


class TestDomMemo:
    def test_repeated_body_is_parsed_once(self):
        clear_dom_memo()
        first = parse_html(_PLAIN_PAGE)
        assert parse_html(_PLAIN_PAGE) is first
        assert _parse_document(_PLAIN_PAGE) == first
        assert dom_memo_info()["hits"] == 1

    def test_crawl_never_mutates_a_memoised_document(self):
        from repro.core import CrawlerBox
        from repro.dataset import CorpusGenerator

        from tests.conftest import TEST_SEED

        clear_dom_memo()
        corpus = CorpusGenerator(seed=TEST_SEED, scale=0.03).generate()
        CrawlerBox.for_world(corpus.world).analyze_corpus(corpus.messages)
        info = dom_memo_info()
        assert info["hits"] > info["misses"] > 20
        for body, document in _DOM_MEMO.items():
            assert document == _parse_document(body)

"""A loaded page: script execution, events, timers, screenshots.

``PageSession`` is where dynamic analysis happens.  Inline and external
scripts run in the PhishScript interpreter against the host objects of
:mod:`repro.browser.hosts`; the session then dispatches lifecycle and
synthetic input events (with ``isTrusted`` determined by the browser
profile), services timers (so ``setInterval`` anti-debug loops and
delayed reveals actually run), and finally reports navigation intents,
AJAX traffic, fingerprint-probe reads, and a rasterised screenshot.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.browser.dom import parse_html
from repro.browser.hosts import install_browser_hosts
from repro.browser.render import render_screenshot, screenshot_fingerprint
from repro.imaging.image import Image
from repro.js.interp import Interpreter, JSError, JSObject, UNDEFINED, NativeFunction, to_js_string
from repro.web.http import HttpResponse
from repro.web.urls import ParsedUrl, UrlError, parse_url

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.browser.browser import Browser

_HUE_ROTATE_RE = re.compile(r"hue-rotate\(\s*(-?\d+(?:\.\d+)?)deg\s*\)")
_META_REFRESH_RE = re.compile(r"^\s*\d+\s*;\s*url\s*=\s*(.+)$", re.IGNORECASE)
_PREVENT_DEFAULT = NativeFunction(lambda _i, _t, _a: UNDEFINED, "preventDefault")
_STOP_PROPAGATION = NativeFunction(lambda _i, _t, _a: UNDEFINED, "stopPropagation")


@dataclass
class AjaxCall:
    method: str
    url: str
    headers: dict[str, str]
    body: str
    status: int | None  # None = network failure


@dataclass
class SessionSignals:
    """Client-side evasion behaviours observed while the page ran."""

    console_hijacked: bool = False
    debugger_hits: int = 0
    uses_debugger_timer: bool = False
    context_menu_blocked: bool = False
    devtools_keys_blocked: bool = False
    hue_rotation_deg: float = 0.0
    navigator_reads: tuple[str, ...] = ()
    intl_timezone_read: bool = False
    screen_reads: tuple[str, ...] = ()
    script_errors: tuple[str, ...] = ()
    popups: tuple[str, ...] = ()

    @classmethod
    def merge(cls, signals: list["SessionSignals"]) -> "SessionSignals | None":
        """Union the signals observed across a navigation chain.

        Booleans OR, counters and sequences accumulate in chain order,
        and ``hue_rotation_deg`` keeps the *maximum* observed rotation —
        the strongest color-distortion cloak in the chain, not whichever
        page happened to apply one first.
        """
        if not signals:
            return None
        if len(signals) == 1:
            return signals[0]
        return cls(
            console_hijacked=any(s.console_hijacked for s in signals),
            debugger_hits=sum(s.debugger_hits for s in signals),
            uses_debugger_timer=any(s.uses_debugger_timer for s in signals),
            context_menu_blocked=any(s.context_menu_blocked for s in signals),
            devtools_keys_blocked=any(s.devtools_keys_blocked for s in signals),
            hue_rotation_deg=max(s.hue_rotation_deg for s in signals),
            navigator_reads=tuple(
                read for s in signals for read in s.navigator_reads
            ),
            intl_timezone_read=any(s.intl_timezone_read for s in signals),
            screen_reads=tuple(read for s in signals for read in s.screen_reads),
            script_errors=tuple(err for s in signals for err in s.script_errors),
            popups=tuple(p for s in signals for p in s.popups),
        )


class PageSession:
    """One document loaded in the browser."""

    def __init__(
        self,
        browser: "Browser",
        url: ParsedUrl,
        response: HttpResponse,
        referrer: str = "",
    ):
        self.browser = browser
        self.url = url
        self.response = response
        self.referrer = referrer
        self.parsed = parse_html(response.body or "")

        # Populated by install_browser_hosts.
        self.navigator = None
        self.screen = None
        self.document = None
        self.window = None
        self.location = None
        self.local_storage: dict[str, str] = {}

        self.elements: dict[str, JSObject] = {}
        self.listeners: list[tuple[JSObject, str, object]] = []
        self.popups: list[str] = []
        self.appended_nodes: list[object] = []
        self.document_writes: list[str] = []
        self.intl_reads: list[str] = []
        self.ajax_log: list[AjaxCall] = []
        self.script_errors: list[str] = []
        self.executed_scripts: list[str] = []
        self.debugger_hits = 0
        self.reload_requested = False
        self._debugger_in_timer = False
        self._in_timer_callback = False

        self.interp = Interpreter(rng=random.Random(browser.rng.getrandbits(32)), host=self)
        self.interp.on_debugger = self._on_debugger
        install_browser_hosts(self.interp, self)
        self._original_console = {
            level: self.interp.globals.lookup("console").get(level)
            for level in ("log", "warn", "error", "info", "debug")
        }

    # ------------------------------------------------------------------
    def _on_debugger(self) -> None:
        self.debugger_hits += 1
        if self._in_timer_callback:
            self._debugger_in_timer = True

    def run(self, timer_rounds: int = 3, mouse_events: int = 5) -> None:
        """Execute the page: resources, scripts, events, timers."""
        self._fetch_static_resources()
        for script in self.parsed.inline_scripts:
            self._run_script(script)
        for src in self.parsed.external_scripts:
            body = self._fetch_script(src)
            if body is not None:
                self._run_script(body)
        self.dispatch_event(self.document, "DOMContentLoaded")
        self.dispatch_event(self.window, "load")
        self._simulate_input(mouse_events)
        for _ in range(timer_rounds):
            self._in_timer_callback = True
            try:
                self.interp.run_due_timers()
            finally:
                self._in_timer_callback = False

    def _run_script(self, source: str) -> None:
        source = source.strip()
        if not source:
            return
        self.executed_scripts.append(source)
        try:
            self.interp.run(source)
        except JSError as exc:
            self.script_errors.append(str(exc))
        except SyntaxError as exc:
            self.script_errors.append(f"SyntaxError: {exc}")

    def _fetch_static_resources(self) -> None:
        """Fetch images/stylesheets so referral logs see resource loads.

        Section V-A: 29.8 % of spear-phishing pages loaded the logo and
        background from the impersonated organisation's own domain —
        detectable by that organisation through referral monitoring.
        """
        for raw in self.parsed.resource_urls:
            absolute = self.resolve_url(raw)
            if absolute is not None:
                self.browser.subrequest(
                    "GET", absolute, referrer=self.url.raw, kind="resource"
                )

    def _fetch_script(self, src: str) -> str | None:
        absolute = self.resolve_url(src)
        if absolute is None:
            return None
        response = self.browser.subrequest("GET", absolute, referrer=self.url.raw, kind="script")
        if response is None or response.status != 200:
            return None
        return response.body

    def _simulate_input(self, mouse_events: int) -> None:
        profile = self.browser.profile
        if not profile.generates_mouse_movement:
            return
        trusted = profile.trusted_events
        rng = self.browser.rng
        for _ in range(mouse_events):
            self.dispatch_event(
                self.document,
                "mousemove",
                {
                    "clientX": float(rng.randrange(0, profile.screen_width)),
                    "clientY": float(rng.randrange(0, profile.screen_height)),
                },
                trusted=trusted,
            )
        self.dispatch_event(self.document, "mousedown", trusted=trusted)
        self.dispatch_event(self.document, "mouseup", trusted=trusted)

    # ------------------------------------------------------------------
    def dispatch_event(
        self,
        target: JSObject | None,
        event_type: str,
        properties: dict | None = None,
        trusted: bool | None = None,
    ) -> object:
        """Fire an event at listeners registered on ``target``."""
        if target is None:
            return UNDEFINED
        if trusted is None:
            trusted = self.browser.profile.trusted_events
        event = JSObject(
            {
                "type": event_type,
                "isTrusted": trusted,
                "preventDefault": _PREVENT_DEFAULT,
                "stopPropagation": _STOP_PROPAGATION,
                "target": target,
            }
        )
        for key, value in (properties or {}).items():
            event.set(key, value)
        for registered_target, registered_type, callback in list(self.listeners):
            if registered_target is target and registered_type == event_type:
                try:
                    self.interp.call_function(callback, target, [event])
                except JSError as exc:
                    self.script_errors.append(str(exc))
        # Legacy on<event> handler properties.
        handler = target.get(f"on{event_type}")
        if handler is not UNDEFINED and handler is not None:
            try:
                self.interp.call_function(handler, target, [event])
            except JSError as exc:
                self.script_errors.append(str(exc))
        return UNDEFINED

    # ------------------------------------------------------------------
    def resolve_url(self, raw: str) -> ParsedUrl | None:
        """Resolve a possibly-relative URL against the document URL."""
        raw = raw.strip()
        if not raw:
            return None
        try:
            if raw.startswith(("http://", "https://")):
                return parse_url(raw)
            if raw.startswith("//"):
                return parse_url(f"{self.url.scheme}:{raw}")
            if raw.startswith("/"):
                return parse_url(f"{self.url.origin}{raw}")
            base_path = self.url.path.rsplit("/", 1)[0]
            return parse_url(f"{self.url.origin}{base_path}/{raw}")
        except UrlError:
            return None

    def ajax(self, method: str, raw_url: str, headers: dict[str, str], body: str) -> HttpResponse | None:
        """Perform an XHR/fetch call for page scripts."""
        absolute = self.resolve_url(raw_url)
        if absolute is None:
            self.ajax_log.append(AjaxCall(method, raw_url, headers, body, None))
            return None
        response = self.browser.subrequest(
            method, absolute, referrer=self.url.raw, kind="ajax", extra_headers=headers, body=body
        )
        self.ajax_log.append(
            AjaxCall(method, absolute.raw, headers, body, response.status if response else None)
        )
        return response

    # ------------------------------------------------------------------
    # Post-run observations
    # ------------------------------------------------------------------
    @property
    def navigation_target(self) -> str | None:
        """Where scripts asked the browser to navigate, if anywhere."""
        if self.location is not None:
            href = to_js_string(self.location.get("href"))
            if href and href != self.url.raw:
                return href
        if self.window is not None:
            value = self.window.get("location")
            if isinstance(value, str) and value != self.url.raw:
                return value
        for element in self.parsed.elements:
            if element.tag == "meta" and element.attrs.get("http-equiv", "").lower() == "refresh":
                match = _META_REFRESH_RE.match(element.attrs.get("content", ""))
                if match:
                    return match.group(1).strip().strip("'\"")
        return None

    def signals(self) -> SessionSignals:
        """Summarise the client-side evasion behaviours observed."""
        console = self.interp.globals.lookup("console")
        hijacked = any(
            console.get(level) is not original
            for level, original in self._original_console.items()
        )
        context_blocked = any(
            event_type == "contextmenu" for _, event_type, _ in self.listeners
        )
        if self.document is not None and self.document.get("oncontextmenu") not in (UNDEFINED, None):
            context_blocked = True
        keys_blocked = any(event_type == "keydown" for _, event_type, _ in self.listeners)

        hue = 0.0
        for holder in (self.document, ):
            if holder is None:
                continue
            for element_name in ("documentElement", "body"):
                element = holder.get(element_name)
                if isinstance(element, JSObject):
                    style = element.get("style")
                    if isinstance(style, JSObject):
                        match = _HUE_ROTATE_RE.search(to_js_string(style.get("filter")))
                        if match:
                            hue = float(match.group(1))
        if hue == 0.0 and self.response is not None:
            visual = getattr(self.response, "visual", None)
            if visual is not None and visual.hue_rotate_deg:
                hue = visual.hue_rotate_deg

        return SessionSignals(
            console_hijacked=hijacked,
            debugger_hits=self.debugger_hits,
            uses_debugger_timer=self._debugger_in_timer,
            context_menu_blocked=context_blocked,
            devtools_keys_blocked=keys_blocked,
            hue_rotation_deg=hue,
            navigator_reads=tuple(getattr(self.navigator, "reads", ())),
            intl_timezone_read=bool(self.intl_reads),
            screen_reads=tuple(getattr(self.screen, "reads", ())),
            script_errors=tuple(self.script_errors),
            popups=tuple(self.popups),
        )

    def screenshot(self) -> Image:
        """Rasterise the page as the paper's pipeline does after load."""
        return render_screenshot(self.screenshot_key())

    def fingerprint(self) -> tuple[int, int]:
        """``(phash, dhash)`` of :meth:`screenshot`, memoised per key."""
        return screenshot_fingerprint(self.screenshot_key())

    def screenshot_key(self) -> tuple:
        """Everything the screenshot's pixels depend on.

        Issues the logo subrequest and reads :meth:`signals` exactly as
        rendering always has, so request logs and fault draws do not
        depend on whether the fingerprint memo hits.
        """
        visual = getattr(self.response, "visual", None)
        if visual is None:
            title = self.parsed.title or self.url.host
            words = (self.parsed.text or " ").split()
            lines = [title.upper()[:36]] + [
                " ".join(words[i : i + 6]).upper()[:36] for i in range(0, min(len(words), 18), 6)
            ]
            return ("lines", tuple(line or " " for line in lines))
        overlay = getattr(self.response, "overlay_text", None)
        logo_label = self._fetch_logo(visual)
        dynamic_hue = self.signals().hue_rotation_deg
        return ("visual", visual, overlay, logo_label, dynamic_hue)

    def _fetch_logo(self, visual) -> str | None:
        """Fetch a hotlinked logo; the label the render draws, or None."""
        if not visual.logo_url:
            return None
        absolute = self.resolve_url(visual.logo_url)
        if absolute is None:
            return None
        response = self.browser.subrequest("GET", absolute, referrer=self.url.raw, kind="resource")
        if response is None or response.status != 200:
            return None
        return (getattr(response, "logo_text", None) or absolute.host)[:10].upper()

"""Host objects exposed to page scripts (navigator, document, XHR, ...).

This is where cloaking scripts meet the browser profile: every value a
fingerprinting script can probe (``navigator.webdriver``, the user
agent, ``Intl`` timezone, screen metrics, ``window.chrome``,
``performance.now`` granularity) is derived from the active
:class:`~repro.browser.profile.BrowserProfile`.  Property *reads* on the
sensitive objects are recorded, so the analysis phase can report which
fingerprint checks a phishing page actually performed.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.js.interp import Interpreter, JSArray, JSObject, UNDEFINED, to_js_string
from repro.js.stdlib import native, python_to_js

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.browser.session import PageSession


class ObservedJSObject(JSObject):
    """A JSObject recording which property names scripts read."""

    def __init__(self, label: str, properties: dict | None = None):
        super().__init__(properties)
        self.label = label
        self.reads: list[str] = []

    def get(self, name: str) -> object:
        self.reads.append(name)
        return super().get(name)


# ----------------------------------------------------------------------
# Shared natives
# ----------------------------------------------------------------------
# Built once per process.  Each reaches its page through ``interp.host``
# (the PageSession that owns the interpreter), never through a closure;
# every object a script can mutate is built per session below.
def _resolved_options(_interp, _t, _a):
    session = _interp.host
    session.intl_reads.append("timeZone")
    return JSObject(
        {"timeZone": session.browser.profile.timezone, "locale": session.navigator.properties["language"]}
    )


_RESOLVED_OPTIONS = native(_resolved_options, "resolvedOptions")
_DATE_TIME_FORMAT = native(lambda _i, _t, _a: JSObject({"resolvedOptions": _RESOLVED_OPTIONS}), "DateTimeFormat")


def _performance_now(_interp, _t, _a):
    value = _interp.clock_ms()
    if _interp.host.browser.profile.vm_timing_quantization:
        # VMs and coarse-grained timer mitigations quantise the clock —
        # the "timing red pill" NotABot avoids by running on hardware.
        return float(int(value / 10.0) * 10.0)
    return value


_PERFORMANCE_NOW = native(_performance_now, "now")


def _location_assign(_interp, _t, args):
    if args:
        _interp.host.location.set("href", to_js_string(args[0]))
    return UNDEFINED


def _location_reload(_interp, _t, _a):
    _interp.host.reload_requested = True
    return UNDEFINED


_LOCATION_METHODS = {
    "assign": native(_location_assign, "assign"),
    "replace": native(_location_assign, "replace"),
    "reload": native(_location_reload, "reload"),
}


def _add_listener(_interp, this, args):
    if len(args) >= 2:
        _interp.host.listeners.append((this, to_js_string(args[0]), args[1]))
    return UNDEFINED


_ELEMENT_METHODS = {
    "addEventListener": native(_add_listener, "addEventListener"),
    "setAttribute": native(
        lambda _i, this, args: this.set(to_js_string(args[0]), to_js_string(args[1]))
        if len(args) >= 2
        else UNDEFINED,
        "setAttribute",
    ),
    "getAttribute": native(
        lambda _i, this, args: this.get(to_js_string(args[0])) if args else None,
        "getAttribute",
    ),
    "appendChild": native(
        lambda _interp, this, args: _interp.host.appended_nodes.append(args[0]) or args[0] if args else UNDEFINED,
        "appendChild",
    ),
    "click": native(lambda _interp, this, _a: _interp.host.dispatch_event(this, "click"), "click"),
    "focus": native(lambda _i, _t, _a: UNDEFINED, "focus"),
    "remove": native(lambda _i, _t, _a: UNDEFINED, "remove"),
}


def _element_object(tag: str, element_id: str = "", text: str = "") -> JSObject:
    return JSObject(
        {
            "tagName": tag.upper(),
            "id": element_id,
            "innerHTML": text,
            "textContent": text,
            "innerText": text,
            "value": "",
            "style": JSObject({"display": "", "filter": "", "visibility": ""}),
            "src": "",
            "href": "",
            **_ELEMENT_METHODS,
        }
    )


def _get_element_by_id(_interp, _t, args):
    element_id = to_js_string(args[0]) if args else ""
    return _interp.host.elements.get(element_id)


def _query_selector(_interp, _t, args):
    selector = to_js_string(args[0]) if args else ""
    elements = _interp.host.elements
    if selector.startswith("#"):
        return elements.get(selector[1:])
    for element in elements.values():
        if to_js_string(element.get("tagName")).lower() == selector.lower():
            return element
    return None


def _create_element(_i, _t, args):
    return _element_object(to_js_string(args[0]) if args else "div")


def _doc_add_listener(_interp, _t, args):
    if len(args) >= 2:
        session = _interp.host
        session.listeners.append((session.document, to_js_string(args[0]), args[1]))
    return UNDEFINED


def _doc_write(_interp, _t, args):
    _interp.host.document_writes.append(to_js_string(args[0]) if args else "")
    return UNDEFINED


_DOCUMENT_METHODS = {
    "getElementById": native(_get_element_by_id, "getElementById"),
    "querySelector": native(_query_selector, "querySelector"),
    "createElement": native(_create_element, "createElement"),
    "addEventListener": native(_doc_add_listener, "addEventListener"),
    "write": native(_doc_write, "write"),
}


def _window_add_listener(_interp, _t, args):
    if len(args) >= 2:
        session = _interp.host
        session.listeners.append((session.window, to_js_string(args[0]), args[1]))
    return UNDEFINED


_WINDOW_METHODS = {
    "addEventListener": native(_window_add_listener, "addEventListener"),
    "open": native(
        lambda _interp, _t, args: _interp.host.popups.append(to_js_string(args[0]) if args else "") or UNDEFINED,
        "open",
    ),
}

_LOCAL_STORAGE_METHODS = {
    "getItem": native(
        lambda _interp, _t, args: _interp.host.local_storage.get(to_js_string(args[0]), None) if args else None,
        "getItem",
    ),
    "setItem": native(
        lambda _interp, _t, args: _interp.host.local_storage.__setitem__(to_js_string(args[0]), to_js_string(args[1]))
        or UNDEFINED
        if len(args) >= 2
        else UNDEFINED,
        "setItem",
    ),
    "removeItem": native(
        lambda _interp, _t, args: _interp.host.local_storage.pop(to_js_string(args[0]), None) and UNDEFINED
        if args
        else UNDEFINED,
        "removeItem",
    ),
}


# ----------------------------------------------------------------------
# XMLHttpRequest / fetch
# ----------------------------------------------------------------------
def _xhr_open(_i, this, args):
    this.set("_method", to_js_string(args[0]) if args else "GET")
    this.set("_url", to_js_string(args[1]) if len(args) > 1 else "")
    this.set("readyState", 1.0)
    return UNDEFINED


def _xhr_set_header(_i, this, args):
    if len(args) >= 2:
        headers = this.get("_headers")
        if isinstance(headers, JSObject):
            headers.set(to_js_string(args[0]), to_js_string(args[1]))
    return UNDEFINED


def _xhr_send(_interp, this, args):
    body = to_js_string(args[0]) if args and args[0] is not UNDEFINED else ""
    header_obj = this.get("_headers")
    headers = (
        {k: to_js_string(v) for k, v in header_obj.properties.items()}
        if isinstance(header_obj, JSObject)
        else {}
    )
    result = _interp.host.ajax(
        to_js_string(this.get("_method")), to_js_string(this.get("_url")), headers, body
    )
    if result is None:
        this.set("status", 0.0)
        this.set("readyState", 4.0)
        callback = this.get("onerror")
        if callback is not UNDEFINED:
            _interp.call_function(callback, this, [])
        return UNDEFINED
    this.set("status", float(result.status))
    this.set("responseText", result.body)
    this.set("readyState", 4.0)
    for hook in ("onreadystatechange", "onload"):
        callback = this.get(hook)
        if callback is not UNDEFINED:
            _interp.call_function(callback, this, [])
    return UNDEFINED


_XHR_METHODS = {
    "open": native(_xhr_open, "open"),
    "setRequestHeader": native(_xhr_set_header, "setRequestHeader"),
    "send": native(_xhr_send, "send"),
}


def _xhr_constructor(_i, _t, _a):
    return JSObject(
        {
            "readyState": 0.0,
            "status": 0.0,
            "responseText": "",
            "onload": UNDEFINED,
            "onerror": UNDEFINED,
            "onreadystatechange": UNDEFINED,
            "_method": "GET",
            "_url": "",
            "_headers": JSObject(),
            **_XHR_METHODS,
        }
    )


def _thenable(value: object) -> JSObject:
    holder = JSObject({"_value": value, "_thenable": True})

    def _then(_interp, this, args):
        result = value
        if args:
            result = _interp.call_function(args[0], UNDEFINED, [value])
        # Flatten chained thenables, like real promise resolution.
        if isinstance(result, JSObject) and result.has("_thenable"):
            result = result.get("_value")
        return _thenable(result)

    holder.set("then", native(_then, "then"))
    holder.set("catch", native(lambda _i, _t, _a: _thenable(value), "catch"))
    return holder


def _fetch(_interp, _t, args):
    raw_url = to_js_string(args[0]) if args else ""
    options = args[1] if len(args) > 1 and isinstance(args[1], JSObject) else JSObject()
    method = to_js_string(options.get("method")) if options.has("method") else "GET"
    body = to_js_string(options.get("body")) if options.has("body") else ""
    headers_obj = options.get("headers")
    headers = (
        {k: to_js_string(v) for k, v in headers_obj.properties.items()}
        if isinstance(headers_obj, JSObject)
        else {}
    )
    result = _interp.host.ajax(method, raw_url, headers, body)
    if result is None:
        response = JSObject({"ok": False, "status": 0.0})
        response.set("text", native(lambda _i, _t, _a: _thenable(""), "text"))
        response.set("json", native(lambda _i, _t, _a: _thenable(None), "json"))
        return _thenable(response)
    text = result.body
    response = JSObject({"ok": 200 <= result.status < 300, "status": float(result.status)})
    response.set("text", native(lambda _i, _t, _a: _thenable(text), "text"))

    def _json(_i, _t, _a):
        try:
            return _thenable(python_to_js(json.loads(text)))
        except (json.JSONDecodeError, ValueError):
            return _thenable(None)

    response.set("json", native(_json, "json"))
    return _thenable(response)


_XHR_CONSTRUCTOR = native(_xhr_constructor, "XMLHttpRequest")
_FETCH = native(_fetch, "fetch")


# ----------------------------------------------------------------------
# Per-session objects
# ----------------------------------------------------------------------
def install_browser_hosts(interp: Interpreter, session: "PageSession") -> None:
    """Declare the page's host objects on the session's interpreter.

    Every object built here is new for this session, so nothing one
    page's scripts do can reach another page; the natives inside are
    the shared ones above.
    """
    profile = session.browser.profile
    declare = interp.globals.declare

    navigator = ObservedJSObject(
        "navigator",
        {
            "userAgent": profile.user_agent,
            "webdriver": profile.webdriver_flag,
            "language": profile.languages[0] if profile.languages else "en-US",
            "languages": JSArray(list(profile.languages)),
            "userLanguage": profile.languages[0] if profile.languages else "en-US",
            "platform": "iPhone" if profile.is_mobile else "Win32",
            "hardwareConcurrency": 4.0,
            "cookieEnabled": profile.cookies_enabled,
            "plugins": JSObject({"length": float(profile.plugins_count)}),
            "maxTouchPoints": 5.0 if profile.is_mobile else 0.0,
            "vendor": "Google Inc.",
        },
    )
    session.navigator = navigator
    declare("navigator", navigator)

    screen = ObservedJSObject(
        "screen",
        {
            "width": float(profile.screen_width),
            "height": float(profile.screen_height),
            "availWidth": float(profile.screen_width),
            "availHeight": float(profile.screen_height - (0 if profile.headless else 40)),
            "colorDepth": float(profile.color_depth),
            "pixelDepth": float(profile.color_depth),
        },
    )
    session.screen = screen
    declare("screen", screen)
    declare("Intl", JSObject({"DateTimeFormat": _DATE_TIME_FORMAT}))
    declare("performance", JSObject({"now": _PERFORMANCE_NOW}))

    url = session.url
    location = JSObject(
        {
            "href": url.raw,
            "protocol": url.scheme + ":",
            "host": url.host,
            "hostname": url.host,
            "pathname": url.path,
            "search": ("?" + url.query) if url.query else "",
            "hash": ("#" + url.fragment) if url.fragment else "",
            "origin": url.origin,
            **_LOCATION_METHODS,
        }
    )
    session.location = location
    declare("location", location)

    # Elements with ids from the parsed markup.
    for dom_element in session.parsed.elements:
        if dom_element.element_id:
            element = _element_object(dom_element.tag, dom_element.element_id, dom_element.text)
            session.elements[dom_element.element_id] = element

    document = ObservedJSObject(
        "document",
        {
            "title": session.parsed.title,
            "referrer": session.referrer,
            "cookie": session.browser.cookie_header(session.url.host),
            "hidden": False,
            "visibilityState": "visible",
            "body": _element_object("body", "body", session.parsed.text),
            "head": _element_object("head", "head"),
            "documentElement": _element_object("html", "documentElement"),
            **_DOCUMENT_METHODS,
            "forms": JSArray([]),
            "readyState": "complete",
        },
    )
    session.document = document
    declare("document", document)

    window = JSObject(
        {
            "location": location,
            "navigator": navigator,
            "screen": screen,
            "document": document,
            "innerWidth": float(profile.screen_width),
            "innerHeight": float(profile.screen_height - 120),
            # Headless Chrome reports zero outer dimensions — a classic check.
            "outerWidth": 0.0 if profile.headless else float(profile.screen_width),
            "outerHeight": 0.0 if profile.headless else float(profile.screen_height),
            "self": UNDEFINED,
            "top": UNDEFINED,
        }
    )
    if profile.has_chrome_object:
        window.set("chrome", JSObject({"runtime": JSObject()}))
    window.properties.update(_WINDOW_METHODS)
    session.local_storage = session.browser.local_storage.setdefault(session.url.host, {})
    local_storage = JSObject(_LOCAL_STORAGE_METHODS)
    window.set("localStorage", local_storage)
    declare("localStorage", local_storage)
    session.window = window
    declare("window", window)

    # The CDP Runtime.enable leak: stacks that drive the browser through
    # the DevTools protocol without hiding it leave a detectable artifact.
    if profile.cdp_runtime_leak:
        declare("__cdp_runtime_binding", JSObject({"enabled": True}))

    declare("XMLHttpRequest", _XHR_CONSTRUCTOR)
    declare("fetch", _FETCH)

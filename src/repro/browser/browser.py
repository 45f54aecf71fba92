"""The browser: navigation, redirects, cookies, and visit results.

``Browser.visit`` is what both victims and crawlers do: resolve the URL
over the network fabric, follow server redirects, load the document in a
:class:`~repro.browser.session.PageSession`, honour script/meta
navigation, and log every request, certificate, and screenshot along the
way — the "thoroughly logged" crawling phase of Section IV-C.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.browser.profile import BrowserProfile
from repro.browser.session import PageSession
from repro.web.dns import NxDomainError
from repro.web.faults import FaultError
from repro.web.http import Headers, HttpRequest, HttpResponse
from repro.web.network import ConnectionFailed, Network, TLSValidationError
from repro.web.urls import ParsedUrl, UrlError, parse_url


class VisitOutcome:
    """Terminal states of a visit (string constants, not an enum, so the
    analysis layer can store them directly in records)."""

    OK = "ok"
    NXDOMAIN = "nxdomain"
    CONNECTION_FAILED = "connection_failed"
    TLS_ERROR = "tls_error"
    HTTP_ERROR = "http_error"
    BAD_URL = "bad_url"
    REDIRECT_LOOP = "redirect_loop"
    #: The resilient crawl path gave up on the URL without ever getting
    #: data (circuit breaker open); never produced by Browser itself.
    UNREACHABLE = "unreachable"


@dataclass
class RequestRecord:
    """One logged browser request."""

    url: str
    kind: str  # 'document' | 'script' | 'resource' | 'ajax'
    method: str = "GET"
    referrer: str = ""
    status: int | None = None
    headers: dict[str, str] = field(default_factory=dict)


@dataclass
class VisitResult:
    """Everything CrawlerBox logs about one crawl."""

    start_url: str
    outcome: str = VisitOutcome.OK
    error: str = ""
    url_chain: list[str] = field(default_factory=list)
    responses: list[HttpResponse] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)
    sessions: list[PageSession] = field(default_factory=list)
    certificates: list = field(default_factory=list)
    server_ips: dict[str, str] = field(default_factory=dict)
    #: Injected fault kinds observed during the visit (document fetches,
    #: redirects, and sub-resource requests alike), in event order.
    fault_kinds: list[str] = field(default_factory=list)

    @property
    def final_url(self) -> str:
        return self.url_chain[-1] if self.url_chain else self.start_url

    @property
    def final_session(self) -> PageSession | None:
        return self.sessions[-1] if self.sessions else None

    @property
    def final_response(self) -> HttpResponse | None:
        return self.responses[-1] if self.responses else None


class Browser:
    """A scriptable client over the network fabric."""

    def __init__(
        self,
        network: Network,
        profile: BrowserProfile | None = None,
        rng: random.Random | None = None,
        timestamp: float = 0.0,
    ):
        self.network = network
        self.profile = profile or BrowserProfile()
        self.rng = rng or random.Random(0)
        self.timestamp = timestamp
        #: cookie jar: host -> {name: value}
        self.cookies: dict[str, dict[str, str]] = {}
        self.local_storage: dict[str, dict[str, str]] = {}
        self._active_result: VisitResult | None = None
        #: Retry ordinal stamped onto every request this browser issues
        #: (set by the resilient crawl path; 0 = first delivery).
        self.fault_attempt = 0

    # ------------------------------------------------------------------
    # Headers and cookies
    # ------------------------------------------------------------------
    def build_headers(self, url: ParsedUrl, referrer: str = "", kind: str = "document") -> Headers:
        headers = Headers()
        headers.set("User-Agent", self.profile.user_agent)
        headers.set("Accept", "text/html,application/xhtml+xml,*/*;q=0.8")
        if self.profile.languages:
            headers.set("Accept-Language", ",".join(self.profile.languages))
        if referrer:
            headers.set("Referer", referrer)
        cookie = self.cookie_header(url.host)
        if cookie:
            headers.set("Cookie", cookie)
        if self.profile.interception_cache_quirk:
            # The Puppeteer request-interception artifact the paper found:
            # with interception enabled, requests carry cache-busting
            # headers a human-driven Chrome would not send.
            headers.set("Cache-Control", "no-cache")
            headers.set("Pragma", "no-cache")
        return headers

    def cookie_header(self, host: str) -> str:
        jar = self.cookies.get(host.lower(), {})
        return "; ".join(f"{name}={value}" for name, value in jar.items())

    def set_cookie(self, host: str, name: str, value: str) -> None:
        if self.profile.cookies_enabled:
            self.cookies.setdefault(host.lower(), {})[name] = value

    def _absorb_cookies(self, host: str, response: HttpResponse) -> None:
        header = response.headers.get("Set-Cookie")
        if not header:
            return
        first = header.split(";", 1)[0]
        if "=" in first:
            name, value = first.split("=", 1)
            self.set_cookie(host, name.strip(), value.strip())

    # ------------------------------------------------------------------
    # Raw fetching
    # ------------------------------------------------------------------
    def _raw_fetch(
        self,
        url: ParsedUrl,
        referrer: str = "",
        kind: str = "document",
        method: str = "GET",
        extra_headers: dict[str, str] | None = None,
        body: str = "",
    ) -> HttpResponse:
        headers = self.build_headers(url, referrer, kind)
        for name, value in (extra_headers or {}).items():
            headers.set(name, value)
        request = HttpRequest(
            method=method,
            url=url,
            headers=headers,
            body=body,
            client_ip=self.profile.ip,
            timestamp=self.timestamp,
            fault_attempt=self.fault_attempt,
        )
        response = self.network.request(request, self.profile.client_context())
        self._absorb_cookies(url.host, response)
        return response

    def _note_fault(self, source) -> None:
        """Record an injected fault's kind on the active/visit result.

        ``source`` is either a caught exception or a shaped response;
        genuine network errors (no :class:`FaultError` lineage, no
        ``fault_kind`` attribute) record nothing.
        """
        if isinstance(source, FaultError):
            kind = source.kind
        else:
            kind = getattr(source, "fault_kind", "")
        if kind and self._active_result is not None:
            self._active_result.fault_kinds.append(kind)

    def subrequest(
        self,
        method: str,
        url: ParsedUrl,
        referrer: str = "",
        kind: str = "resource",
        extra_headers: dict[str, str] | None = None,
        body: str = "",
    ) -> HttpResponse | None:
        """A sub-resource/AJAX request made on behalf of a loaded page."""
        record = RequestRecord(url=url.raw, kind=kind, method=method, referrer=referrer)
        if self._active_result is not None:
            self._active_result.requests.append(record)
        try:
            response = self._raw_fetch(url, referrer, kind, method, extra_headers, body)
        except (NxDomainError, ConnectionFailed, TLSValidationError) as exc:
            self._note_fault(exc)
            record.status = None
            return None
        self._note_fault(response)
        record.status = response.status
        record.headers = dict(self.build_headers(url, referrer, kind).items())
        return response

    # ------------------------------------------------------------------
    # Visiting
    # ------------------------------------------------------------------
    def visit(
        self,
        raw_url: str,
        max_redirects: int = 10,
        max_navigations: int = 5,
        timer_rounds: int = 3,
    ) -> VisitResult:
        """Navigate to a URL, following redirects and script navigation."""
        result = VisitResult(start_url=raw_url)
        self._active_result = result
        try:
            self._navigate(result, raw_url, "", max_redirects, max_navigations, timer_rounds)
        finally:
            self._active_result = None
        return result

    def _navigate(
        self,
        result: VisitResult,
        raw_url: str,
        referrer: str,
        redirects_left: int,
        navigations_left: int,
        timer_rounds: int,
    ) -> None:
        try:
            url = parse_url(raw_url)
        except UrlError as exc:
            result.outcome = VisitOutcome.BAD_URL
            result.error = str(exc)
            return
        if redirects_left <= 0:
            result.outcome = VisitOutcome.REDIRECT_LOOP
            result.error = "too many redirects"
            return

        record = RequestRecord(url=url.raw, kind="document", referrer=referrer)
        result.requests.append(record)
        try:
            response = self._raw_fetch(url, referrer, "document")
        except NxDomainError as exc:
            self._note_fault(exc)
            result.outcome = VisitOutcome.NXDOMAIN
            result.error = f"NXDOMAIN: {exc}"
            return
        except ConnectionFailed as exc:
            self._note_fault(exc)
            result.outcome = VisitOutcome.CONNECTION_FAILED
            result.error = str(exc)
            return
        except TLSValidationError as exc:
            self._note_fault(exc)
            result.outcome = VisitOutcome.TLS_ERROR
            result.error = str(exc)
            return

        self._note_fault(response)
        record.status = response.status
        result.url_chain.append(url.raw)
        result.responses.append(response)
        site = self.network.website(url.host)
        if site is not None:
            result.server_ips[url.host] = site.ip
            if site.certificate is not None:
                result.certificates.append(site.certificate)

        if response.is_redirect and response.location:
            target = response.location
            if not target.startswith("http"):
                target = f"{url.origin}{target}"
            self._navigate(result, target, url.raw, redirects_left - 1, navigations_left, timer_rounds)
            return

        if response.status >= 400:
            result.outcome = VisitOutcome.HTTP_ERROR
            result.error = f"HTTP {response.status}"
            # Error pages are still parsed/screenshotted by the pipeline.
        else:
            # Each successful document load supersedes earlier errors in the
            # chain (e.g. a 403 challenge interstitial that later cleared).
            result.outcome = VisitOutcome.OK
            result.error = ""

        session = PageSession(self, url, response, referrer)
        result.sessions.append(session)
        session.run(timer_rounds=timer_rounds)

        target = session.navigation_target
        if target and navigations_left > 0:
            resolved = session.resolve_url(target)
            if resolved is not None:
                self._navigate(
                    result,
                    resolved.raw,
                    url.raw,
                    redirects_left,
                    navigations_left - 1,
                    timer_rounds,
                )
        elif session.reload_requested and navigations_left > 0:
            # location.reload(): same URL, now with any cookies acquired
            # during the challenge (e.g. a Turnstile clearance).
            self._navigate(
                result, url.raw, referrer, redirects_left, navigations_left - 1, timer_rounds
            )

    # ------------------------------------------------------------------
    def load_local_html(self, html: str, timer_rounds: int = 3) -> PageSession:
        """Load an HTML attachment locally (file URI semantics).

        Used for the HTML-attachment messages of Section V-B: the file
        opens in the browser without any hosting domain; scripts inside
        may still call out to the network or redirect.
        """
        url = parse_url("http://local.attachment.invalid/index.html")
        response = HttpResponse(status=200, body=html)
        session = PageSession(self, url, response, referrer="")
        session.run(timer_rounds=timer_rounds)
        return session

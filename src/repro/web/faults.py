"""Deterministic fault injection for the simulated internet.

The paper's CrawlerBox ran unattended for ten months against live
infrastructure that constantly failed under it — dead domains,
takedowns mid-crawl, stalled servers, rate limits — yet still produced
a per-message outcome record.  This module gives the in-process fabric
the same hostile weather: a :class:`FaultEngine` installed on a
:class:`~repro.web.network.Network` intercepts every request at the
single dispatch point and injects the failure taxonomy the paper
implicitly survived:

===================  ==============================================
kind                 observable effect
===================  ==============================================
``flaky_host``       host down for its first k attempts, then fine
``nxdomain_flap``    transient NXDOMAIN on an existing record
``dns_servfail``     resolver SERVFAIL (surfaces as NXDOMAIN)
``connect_timeout``  TCP connect never completes
``tls_handshake``    TLS negotiation fails (https only)
``slow_start``       no first byte before the client deadline
``mid_body_stall``   transfer stalls past the deadline mid-body
``truncated_body``   connection reset before the body completes
``http_5xx``         response replaced by a 500/502/503
``http_429``         response replaced by a 429 + ``Retry-After``
``redirect_loop``    response replaced by a self-redirect
===================  ==============================================

Decisions are keyed on ``(fault_seed, host, attempt, epoch)`` through
:mod:`repro._chaos`, which owns the draw contract.  The ``attempt``
ordinal comes from the retrying caller
(:class:`repro.web.resilient.ResilientFetcher`) via
:attr:`HttpRequest.fault_attempt`, so a retry re-rolls at the next
attempt index: that is what lets flaky hosts recover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._chaos import ChaosProfile, keyed_rng, pick_band, preset
from repro.web.dns import NxDomainError
from repro.web.http import HttpRequest, HttpResponse
from repro.web.network import ConnectionFailed, TLSValidationError

__all__ = [
    "FAULT_PROFILES",
    "FLAKY_MAX_DEAD_ATTEMPTS",
    "ConnectTimeout",
    "DnsFlap",
    "DnsServFail",
    "FaultEngine",
    "FaultError",
    "FaultProfile",
    "FlakyHostDown",
    "MidBodyStall",
    "RETRY_AFTER_SECONDS",
    "SlowStart",
    "TLSHandshakeFailure",
    "TruncatedResponse",
    "fault_profile",
]


class FaultError:
    """Marker mixin for injected faults.

    Every fault exception also subclasses the genuine network error the
    browser already handles (:class:`~repro.web.dns.NxDomainError`,
    :class:`~repro.web.network.ConnectionFailed`,
    :class:`~repro.web.network.TLSValidationError`), so the existing
    degradation paths apply unchanged; ``kind`` names the taxonomy
    entry for telemetry.
    """

    kind = "fault"


class DnsFlap(FaultError, NxDomainError):
    kind = "nxdomain_flap"


class DnsServFail(FaultError, NxDomainError):
    kind = "dns_servfail"


class ConnectTimeout(FaultError, ConnectionFailed):
    kind = "connect_timeout"


class FlakyHostDown(FaultError, ConnectionFailed):
    kind = "flaky_host"


class TLSHandshakeFailure(FaultError, TLSValidationError):
    kind = "tls_handshake"


class SlowStart(FaultError, ConnectionFailed):
    """The per-request deadline fired before the first response byte."""

    kind = "slow_start"


class MidBodyStall(FaultError, ConnectionFailed):
    """The per-request deadline fired mid-transfer."""

    kind = "mid_body_stall"


class TruncatedResponse(FaultError, ConnectionFailed):
    """The connection reset before the body completed."""

    kind = "truncated_body"


#: A flaky host is down for its first 1..this many attempts.
FLAKY_MAX_DEAD_ATTEMPTS = 2
#: Advertised ``Retry-After`` on injected 429s (simulated seconds).
RETRY_AFTER_SECONDS = 30


@dataclass(frozen=True)
class FaultProfile(ChaosProfile):
    """Per-host fault rates (independent probabilities per request).

    Connection-phase kinds (flap/servfail/connect/tls/slow-start) share
    one roll per request; response-phase kinds (stall/truncation/5xx/
    429/redirect loop) share another after the server answered.
    """

    nxdomain_flap: float = 0.0
    dns_servfail: float = 0.0
    connect_timeout: float = 0.0
    tls_handshake: float = 0.0
    slow_start: float = 0.0
    mid_body_stall: float = 0.0
    truncated_body: float = 0.0
    http_5xx: float = 0.0
    http_429: float = 0.0
    redirect_loop: float = 0.0
    #: Fraction of hosts that are "flaky-then-recovers": down for their
    #: first 1..``FLAKY_MAX_DEAD_ATTEMPTS`` attempts, healthy afterwards.
    flaky_host_fraction: float = 0.0

    RATE_FIELDS = (
        "nxdomain_flap",
        "dns_servfail",
        "connect_timeout",
        "tls_handshake",
        "slow_start",
        "mid_body_stall",
        "truncated_body",
        "http_5xx",
        "http_429",
        "redirect_loop",
        "flaky_host_fraction",
    )


#: The CLI presets (``repro run --faults {off,light,heavy,hostile}``).
FAULT_PROFILES: dict[str, FaultProfile] = {
    "off": FaultProfile(name="off"),
    "light": FaultProfile(
        name="light",
        nxdomain_flap=0.01,
        dns_servfail=0.005,
        connect_timeout=0.02,
        tls_handshake=0.005,
        slow_start=0.01,
        mid_body_stall=0.005,
        truncated_body=0.005,
        http_5xx=0.02,
        http_429=0.01,
        redirect_loop=0.002,
        flaky_host_fraction=0.05,
    ),
    "heavy": FaultProfile(
        name="heavy",
        nxdomain_flap=0.04,
        dns_servfail=0.02,
        connect_timeout=0.06,
        tls_handshake=0.02,
        slow_start=0.03,
        mid_body_stall=0.02,
        truncated_body=0.02,
        http_5xx=0.06,
        http_429=0.03,
        redirect_loop=0.01,
        flaky_host_fraction=0.15,
    ),
    "hostile": FaultProfile(
        name="hostile",
        nxdomain_flap=0.10,
        dns_servfail=0.05,
        connect_timeout=0.12,
        tls_handshake=0.05,
        slow_start=0.06,
        mid_body_stall=0.05,
        truncated_body=0.05,
        http_5xx=0.12,
        http_429=0.06,
        redirect_loop=0.02,
        flaky_host_fraction=0.30,
    ),
}


def fault_profile(name: str) -> FaultProfile:
    """Look up a preset by name (``off``/``light``/``heavy``/``hostile``)."""
    return preset(FAULT_PROFILES, name, "fault")


_5XX_STATUSES = (500, 502, 503)

#: Connection-phase kinds in band order, with what each raises.
_CONNECT_FAULTS = {
    "nxdomain_flap": (DnsFlap, "transient NXDOMAIN flap"),
    "dns_servfail": (DnsServFail, "DNS SERVFAIL"),
    "connect_timeout": (ConnectTimeout, "connect timed out"),
    "tls_handshake": (TLSHandshakeFailure, "TLS handshake failed"),
    "slow_start": (SlowStart, "no first byte before deadline"),
}


class FaultEngine:
    """Stateless, seeded fault scheduler for one Network fabric.

    :meth:`set_host_profile` overrides the default profile per host
    (tests pin a single host's weather; everything else follows the
    preset).  The engine is installed with :meth:`Network.install_faults`
    and consulted at the fabric's single dispatch point — browsers,
    crawlers, and enrichment lookups all flow through it without knowing
    it exists.
    """

    def __init__(self, profile: FaultProfile | None = None, seed: int = 0):
        self.profile = profile or FAULT_PROFILES["off"]
        self.seed = seed
        self.host_profiles: dict[str, FaultProfile] = {}

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.profile.active or any(
            entry.active for entry in self.host_profiles.values()
        )

    def profile_for(self, host: str) -> FaultProfile:
        return self.host_profiles.get(host.lower(), self.profile)

    def set_host_profile(self, host: str, profile: FaultProfile) -> None:
        self.host_profiles[host.lower()] = profile

    # ------------------------------------------------------------------
    # The deterministic schedule
    # ------------------------------------------------------------------
    def _rng(self, host: str, attempt: int, epoch: int, salt: str):
        return keyed_rng(self.seed, host.lower(), attempt, epoch, salt)

    @staticmethod
    def _epoch(timestamp: float) -> int:
        """Hour-granular weather: a host's state is stable within one
        simulated hour and re-rolls across hours, so a ten-month corpus
        sees hosts go down and come back."""
        return int(timestamp)

    def flaky_dead_attempts(self, host: str) -> int:
        """0 for healthy hosts; k >= 1 when ``host`` is flaky and dead
        for attempts ``0..k-1`` (a per-host trait, stable for the run)."""
        profile = self.profile_for(host)
        if profile.flaky_host_fraction <= 0.0:
            return 0
        rng = self._rng(host, 0, 0, "flaky-trait")
        if rng.random() >= profile.flaky_host_fraction:
            return 0
        return 1 + rng.randrange(FLAKY_MAX_DEAD_ATTEMPTS)

    # ------------------------------------------------------------------
    # Interception points (called by Network.request)
    # ------------------------------------------------------------------
    def check_connection(self, request: HttpRequest) -> None:
        """Connection-phase faults: raise before the server is reached."""
        host = request.url.host
        profile = self.profile_for(host)
        if not profile.active:
            return
        attempt = getattr(request, "fault_attempt", 0)
        dead_until = self.flaky_dead_attempts(host)
        if attempt < dead_until:
            raise FlakyHostDown(
                f"{host}: flaky host down (recovers at attempt {dead_until})"
            )
        roll = self._rng(host, attempt, self._epoch(request.timestamp), "connect").random()
        https = request.url.scheme == "https"
        kinds = [kind for kind in _CONNECT_FAULTS if https or kind != "tls_handshake"]
        kind = pick_band(roll, profile.bands(*kinds))
        if kind is not None:
            exc_type, message = _CONNECT_FAULTS[kind]
            raise exc_type(f"{host}: {message}")

    def shape_response(self, request: HttpRequest, response: HttpResponse) -> HttpResponse:
        """Response-phase faults: stall/truncate (raise) or replace the
        server's answer (5xx, 429, self-redirect).  Replacements carry a
        ``fault_kind`` attribute so the browser can attribute them."""
        host = request.url.host
        profile = self.profile_for(host)
        if not profile.active:
            return response
        attempt = getattr(request, "fault_attempt", 0)
        epoch = self._epoch(request.timestamp)
        roll = self._rng(host, attempt, epoch, "response").random()
        kind = pick_band(
            roll,
            profile.bands(
                "mid_body_stall", "truncated_body", "http_5xx", "http_429", "redirect_loop"
            ),
        )
        if kind == "mid_body_stall":
            raise MidBodyStall(f"{host}: transfer stalled past deadline mid-body")
        if kind == "truncated_body":
            raise TruncatedResponse(f"{host}: connection reset mid-body")
        if kind == "http_5xx":
            status = self._rng(host, attempt, epoch, "5xx").choice(_5XX_STATUSES)
            shaped = HttpResponse(
                status=status,
                body=f"<html><body><h1>{status} Server Error</h1></body></html>",
            )
            shaped.fault_kind = "http_5xx"
            return shaped
        if kind == "http_429":
            shaped = HttpResponse(
                status=429,
                body="<html><body><h1>429 Too Many Requests</h1></body></html>",
            )
            shaped.headers.set("Retry-After", str(RETRY_AFTER_SECONDS))
            shaped.fault_kind = "http_429"
            return shaped
        if kind == "redirect_loop":
            # A self-redirect: the browser re-requests the same URL with
            # the same decision coordinates, gets the same answer, and
            # its redirect budget converges to the redirect_loop outcome.
            shaped = HttpResponse.redirect(request.url.raw)
            shaped.fault_kind = "redirect_loop"
            return shaped
        return response

    def check_lookup(self, domain: str, timestamp: float) -> None:
        """Out-of-band lookup faults (enrichment's WHOIS/CT queries).

        Reuses the connect/TLS rates: a takedown between crawl and
        enrich surfaces here as :class:`ConnectTimeout` or
        :class:`TLSHandshakeFailure`, which the enrich stage degrades
        on instead of aborting the message.
        """
        profile = self.profile_for(domain)
        if not profile.active:
            return
        roll = self._rng(domain, 0, self._epoch(timestamp), "lookup").random()
        kind = pick_band(roll, profile.bands("connect_timeout", "tls_handshake"))
        if kind == "connect_timeout":
            raise ConnectTimeout(f"{domain}: enrichment lookup timed out")
        if kind == "tls_handshake":
            raise TLSHandshakeFailure(f"{domain}: enrichment lookup TLS failure")

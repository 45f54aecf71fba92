"""The network fabric: DNS + TLS + HTTP tied together.

:class:`Network` is the single entry point browsers use.  A request
resolves the host (NXDOMAIN is observable), validates the site's TLS
certificate at the simulated timestamp, and dispatches to the website's
handler with the caller's :class:`~repro.web.context.ClientContext`.
Third-party IP services (httpbin.org / ipapi.co — used by the kits'
server-side filtering, Section V-C) can be installed with one call.
"""

from __future__ import annotations

import json

from repro.web.context import ClientContext
from repro.web.dns import DnsResolver, NxDomainError
from repro.web.http import HttpRequest, HttpResponse
from repro.web.site import Website
from repro.web.tls import CertificateTransparencyLog, TLSCertificate
from repro.web.whois import WhoisRegistry

__all__ = ["Network", "ClientContext", "ConnectionFailed", "TLSValidationError"]


#: Benign utility hosts the fabric can serve (see
#: :meth:`Network.install_ip_services`); the pipeline's crawl admission
#: policy treats these as non-phishing infrastructure.
UTILITY_HOSTS: tuple[str, ...] = ("httpbin.org", "ipapi.co")


class ConnectionFailed(ConnectionError):
    """The host resolved but nothing answers (server taken down)."""


class TLSValidationError(ConnectionError):
    """No valid certificate covers the host at this time."""


class Network:
    """The simulated internet fabric."""

    def __init__(self):
        self.dns = DnsResolver()
        self.ct_log = CertificateTransparencyLog()
        self.whois = WhoisRegistry()
        self._websites: dict[str, Website] = {}
        #: IP metadata used by enrichment (ip -> (asn, network name, country)).
        self.ip_metadata: dict[str, tuple[str, str, str]] = {}
        #: Optional :class:`~repro.web.faults.FaultEngine` consulted on
        #: every dispatch (None = the fabric is perfectly reliable).
        self.faults = None

    def install_faults(self, engine) -> None:
        """Install a fault-injection engine on the fabric.

        The engine's decisions are a pure function of its seed and the
        request coordinates, so installing the same engine on the
        caller's network (inline runs) or on per-process rebuilds
        (process workers) produces identical weather.
        """
        self.faults = engine

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def host_website(
        self,
        website: Website,
        active_from: float = float("-inf"),
        active_until: float = float("inf"),
    ) -> None:
        """Attach a website to the fabric and publish its DNS record."""
        # Normalized at insertion: lookups (``website``/``take_down``/
        # request dispatch) are all lowercase, so a mixed-case domain —
        # possible when ``Website.domain`` is reassigned after
        # construction — would otherwise be unreachable and
        # un-take-downable.
        self._websites[website.domain.lower()] = website
        if website.ip:
            self.dns.add_record(website.domain, website.ip, active_from, active_until)

    def take_down(self, domain: str) -> None:
        """Remove the web server but keep DNS (resolves, then connection fails)."""
        self._websites.pop(domain.lower(), None)

    def website(self, domain: str) -> Website | None:
        return self._websites.get(domain.lower())

    def issue_certificate(self, certificate: TLSCertificate) -> None:
        """Record issuance in the CT log and attach it to a hosted site."""
        self.ct_log.submit(certificate)
        site = self._websites.get(certificate.subject.lower())
        if site is not None:
            site.certificate = certificate

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def request(self, request: HttpRequest, context: ClientContext) -> HttpResponse:
        """Resolve, validate TLS, and serve one request.

        Raises :class:`~repro.web.dns.NxDomainError`,
        :class:`ConnectionFailed`, or :class:`TLSValidationError` — the
        error-page outcomes of Section V (15.9% of malicious messages).
        """
        host = request.url.host
        faults = self.faults
        if faults is not None:
            # Single interception point: connection-phase faults fire
            # before the fabric is consulted, exactly like weather on a
            # live network (the request never reaches the server).
            faults.check_connection(request)
        self.dns.resolve(host, timestamp=request.timestamp)
        website = self._websites.get(host)
        if website is None:
            raise ConnectionFailed(f"no server answering for {host}")
        if request.url.scheme == "https":
            certificate = website.certificate
            if certificate is None or not certificate.covers(host) or not certificate.valid_at(request.timestamp):
                raise TLSValidationError(f"no valid certificate for {host}")
        response = website.handle(request, context)
        if faults is not None:
            # Response-phase faults: the server answered but the client
            # saw a stall, a truncation, or a shaped 5xx/429/redirect.
            response = faults.shape_response(request, response)
        return response

    # ------------------------------------------------------------------
    # Built-in third-party services
    # ------------------------------------------------------------------
    def install_ip_services(self) -> None:
        """Host httpbin.org-style and ipapi.co-style IP echo services.

        The paper found kits retrieving the client IP from httpbin.org
        (145 messages) and enriching it via ipapi.co (83 messages) before
        exfiltrating it to C2 for server-side filtering.
        """
        httpbin_host, ipapi_host = UTILITY_HOSTS
        httpbin = Website(httpbin_host, ip="34.0.0.1")

        def _httpbin_ip(request: HttpRequest, context: ClientContext) -> HttpResponse:
            body = json.dumps({"origin": context.ip})
            return HttpResponse(status=200, body=body, content_type="application/json")

        httpbin.add_handler("/ip", _httpbin_ip)
        self.host_website(httpbin)
        self.issue_certificate(
            TLSCertificate(httpbin_host, "DigiCert", float("-inf"), float("inf"))
        )

        ipapi = Website(ipapi_host, ip="34.0.0.2")

        def _ipapi_json(request: HttpRequest, context: ClientContext) -> HttpResponse:
            asn, network_name, country = self.ip_metadata.get(
                context.ip, (context.asn, context.network_name, context.country)
            )
            body = json.dumps(
                {
                    "ip": context.ip,
                    "country": country,
                    "city": "Unknown",
                    "asn": asn,
                    "org": network_name,
                    "network_type": context.ip_type,
                }
            )
            return HttpResponse(status=200, body=body, content_type="application/json")

        ipapi.add_handler("/json", _ipapi_json)
        ipapi.add_handler("/json/", _ipapi_json)
        self.host_website(ipapi)
        self.issue_certificate(
            TLSCertificate(ipapi_host, "DigiCert", float("-inf"), float("inf"))
        )

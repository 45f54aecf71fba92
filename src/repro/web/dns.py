"""DNS resolution with a passive-DNS observation log.

Besides resolving names for the browser, the resolver records every
query with its timestamp.  The Cisco-Umbrella-style enrichment in
:mod:`repro.enrichment.umbrella` is fed both from this live log and from
pre-seeded historical volumes generated with the corpus (the paper
examines "DNS query volumes for the malicious landing domains during
the last 30 days before the reception of their associated message").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


class NxDomainError(LookupError):
    """The domain does not exist (NXDOMAIN)."""


@dataclass(frozen=True)
class DnsRecord:
    domain: str
    ip: str
    #: Hours-since-epoch at which the record became active.
    active_from: float = float("-inf")
    #: Hours-since-epoch at which the record stops resolving.
    active_until: float = float("inf")


class DnsResolver:
    """An authoritative view of the simulated internet's names."""

    def __init__(self):
        self._records: dict[str, list[DnsRecord]] = defaultdict(list)
        #: Passive DNS log: (timestamp, domain) pairs, append-only.
        self.query_log: list[tuple[float, str]] = []

    def add_record(
        self,
        domain: str,
        ip: str,
        active_from: float = float("-inf"),
        active_until: float = float("inf"),
    ) -> None:
        self._records[domain.lower()].append(DnsRecord(domain.lower(), ip, active_from, active_until))

    def resolve(self, domain: str, timestamp: float = 0.0, log: bool = True) -> str:
        """Resolve ``domain`` at a point in simulated time.

        Raises :class:`NxDomainError` if no record is active.
        """
        domain = domain.lower()
        if log:
            self.query_log.append((timestamp, domain))
        for record in self._records.get(domain, ()):
            if record.active_from <= timestamp <= record.active_until:
                return record.ip
        raise NxDomainError(domain)

    def knows(self, domain: str) -> bool:
        return domain.lower() in self._records

    def queries_for(self, domain: str) -> list[float]:
        """Timestamps of observed queries for one domain."""
        domain = domain.lower()
        return [ts for ts, name in self.query_log if name == domain]

"""A resilient fetch path: retries, circuit breakers, retry budgets.

The paper's crawler survived ten months of dead domains, stalled
servers, and rate limits by degrading instead of dying.  This module is
the consumer side of :mod:`repro.web.faults`: a
:class:`ResilientFetcher` wraps the crawler's ``crawl_url`` with

- bounded, jittered exponential-backoff retries (honouring an
  injected 429's ``Retry-After`` when present),
- a per-host **circuit breaker** with half-open probes, so a
  permanently-dead host stops consuming attempts after it trips,
- a per-message **retry budget**, so one dead host cannot starve the
  rest of the message's URLs, and
- a :class:`FaultTelemetry` ledger recorded on the
  :class:`~repro.core.artifacts.MessageRecord` instead of dead-lettering
  the message.

Backoff is *simulated*: the would-be sleep is accumulated into
``telemetry.backoff_seconds`` and never actually slept, so a hostile
full-corpus soak stays fast and wall-clock never leaks into records.
Determinism: the jitter RNG is derived from the per-message seed, and
every injected fault is a pure function of ``(fault_seed, host,
attempt, epoch)``, so the retry transcript is identical across worker
counts and backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = [
    "CircuitBreaker",
    "FaultTelemetry",
    "ResiliencePolicy",
    "ResilientFetcher",
    "RETRYABLE_STATUSES",
]

#: Final HTTP statuses worth retrying (server-side/transient, never the
#: 403/404 the kits' cloaking guards serve deliberately).
RETRYABLE_STATUSES = frozenset((429, 500, 502, 503, 504))

#: Visit outcomes worth retrying: the connection-level failures a flaky
#: host recovers from.
RETRYABLE_OUTCOMES = frozenset(("nxdomain", "connection_failed", "tls_error"))

#: Fault kinds counted as per-request deadline hits.
DEADLINE_KINDS = frozenset(("slow_start", "mid_body_stall"))

#: Backoff before retry n (1-based, simulated seconds):
#: ``min(BASE * MULTIPLIER ** (n - 1), CAP)`` plus up to ``JITTER`` of itself.
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_SECONDS = 30.0
BACKOFF_JITTER = 0.25


@dataclass
class FaultTelemetry:
    """Per-message fault/resilience counters.

    Attached to :class:`~repro.core.artifacts.MessageRecord` only when a
    fault engine is active (so ``--faults off`` exports stay
    byte-identical to pre-fault-engine output) and serialized by
    :mod:`repro.core.export` whenever present.
    """

    #: Fetches actually issued (first attempts + retries + probes).
    requests_attempted: int = 0
    #: Retries consumed from the per-message budget.
    retries: int = 0
    #: Simulated seconds of backoff that would have been slept.
    backoff_seconds: float = 0.0
    #: Requests that died on a per-request deadline (slow start or
    #: mid-body stall).
    deadline_hits: int = 0
    #: Circuit breakers that tripped open (per host, per message).
    breaker_trips: int = 0
    #: Fetches suppressed by an open breaker.
    breaker_skips: int = 0
    #: Half-open probes issued through an open breaker.
    breaker_probes: int = 0
    #: The per-message retry budget ran dry.
    budget_exhausted: bool = False
    #: URLs that produced no data at all (breaker open before any attempt).
    unreachable: int = 0
    #: Enrichment lookups that failed (domain takedown between crawl and
    #: enrich).
    enrich_failures: int = 0
    #: Observed fault kinds -> occurrence counts.
    fault_kinds: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def note_kind(self, kind: str) -> None:
        self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + 1

    @property
    def total_faults(self) -> int:
        return sum(self.fault_kinds.values())

    def as_dict(self) -> dict:
        return {
            "requests_attempted": self.requests_attempted,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "deadline_hits": self.deadline_hits,
            "breaker_trips": self.breaker_trips,
            "breaker_skips": self.breaker_skips,
            "breaker_probes": self.breaker_probes,
            "budget_exhausted": self.budget_exhausted,
            "unreachable": self.unreachable,
            "enrich_failures": self.enrich_failures,
            "fault_kinds": {kind: self.fault_kinds[kind] for kind in sorted(self.fault_kinds)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultTelemetry":
        telemetry = cls(
            requests_attempted=int(data.get("requests_attempted", 0)),
            retries=int(data.get("retries", 0)),
            backoff_seconds=float(data.get("backoff_seconds", 0.0)),
            deadline_hits=int(data.get("deadline_hits", 0)),
            breaker_trips=int(data.get("breaker_trips", 0)),
            breaker_skips=int(data.get("breaker_skips", 0)),
            breaker_probes=int(data.get("breaker_probes", 0)),
            budget_exhausted=bool(data.get("budget_exhausted", False)),
            unreachable=int(data.get("unreachable", 0)),
            enrich_failures=int(data.get("enrich_failures", 0)),
        )
        telemetry.fault_kinds = {
            str(kind): int(count) for kind, count in (data.get("fault_kinds") or {}).items()
        }
        return telemetry


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard the crawl path fights for each URL."""

    #: Delivery attempts per request (1 = no retries).
    max_attempts_per_request: int = 3
    #: Retries a single message may spend across all of its URLs.
    retry_budget_per_message: int = 12
    #: Consecutive failures that trip a host's breaker open.
    breaker_threshold: int = 3
    #: Suppressed fetches before an open breaker lets one probe through.
    breaker_probe_after: int = 3


class _HostState:
    """One host's breaker state."""

    __slots__ = ("failures", "open", "skips", "probing")

    def __init__(self):
        self.failures = 0
        self.open = False
        self.skips = 0
        self.probing = False


class CircuitBreaker:
    """Per-host circuit breaker with half-open probes.

    State machine (per host)::

        CLOSED --threshold consecutive failures--> OPEN
        OPEN   --probe_after suppressed fetches--> HALF-OPEN (one probe)
        HALF-OPEN --probe succeeds--> CLOSED
        HALF-OPEN --probe fails-----> OPEN (skip count restarts)

    Scoped per message (the crawl stage builds one per record) so
    breaker state never couples one message's record to another's —
    the determinism guarantee needs records to be order-independent.
    """

    def __init__(self, threshold: int = 3, probe_after: int = 3):
        self.threshold = max(1, threshold)
        self.probe_after = max(1, probe_after)
        self._hosts: dict[str, _HostState] = {}

    def _state(self, host: str) -> _HostState:
        state = self._hosts.get(host)
        if state is None:
            state = self._hosts[host] = _HostState()
        return state

    # ------------------------------------------------------------------
    def allow(self, host: str) -> str:
        """``"closed"`` (fetch freely), ``"probe"`` (half-open trial
        fetch), or ``"blocked"`` (suppressed by an open breaker)."""
        state = self._state(host)
        if not state.open:
            return "closed"
        state.skips += 1
        if state.skips >= self.probe_after:
            state.skips = 0
            state.probing = True
            return "probe"
        return "blocked"

    def success(self, host: str) -> None:
        self._hosts[host] = _HostState()  # close and reset

    def failure(self, host: str) -> bool:
        """Record a failed fetch; True when this failure tripped the
        breaker open (a probe failure re-opens without re-tripping)."""
        state = self._state(host)
        if state.probing:
            state.probing = False
            state.skips = 0
            return False
        state.failures += 1
        if not state.open and state.failures >= self.threshold:
            state.open = True
            return True
        return False

    def is_open(self, host: str) -> bool:
        return self._state(host).open


class ResilientFetcher:
    """Retries + breaker + budget around a ``fetch(url, ts, attempt)``.

    ``fetch`` returns a :class:`~repro.browser.browser.VisitResult`-like
    object (``outcome``, ``final_response``, ``fault_kinds``); the
    wrapper never sees exceptions — the browser already degrades
    network errors into outcomes — it decides only whether an outcome
    is worth another attempt.
    """

    def __init__(
        self,
        fetch,
        policy: ResiliencePolicy | None = None,
        rng: random.Random | None = None,
        telemetry: FaultTelemetry | None = None,
    ):
        self.fetch_fn = fetch
        self.policy = policy or ResiliencePolicy()
        self.rng = rng or random.Random(0)
        self.telemetry = telemetry if telemetry is not None else FaultTelemetry()
        self.breaker = CircuitBreaker(
            threshold=self.policy.breaker_threshold,
            probe_after=self.policy.breaker_probe_after,
        )
        self.budget_left = self.policy.retry_budget_per_message

    # ------------------------------------------------------------------
    def fetch(self, url: str, host: str, timestamp: float):
        """Fetch ``url`` resiliently.

        Returns the first non-retryable result, the last degraded result
        when attempts/budget ran out, or ``None`` when an open breaker
        suppressed the URL before any attempt produced data.
        """
        telemetry = self.telemetry
        attempt = 0
        result = None
        while True:
            gate = self.breaker.allow(host)
            if gate == "blocked":
                telemetry.breaker_skips += 1
                if result is None:
                    telemetry.unreachable += 1
                return result
            if gate == "probe":
                telemetry.breaker_probes += 1
            telemetry.requests_attempted += 1
            result = self.fetch_fn(url, timestamp, attempt)
            self._note_result(result)
            if not self._retryable(result):
                self.breaker.success(host)
                return result
            if self.breaker.failure(host):
                telemetry.breaker_trips += 1
            attempt += 1
            if attempt >= self.policy.max_attempts_per_request:
                return result
            if self.budget_left <= 0:
                telemetry.budget_exhausted = True
                return result
            self.budget_left -= 1
            telemetry.retries += 1
            telemetry.backoff_seconds += self.backoff_delay(result, attempt)

    # ------------------------------------------------------------------
    def _note_result(self, result) -> None:
        for kind in getattr(result, "fault_kinds", ()):
            self.telemetry.note_kind(kind)
            if kind in DEADLINE_KINDS:
                self.telemetry.deadline_hits += 1

    def _retryable(self, result) -> bool:
        if result is None:
            return False
        if result.outcome in RETRYABLE_OUTCOMES:
            return True
        if result.outcome == "http_error":
            response = result.final_response
            return response is not None and response.status in RETRYABLE_STATUSES
        if result.outcome == "redirect_loop":
            # Only injected loops re-roll on retry; a kit's genuine loop
            # is its answer and retrying it wastes the budget.
            return "redirect_loop" in getattr(result, "fault_kinds", ())
        return False

    def backoff_delay(self, result, attempt: int) -> float:
        """Simulated seconds before retry ``attempt`` (1-based): the
        server's ``Retry-After`` when ``result``'s final response
        carries one, else jittered exponential backoff."""
        response = getattr(result, "final_response", None)
        if response is not None:
            retry_after = response.headers.get("Retry-After")
            if retry_after:
                try:
                    return max(0.0, float(retry_after))
                except ValueError:
                    pass
        delay = min(
            BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** (attempt - 1), BACKOFF_CAP_SECONDS
        )
        return delay + delay * BACKOFF_JITTER * self.rng.random()

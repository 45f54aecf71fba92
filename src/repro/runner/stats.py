"""Incremental, mergeable running counters for an in-flight run.

Progress reporting must not re-scan completed records: every counter
here updates in O(1) per finished record and two partial runs (for
example a checkpointed prefix and a live continuation) merge with
:meth:`RunningStats.merge`.  The definitions mirror the batch
aggregations in :mod:`repro.analysis` — ``update`` reuses the same
per-record predicates, so a finished run's snapshot agrees with the
Section V figures computed from the full record list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.evasion import (
    _is_credential_message,
    _uses_recaptcha,
    _uses_turnstile,
)
from repro.core.artifacts import MessageRecord
from repro.core.outcomes import MessageCategory


@dataclass
class RunningStats:
    """Counters updated as records complete."""

    analyzed: int = 0
    categories: Counter = field(default_factory=Counter)
    spear: int = 0
    active: int = 0
    credential_messages: int = 0
    turnstile: int = 0
    recaptcha: int = 0
    faulty_qr: int = 0
    console_hijack: int = 0
    dead_lettered: int = 0
    retried: int = 0
    #: Messages rejected by the ingestion guard (or reaped by the stall
    #: watchdog) with a durable :class:`~repro.mail.guard.QuarantineReport`.
    quarantined: int = 0
    #: Stages degraded to ``failed`` by the per-message work budget
    #: (:class:`repro._budget.BudgetExceeded`) — distinct from the
    #: network fault engine's ``fault_budget_exhausted``.
    budget_stage_failures: int = 0
    #: Per-stage timing totals, always collected: each record's shard
    #: carries its analysis's rows (see :mod:`repro.runner.profile`).
    #: Wall-clock seconds, so in memory only — :meth:`as_dict` leaves
    #: them out and manifests stay byte-identical run to run; records
    #: resumed from a checkpoint add none.
    stage_calls: Counter = field(default_factory=Counter)
    stage_seconds: Counter = field(default_factory=Counter)
    #: Fault-injection resilience totals, folded from each record's
    #: :class:`~repro.web.resilient.FaultTelemetry` (all zero — and the
    #: manifest omits the ``faults`` block — when no engine is active).
    fault_requests: int = 0
    fault_retries: int = 0
    fault_backoff_seconds: float = 0.0
    fault_deadline_hits: int = 0
    fault_breaker_trips: int = 0
    fault_unreachable: int = 0
    fault_budget_exhausted: int = 0
    fault_enrich_failures: int = 0
    fault_kinds: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    def update(self, record: MessageRecord) -> None:
        """Fold one finished record into the counters."""
        from repro.qr.scanner import extract_url_strict

        self.analyzed += 1
        self.categories[record.category] += 1
        if record.quarantine is not None:
            self.quarantined += 1
        self.budget_stage_failures += sum(
            1
            for error in record.stage_errors.values()
            if error.startswith("BudgetExceeded")
        )
        if record.category == MessageCategory.ACTIVE_PHISHING:
            self.active += 1
            if record.spear_brand is not None:
                self.spear += 1
        if record.qr_payloads and any(
            extract_url_strict(payload) is None for _, payload in record.qr_payloads
        ):
            self.faulty_qr += 1
        if any(
            crawl.signals is not None and crawl.signals.console_hijacked
            for crawl in record.crawls
        ):
            self.console_hijack += 1
        if _is_credential_message(record):
            self.credential_messages += 1
            if any(_uses_turnstile(crawl) for crawl in record.crawls):
                self.turnstile += 1
            if any(_uses_recaptcha(crawl) for crawl in record.crawls):
                self.recaptcha += 1
        telemetry = record.fault_telemetry
        if telemetry is not None:
            self.fault_requests += telemetry.requests_attempted
            self.fault_retries += telemetry.retries
            self.fault_backoff_seconds += telemetry.backoff_seconds
            self.fault_deadline_hits += telemetry.deadline_hits
            self.fault_breaker_trips += telemetry.breaker_trips
            self.fault_unreachable += telemetry.unreachable
            self.fault_budget_exhausted += int(telemetry.budget_exhausted)
            self.fault_enrich_failures += telemetry.enrich_failures
            self.fault_kinds.update(telemetry.fault_kinds)

    # ------------------------------------------------------------------
    #: Scalar counters combined by summation in absorb/merge.
    _SCALAR_FIELDS = (
        "analyzed",
        "spear",
        "active",
        "credential_messages",
        "turnstile",
        "recaptcha",
        "faulty_qr",
        "console_hijack",
        "dead_lettered",
        "retried",
        "quarantined",
        "budget_stage_failures",
        "fault_requests",
        "fault_retries",
        "fault_backoff_seconds",
        "fault_deadline_hits",
        "fault_breaker_trips",
        "fault_unreachable",
        "fault_budget_exhausted",
        "fault_enrich_failures",
    )

    def absorb(self, other: "RunningStats") -> None:
        """Fold ``other`` into this instance in place.

        The parent side of the process backend's stats plane: workers
        accumulate a local shard per result frame and the parent absorbs
        one shard per frame instead of recomputing every per-record
        predicate on its single core.
        """
        for name in self._SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.categories.update(other.categories)
        self.stage_calls.update(other.stage_calls)
        self.stage_seconds.update(other.stage_seconds)
        self.fault_kinds.update(other.fault_kinds)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """A new RunningStats combining two disjoint partial runs."""
        merged = RunningStats()
        merged.absorb(self)
        merged.absorb(other)
        return merged

    # ------------------------------------------------------------------
    @property
    def spear_fraction(self) -> float:
        return self.spear / self.active if self.active else 0.0

    @property
    def turnstile_fraction(self) -> float:
        return self.turnstile / self.credential_messages if self.credential_messages else 0.0

    @property
    def has_fault_activity(self) -> bool:
        """Any resilience counter is nonzero (a fault engine was live)."""
        return bool(
            self.fault_requests
            or self.fault_retries
            or self.fault_deadline_hits
            or self.fault_breaker_trips
            or self.fault_unreachable
            or self.fault_budget_exhausted
            or self.fault_enrich_failures
            or self.fault_kinds
        )

    def as_dict(self) -> dict:
        data = {
            "analyzed": self.analyzed,
            "categories": dict(self.categories),
            "spear": self.spear,
            "active": self.active,
            "credential_messages": self.credential_messages,
            "turnstile": self.turnstile,
            "recaptcha": self.recaptcha,
            "faulty_qr": self.faulty_qr,
            "console_hijack": self.console_hijack,
            "dead_lettered": self.dead_lettered,
            "retried": self.retried,
        }
        # Hostile-input counters appear only when nonzero: clean-corpus
        # manifests keep the historical key set byte-for-byte.
        if self.quarantined:
            data["quarantined"] = self.quarantined
        if self.budget_stage_failures:
            data["budget_stage_failures"] = self.budget_stage_failures
        # Emitted only under an active fault engine: faults-off manifests
        # keep the historical key set byte-for-byte.
        if self.has_fault_activity:
            data["faults"] = {
                "requests": self.fault_requests,
                "retries": self.fault_retries,
                "backoff_seconds": round(self.fault_backoff_seconds, 6),
                "deadline_hits": self.fault_deadline_hits,
                "breaker_trips": self.fault_breaker_trips,
                "unreachable": self.fault_unreachable,
                "budget_exhausted": self.fault_budget_exhausted,
                "enrich_failures": self.fault_enrich_failures,
                "kinds": {kind: self.fault_kinds[kind] for kind in sorted(self.fault_kinds)},
            }
        return data

    @classmethod
    def from_records(cls, records: list[MessageRecord]) -> "RunningStats":
        stats = cls()
        for record in records:
            stats.update(record)
        return stats

    @classmethod
    def from_dict(cls, data: dict) -> "RunningStats":
        """Inverse of :meth:`as_dict` (absent optional keys read as 0).

        Service mode depends on this roundtrip: a restarted daemon whose
        checkpoint was compacted with a retention cap can no longer
        recount old records, so it restores the manifest's snapshot and
        keeps merging live updates into it.
        """
        stats = cls()
        for name in (
            "analyzed",
            "spear",
            "active",
            "credential_messages",
            "turnstile",
            "recaptcha",
            "faulty_qr",
            "console_hijack",
            "dead_lettered",
            "retried",
            "quarantined",
            "budget_stage_failures",
        ):
            setattr(stats, name, int(data.get(name, 0)))
        stats.categories = Counter(
            {category: int(count) for category, count in (data.get("categories") or {}).items()}
        )
        faults = data.get("faults") or {}
        stats.fault_requests = int(faults.get("requests", 0))
        stats.fault_retries = int(faults.get("retries", 0))
        stats.fault_backoff_seconds = float(faults.get("backoff_seconds", 0.0))
        stats.fault_deadline_hits = int(faults.get("deadline_hits", 0))
        stats.fault_breaker_trips = int(faults.get("breaker_trips", 0))
        stats.fault_unreachable = int(faults.get("unreachable", 0))
        stats.fault_budget_exhausted = int(faults.get("budget_exhausted", 0))
        stats.fault_enrich_failures = int(faults.get("enrich_failures", 0))
        stats.fault_kinds = Counter(
            {kind: int(count) for kind, count in (faults.get("kinds") or {}).items()}
        )
        return stats

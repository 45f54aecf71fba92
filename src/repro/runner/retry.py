"""Retry policy and dead letters.

Transient faults (a flaky enrichment source, a crashed worker, an
injected test fault) are re-delivered, each retry on its own, up to
``max_attempts``; jobs that exhaust their attempts land on the runner's
dead-letter list instead of poisoning the run.  Non-transient
exceptions are *not* retried — they indicate a pipeline bug and abort
the run.  The scheduler re-delivers at once; only the simulated
internet's retries are priced with a backoff
(:mod:`repro.web.resilient`).
"""

from __future__ import annotations

from dataclasses import dataclass


class TransientFault(RuntimeError):
    """A failure worth retrying (the analysis itself is sound)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How failing jobs are re-delivered."""

    #: Total delivery attempts per job (1 = no retries).
    max_attempts: int = 3

    def is_transient(self, error: BaseException) -> bool:
        return isinstance(error, TransientFault)


@dataclass(frozen=True)
class DeadLetter:
    """A job that exhausted its attempts."""

    index: int
    attempts: int
    error: str
    #: Per-attempt error reprs in delivery order (the last one equals
    #: ``error``); empty for letters predating retry-history tracking.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        data = {"index": self.index, "attempts": self.attempts, "error": self.error}
        # Emitted only when populated, so manifests from runs without
        # retries keep the historical key set.
        if self.history:
            data["history"] = list(self.history)
        return data

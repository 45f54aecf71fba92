"""Retry policy and dead letters.

Transient faults (a flaky enrichment source, a crashed worker, an
injected test fault) are re-delivered, each retry on its own, up to
``max_attempts``; jobs that exhaust their attempts land on the runner's
dead-letter list instead of poisoning the run.  Non-transient
exceptions are *not* retried — they indicate a pipeline bug and abort
the run.  The scheduler re-delivers at once; the backoff schedule
(:meth:`RetryPolicy.backoff_delay`) prices the simulated internet's
retries (:mod:`repro.web.resilient`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class TransientFault(RuntimeError):
    """A failure worth retrying (the analysis itself is sound)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How failing jobs are re-delivered."""

    #: Total delivery attempts per job (1 = no retries).
    max_attempts: int = 3
    #: Delay before the first retry, in seconds.
    base_delay: float = 0.05
    #: Growth factor per subsequent retry.
    multiplier: float = 2.0
    #: Upper bound on any single delay.
    max_delay: float = 2.0
    #: Jitter as a fraction of the computed delay (0.25 = up to +25%).
    jitter: float = 0.25
    #: Exception types considered transient.
    transient_types: tuple[type[BaseException], ...] = (TransientFault,)

    def is_transient(self, error: BaseException) -> bool:
        return isinstance(error, self.transient_types)

    def backoff_delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and rng is not None:
            delay += delay * self.jitter * rng.random()
        return delay


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

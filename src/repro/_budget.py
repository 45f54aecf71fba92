"""Cooperative per-message resource budgets.

A hostile message can be *well-formed* yet unbounded in the work it
triggers — scripts that spin the JS interpreter, images that explode
the OCR search, crawl chains that never converge.  The quarantine guard
(:mod:`repro.mail.guard`) rejects structurally pathological inputs
before analysis; this module bounds the work a message may consume
*during* analysis.

Design:

- A :class:`MessageBudget` counts abstract work units (one unit is
  roughly one JS interpreter step).  Hot loops charge it at coarse
  boundaries — the JS interpreter every 1024 steps, the OCR decoder per
  line band, the crawl stage per URL hop — so the per-iteration cost is
  an attribute check, not a function call.
- Exhaustion raises :class:`BudgetExceeded`, a plain ``Exception`` by
  design: it is neither a :class:`~repro.js.interp.JSError` (the page
  session would swallow it into ``script_errors``) nor a
  :class:`~repro.runner.retry.TransientFault` (the runner would retry a
  message that is deterministically expensive).  It therefore escapes
  to the stage plan's isolation boundary, which marks the running stage
  ``failed`` with a machine-readable reason and degrades its
  dependents — the worker survives and the record is kept.
- The active budget travels via a thread-local instead of threading a
  parameter through every hot-path signature; concurrent analyses on
  different threads each see only their own message's budget.

Determinism: work units are a pure function of the message being
analyzed, so a work-unit limit degrades the *same* stages on every
backend and worker count.  There is deliberately no wall-clock limit:
it would break byte-identity across machines.

This module is intentionally stdlib-only and lives at the package top
level: the charge sites (``repro.js.interp``, ``repro.imaging.ocr``)
are leaf modules imported while ``repro.runner`` is still initializing,
so importing a runner submodule from them would cycle.  The public
surface is re-exported through :mod:`repro.runner`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

#: Default work-unit limit per message.  Calibrated-corpus messages
#: consume well under 150k units end to end (crawl hops dominate), and
#: a *single* runaway script is already stopped by the JS interpreter's
#: own 2M step limit (swallowed into ``script_errors``, page handled
#: gracefully) — so the default sits at four maxed-out scripts' worth:
#: it only trips on cumulative multi-script/multi-page abuse the
#: per-script limit cannot see, while leaving clean messages ~300x of
#: headroom.  Tighten per run with ``--budget``.
DEFAULT_WORK_LIMIT = 8_000_000

#: Units charged per crawled URL (a crawl hop does orders of magnitude
#: more host work than a JS step; this keeps the unit scale honest).
CRAWL_HOP_UNITS = 10_000

#: Units charged per OCR line-band decode at one alignment sweep.
OCR_BAND_UNITS = 2_000


class BudgetExceeded(Exception):
    """The per-message budget ran dry.

    Deliberately a plain ``Exception``: stage failure isolation catches
    it (degrading the stage to ``failed``), the retry policy does not.
    """

    def __init__(self, kind: str, spent: int, limit: float):
        super().__init__(
            f"message budget exhausted in {kind}: "
            f"{spent} work units spent (limit {limit:g})"
        )
        self.kind = kind
        self.spent = spent
        self.limit = limit


class MessageBudget:
    """A cooperative work-unit meter for one message's analysis."""

    __slots__ = ("work_limit", "spent", "spent_by_kind")

    def __init__(self, work_limit: int | None = DEFAULT_WORK_LIMIT):
        self.work_limit = work_limit
        self.spent = 0
        self.spent_by_kind: dict[str, int] = {}

    def charge(self, units: int, kind: str) -> None:
        """Consume ``units``; raises :class:`BudgetExceeded` when dry."""
        self.spent += units
        self.spent_by_kind[kind] = self.spent_by_kind.get(kind, 0) + units
        if self.work_limit is not None and self.spent > self.work_limit:
            raise BudgetExceeded(kind, self.spent, self.work_limit)


_ACTIVE = threading.local()


def current_budget() -> MessageBudget | None:
    """The budget active on this thread (None outside ``activate``)."""
    return getattr(_ACTIVE, "budget", None)


@contextmanager
def activate(budget: MessageBudget | None):
    """Install ``budget`` as this thread's active budget for the block.

    ``activate(None)`` is a cheap no-op context so callers need no
    branching; nesting restores the previous budget on exit.
    """
    previous = getattr(_ACTIVE, "budget", None)
    _ACTIVE.budget = budget
    try:
        yield budget
    finally:
        _ACTIVE.budget = previous

"""Per-stage wall-clock timing for the analysis hot path.

Every :class:`~repro.core.pipeline.CrawlerBox` owns a
:class:`StageProfiler` and always times its stages: the stage-plan
driver (:meth:`repro.core.stages.plan.StagePlan.run`) records one row
per executed registry stage, and ``CrawlerBox.analyze`` adds an
``unattributed`` row for the wall clock the stages themselves did not
account for — so the table provably covers every stage and its rows
sum to the total analysis time.  The canonical row set is
:data:`PROFILE_TABLE_STAGES` (consistency-checked against the stage
registry by ``tests/test_stage_registry.py``).

The timings travel like every other statistic: the per-batch body both
transports run (:func:`repro.runner.executor.analyse_batch`) folds one
message's rows into the :class:`~repro.runner.stats.RunningStats` shard
that ships with that message's record, so they land exactly when the
record's frame lands — on every transport, and whether or not a worker
is later stopped cleanly.  ``repro run --profile`` only decides whether
the CLI prints the table; timings are never written to a checkpoint.
"""

from __future__ import annotations

from collections import Counter

#: Residual bucket: analyze() wall clock not attributed to any stage.
UNATTRIBUTED = "unattributed"

#: The rows a fully profiled run produces: every built-in stage of the
#: registry (Figure 1 order; keep in sync with
#: ``repro.core.stages.STAGE_NAMES`` — enforced by
#: ``tests/test_stage_registry.py``) plus the residual bucket.
PROFILE_TABLE_STAGES: tuple[str, ...] = (
    "auth",
    "parse",
    "dynamic-html",
    "crawl",
    "classify",
    "spear",
    "enrich",
    UNATTRIBUTED,
)


class StageProfiler:
    """Per-stage call/duration accumulator for one box (one thread)."""

    def __init__(self):
        self.stage_calls: Counter = Counter()
        self.stage_seconds: Counter = Counter()

    def record(self, name: str, seconds: float) -> None:
        self.stage_calls[name] += 1
        self.stage_seconds[name] += seconds


def format_stage_report(stage_calls, stage_seconds) -> str:
    """A fixed-width per-stage table (stage, calls, total, per-call, share).

    Stages sort by total time; the ``unattributed`` residual bucket
    always prints last so the attributed rows read as a breakdown of
    real pipeline work.
    """
    total = sum(stage_seconds.values())
    lines = [
        f"{'stage':<18s} {'calls':>8s} {'total s':>9s} {'ms/call':>9s} {'share':>7s}"
    ]
    ordered = sorted(
        stage_seconds,
        key=lambda name: (name == UNATTRIBUTED, -stage_seconds[name]),
    )
    for name in ordered:
        seconds = stage_seconds[name]
        calls = stage_calls.get(name, 0)
        per_call = 1000.0 * seconds / calls if calls else 0.0
        share = 100.0 * seconds / total if total else 0.0
        lines.append(
            f"{name:<18s} {calls:>8d} {seconds:>9.3f} {per_call:>9.3f} {share:>6.1f}%"
        )
    lines.append(f"{'(all stages)':<18s} {'':>8s} {total:>9.3f}")
    return "\n".join(lines)


def format_fault_report(stats) -> str:
    """The resilience summary for a fault-injected run.

    One headline line of aggregate counters followed by the per-kind
    fault counts (most frequent first); only printed by the CLI when
    :attr:`~repro.runner.stats.RunningStats.has_fault_activity`.
    """
    lines = [
        "fault injection: "
        f"{stats.fault_requests} requests, "
        f"{stats.fault_retries} retries "
        f"({stats.fault_backoff_seconds:.2f}s simulated backoff), "
        f"{stats.fault_deadline_hits} deadline hits, "
        f"{stats.fault_breaker_trips} breaker trips, "
        f"{stats.fault_unreachable} unreachable URLs, "
        f"{stats.fault_budget_exhausted} budget-exhausted messages, "
        f"{stats.fault_enrich_failures} enrichment failures"
    ]
    for kind, count in sorted(stats.fault_kinds.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {kind:<22s} {count:>8d}")
    return "\n".join(lines)


def format_quarantine_report(records) -> str:
    """Post-run summary of quarantined messages.

    A per-limit violation histogram followed by one line per quarantined
    record (index, reason, first violation), so an operator can tell at
    a glance *which* guard each hostile message tripped.  Printed by the
    CLI only when the run quarantined something; also the artifact body
    of the CI hostile-ingest job.
    """
    quarantined = [record for record in records if record.quarantine is not None]
    if not quarantined:
        return "quarantine: 0 messages"
    limits: Counter = Counter()
    for record in quarantined:
        for violation in record.quarantine.violations:
            limits[violation.limit] += 1
    lines = [f"quarantine: {len(quarantined)} message(s)"]
    for limit, count in sorted(limits.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {limit:<22s} {count:>8d}")
    for record in quarantined:
        head = record.quarantine.violations[0] if record.quarantine.violations else None
        detail = f" [{head.limit}: {head.observed} > cap {head.cap}]" if head else ""
        lines.append(f"  #{record.message_index}: {record.quarantine.reason}{detail}")
    return "\n".join(lines)

"""The analysis engine: CrawlerBox at production scale.

The paper's CrawlerBox is an always-on infrastructure ("analyzes the
reported emails as soon as they are tagged by experts") that sustained
a ten-month, 5,181-message measurement window.  This subpackage wraps
the per-message pipeline in a production-style engine:

- :mod:`~repro.runner.retry` — which faults are transient, how many
  attempts they get, and the dead-letter list for jobs that exhaust
  them.
- :mod:`~repro.runner.checkpoint` — an append-only JSONL record store
  plus a run manifest, so an interrupted run can resume and skip the
  message indices it already analyzed.
- :mod:`~repro.runner.stats` — incremental, mergeable running counters
  so progress reporting never re-scans completed records.
- :mod:`~repro.runner.executor` — one scheduler (batch dispatch,
  isolated retries, dead letters, stall quarantine, drain) over two
  transports: ``inline`` (``jobs=1`` in this process, on a live
  CrawlerBox) and ``process`` (forked workers inherit this process's
  world and messages and build their own box from the
  :class:`RunnerConfig`, so the CPU-bound analysis scales past the
  GIL).
- :mod:`~repro.runner.pool` — worker-process lifecycle and result
  frames for the process transport; a pool lives as long as the run or
  daemon that opened it.
- :mod:`~repro.runner.profile` — per-stage wall-clock timing, always
  on; it travels in each result frame's stats shard, and ``repro run
  --profile`` prints it (it is never written to a checkpoint).
- :mod:`~repro.runner.runner` — the :class:`CorpusRunner` facade.

Determinism guarantee: the pipeline derives each message's RNG stream
from ``(corpus seed material, message_index)`` only, so a ``jobs=8``
run produces byte-identical records to a ``jobs=1`` inline run
regardless of scheduling order.
"""

from repro._budget import BudgetExceeded, MessageBudget
from repro.runner.checkpoint import (
    CheckpointScan,
    CheckpointStore,
    CompactionResult,
    LineIssue,
    RunManifest,
    encode_record_line,
    parse_record_line,
)
from repro.runner.executor import RunnerConfig, Scheduler, WorkerCrash, WorkerStalled
from repro.runner.profile import (
    PROFILE_TABLE_STAGES,
    StageProfiler,
    format_fault_report,
    format_quarantine_report,
    format_stage_report,
)
from repro.runner.retry import DeadLetter, RetryPolicy, TransientFault
from repro.runner.runner import EXECUTORS, CorpusRunner, RunResult, resolve_executor
from repro.runner.stats import RunningStats

__all__ = [
    "BudgetExceeded",
    "CheckpointScan",
    "CheckpointStore",
    "CompactionResult",
    "CorpusRunner",
    "DeadLetter",
    "EXECUTORS",
    "LineIssue",
    "MessageBudget",
    "PROFILE_TABLE_STAGES",
    "RetryPolicy",
    "RunManifest",
    "RunnerConfig",
    "RunResult",
    "RunningStats",
    "Scheduler",
    "StageProfiler",
    "TransientFault",
    "WorkerCrash",
    "WorkerStalled",
    "encode_record_line",
    "format_fault_report",
    "format_quarantine_report",
    "format_stage_report",
    "parse_record_line",
    "resolve_executor",
]

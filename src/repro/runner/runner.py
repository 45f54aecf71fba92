"""The CorpusRunner facade: sharded, checkpointed corpus analysis.

Orchestrates the scheduler, the retry policy, the checkpoint store, and
the running statistics::

    config = RunnerConfig(seed=7, scale=0.05)
    runner = CorpusRunner(config=config, world=corpus.world, jobs=8)
    result = runner.run(corpus.messages)
    result.records   # sorted by message_index, identical to jobs=1

One :class:`~repro.runner.executor.Scheduler` drives either of two
transports (see :func:`resolve_executor`):

- ``inline`` — ``jobs=1`` in this process, on the caller's live
  ``box`` (a :class:`~repro.core.pipeline.CrawlerBox`, or one built
  from ``world`` by :meth:`RunnerConfig.build`) and messages.  Instant
  start; records land one message at a time and stay live objects.
- ``process`` — N forked worker *processes* (:mod:`repro.runner.executor`)
  that inherit this process's ``world`` and the messages handed to
  :meth:`CorpusRunner.run`, each build their own box on their copy of
  the world, and stream serialized record frames back to this parent.
  A runner given no world generates one from its config, once, before
  the fork.  Scales with cores.

Determinism: every record depends only on ``(seed material,
message_index)`` (see :meth:`repro.core.pipeline.CrawlerBox.message_seed`),
and the result list is sorted by index, so the records themselves are
byte-identical across worker counts, transports, and scheduling orders.

Failure routing: since the pipeline became a stage graph
(:mod:`repro.core.stages`), per-stage exceptions degrade the record's
``stage_status`` inside ``analyze`` instead of propagating here — the
retry/dead-letter machinery only ever sees transient infrastructure
faults and messages that cannot enter the pipeline at all.  Given a
``world`` instead of a ``box``, both transports build their box with
:meth:`RunnerConfig.build`, so stage selection, weather and limits
match (the CLI does this); a caller-built inline ``box`` must use the
same settings as the config.
"""

from __future__ import annotations

import collections
import multiprocessing
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.artifacts import MessageRecord
from repro.runner.checkpoint import CheckpointStore, RunManifest
from repro.runner.executor import (
    InlineTransport,
    RunnerConfig,
    Scheduler,
    _worker_main,
)
from repro.runner.pool import WorkerPool
from repro.runner.retry import DeadLetter, RetryPolicy
from repro.runner.stats import RunningStats

#: progress(stats, completed, total) -> None, called for every record
#: that lands.
ProgressCallback = Callable[[RunningStats, int, int], None]

EXECUTORS = ("auto", "inline", "process")


def resolve_executor(executor: str, jobs: int) -> str:
    """The transport a run uses: ``auto`` is ``inline`` at ``jobs == 1``
    and ``process`` above; ``inline`` with ``jobs > 1`` is an error."""
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    if executor == "auto":
        return "inline" if jobs == 1 else "process"
    if executor == "inline" and jobs > 1:
        raise ValueError(
            f"the inline executor analyses in this process: it takes jobs=1, got {jobs}"
        )
    if executor == "process" and "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError(
            "the process executor forks workers that inherit this process's world, "
            "and this platform cannot fork; use the inline executor (jobs=1)"
        )
    return executor


@dataclass
class RunResult:
    """What a finished (or dead-letter-degraded) run produced."""

    #: Completed records in corpus order (dead-lettered indices absent).
    records: list[MessageRecord]
    stats: RunningStats
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: Indices skipped because the checkpoint already had them.
    resumed_indices: tuple[int, ...] = ()
    #: Transport that actually ran ('inline' | 'process').
    executor: str = "inline"
    #: True when a drain request (SIGINT/SIGTERM) stopped the run with
    #: work still pending; the manifest holds ``status: interrupted``
    #: and a bare ``resume`` continues byte-identically.
    interrupted: bool = False


class CorpusRunner:
    """Run a message corpus through the inline or process transport."""

    def __init__(
        self,
        box=None,
        jobs: int = 1,
        executor: str = "auto",
        config: RunnerConfig | None = None,
        retry_policy: RetryPolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        progress: ProgressCallback | None = None,
        batch_size: int | None = None,
        world=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.executor = resolve_executor(executor, jobs)
        if self.executor == "process" and config is None:
            raise ValueError("the process executor needs a RunnerConfig")
        if self.executor == "inline" and box is None:
            if world is None or config is None:
                raise ValueError(
                    "the inline executor needs a box (a live CrawlerBox), "
                    "or a world and a RunnerConfig to build one"
                )
            box = config.build(world)
        #: The live CrawlerBox the inline transport analyses on.
        self.box = box
        #: The world process workers inherit (generated from ``config``
        #: on first use when the caller has none).  This process never
        #: analyses on it, so a respawned worker inherits it untouched.
        self.world = world
        self.jobs = jobs
        #: The run's settings: what each process worker's box is built
        #: with and what the manifest records (inline runs analyse on
        #: ``box`` and read only its test-only ``fault`` spec).
        self.config = config
        self.retry_policy = retry_policy or RetryPolicy()
        self.checkpoint = checkpoint
        self.progress = progress
        #: Indices per dispatch to a process worker (None = auto).
        self.batch_size = batch_size

        #: Graceful-shutdown flag: once set, no new message starts;
        #: in-flight messages finish and checkpoint, then the run
        #: returns with ``interrupted=True``.
        self._drain = threading.Event()
        self._drained: list[int] = []
        #: The live run's transport (drain wakeups go through it).
        self._transport = None

    # ------------------------------------------------------------------
    def request_drain(self) -> bool:
        """Ask the run to stop gracefully (signal-handler safe).

        The message in flight finishes (its record checkpoints normally)
        and no further message starts; :meth:`run` then returns with
        ``interrupted=True`` and an ``interrupted`` manifest listing the
        drained indices.  Returns False if a drain was already in
        progress (the caller may then force-exit — the checkpoint is
        consistent at every line boundary).
        """
        first = not self._drain.is_set()
        self._drain.set()
        transport = self._transport
        if transport is not None and first:
            # The scheduler blocks on the transport (no poll interval),
            # so post an explicit wakeup for it to notice the flag.
            transport.wake()
        return first

    # ------------------------------------------------------------------
    def run(self, messages: list) -> RunResult:
        """Analyze ``messages``, resuming from the checkpoint if present."""
        total = len(messages)
        self._messages = messages
        self._records: dict[int, MessageRecord] = {}
        #: Worker-serialized records (process transport): index -> wire
        #: bytes, parsed into ``_records`` only once the run settles.
        self._wire: dict[int, bytes] = {}
        self._stats = RunningStats()
        self._dead: list[DeadLetter] = []
        self._fatal: BaseException | None = None

        resumed: set[int] = set()
        if self.checkpoint is not None:
            for record in self.checkpoint.load_records():
                if 0 <= record.message_index < total:
                    self._records[record.message_index] = record
                    self._stats.update(record)
                    resumed.add(record.message_index)

        pending = [index for index in range(total) if index not in resumed]
        self._total = total
        if self.checkpoint is not None:
            self.checkpoint.snapshot(self._manifest("running"))

        if pending:
            self._queue = collections.deque(pending)
            self._transport, batch = self._open_transport(len(pending))
            try:
                Scheduler(self, self._transport, batch).run()
            finally:
                self._transport = None
            if self._fatal is not None:
                if self.checkpoint is not None:
                    self.checkpoint.snapshot(self._manifest("failed"))
                    self.checkpoint.close()
                raise self._fatal
        if self._wire:
            # Materialize worker-serialized records exactly once, after
            # the hot loop: the parent never parsed them in flight.
            from repro.core.export import record_from_wire

            for index, wire in self._wire.items():
                self._records.setdefault(index, record_from_wire(wire))
            self._wire.clear()

        interrupted = self._drain.is_set() and (
            len(self._records) + len(self._dead) < total
        )
        if self.checkpoint is not None:
            self.checkpoint.finish(self._manifest("interrupted" if interrupted else "complete"))
        records = [self._records[index] for index in sorted(self._records)]
        return RunResult(
            records=records,
            stats=self._stats,
            dead_letters=sorted(self._dead, key=lambda letter: letter.index),
            resumed_indices=tuple(sorted(resumed)),
            executor=self.executor,
            interrupted=interrupted,
        )

    def _open_transport(self, pending: int):
        """(transport, indices per dispatch) for this run."""
        if self.executor == "inline":
            # One index per dispatch: each record lands (and a drain can
            # stop) after every message.
            fault = self.config.fault if self.config is not None else ""
            return InlineTransport(self.box, self._messages.__getitem__, fault), 1
        if self.world is None:
            self.world = self.config.generate_world()
        pool = WorkerPool(
            _worker_main,
            (self.config, self.world, self._messages),
            min(self.jobs, pending),
            name_prefix="repro-proc-worker",
        )
        batch = self.batch_size or max(1, min(16, pending // (self.jobs * 4) or 1))
        return pool, batch

    # ------------------------------------------------------------------
    # The scheduler owner protocol (see Scheduler), called from its loop
    # on this thread
    # ------------------------------------------------------------------
    def _next_batch(self, size: int) -> list[int] | None:
        """Up to ``size`` unanalysed indices, in corpus order."""
        queue = self._queue
        if not queue:
            return None
        return [queue.popleft() for _ in range(min(size, len(queue)))]

    def _land(self, index: int, wire: bytes, record: MessageRecord | None = None) -> None:
        """Land one finished record: append-bytes-and-ack.

        ``wire`` is the record's checkpoint line as it was rendered;
        ``record`` the live object when there is one (inline runs,
        quarantine), which is then kept instead of parsing ``wire``
        later.  The scheduler delivers each index once and has already
        counted its stats.
        """
        if record is not None:
            self._records[index] = record
        else:
            self._wire[index] = wire
        if self._drain.is_set():
            # In-flight work a graceful shutdown waited for; the
            # interrupted manifest lists these for the operator.
            self._drained.append(index)
        if self.checkpoint is not None:
            self.checkpoint.land(wire)
            if self.checkpoint.pending:
                # The disk refused a line past its bounded retry, so
                # continuing would only analyze messages whose records
                # cannot land.  Abort: every landed record is durable,
                # and a later ``resume`` continues from them.
                self._set_fatal(self.checkpoint.last_error)
                return
        if self.progress is not None:
            self.progress(self._stats, len(self._records) + len(self._wire), self._total)

    def _record_dead(
        self, index: int, attempts: int, error: BaseException, history: tuple[str, ...]
    ) -> None:
        if not self.retry_policy.is_transient(error):
            # Not hostile input but a pipeline bug: abort the run.
            self._set_fatal(error)
            return
        self._dead.append(DeadLetter(index, attempts, repr(error), history=history))
        self._stats.dead_lettered += 1

    def _absorb(self, shard: RunningStats) -> None:
        self._stats.absorb(shard)

    def _message_at(self, index: int):
        return self._messages[index]

    def _set_fatal(self, error: BaseException) -> None:
        if self._fatal is None:
            self._fatal = error

    # ------------------------------------------------------------------
    def _manifest(self, status: str) -> RunManifest:
        return RunManifest(
            config=self.config or RunnerConfig(),
            jobs=self.jobs,
            total_messages=self._total,
            completed=len(self._records) + len(self._wire),
            status=status,
            dead_letters=[letter.as_dict() for letter in self._dead],
            stats=self._stats.as_dict(),
            drained=sorted(self._drained) if status == "interrupted" else [],
        )

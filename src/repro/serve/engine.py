"""Persistent analysis engines: the runner's scheduler, fed forever.

A batch :class:`~repro.runner.runner.CorpusRunner` answers its
:class:`~repro.runner.executor.Scheduler`'s pulls from the corpus.  An
engine drives the same scheduler on its own thread for as long as the
daemon lives: it opens the transport once at startup, and answers each
pull — made whenever a worker is free — with a round-robin micro-batch
from its per-reporter :class:`~repro.serve.scheduler.FairScheduler`.
Session threads :meth:`~ProcessEngine.push` admitted jobs into that
queue and wake the engine; nothing else sits between a submission and
the worker that analyses it.

Either engine generates its world once, in the daemon, from the
:class:`~repro.runner.executor.RunnerConfig`
(:meth:`~repro.runner.executor.RunnerConfig.generate_world`):

- **process** (:class:`ProcessEngine`) — the batch ``_worker_main``
  loop on a :class:`~repro.runner.pool.WorkerPool`, fed ``eml-batch``
  commands: raw RFC-822 bytes ship to the worker, which ingests and
  analyzes them on its box over the world it inherited at fork.  The
  daemon never analyses on that world, so a respawned worker inherits
  it untouched.
- **inline** (:class:`InlineEngine`, ``--jobs 1``) — an
  :class:`~repro.runner.executor.InlineTransport` over a box on that
  world in the daemon's own process; it analyses the message the
  session already ingested instead of parsing it again.

The engine is the scheduler's owner and keeps the queued jobs and the
map from in-flight admission index to :class:`ServeJob`.  Retries, dead
letters, stall quarantine and respawn governance are the scheduler's,
as in a batch run, so an error that reaches the daemon is final.  Records arrive as
:class:`~repro.core.export.WireRecord` — the bytes the daemon appends
and splices into the verdict — and every stats delta goes through
``on_stats``.  After a fatal error (workers that cannot build their
box, an exhausted crash budget) every queued, in-flight and later
submission fails, then ``on_fatal`` runs, so the drain completes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.export import WireRecord
from repro.runner.executor import InlineTransport, RunnerConfig, Scheduler, _worker_main
from repro.runner.pool import WorkerPool
from repro.runner.retry import RetryPolicy
from repro.runner.runner import resolve_executor
from repro.runner.stats import RunningStats
from repro.serve.scheduler import FairScheduler


@dataclass
class ServeJob:
    """One admitted submission travelling through an engine."""

    #: The admission index — the daemon-wide message index this record
    #: is seeded from (and checkpointed under).
    index: int
    reporter: str
    #: Client-chosen correlation token, echoed on every response.
    client_id: str
    #: The raw RFC-822 submission (what process workers ingest).
    eml_bytes: bytes
    #: The session's parse of the same bytes (what the inline engine
    #: analyses).
    message: object = None
    #: The session to stream the verdict back to (None once it closed).
    session: object = None
    #: Wall clock when the submit line was read, for latency stats
    #: only — never records.
    submitted_at: float = 0.0
    #: Delivery attempts behind a final failure.
    attempts: int = 0


#: on_result(job, wire_record, error): exactly one of the pair is None.
OnResult = Callable[[ServeJob, WireRecord | None, BaseException | None], None]

#: on_stats(shard): a RunningStats delta (delivered records, retries).
OnStats = Callable[[RunningStats], None]


class ProcessEngine:
    """A daemon's :class:`~repro.runner.executor.Scheduler` owner; here
    over N worker processes.

    Submissions go out as ``eml-batch`` commands to whichever transport
    :meth:`_open` returns.  :meth:`stop` lets the scheduler run dry and
    waits for its thread, which stops the transport on its way out.
    """

    name = "process"

    def __init__(
        self,
        config: RunnerConfig,
        jobs: int,
        on_result: OnResult,
        batch_size: int = 8,
        on_fatal: Callable[[str], None] | None = None,
        on_stats: OnStats | None = None,
    ):
        self.on_result = on_result
        self.on_stats = on_stats or (lambda shard: None)
        self.on_fatal = on_fatal or (lambda reason: None)
        self.retry_policy = RetryPolicy()
        #: Never set: a daemon drains by finishing what it accepted.
        self._drain = threading.Event()
        self._fatal: BaseException | None = None
        #: Admitted jobs no worker has taken yet, per reporter.
        self.queue = FairScheduler()
        self._lock = threading.Lock()
        #: Jobs a worker has taken, by admission index.
        self._jobs: dict[int, ServeJob] = {}
        #: Set by stop(): pulls answer None once the queue is empty.
        self._closing = False
        #: Set once the scheduler returned; later pushes fail.
        self._stopped = False
        self._transport = self._open(config, jobs)
        self._scheduler = Scheduler(
            self, self._transport, max(1, batch_size), command=self._command
        )
        self._thread = threading.Thread(
            target=self._serve, name="repro-serve-engine", daemon=True
        )
        self._thread.start()

    def _open(self, config: RunnerConfig, jobs: int):
        # Submissions travel as bytes: the workers need no message list.
        return WorkerPool(
            _worker_main,
            (config, config.generate_world(), ()),
            jobs,
            name_prefix="repro-serve-worker",
        )

    def _command(self, indices: list[int]) -> tuple:
        return ("eml-batch", [(index, self._jobs[index].eml_bytes) for index in indices])

    # ------------------------------------------------------------------
    def push(self, job: ServeJob) -> None:
        """Queue one admitted job (session thread) and wake the engine."""
        self.queue.push(job.reporter, job)
        if self._stopped:
            self._fail_outstanding()
        else:
            self._transport.wake()

    def submit(self, jobs: list[ServeJob]) -> None:
        """Register ``jobs`` in flight: a worker is taking them."""
        with self._lock:
            for job in jobs:
                self._jobs[job.index] = job

    def stop(self) -> None:
        """Finish every queued job, then stop (the daemon's drain)."""
        self._closing = True
        self._transport.wake()
        self._thread.join()

    def _serve(self) -> None:
        try:
            self._scheduler.run()
        except BaseException as error:  # noqa: BLE001 - fails the daemon, not the thread
            self._set_fatal(error)
        self._stopped = True
        self._fail_outstanding()
        if self._fatal is not None:
            self.on_fatal(f"serve engine failed: {self._fatal}")

    def _fail_outstanding(self) -> None:
        queued = self.queue.next_batch(len(self.queue))
        with self._lock:
            jobs = [self._jobs.pop(index) for index in list(self._jobs)]
        for job in sorted(jobs + queued, key=lambda job: job.index):
            self.on_result(job, None, self._fatal)

    # ------------------------------------------------------------------
    # The scheduler owner protocol (called on the engine thread)
    # ------------------------------------------------------------------
    def _next_batch(self, size: int) -> list[int] | None:
        closing = self._closing
        jobs = self.queue.next_batch(size)
        if not jobs:
            return None if closing else []
        self.submit(jobs)
        return [job.index for job in jobs]

    def _absorb(self, shard: RunningStats) -> None:
        self.on_stats(shard)

    def _land(self, index: int, wire: bytes, record=None) -> None:
        with self._lock:
            job = self._jobs.pop(index)
        self.on_result(job, WireRecord(wire, record), None)

    def _record_dead(
        self, index: int, attempts: int, error: BaseException, history: tuple[str, ...]
    ) -> None:
        with self._lock:
            job = self._jobs.pop(index)
        job.attempts = attempts
        self.on_result(job, None, error)

    def _message_at(self, index: int):
        return self._jobs[index].message

    def _set_fatal(self, error: BaseException) -> None:
        if self._fatal is None:
            self._fatal = error


class InlineEngine(ProcessEngine):
    """``--jobs 1``: the same scheduler over an in-process transport.

    The box is built by the same :meth:`RunnerConfig.build` a process
    worker uses, and each submission is analysed as the session already
    ingested it (:attr:`ServeJob.message`).
    """

    name = "inline"

    def _open(self, config: RunnerConfig, jobs: int):
        box = config.build(config.generate_world())
        return InlineTransport(box, self._message_at, config.fault)


#: The name perfbench/launch.py patches for traced serve runs.
ThreadEngine = InlineEngine


def build_engine(
    executor: str,
    jobs: int,
    on_result: OnResult,
    config: RunnerConfig,
    batch_size: int = 8,
    on_fatal: Callable[[str], None] | None = None,
    on_stats: OnStats | None = None,
):
    """Resolve ``auto|inline|process`` into a live engine (``auto`` is
    inline at ``jobs == 1``, process above; see
    :func:`~repro.runner.runner.resolve_executor`)."""
    engine = InlineEngine if resolve_executor(executor, jobs) == "inline" else ProcessEngine
    return engine(
        config, jobs, on_result, batch_size=batch_size, on_fatal=on_fatal, on_stats=on_stats
    )

"""Persistent analysis engines: the runner's transports, fed forever.

The batch :class:`~repro.runner.runner.CorpusRunner` takes a complete
message list, runs it to exhaustion, and stops its transport.  A
daemon needs the same two transports but *persistent*: built once at
startup, fed micro-batches for as long as the daemon lives, and
drained on shutdown.  One event loop (:class:`ProcessEngine`) drives
either:

- **process** — the same ``_worker_main`` loop as batch runs, on a
  :class:`~repro.runner.pool.WorkerPool` that lives as long as the
  engine, using its service-mode ``eml-batch`` command: raw RFC-822
  bytes ship to the worker, which ingests and analyzes them against the
  world it rebuilt (once, at startup) from the picklable
  :class:`~repro.runner.executor.RunnerConfig`.
- **inline** (:class:`InlineEngine`, ``--jobs 1``) — an
  :class:`~repro.runner.executor.InlineTransport` over a world built
  from the same config in the daemon's own process; it analyses the
  message the session already ingested instead of parsing the bytes a
  second time.

Results travel the record data plane: each record arrives in its final
checkpoint wire form and the engine hands the daemon a
:class:`~repro.core.export.WireRecord` — bytes the daemon appends and
splices into the verdict response without re-serializing.  Every frame
carries a :class:`~repro.runner.stats.RunningStats` shard, delivered
through ``on_stats`` on both transports.

Engines are deliberately policy-free: they report each attempt's
outcome (a wire record or the raised exception) through one callback,
and the daemon owns retries, checkpointing, stats, and responses.  A
worker-process death surfaces as a
:class:`~repro.runner.executor.WorkerCrash` per in-flight submission —
the same transient the batch pool reports — and a replacement worker is
spawned.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.export import WireRecord
from repro.runner.executor import InlineTransport, RunnerConfig, WorkerCrash, _worker_main
from repro.runner.pool import RespawnGovernor, WorkerPool, unpack_frame
from repro.runner.runner import resolve_executor
from repro.runner.stats import RunningStats

#: Seconds to wait for the event loop to wind down on stop.
_STOP_GRACE = 5.0


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
    #: Wall clock at admission, for latency stats only — never records.
    submitted_at: float = 0.0
    attempts: int = 0
    error_history: list = field(default_factory=list)


#: on_result(job, wire_record, error): exactly one of the pair is None.
OnResult = Callable[[ServeJob, WireRecord | None, BaseException | None], None]

#: on_stats(shard): a worker-local RunningStats covering delivered records.
OnStats = Callable[[RunningStats], None]


class ProcessEngine:
    """The engine event loop; here over N worker processes.

    Submissions go out as ``eml-batch`` commands to whichever transport
    :meth:`_open` returns.  On a :class:`~repro.runner.pool.WorkerPool`,
    results arrive as batched wire frames, worker deaths as
    sentinel-driven ``worker-died`` messages (no liveness polling), and
    :meth:`stop` ends every worker.  A worker takes submissions once its
    ``ready`` arrives.
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
        self.on_stats = on_stats
        self.batch_size = max(1, batch_size)
        self.on_fatal = on_fatal or (lambda reason: None)
        self._lock = threading.Lock()
        self._inflight: dict[int, set[int]] = {}
        self._jobs: dict[int, ServeJob] = {}
        self._pending: list[ServeJob] = []
        self._stopping = threading.Event()
        #: Crash-loop protection: a worker target that dies on arrival
        #: backs off exponentially and eventually trips on_fatal instead
        #: of spinning the reap/respawn loop forever.
        self._governor = RespawnGovernor()
        self._pool = self._open(config, jobs)
        self._ready: set[int] = set()
        self._loop = threading.Thread(
            target=self._event_loop, name="repro-serve-engine", daemon=True
        )
        self._loop.start()

    def _open(self, config: RunnerConfig, jobs: int):
        return WorkerPool(_worker_main, config, jobs, name_prefix="repro-serve-worker")

    # ------------------------------------------------------------------
    def submit(self, jobs: list[ServeJob]) -> None:
        with self._lock:
            self._pending.extend(jobs)
            for job in jobs:
                self._jobs[job.index] = job
            self._dispatch_idle_locked()

    def _dispatch_idle_locked(self) -> None:
        for worker_id in sorted(self._ready):
            if not self._pending:
                return
            batch = self._pending[: self.batch_size]
            del self._pending[: len(batch)]
            self._ready.discard(worker_id)
            self._inflight[worker_id] = {job.index for job in batch}
            self._pool.send(
                worker_id, ("eml-batch", [(job.index, job.eml_bytes) for job in batch])
            )

    # ------------------------------------------------------------------
    def _event_loop(self) -> None:
        while not self._stopping.is_set():
            message = self._pool.get()
            kind, worker_id = message[0], message[1]
            if kind in ("ready", "batch-done"):
                with self._lock:
                    if worker_id in self._pool.workers:
                        self._ready.add(worker_id)
                    self._dispatch_idle_locked()
            elif kind == "frame":
                self._governor.note_progress()
                self._handle_frame(worker_id, *message[2:])
            elif kind == "fail":
                index, error = message[2], message[3]
                job = self._finish(worker_id, index)
                if job is not None:
                    self.on_result(job, None, error)
            elif kind == "worker-died":
                self._reap(worker_id)
            elif kind == "init-failed":
                self.on_fatal(
                    f"serve worker {worker_id} failed to initialize: {message[2]}"
                )
            # "wake" / "stall-tick": no-op wakeups

    def _handle_frame(self, worker_id: int, blob: bytes, shard, records=None) -> None:
        entries = unpack_frame(blob)
        delivered: list[tuple[ServeJob, WireRecord]] = []
        for position, (index, wire) in enumerate(entries):
            job = self._finish(worker_id, index)
            if job is not None:
                record = records[position] if records else None
                delivered.append((job, WireRecord(wire, record)))
        if self.on_stats is not None and delivered:
            if len(delivered) == len(entries):
                self.on_stats(shard)
            else:
                # Rare: an entry raced a crash-retry duplicate; recount
                # just the delivered records instead of the whole shard.
                recount = RunningStats()
                for _job, wire in delivered:
                    recount.update(wire.record)
                self.on_stats(recount)
        for job, wire in delivered:
            self.on_result(job, wire, None)

    def _finish(self, worker_id: int, index: int) -> ServeJob | None:
        with self._lock:
            self._inflight.get(worker_id, set()).discard(index)
            return self._jobs.pop(index, None)

    def _reap(self, worker_id: int) -> None:
        """A worker sentinel fired: charge its in-flight submissions."""
        with self._lock:
            if worker_id not in self._pool.workers:
                return  # already reaped
            process = self._pool.discard(worker_id)
            lost = sorted(self._inflight.pop(worker_id, set()))
            self._ready.discard(worker_id)
        exitcode = process.exitcode if process is not None else None
        self._governor.note_crash(exitcode)
        budget_exhausted = False
        if not self._stopping.is_set():
            delay = self._governor.permit()
            if delay is None:
                budget_exhausted = True
            else:
                if delay:
                    time.sleep(delay)
                with self._lock:
                    self._pool.spawn()
                    self._dispatch_idle_locked()
        crash = WorkerCrash(
            f"serve worker died (exit code {exitcode}) "
            f"with {len(lost)} submission(s) in flight"
        )
        for index in lost:
            with self._lock:
                job = self._jobs.pop(index, None)
            if job is not None:
                self.on_result(job, None, crash)
        if budget_exhausted:
            self.on_fatal(self._governor.diagnosis())

    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._stopping.set()
        self._pool.wake()
        self._loop.join(timeout=_STOP_GRACE)
        self._pool.stop()


class InlineEngine(ProcessEngine):
    """``--jobs 1``: the same event loop over an in-process transport.

    The world is built from the same :class:`RunnerConfig` a process
    worker would rebuild, and each submission is analysed as the
    session already ingested it (:attr:`ServeJob.message`).
    """

    name = "inline"

    def _open(self, config: RunnerConfig, jobs: int):
        _, box = config.build()
        return InlineTransport(box, lambda index: self._jobs[index].message, config.fault)


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

"""Execution: one scheduler over two transports.

Every record is a pure function of ``(seed material, message_index)``
(see :meth:`repro.core.pipeline.CrawlerBox.message_seed`), so how the
messages are spread over workers never changes an output byte.  There
is therefore one execution contract — send a batch of indices, receive
``frame`` (wire bytes plus a :class:`~repro.runner.stats.RunningStats`
shard), ``fail`` and ``batch-done`` messages — and one body that honours
it, :func:`analyse_batch`.  Two transports carry it:

- **process** — :class:`~repro.runner.pool.WorkerPool`: N forked
  worker processes that inherit the parent's world and message list
  (fork shares them, nothing is pickled or regenerated) and each build
  only their own box, :meth:`RunnerConfig.build`.  Corpus runs send
  message *indices*, ``repro serve`` sends raw RFC-822 bytes.  Workers
  render records to their final checkpoint wire form and ship batched
  frames, so the parent's hot loop is append-bytes-and-ack.  The only
  way past the GIL.
- **inline** — :class:`InlineTransport`: ``--jobs 1`` in the caller's
  own process, on the caller's live :class:`~repro.core.pipeline.
  CrawlerBox` and messages.  No fork and no pickling; each frame also
  carries the live record, so nothing is re-parsed.
  It runs one message per :meth:`InlineTransport.get`, so records land
  one at a time and a drain stops after the current message.

Both transports open with a ``ready`` message per worker, the only
handshake, and end with ``stop``.  :class:`Scheduler` is the one
driver and policy over both: batch dispatch (pulled from its owner
whenever a worker is free), isolated retries, dead letters, stall
quarantine, and drain — for a batch run
(:class:`~repro.runner.runner.CorpusRunner`) and for ``repro serve``
(:class:`~repro.serve.engine.ProcessEngine`) alike.  Worker lifecycle
(spawn, sentinel-based death detection, stall ticks) lives in
:mod:`repro.runner.pool`.
"""

from __future__ import annotations

import collections
import os
import queue
import time
from dataclasses import dataclass

from repro.runner.pool import ResultBatcher, RespawnGovernor, unpack_frame
from repro.runner.retry import TransientFault
from repro.runner.stats import RunningStats

#: Seconds of total silence (no results, no crashes, work outstanding)
#: before the scheduler reaps the stalled workers.  Far above any
#: single-message analysis time.
STALL_TIMEOUT = 60.0


class WorkerCrash(TransientFault):
    """A worker process died with in-flight jobs (treated as transient:
    the crash may be environmental, so the indices get retried on a
    fresh worker before being dead-lettered)."""


class WorkerStalled(TransientFault):
    """A worker produced no output past the stall timeout and was
    reaped.  Transient like a crash — the stall may be environmental —
    but once an index exhausts its attempts on stalls it is
    *quarantined* (a durable record naming the watchdog) rather than
    dead-lettered: a message that deterministically wedges workers must
    never re-enter the pool on the next resume."""


@dataclass(frozen=True)
class RunnerConfig:
    """A run's settings: the one picklable record the CLI resolves its
    flags into and the manifest persists.

    Carries seed *material*, never live objects.  The world is generated
    once per run, in the parent (:meth:`generate_world`); process workers
    inherit it and apply these settings to their own box (:meth:`build`).
    :meth:`manifest_items` / :meth:`from_manifest` own which settings a
    checkpoint manifest records, so a bare ``resume`` repeats them.
    """

    seed: int = 2024
    scale: float = 1.0
    #: Stage-plan selection (``None`` = every built-in stage); carried
    #: here so inline and process runs build identical plans — a
    #: ``--stages auth,parse`` triage run subsets in every worker.
    stages: tuple[str, ...] | None = None
    #: Test-only fault injection, applied where the message is analysed:
    #: ``"transient:<index>:<n>"`` raises TransientFault on the first
    #: ``n`` attempts at that message (both transports);
    #: ``"crash:<index>"`` hard-exits the worker process and
    #: ``"wedge:<index>"`` sleeps far past any stall timeout (a hard
    #: wedge the cooperative budget cannot interrupt), exercising the
    #: reap-to-quarantine path — process transport only.
    fault: str = ""
    #: Fault-injection profile for the simulated internet
    #: (``off | light | heavy | hostile``); every box installs the same
    #: seeded engine on its network (:meth:`build`), so process runs see
    #: the same deterministic weather as inline runs.
    faults: str = "off"
    fault_seed: int = 0
    #: Per-message work-unit budget override (None = pipeline default,
    #: 0 = unlimited); the CLI's ``--budget``.
    budget: int | None = None
    #: Ingestion-guard cap overrides as ``(key, value)`` pairs — the
    #: picklable form of the CLI's repeatable ``--guard-limit`` — so
    #: inline and process runs enforce identical structural limits
    #: (None/empty = the stock :class:`~repro.mail.guard.GuardLimits`).
    guard_limits: tuple[tuple[str, int], ...] | None = None
    #: Append a seeded hostile corpus (``repro.dataset.hostile``) after
    #: the generated corpus: ``"<seed>:<copies>"`` (:meth:`with_hostile`).
    hostile: str = ""
    #: Storage fault weather (``--storage-faults``/``--storage-fault-seed``).
    #: Parent-only: the parent writes every durable byte, so it alone
    #: installs the engine (:meth:`install_storage_faults`); workers
    #: never read these.
    storage_faults: str = "off"
    storage_fault_seed: int = 0

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------
    def manifest_items(self) -> dict:
        """The settings a checkpoint manifest records.

        Seed, scale and the network-fault pair are always written; the
        rest only when set, so default-path manifests keep the key set
        they had before each setting existed.  The test-only ``fault``
        is never written.
        """
        items = {
            "seed": self.seed,
            "scale": self.scale,
            "faults": self.faults,
            "fault_seed": self.fault_seed,
        }
        if self.storage_faults != "off":
            items["storage_faults"] = self.storage_faults
            items["storage_fault_seed"] = self.storage_fault_seed
        if self.budget is not None:
            items["budget"] = self.budget
        if self.guard_limits:
            items["guard_limits"] = [[key, value] for key, value in self.guard_limits]
        if self.stages is not None:
            items["stages"] = list(self.stages)
        if self.hostile:
            items["hostile"] = self.hostile
        return items

    @classmethod
    def from_manifest(cls, data: dict) -> RunnerConfig:
        """Read :meth:`manifest_items` back; a key an older manifest
        lacks takes the default its run implicitly had."""
        guard_limits = data.get("guard_limits")
        stages = data.get("stages")
        return cls(
            seed=data["seed"],
            scale=data["scale"],
            faults=data.get("faults", "off"),
            fault_seed=data.get("fault_seed", 0),
            storage_faults=data.get("storage_faults", "off"),
            storage_fault_seed=data.get("storage_fault_seed", 0),
            budget=data.get("budget"),
            guard_limits=tuple((str(key), int(value)) for key, value in guard_limits)
            if guard_limits else None,
            stages=tuple(stages) if stages is not None else None,
            hostile=data.get("hostile", ""),
        )

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def with_hostile(self, messages: list) -> list:
        """``messages`` followed by the seeded hostile corpus, if any."""
        if not self.hostile:
            return messages
        from repro.dataset.hostile import hostile_corpus

        hostile_seed, _, copies = self.hostile.partition(":")
        return messages + hostile_corpus(seed=int(hostile_seed), copies=int(copies or 1))

    def generate_world(self):
        """The world these settings' seed and scale generate.  Called
        once per run, in the parent: process workers inherit it."""
        from repro.dataset import CorpusGenerator

        return CorpusGenerator(seed=self.seed, scale=self.scale).generate().world

    def build(self, world):
        """The CrawlerBox for ``world`` under these settings: installs
        the network fault engine, then applies the stage plan and the
        budget/guard overrides.  Process workers (each on its own
        forked copy of the world) and inline runs both build through
        here, so every transport sees identical weather."""
        from repro.core import CrawlerBox
        from repro.core.pipeline import build_pipeline_config

        if self.faults != "off":
            from repro.web.faults import FaultEngine, fault_profile

            world.network.install_faults(
                FaultEngine(fault_profile(self.faults), seed=self.fault_seed)
            )
        return CrawlerBox.for_world(
            world,
            stages=self.stages,
            config=build_pipeline_config(self.budget, self.guard_limits),
        )

    def install_storage_faults(self, clear: bool = True) -> None:
        """Install this run's disk weather process-wide (parent only).

        With storage faults off, ``clear`` removes any engine a previous
        run left installed, so a batch run starts on a plain disk; the
        daemon passes ``clear=False`` so an engine its embedder
        installed stays in force.
        """
        from repro.storage.durable import install_storage_faults

        if self.storage_faults != "off":
            from repro.storage.faults import StorageFaultEngine, storage_fault_profile

            install_storage_faults(
                StorageFaultEngine(
                    storage_fault_profile(self.storage_faults),
                    seed=self.storage_fault_seed,
                )
            )
        elif clear:
            install_storage_faults(None)


# ----------------------------------------------------------------------
# The per-batch body both transports run
# ----------------------------------------------------------------------
class InjectedFault:
    """A parsed :attr:`RunnerConfig.fault` spec (test-only)."""

    def __init__(self, spec: str):
        parts = spec.split(":")
        if parts[0] not in ("crash", "transient", "wedge") or len(parts) < 2:
            raise ValueError(f"unknown fault spec {spec!r}")
        self.kind = parts[0]
        self.index = int(parts[1])
        self.times = int(parts[2]) if self.kind == "transient" and len(parts) > 2 else 1

    def fire(self, index: int, attempt: int, batcher: ResultBatcher) -> None:
        """Fire at ``index`` on its ``attempt``-th delivery, counted by the
        scheduler, so a retry that lands on another worker process
        counts on."""
        if index != self.index:
            return
        if self.kind == "wedge":
            # A hard wedge the cooperative budget cannot see (native-code
            # loop, deadlocked lock, ...): go silent until the parent's
            # stall watchdog reaps this process.  Batch-mates analyzed
            # before the wedge ship first — their records must land.
            batcher.flush()
            time.sleep(3600.0)
        if self.kind == "crash":
            # Simulate a hard worker death — but deliver any batch-mates
            # already analyzed and flush the result queue's feeder thread
            # first: exiting while it holds the queue's shared write lock
            # would deadlock every other worker's put() (an inherent
            # multiprocessing.Queue hazard the fault models death
            # *between* writes to avoid).
            batcher.flush()
            batcher.outq.close()
            batcher.outq.join_thread()
            os._exit(13)
        if attempt <= self.times:
            raise TransientFault(f"injected fault attempt {attempt}")


def analyse_batch(box, indices, message_at, batcher: ResultBatcher, fault=None, attempt=1):
    """Analyse ``indices`` in order and report each through ``batcher``.

    ``attempt`` is the dispatch's attempt number (see
    :meth:`Scheduler._dispatch`); only an injected fault reads it.

    ``message_at(index)`` turns an index into a message (a corpus slot,
    or an ingested ``.eml``); a raise anywhere — fetching the message,
    an injected fault, the analysis — becomes that index's ``fail``.
    A generator: it yields after every message, so the inline
    transport can hand each record back before starting the next.  The
    last step reports ``batch-done``.

    Each message's stage timings (``box.profiler``) go into the frame's
    stats shard next to its record, so they land only when the record
    does; a failed attempt's timings are dropped.
    """
    timings = box.profiler
    for index in indices:
        timings.stage_calls.clear()
        timings.stage_seconds.clear()
        try:
            if fault is not None:
                fault.fire(index, attempt, batcher)
            record, wire = box.analyze_to_wire(message_at(index), message_index=index)
        except BaseException as error:  # noqa: BLE001 - routed to the scheduler
            batcher.fail(index, error)
        else:
            batcher.add(index, wire, record, timings)
        yield
    batcher.done()


# ----------------------------------------------------------------------
# Process transport: the worker side
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, config: RunnerConfig, world, messages, inq, outq) -> None:
    """Worker process entry point: build a box on the inherited
    ``world``, then analyse batches of ``messages`` (or submitted
    ``.eml`` bytes) until told to stop."""
    try:
        box = config.build(world)
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        outq.put(("init-failed", worker_id, repr(error)))
        return
    outq.put(("ready", worker_id))
    fault = InjectedFault(config.fault) if config.fault else None
    batcher = ResultBatcher(outq, worker_id)
    while True:
        command = inq.get()
        if command[0] == "stop":
            outq.put(("stopped", worker_id))
            return
        if command[0] == "eml-batch":
            # Service-mode dispatch (``repro serve``): submissions are
            # raw RFC-822 bytes that arrived after the fork, so the
            # bytes themselves travel — the one case where message
            # content crosses the process boundary.  The record stays a
            # pure function of (seed material, index), exactly like
            # corpus messages.
            from repro.mail.ingest import ingest_eml_bytes

            raws = dict(command[1])
            indices, message_at = list(raws), lambda index: ingest_eml_bytes(raws[index])
        else:
            indices, message_at = command[1], messages.__getitem__
        for _ in analyse_batch(box, indices, message_at, batcher, fault, command[2]):
            pass


# ----------------------------------------------------------------------
# Inline transport
# ----------------------------------------------------------------------
class InlineTransport:
    """An in-process stand-in for :class:`~repro.runner.pool.WorkerPool`.

    One "worker" (id 0) that runs :func:`analyse_batch` on the caller's
    live ``box``, resolving indices through ``message_at``.  Commands
    queue on :meth:`send`; the work happens inside :meth:`get`, one
    message per call, on the caller's thread — so the messages that come
    back are exactly a worker's (``ready`` first, then ``frame``,
    ``fail``, ``batch-done``), in the same order, and the scheduler
    cannot tell the transports apart.  Frames carry the live records
    next to their wire bytes, and failures the original exception.

    Only ``transient:`` fault specs apply: ``crash:`` and ``wedge:``
    model a worker *process* dying or going silent, which an inline
    run has no watchdog to survive.
    """

    def __init__(self, box, message_at, fault: str = ""):
        self.fault = InjectedFault(fault) if fault else None
        if self.fault is not None and self.fault.kind != "transient":
            raise ValueError(
                f"fault spec {fault!r} needs a worker process; the inline "
                f"transport takes only transient:<index>[:<n>]"
            )
        self.box = box
        self.message_at = message_at
        self.workers = {0: None}
        self.stall_timeout: float | None = None
        self._commands: queue.SimpleQueue = queue.SimpleQueue()
        self._out: collections.deque = collections.deque([("ready", 0)])
        self._batch = None
        self._batcher = ResultBatcher(self, 0, flush_records=1, live=True)

    def put(self, message: tuple) -> None:
        """The batcher's output queue."""
        self._out.append(message)

    def send(self, worker_id: int, command: tuple) -> None:
        self._commands.put(command)

    def wake(self) -> None:
        """Post a wakeup (signal-handler safe: SimpleQueue.put is
        reentrant)."""
        self._commands.put(("wake",))

    def get(self, timeout: float | None = None) -> tuple:
        """Next message; analyses the next queued message to make one."""
        while not self._out:
            if self._batch is not None:
                try:
                    next(self._batch)
                except StopIteration:
                    self._batch = None
                continue
            command = self._commands.get(timeout=timeout)
            if command[0] == "batch":
                indices = command[1]
            elif command[0] == "eml-batch":
                # The caller already ingested these bytes; its
                # ``message_at`` hands back that parse.
                indices = [index for index, _ in command[1]]
            else:
                self._out.append(("wake", -1))
                continue
            self._batch = analyse_batch(
                self.box, indices, self.message_at, self._batcher, self.fault, command[2]
            )
        return self._out.popleft()

    def stop(self, graceful: bool = True) -> None:
        """End of the driver: nothing to release in-process."""


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
def stalled_record(message, index: int, attempts: int, stall_timeout: float, max_attempts: int):
    """The quarantined record for a message that hard-wedged a worker on
    every attempt: built from metadata (no analysis ever finished),
    every stage ``skipped``, and a reason naming the stall watchdog."""
    from repro.core.artifacts import MessageRecord
    from repro.core.outcomes import MessageCategory
    from repro.core.stages import registered_stage_names
    from repro.core.stages.base import StageStatus
    from repro.mail.guard import GuardViolation, QuarantineReport, triage_headers

    record = MessageRecord(
        message_index=index,
        delivered_at=message.delivered_at,
        recipient=message.recipient,
        sender_domain=message.sender_domain,
        ground_truth=dict(message.ground_truth),
    )
    record.category = MessageCategory.QUARANTINED
    record.stage_status = {name: StageStatus.SKIPPED for name in registered_stage_names()}
    record.quarantine = QuarantineReport(
        reason=f"worker-stall: analysis wedged {attempts} worker(s); "
        f"reaped after {stall_timeout:g}s of silence each",
        violations=(GuardViolation("stall-timeout", attempts, max_attempts),),
        headers=triage_headers(message),
    )
    return record


class Scheduler:
    """Drives one transport for one owner: a batch run or a daemon.

    Work is pulled, not pushed: whenever a worker is free, the scheduler
    asks its owner for up to ``batch`` indices, so the owner's queue
    order is the order workers see.  :meth:`run` returns once the owner
    has nothing more to give and nothing is outstanding, on a drain, or
    on a fatal error.  ``command(indices)`` builds one dispatch's
    transport command.  The transport owns workers and wakeups (a
    ``wake`` message re-offers idle workers a pull), the owner every
    outcome, and this class only policy: dispatch, isolated retries,
    dead letters, stall quarantine, respawn governance and drain.

    The owner protocol: ``retry_policy``; ``_drain`` (an Event: dispatch
    nothing new) and ``_fatal`` (the error ending the run, or None);
    ``_next_batch(size)``, which hands over up to ``size`` indices to
    dispatch — ``[]`` for "nothing now", ``None`` for "nothing ever
    again"; ``_absorb(shard)`` for every stats delta (a frame's shard, a
    retry's ``RunningStats(retried=1)``, a quarantine record's);
    ``_land(index, wire, record)`` once per index;
    ``_record_dead(index, attempts, error, history)`` for an index that
    failed for good, where the owner decides what a permanent error
    means (a batch run aborts, a daemon fails that submission);
    ``_message_at(index)`` and ``_set_fatal(error)``.
    """

    def __init__(self, owner, pool, batch: int, command=None):
        self.owner = owner
        self.pool = pool
        self.batch = batch
        self.command = command or (lambda indices: ("batch", indices))
        self.inflight: dict[int, set[int]] = {}
        self.idle: set[int] = set()
        #: Crash-loop protection: backoff between respawns, clean abort
        #: once the windowed crash budget is exhausted.
        self.governor = RespawnGovernor()
        #: Failed indices awaiting re-delivery; dispatched one per batch
        #: so a poison message cannot drag batch-mates into its crash
        #: accounting a second time.
        self.retries: collections.deque[int] = collections.deque()
        #: Pulled indices not yet landed or failed for good.
        self.remaining: set[int] = set()
        self.attempts: dict[int, int] = {}
        #: Per-index error reprs across attempts, for dead-letter history.
        self.attempt_errors: dict[int, list[str]] = {}
        #: The owner answered a pull with None: it has nothing more.
        self.exhausted = False

    # ------------------------------------------------------------------
    def run(self) -> None:
        owner, pool = self.owner, self.pool
        self.stall_timeout = pool.stall_timeout = STALL_TIMEOUT
        self._last_progress = time.monotonic()
        graceful = False
        try:
            while owner._fatal is None:
                if owner._drain.is_set():
                    # Graceful shutdown: nothing new dispatches (see
                    # _take); already-dispatched batches finish (their
                    # records land normally).
                    if not any(self.inflight.values()):
                        break
                elif self.exhausted and not self.remaining:
                    break
                self._handle(pool.get())
            graceful = owner._fatal is None
        finally:
            self._finish(graceful)

    # ------------------------------------------------------------------
    def _take(self) -> list[int]:
        """The next dispatch: a retry alone, else a pull from the owner."""
        owner = self.owner
        if owner._drain.is_set():
            return []
        if self.retries:
            return [self.retries.popleft()]  # isolated re-delivery
        if self.exhausted:
            return []
        indices = owner._next_batch(self.batch)
        if indices is None:
            self.exhausted = True
            return []
        if indices and not self.remaining:
            # Work after an idle spell restarts the stall clock.
            self._last_progress = time.monotonic()
        self.remaining.update(indices)
        return indices

    def _dispatch(self, worker_id: int) -> bool:
        """Give ``worker_id`` its next batch; False leaves it idle.

        The command carries the dispatch's attempt number: 1 for a
        fresh batch, ``n`` for the ``n``-th delivery of an isolated
        retry, whichever worker it lands on.
        """
        indices = self._take()
        if not indices:
            self.idle.add(worker_id)
            return False
        self.idle.discard(worker_id)
        self.inflight.setdefault(worker_id, set()).update(indices)
        attempt = self.attempts.get(indices[0], 0) + 1
        self.pool.send(worker_id, self.command(indices) + (attempt,))
        return True

    def _dispatch_idle(self) -> None:
        for worker_id in sorted(self.idle):
            if not self._dispatch(worker_id):
                return

    # ------------------------------------------------------------------
    def _handle(self, message: tuple) -> None:
        kind, worker_id = message[0], message[1]
        if kind == "frame":
            self._last_progress = time.monotonic()
            self.governor.note_progress()
            self._handle_frame(worker_id, *message[2:])
        elif kind == "batch-done":
            self._last_progress = time.monotonic()
            self.governor.note_progress()
            self._dispatch(worker_id)
        elif kind == "ready":
            self._last_progress = time.monotonic()
            if not self.inflight.get(worker_id):
                self._dispatch(worker_id)
        elif kind == "fail":
            self._last_progress = time.monotonic()
            index, error = message[2], message[3]
            self.inflight.get(worker_id, set()).discard(index)
            if index in self.remaining:
                self._count_failure(index, error)
                self._dispatch_idle()
        elif kind == "wake":
            self._dispatch_idle()
        elif kind == "worker-died":
            self._reap_worker(worker_id)
        elif kind == "stall-tick":
            if self.remaining and time.monotonic() - self._last_progress >= self.stall_timeout:
                self._reap_stalled()
        elif kind == "init-failed":
            self.owner._set_fatal(
                RuntimeError(f"worker {worker_id} failed to initialize: {message[2]}")
            )

    def _handle_frame(self, worker_id: int, blob: bytes, shard, records=None) -> None:
        """Land one result frame: absorb the shard, land each record.

        The shard covers exactly the frame's records, so it is absorbed
        wholesale iff every entry is fresh; on the rare duplicate
        delivery (crash-retry race) the fresh records are recounted
        instead, without their stage timings.  Inline frames carry the
        live ``records`` too, which the owner keeps instead of parsing.
        """
        owner = self.owner
        inflight = self.inflight.get(worker_id, set())
        entries = unpack_frame(blob)
        fresh = []
        for position, (index, wire) in enumerate(entries):
            inflight.discard(index)
            if index in self.remaining:
                self.remaining.discard(index)
                fresh.append((index, wire, records[position] if records else None))
        if len(fresh) < len(entries):
            from repro.core.export import record_from_wire

            shard = RunningStats()
            for _, wire, record in fresh:
                shard.update(record or record_from_wire(wire))
        if fresh:
            owner._absorb(shard)
        for index, wire, record in fresh:
            owner._land(index, wire, record)

    def _count_failure(self, index: int, error: BaseException) -> None:
        owner = self.owner
        policy = owner.retry_policy
        attempts = self.attempts[index] = self.attempts.get(index, 0) + 1
        self.attempt_errors.setdefault(index, []).append(repr(error))
        if policy.is_transient(error) and attempts < policy.max_attempts:
            owner._absorb(RunningStats(retried=1))
            self.retries.append(index)
            return
        self.remaining.discard(index)
        history = tuple(self.attempt_errors.pop(index))
        if isinstance(error, WorkerStalled):
            # Deterministic hard wedge: a durable quarantined record
            # (not a dead letter) so a resume never re-runs it.
            record = stalled_record(
                owner._message_at(index), index, attempts,
                self.stall_timeout, policy.max_attempts,
            )
            from repro.core.export import record_to_wire

            shard = RunningStats()
            shard.update(record)
            owner._absorb(shard)
            owner._land(index, record_to_wire(record), record)
        else:
            owner._record_dead(index, attempts, error, history)

    def _reap_worker(self, worker_id: int) -> None:
        """A process sentinel fired: charge the lost in-flight work."""
        if worker_id not in self.pool.workers:
            return  # reaped for a stall, already charged
        process = self.pool.discard(worker_id)
        lost = sorted(self.inflight.pop(worker_id, set()) & self.remaining)
        self.idle.discard(worker_id)
        exitcode = process.exitcode if process is not None else None
        crash = WorkerCrash(
            f"worker process died (exit code {exitcode}) "
            f"with {len(lost)} job(s) in flight"
        )
        for index in lost:
            self._count_failure(index, crash)
        self.governor.note_crash(exitcode)
        if self._should_respawn():
            delay = self.governor.permit()
            if delay is None:
                # A flapping worker target (dies on arrival, every
                # time): stop feeding the reap/respawn spin and fail
                # the run with the crash history instead.
                self.owner._set_fatal(RuntimeError(self.governor.diagnosis()))
            else:
                if delay:
                    time.sleep(delay)
                self.pool.spawn()  # replacement picks the retries up
        self._dispatch_idle()

    def _should_respawn(self) -> bool:
        owner = self.owner
        return bool(
            (self.remaining or not self.exhausted)
            and owner._fatal is None
            and not owner._drain.is_set()
        )

    def _reap_stalled(self) -> None:
        """Terminate workers that went silent with work in flight.

        The lost indices are charged a :class:`WorkerStalled` attempt
        each (retried on a fresh worker, quarantined once exhausted);
        replacements are spawned.  If the silence had *no* in-flight
        work behind it, scheduling itself is broken — that is a bug in
        this scheduler, not hostile input, and it raises.
        """
        stalled = [
            worker_id for worker_id, inflight in self.inflight.items() if inflight
        ]
        if not stalled:
            raise RuntimeError(
                f"process pool stalled: no worker output for "
                f"{self.stall_timeout:.0f}s with {len(self.remaining)} message(s) "
                f"outstanding and none in flight"
            )
        for worker_id in stalled:
            self.pool.discard(worker_id, terminate=True)
            lost = sorted(self.inflight.pop(worker_id, set()) & self.remaining)
            self.idle.discard(worker_id)
            stall = WorkerStalled(
                f"worker produced no output for {self.stall_timeout:g}s with "
                f"{len(lost)} job(s) in flight; reaped"
            )
            for index in lost:
                self._count_failure(index, stall)
            if self._should_respawn():
                self.pool.spawn()
        self._last_progress = time.monotonic()
        self._dispatch_idle()

    # ------------------------------------------------------------------
    def _finish(self, graceful: bool) -> None:
        """Stop the transport: after a clean run workers sign off;
        after a fatal one they are terminated (worker state is then
        suspect)."""
        self.pool.stop(graceful)

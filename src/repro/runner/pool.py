"""Process worker pools: lifecycle and result frames.

The process backend's scaling ceiling was never the analysis — it was
the plumbing around it: one pickled dict per message crossing the mp
queue, and a parent busy-polling ``outq.get`` at 250 ms.  This module
extracts that plumbing into one layer under the one driver,
:class:`~repro.runner.executor.Scheduler`, whichever of its owners
opened the pool — a batch ``run``/``resume`` or the serve daemon's
:class:`~repro.serve.engine.ProcessEngine`:

- **Result frames** — workers accumulate finished records as their
  final checkpoint wire bytes and ship *one* length-prefixed frame per
  flush (count/byte threshold or batch end), each carrying a worker-
  local :class:`~repro.runner.stats.RunningStats` shard, so queue round
  trips and parent-side stats work scale with frames, not messages.
- **Blocking gets + sentinel wakeups** — the parent blocks on the
  result queue; a watcher thread waits on worker *process sentinels*
  and posts ``worker-died`` / ``stall-tick`` wakeups into the same
  queue, and drivers post an explicit ``wake`` (new work to pull, a
  drain flag to notice).  No poll interval, no idle wakeups.

Workers are forked and inherit what their owner hands the pool — the
run's settings, its world and its message list — without pickling or
regenerating any of it: a run generates its world once, however many
workers it has, and a respawned worker inherits the same untouched world
(the parent of a process run never analyses).  A pool lives exactly as
long as the scheduler run that drives it: :meth:`WorkerPool.stop` ends
every worker before that run returns, and a worker whose parent died
without stopping it (SIGKILL) exits on its own.

The pool is mechanism only: the scheduler owns policy (dispatch,
retries, dead letters, quarantine).  Everything it consumes arrives
through :meth:`WorkerPool.get`;
:class:`~repro.runner.executor.InlineTransport` offers the same surface
in-process, so the scheduler runs unchanged on either.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as stdlib_queue
import signal
import struct
import threading
import time
from multiprocessing import connection as mp_connection

from repro.runner.stats import RunningStats

#: Seconds to wait for workers to acknowledge a stop and exit before
#: terminating them.
_STOP_GRACE = 5.0

#: Seconds the sentinel watcher sleeps between scans; bounds how stale a
#: death/stall wakeup can be, *not* how fast results flow (results wake
#: the parent instantly via the blocking get).
_WATCH_INTERVAL = 0.5


def _exit_with_parent() -> None:
    """Exit this worker as soon as its parent process dies.

    A SIGKILLed parent runs no cleanup, and ``daemon=True`` reaps
    children only on a normal exit, so a worker blocked on its command
    queue would wait forever.  A daemon thread waits on the parent's
    sentinel (a pipe the parent's death closes) and ends the process.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        mp_connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _worker_entry(target, *args):
    """Worker bootstrap: shed inherited signal dispositions, follow the
    parent's death, then run ``target(*args)``.

    Forked workers inherit the parent CLI's SIGINT/SIGTERM handlers —
    for ``repro serve`` that handler is ``daemon.request_shutdown()``
    on the worker's dead copy of the daemon, which swallows the SIGTERM
    that :meth:`WorkerPool.stop` sends, leaving an unstoppable worker
    that the interpreter's exit join then waits on forever.  Workers
    take orders over their command queue, never via signals: SIGTERM
    reverts to its default (so ``terminate()`` works) and SIGINT is
    ignored (a terminal Ctrl-C is delivered to the whole foreground
    process group; the parent coordinates the drain).
    """
    for signum, disposition in (
        (signal.SIGTERM, signal.SIG_DFL),
        (signal.SIGINT, signal.SIG_IGN),
    ):
        try:
            signal.signal(signum, disposition)
        except (ValueError, OSError):
            pass
    _exit_with_parent()
    target(*args)


# ----------------------------------------------------------------------
# Result frames
# ----------------------------------------------------------------------
#: Per-entry header: (message_index, wire_length), both unsigned 32-bit.
_FRAME_ENTRY = struct.Struct(">II")

#: Worker-side flush thresholds: a frame ships once it holds this many
#: records or this many payload bytes, and always at batch end.
FRAME_FLUSH_RECORDS = 32
FRAME_FLUSH_BYTES = 256 * 1024


def pack_frame(entries: list[tuple[int, bytes]]) -> bytes:
    """Concatenate ``(index, wire)`` entries into one framed blob."""
    parts = []
    for index, wire in entries:
        parts.append(_FRAME_ENTRY.pack(index, len(wire)))
        parts.append(wire)
    return b"".join(parts)


def unpack_frame(blob: bytes) -> list[tuple[int, bytes]]:
    """Inverse of :func:`pack_frame`; a truncated blob raises ValueError."""
    entries = []
    offset = 0
    header = _FRAME_ENTRY.size
    while offset < len(blob):
        if offset + header > len(blob):
            raise ValueError(f"frame truncated inside an entry header at byte {offset}")
        index, length = _FRAME_ENTRY.unpack_from(blob, offset)
        offset += header
        if offset + length > len(blob):
            raise ValueError(f"frame truncated inside entry {index} ({length} bytes)")
        entries.append((index, blob[offset : offset + length]))
        offset += length
    return entries


class ResultBatcher:
    """A worker's output channel.

    Collects ``(index, wire)`` pairs and folds each record, and its
    stage timings, into a local :class:`RunningStats` shard;
    :meth:`flush` ships one ``("frame", worker_id, blob, shard)``
    message.  The shard travels as
    the pickled object (never ``as_dict``, whose rounding would break
    manifest byte-identity) and covers exactly the frame's records, so
    the parent absorbs it iff every entry in the frame is fresh.
    :meth:`fail` and :meth:`done` flush first, keeping frame/fail
    ordering causal.

    ``live`` (the inline transport, same process as the parent) appends
    the records themselves to each frame and passes exceptions through
    unpickled.
    """

    def __init__(
        self,
        outq,
        worker_id: int,
        flush_records: int = FRAME_FLUSH_RECORDS,
        flush_bytes: int = FRAME_FLUSH_BYTES,
        live: bool = False,
    ):
        self.outq = outq
        self.worker_id = worker_id
        self.flush_records = flush_records
        self.flush_bytes = flush_bytes
        self.live = live
        self._entries: list[tuple[int, bytes]] = []
        self._records: list = []
        self._bytes = 0
        self._shard = RunningStats()

    def add(self, index: int, wire: bytes, record, timings) -> None:
        """Queue one record; ``timings`` is the box's
        :class:`~repro.runner.profile.StageProfiler` for this message."""
        self._entries.append((index, wire))
        if self.live:
            self._records.append(record)
        self._bytes += len(wire)
        shard = self._shard
        shard.update(record)
        shard.stage_calls.update(timings.stage_calls)
        shard.stage_seconds.update(timings.stage_seconds)
        if len(self._entries) >= self.flush_records or self._bytes >= self.flush_bytes:
            self.flush()

    def flush(self) -> None:
        if not self._entries:
            return
        frame = ("frame", self.worker_id, pack_frame(self._entries), self._shard)
        if self.live:
            frame += (self._records,)
            self._records = []
        self.outq.put(frame)
        self._entries = []
        self._bytes = 0
        self._shard = RunningStats()

    def fail(self, index: int, error: BaseException) -> None:
        self.flush()
        if not self.live:
            error = _portable_error(error)
        self.outq.put(("fail", self.worker_id, index, error))

    def done(self) -> None:
        self.flush()
        self.outq.put(("batch-done", self.worker_id))


def _portable_error(error: BaseException) -> BaseException:
    """The exception itself when picklable, else a repr-carrying stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(repr(error))


#: Crashes inside ``RESPAWN_WINDOW`` seconds past which respawning stops.
RESPAWN_BUDGET = 12
RESPAWN_WINDOW = 60.0
#: Backoff before the second consecutive crash's respawn, doubling per
#: further crash up to ``RESPAWN_MAX_DELAY`` seconds.
RESPAWN_BASE_DELAY = 0.05
RESPAWN_MAX_DELAY = 2.0


# ----------------------------------------------------------------------
# Host introspection
# ----------------------------------------------------------------------
class RespawnGovernor:
    """Crash-loop protection for worker respawns.

    An unconditional reap→respawn policy turns a worker target that
    dies on arrival (a bad native dependency, an OOM-killed cgroup, a
    corrupt world cache) into an infinite spawn spin that looks alive
    from the outside.  The scheduler consults the governor before every
    respawn:

    - :meth:`permit` returns the backoff delay to sleep before the
      replacement spawns — exponential in the current *consecutive*
      crash streak, so a genuinely flaky target costs little and a
      flapping one backs off hard;
    - once more than ``RESPAWN_BUDGET`` crashes land inside
      ``RESPAWN_WINDOW`` seconds,
      :meth:`permit` returns None and the scheduler converts the spin into
      a clean abort with :meth:`diagnosis` as the error text.

    Any sign of worker progress (a result frame, a finished batch)
    resets the streak via :meth:`note_progress`; the windowed budget
    keeps counting, so progress interleaved with crashes still exhausts
    it eventually.
    """

    def __init__(self):
        self._crashes: list[float] = []  # monotonic timestamps, windowed
        self._streak = 0
        self._exit_codes: list[int | None] = []

    def note_progress(self) -> None:
        self._streak = 0

    def note_crash(self, exitcode: int | None = None) -> None:
        now = time.monotonic()
        self._crashes.append(now)
        self._exit_codes.append(exitcode)
        cutoff = now - RESPAWN_WINDOW
        while self._crashes and self._crashes[0] < cutoff:
            self._crashes.pop(0)
        self._streak += 1

    def permit(self) -> float | None:
        """Backoff delay before the next respawn, or None when the
        crash budget is exhausted (caller must abort, not respawn)."""
        if len(self._crashes) > RESPAWN_BUDGET:
            return None
        if self._streak <= 1:
            return 0.0
        return min(RESPAWN_MAX_DELAY, RESPAWN_BASE_DELAY * (2 ** (self._streak - 2)))

    def diagnosis(self) -> str:
        tail = ", ".join(str(code) for code in self._exit_codes[-6:])
        return (
            f"worker crash budget exhausted: {len(self._crashes)} crashes "
            f"within {RESPAWN_WINDOW:g}s ({self._streak} consecutive; recent "
            f"exit codes: {tail}); the worker target is flapping — "
            f"aborting instead of respawning forever"
        )


def effective_cpu_count() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware).

    ``os.cpu_count()`` reports the machine; a containerized or
    ``taskset``-pinned run sees fewer.  Scaling verdicts use this so a
    one-core CI shard reports ``insufficient-cores`` instead of
    presenting oversubscription as a measurement.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Owns worker-process lifecycle for one run or daemon.

    Workers are forked and run ``target(worker_id, *args, inq, outq)``
    — the shared ``_worker_main`` loop.  ``args`` reach them by fork
    inheritance, never pickled, so they may hold live objects (a world
    holds closures that cannot be pickled).  Everything the workers (or
    the watcher) emit arrives via :meth:`get`:

    - worker messages: ``ready``, ``frame``, ``fail``, ``batch-done``,
      ``stopped``, ``init-failed``
    - watcher wakeups: ``("worker-died", worker_id)`` when a process
      sentinel fires, ``("stall-tick", -1)`` when no message has been
      consumed for ``stall_timeout`` seconds
    - driver wakeups: ``("wake", -1)`` from :meth:`wake` (new work, drains)
    """

    def __init__(self, target, args: tuple, jobs: int, name_prefix: str = "repro-pool"):
        self.target = target
        self.args = args
        self.name_prefix = name_prefix
        self.context = multiprocessing.get_context("fork")
        self.outq = self.context.Queue()
        self.workers: dict[int, object] = {}
        self.inqs: dict[int, object] = {}
        #: Seconds of total consumption silence before the watcher posts
        #: a ``stall-tick`` (None disables the watchdog; the scheduler
        #: sets ``executor.STALL_TIMEOUT`` when it runs).
        self.stall_timeout: float | None = None
        self._lock = threading.Lock()
        self._next_worker_id = 0
        self._last_traffic = time.monotonic()
        self._watch_stop = threading.Event()
        self._notified_dead: set[int] = set()
        for _ in range(max(1, jobs)):
            self.spawn()
        self._watcher = threading.Thread(
            target=self._watch, name=f"{name_prefix}-watch", daemon=True
        )
        self._watcher.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def spawn(self) -> int:
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            inq = self.context.Queue()
            process = self.context.Process(
                target=_worker_entry,
                args=(self.target, worker_id, *self.args, inq, self.outq),
                name=f"{self.name_prefix}-{worker_id}",
                daemon=True,
            )
            process.start()
            self.workers[worker_id] = process
            self.inqs[worker_id] = inq
        return worker_id

    def send(self, worker_id: int, command: tuple) -> None:
        inq = self.inqs.get(worker_id)
        if inq is not None:
            try:
                inq.put(command)
            except Exception:
                pass  # queue torn down under us; the sentinel will fire

    def discard(self, worker_id: int, terminate: bool = False):
        """Forget a worker (returns its process, or None if unknown)."""
        with self._lock:
            process = self.workers.pop(worker_id, None)
            inq = self.inqs.pop(worker_id, None)
        if inq is not None:
            inq.cancel_join_thread()
        if process is not None and terminate and process.is_alive():
            process.terminate()
            process.join(timeout=_STOP_GRACE)
        return process

    # ------------------------------------------------------------------
    # Message flow
    # ------------------------------------------------------------------
    def get(self, timeout: float | None = None):
        """Next message (blocking)."""
        if timeout is None:
            message = self.outq.get()
        else:
            message = self.outq.get(timeout=timeout)
        self._last_traffic = time.monotonic()
        return message

    def wake(self) -> None:
        """Post a wakeup (signal-handler/driver safe): unblocks a parent
        sitting in :meth:`get` so it can pull new work or notice a drain
        flag."""
        try:
            self.outq.put(("wake", -1))
        except Exception:
            pass

    def _watch(self) -> None:
        """Sentinel watcher: turns silent worker deaths and stalls into
        queue messages, so the parent never needs a poll interval."""
        while not self._watch_stop.is_set():
            with self._lock:
                sentinels = {
                    process.sentinel: worker_id
                    for worker_id, process in self.workers.items()
                    if worker_id not in self._notified_dead
                }
            if sentinels:
                try:
                    fired = mp_connection.wait(
                        list(sentinels), timeout=_WATCH_INTERVAL
                    )
                except OSError:
                    fired = []
                for sentinel in fired:
                    worker_id = sentinels[sentinel]
                    self._notified_dead.add(worker_id)
                    try:
                        self.outq.put(("worker-died", worker_id))
                    except Exception:
                        return  # queue torn down: the pool is stopping
            else:
                self._watch_stop.wait(_WATCH_INTERVAL)
            stall = self.stall_timeout
            if stall and time.monotonic() - self._last_traffic >= stall:
                self._last_traffic = time.monotonic()  # one tick per window
                try:
                    self.outq.put(("stall-tick", -1))
                except Exception:
                    return

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def stop(self, graceful: bool = True) -> None:
        """Stop every worker and the watcher.

        ``graceful`` sends ``stop``, waits for each worker's ``stopped``
        and then for its exit, all within ``_STOP_GRACE``, and
        terminates only the workers still alive after that; otherwise
        workers are terminated outright.
        """
        self._watch_stop.set()
        with self._lock:
            worker_ids = list(self.workers)
        if graceful:
            for worker_id in worker_ids:
                self.send(worker_id, ("stop",))
            stopped: set[int] = set()
            deadline = time.monotonic() + _STOP_GRACE
            while len(stopped) < len(worker_ids) and time.monotonic() < deadline:
                try:
                    message = self.outq.get(timeout=_WATCH_INTERVAL)
                except stdlib_queue.Empty:
                    if not any(
                        process.is_alive() for process in self.workers.values()
                    ):
                        break
                    continue
                if message[0] == "stopped":
                    stopped.add(message[1])
            # A worker's exit follows its ``stopped``: let it finish
            # within what is left of the grace before terminating it.
            for process in list(self.workers.values()):
                process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in list(self.workers.values()):
            if process.is_alive():
                process.terminate()
            process.join(timeout=_STOP_GRACE)
        self.outq.cancel_join_thread()
        for inq in self.inqs.values():
            inq.cancel_join_thread()
        self.workers.clear()
        self.inqs.clear()

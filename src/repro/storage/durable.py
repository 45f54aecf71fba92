"""The single choke point for every durable write in the pipeline.

Three primitives cover everything the pipeline persists:

- :class:`DurableFile` — an append-only handle (checkpoint records,
  dead letters) that truncates back to the pre-write offset when a
  write fails partway, so a retried append never leaves interior
  corruption behind;
- :func:`durable_write_text` — whole-file replacement via temp file +
  :func:`atomic_replace` (manifest, ``endpoint.json``, exports);
- :func:`atomic_replace` — ``os.replace`` followed by a *directory*
  fsync, because a rename alone is not power-loss durable: the new
  directory entry lives in the parent's data blocks.

Durability policy (``--durability`` on run/resume/serve)::

    none    never fsync — page cache only (benchmarks, scratch runs)
    batch   fsync the records file every FSYNC_BATCH_LINES appends and
            on close; fsync whole-file replacements (the default)
    always  additionally fsync after *every* append — at most one
            record is lost to power failure, at a per-append cost

All calls consult the process-wide :class:`StorageFaultEngine`
installed by :func:`install_storage_faults` (None = real disk only).
The engine lives here — not in RunnerConfig — because only the parent
process writes durable state; workers ship wire bytes back and never
touch the checkpoint.

``REPRO_KILL_AFTER_RECORDS=N`` arms the crash-soak hook: the process
SIGKILLs itself immediately after the N-th durable record append, a
deterministic record boundary the soak harness (``tests/test_crash_soak``
/ ``benchmarks/bench_crash_soak``) uses to shoot the pipeline at
reproducible instants.
"""

from __future__ import annotations

import errno
import os
import pathlib
import signal
import time

from repro.storage.faults import ShortWrite, StorageFaultEngine

__all__ = [
    "DEFAULT_DURABILITY",
    "DURABILITY_POLICIES",
    "FSYNC_BATCH_LINES",
    "RETRY_ATTEMPTS",
    "DurableFile",
    "atomic_replace",
    "durable_write_text",
    "fsync_dir",
    "install_storage_faults",
    "note_durable_record",
    "retrying",
    "storage_engine",
    "validate_durability",
]

DURABILITY_POLICIES = ("none", "batch", "always")
DEFAULT_DURABILITY = "batch"

#: Under ``batch`` durability, fsync the append handle every N lines.
FSYNC_BATCH_LINES = 256

#: errnos worth retrying: transient by construction (an ENOSPC episode
#: ends, an EIO may be a one-off) — everything else propagates at once.
_RETRYABLE_ERRNOS = frozenset({errno.ENOSPC, errno.EIO})

#: Bounded-retry attempts for transient disk errors: enough to outlast
#: a ``heavy`` full-disk episode (4 consecutive failing ops) with slack
#: for a stray fault on the recovery attempts; a genuinely stuck disk
#: still surfaces in well under a second.
RETRY_ATTEMPTS = 8

KILL_AFTER_ENV = "REPRO_KILL_AFTER_RECORDS"

_engine: StorageFaultEngine | None = None
_records_appended = 0


def install_storage_faults(engine: StorageFaultEngine | None) -> None:
    """Install (or clear, with None) the process-wide fault engine."""
    global _engine
    _engine = engine if engine is not None and engine.active else None


def storage_engine() -> StorageFaultEngine | None:
    return _engine


def validate_durability(policy: str) -> str:
    if policy not in DURABILITY_POLICIES:
        raise ValueError(
            f"unknown durability policy {policy!r}; "
            f"expected one of {DURABILITY_POLICIES}"
        )
    return policy


def note_durable_record() -> None:
    """Crash-soak hook: count record appends, SIGKILL self at the mark.

    SIGKILL (not sys.exit) so nothing — no atexit, no finally, no
    drain — gets to tidy up: the checkpoint is left exactly as the
    page cache holds it, which is the state resume must survive.
    """
    mark = os.environ.get(KILL_AFTER_ENV)
    if not mark:
        return
    global _records_appended
    _records_appended += 1
    if _records_appended >= int(mark):
        os.kill(os.getpid(), signal.SIGKILL)


def retrying(operation, attempts: int = RETRY_ATTEMPTS, base_delay: float = 0.002):
    """Run ``operation`` with bounded retry on transient disk errors.

    Retries only ENOSPC/EIO-class failures (injected faults carry real
    errnos, so both kinds are handled by one predicate), sleeping a
    short exponential backoff between attempts; the final failure
    propagates so callers can degrade instead of looping forever.
    """
    last: OSError | None = None
    for attempt in range(attempts):
        try:
            return operation()
        except OSError as err:
            if err.errno not in _RETRYABLE_ERRNOS:
                raise
            last = err
            if attempt + 1 < attempts:
                time.sleep(base_delay * (2**attempt))
    assert last is not None
    raise last


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def _checked_write(handle, path, data: bytes) -> None:
    """Write ``data`` through the fault engine (single write choke point)."""
    engine = _engine
    if engine is not None:
        fault = engine.write_fault(path, len(data))
        if fault is not None:
            error, prefix = fault
            if prefix:
                handle.write(data[:prefix])
                handle.flush()
            raise error
    handle.write(data)


def _checked_fsync(handle, path) -> None:
    engine = _engine
    if engine is not None:
        engine.check_fsync(path)
    os.fsync(handle.fileno())


def fsync_dir(directory) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    engine = _engine
    if engine is not None:
        engine.check_fsync(directory)
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platforms that cannot open directories (e.g. Windows)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace(temp, destination, durability: str = DEFAULT_DURABILITY) -> None:
    """``os.replace(temp, destination)`` made power-loss durable.

    A :class:`~repro.storage.faults.TornRename` fault fires *before*
    the rename and leaves ``temp`` in place — the crashed-between-
    write-and-rename state fsck must be able to diagnose.
    """
    destination = pathlib.Path(destination)
    engine = _engine
    if engine is not None:
        engine.check_replace(destination)
    os.replace(temp, destination)
    if durability != "none":
        fsync_dir(destination.parent)


def durable_write_text(
    path,
    text: str,
    durability: str = DEFAULT_DURABILITY,
    suffix: str = ".tmp",
) -> None:
    """Atomically replace ``path`` with ``text`` (temp + rename).

    The temp file is fsynced before the rename (unless ``none``), so
    the rename can never promote a half-written file; on any failure
    the destination is untouched and the temp is left behind for
    post-crash inspection.
    """
    path = pathlib.Path(path)
    temp = path.with_name(path.name + suffix)
    data = text.encode("utf-8")
    with temp.open("wb") as handle:
        _checked_write(handle, temp, data)
        handle.flush()
        if durability != "none":
            _checked_fsync(handle, temp)
    atomic_replace(temp, path, durability)


class DurableFile:
    """Append-only file with crash-consistent write semantics.

    The invariant: after any append — successful, failed, or retried —
    the file contains only whole lines previously appended, possibly
    plus one torn tail if the *process* died mid-write.  A failed
    append truncates back to the pre-write offset before the error
    propagates, so a bounded-retry caller re-appends onto a clean tail
    instead of concatenating a partial line with its retry (which
    would be interior corruption, not a tolerated torn tail).

    Not thread-safe: callers (CheckpointStore) hold their own lock.
    """

    def __init__(self, path, durability: str = DEFAULT_DURABILITY):
        self.path = pathlib.Path(path)
        self.durability = validate_durability(durability)
        self._handle = None
        self._unsynced = 0

    def _open(self):
        if self._handle is None:
            self._handle = self.path.open("ab")
        return self._handle

    def append(self, data: bytes) -> None:
        """Append ``data`` (one full line, newline included), flushed to
        the OS so a process kill loses at most the line being written."""
        handle = self._open()
        offset = handle.tell()
        try:
            _checked_write(handle, self.path, data)
            handle.flush()
        except OSError:
            self._rewind(handle, offset)
            raise
        if self.durability == "always":
            self._checked_sync(handle)
        elif self.durability == "batch":
            self._unsynced += 1
            if self._unsynced >= FSYNC_BATCH_LINES:
                self._checked_sync(handle)

    def _rewind(self, handle, offset: int) -> None:
        """Best-effort: drop the partial write so the tail stays clean."""
        try:
            handle.flush()
        except OSError:
            pass
        try:
            handle.seek(offset)
            handle.truncate(offset)
        except OSError:
            pass  # torn tail it is — scan() tolerates exactly this

    def truncate(self, offset: int) -> None:
        """Cut the file back to ``offset`` bytes (a torn tail the owner
        found); the next append writes from there."""
        handle = self._open()
        handle.flush()
        handle.truncate(offset)

    def _checked_sync(self, handle) -> None:
        self._unsynced = 0
        _checked_fsync(handle, self.path)

    def sync(self) -> None:
        """Force an fsync now (manifest boundaries, drain)."""
        if self.durability == "none":
            return
        handle = self._open()
        handle.flush()
        self._checked_sync(handle)

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            if self.durability != "none" and self._unsynced:
                try:
                    self._checked_sync(self._handle)
                except OSError:
                    pass  # closing anyway; data is flushed to the OS
        finally:
            self._handle.close()
            self._handle = None
            self._unsynced = 0

"""Deterministic fault injection for the filesystem under the pipeline.

The paper's CrawlerBox ingested user-reported mail for ten months; over
that horizon the disk under an always-on analysis daemon *will* fill,
flake, and lose power mid-rename.  A :class:`StorageFaultEngine`
installed on :mod:`repro.storage.durable` intercepts every durable write
at the single choke point and injects the failure taxonomy
crash-consistent storage code must survive:

===============  ====================================================
kind             observable effect
===============  ====================================================
``short_write``  only a prefix of the buffer reaches the file (EIO)
``enospc``       write fails with ENOSPC for a whole *episode* of
                 consecutive operations, then space returns
``eio``          write fails outright with EIO
``fsync_fail``   the data was written but fsync reports EIO
``torn_rename``  crash between temp-file write and ``os.replace``:
                 the temp survives, the rename never happens
===============  ====================================================

Decisions are keyed on ``(storage_fault_seed, path key, op, op_index)``
through :mod:`repro._chaos`, which owns the draw contract.  The *path
key* is the file's basename (``records.jsonl``, ``manifest.json`` …),
so the same seed produces the same weather in any checkpoint directory.
``op_index`` is a per-``(path key, op)`` counter kept by the engine:
the i-th append to ``records.jsonl`` rolls the same fault on every
replay of the same call sequence.
"""

from __future__ import annotations

import collections
import errno
import pathlib
from dataclasses import dataclass

from repro._chaos import ChaosProfile, keyed_rng, pick_band, preset

__all__ = [
    "STORAGE_FAULT_PROFILES",
    "FsyncFailure",
    "InjectedDiskFull",
    "InjectedIOError",
    "ShortWrite",
    "StorageFaultEngine",
    "StorageFaultError",
    "StorageFaultProfile",
    "TornRename",
    "storage_fault_profile",
]


class StorageFaultError(OSError):
    """Base class for injected storage faults.

    Subclasses :class:`OSError` with a genuine ``errno``, so code that
    handles real disk failures handles injected ones identically;
    ``kind`` names the taxonomy entry for telemetry.
    """

    kind = "storage-fault"
    fault_errno = errno.EIO

    def __init__(self, message: str):
        super().__init__(self.fault_errno, message)


class ShortWrite(StorageFaultError):
    """Only a prefix of the buffer reached the file before the error."""

    kind = "short_write"
    fault_errno = errno.EIO

    def __init__(self, message: str, written: int = 0):
        super().__init__(message)
        #: Bytes actually written before the failure surfaced.
        self.written = written


class InjectedDiskFull(StorageFaultError):
    kind = "enospc"
    fault_errno = errno.ENOSPC


class InjectedIOError(StorageFaultError):
    kind = "eio"
    fault_errno = errno.EIO


class FsyncFailure(StorageFaultError):
    """The write landed in the page cache but fsync reported failure."""

    kind = "fsync_fail"
    fault_errno = errno.EIO


class TornRename(StorageFaultError):
    """Simulated crash between temp-file write and atomic rename."""

    kind = "torn_rename"
    fault_errno = errno.EIO


@dataclass(frozen=True)
class StorageFaultProfile(ChaosProfile):
    """Per-operation fault rates (independent probabilities per op).

    Write-phase kinds (eio / short write) share one roll per write.
    ``enospc`` is *episodic*: one firing marks the start of a full-disk
    episode lasting ``enospc_run_length`` consecutive writes to that
    file, after which space "returns" for at least one write — exactly
    the failure shape a degraded serve daemon must ride out and recover
    from.  Episodes never chain, so a bounded retry longer than the run
    length outlasts any of them.
    """

    short_write: float = 0.0
    enospc: float = 0.0
    eio: float = 0.0
    fsync_fail: float = 0.0
    torn_rename: float = 0.0
    #: Consecutive ops ENOSPC persists for once an episode starts.
    enospc_run_length: int = 4

    RATE_FIELDS = (
        "short_write",
        "enospc",
        "eio",
        "fsync_fail",
        "torn_rename",
    )


#: The CLI presets (``--storage-faults {off,light,heavy,hostile}``).
STORAGE_FAULT_PROFILES: dict[str, StorageFaultProfile] = {
    "off": StorageFaultProfile(name="off"),
    "light": StorageFaultProfile(
        name="light",
        short_write=0.005,
        enospc=0.002,
        eio=0.002,
        fsync_fail=0.002,
        torn_rename=0.005,
        enospc_run_length=3,
    ),
    "heavy": StorageFaultProfile(
        name="heavy",
        short_write=0.02,
        enospc=0.01,
        eio=0.01,
        fsync_fail=0.01,
        torn_rename=0.02,
        enospc_run_length=4,
    ),
    "hostile": StorageFaultProfile(
        name="hostile",
        short_write=0.05,
        enospc=0.03,
        eio=0.02,
        fsync_fail=0.03,
        torn_rename=0.05,
        enospc_run_length=6,
    ),
}


def storage_fault_profile(name: str) -> StorageFaultProfile:
    """Look up a preset by name (``off``/``light``/``heavy``/``hostile``)."""
    return preset(STORAGE_FAULT_PROFILES, name, "storage fault")


class StorageFaultEngine:
    """Seeded fault scheduler for the durable-write layer.

    The mutable state is the per-``(path key, op)`` operation counter —
    the storage analogue of the retry ``attempt`` ordinal the web engine
    receives from its caller — and where each file's last full-disk
    episode ends, a function of the earlier ops.  Given the same seed
    and the same sequence of durable operations, every replay injects
    the same faults; a *retry* of a failed operation advances the
    counter and re-rolls, which is what lets bounded-retry loops ride
    out an ENOSPC episode instead of replaying the same failure forever.
    """

    def __init__(self, profile: StorageFaultProfile | None = None, seed: int = 0):
        self.profile = profile or STORAGE_FAULT_PROFILES["off"]
        self.seed = seed
        #: (path key, op) -> next op_index.
        self._op_counts: dict[tuple[str, str], int] = {}
        #: path key -> write op_index the last full-disk episode ends at
        #: (exclusive).
        self._enospc_ends: dict[str, int] = {}
        #: Telemetry: fault kind -> times injected.
        self.injected: collections.Counter[str] = collections.Counter()

    @property
    def active(self) -> bool:
        return self.profile.active

    # ------------------------------------------------------------------
    # The deterministic schedule
    # ------------------------------------------------------------------
    @staticmethod
    def path_key(path) -> str:
        """Basename, so weather reproduces across checkpoint dirs."""
        return pathlib.PurePath(path).name

    def _next_index(self, key: str, op: str) -> int:
        slot = (key, op)
        op_index = self._op_counts.get(slot, 0)
        self._op_counts[slot] = op_index + 1
        return op_index

    def _enospc_active(self, key: str, op_index: int) -> bool:
        """True when write ``op_index`` falls inside a full-disk episode.

        An episode *starts* at an index whose per-index roll fires and
        covers ``enospc_run_length`` writes.  A roll inside an episode,
        or on the write right after it, is ignored: space returns for
        at least one write, so episodes never overlap or chain.  Called
        once per write, in ``op_index`` order.
        """
        rate = self.profile.enospc
        if rate <= 0.0:
            return False
        end = self._enospc_ends.get(key)
        if end is not None and op_index <= end:
            return op_index < end
        if keyed_rng(self.seed, key, "enospc", op_index).random() < rate:
            self._enospc_ends[key] = op_index + max(1, self.profile.enospc_run_length)
            return True
        return False

    # ------------------------------------------------------------------
    # Interception points (called by repro.storage.durable)
    # ------------------------------------------------------------------
    def write_fault(
        self, path, nbytes: int
    ) -> tuple[StorageFaultError, int] | None:
        """Decide the fate of one write of ``nbytes`` to ``path``.

        Returns None (write proceeds untouched) or ``(error, prefix)``:
        the caller must write exactly ``prefix`` bytes of the buffer
        and then raise ``error``.  ENOSPC and EIO fire before any byte
        lands; a short write lands a deterministic strict prefix.
        """
        if not self.profile.active:
            return None
        key = self.path_key(path)
        op_index = self._next_index(key, "write")
        if self._enospc_active(key, op_index):
            self.injected["enospc"] += 1
            return InjectedDiskFull(f"{key}: no space left on device (injected)"), 0
        rng = keyed_rng(self.seed, key, "write", op_index)
        kind = pick_band(rng.random(), self.profile.bands("eio", "short_write"))
        if kind is not None:
            self.injected[kind] += 1
        if kind == "eio":
            return InjectedIOError(f"{key}: I/O error (injected)"), 0
        if kind == "short_write":
            prefix = rng.randrange(max(1, nbytes)) if nbytes else 0
            return (
                ShortWrite(
                    f"{key}: short write, {prefix}/{nbytes} bytes (injected)",
                    written=prefix,
                ),
                prefix,
            )
        return None

    def check_fsync(self, path) -> None:
        """Raise :class:`FsyncFailure` when this fsync is scheduled to fail."""
        if self.profile.fsync_fail <= 0.0:
            return
        key = self.path_key(path)
        op_index = self._next_index(key, "fsync")
        if keyed_rng(self.seed, key, "fsync", op_index).random() < self.profile.fsync_fail:
            self.injected["fsync_fail"] += 1
            raise FsyncFailure(f"{key}: fsync failed (injected)")

    def check_replace(self, path) -> None:
        """Raise :class:`TornRename` when this rename is scheduled to
        "crash" — the caller must leave the temp file in place."""
        if self.profile.torn_rename <= 0.0:
            return
        key = self.path_key(path)
        op_index = self._next_index(key, "replace")
        if keyed_rng(self.seed, key, "replace", op_index).random() < self.profile.torn_rename:
            self.injected["torn_rename"] += 1
            raise TornRename(f"{key}: crashed between write and rename (injected)")

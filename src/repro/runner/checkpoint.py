"""Durable run state: an append-only JSONL record store + a manifest.

Layout of a checkpoint directory::

    <checkpoint>/
        records.jsonl   one serialized MessageRecord per line, written
                        in completion order (NOT message order)
        manifest.json   run settings (a RunnerConfig), jobs, and
                        progress (total / completed / dead letters)

Records reuse the exact serialization of :mod:`repro.core.export`, so a
checkpoint can be promoted to the monolithic artifact format (or the
Section V statistics recomputed) without re-crawling anything.

One rule serves both owners, a batch run and the ``repro serve``
daemon.  :meth:`CheckpointStore.land` appends each line in order,
flushed so a kill loses at most the line being written; a line the disk
refuses past its bounded retry is parked, never dropped, and the
failure counted.  The store counts the lines ``records.jsonl`` holds:
:meth:`~CheckpointStore.scan` sets the count from what it read, each
line that lands adds one, and :meth:`~CheckpointStore.compact` sets it
to what it wrote.  ``snapshot`` writes a best-effort progress manifest.
``finish`` lands what is parked, syncs the records and only then writes
the terminal manifest.  The owner decides what a failure means: a batch
run aborts on a parked line, the daemon degrades and then sheds.

Line format (v2): every appended line carries a CRC32 suffix ::

    {"message_index":17,...}\t#crc32=9f3a1c02

The separator is a literal TAB — impossible inside the compact JSON
payload (``json.dumps`` escapes control characters) — so the suffix is
unambiguous.  Lines without a suffix are v1 (pre-CRC checkpoints) and
remain fully readable.  The checksum lets :meth:`CheckpointStore.scan`
distinguish two failure modes that look identical to a plain JSON
parse:

- **torn tail** — the *final* line is incomplete because the writer was
  killed mid-append.  Expected and tolerated: the interrupted record is
  simply re-analyzed on resume.  Before its first append after opening,
  the store ends the file on a newline (:meth:`CheckpointStore.land`):
  it cuts a torn tail back to the byte after the last newline, or
  terminates a final line that is intact but lost only its newline, so
  the next line never glues onto the torn bytes.
- **interior corruption** — a non-final line fails its CRC or does not
  parse (bit rot, truncation followed by further appends, hostile
  editing).  Silent data loss if ignored: resume would re-analyze the
  missing index (best case) or ``load_records`` would silently drop a
  completed result.  ``scan`` reports these; ``repro fsck`` (see
  :mod:`repro.cli`) validates, salvages intact lines to a repaired
  checkpoint, and prints exactly what was lost.

:meth:`CheckpointStore.scan` is the only reader of ``records.jsonl``
and states the one validity rule: a line is intact only if its CRC
matches (or it is v1), it parses to a JSON object, and its
``message_index`` is an integer.  ``fsck``, ``resume``
(:meth:`~CheckpointStore.load_records`), :meth:`~CheckpointStore.compact`
and :meth:`~CheckpointStore.salvage_to` all take its answer, so they
agree on every line; compaction and salvage write the same bytes.
"""

from __future__ import annotations

import collections
import json
import pathlib
import threading
from dataclasses import dataclass, field

from repro.core.artifacts import MessageRecord
from repro.core.export import (
    CRC_SEPARATOR_BYTES as _CRC_SEPARATOR_BYTES,
)
from repro.core.export import (
    CRC_SEPARATOR as _CRC_SEPARATOR,
)
from repro.core.export import (
    crc_suffix as _crc_suffix,
)
from repro.core.export import (
    encode_record_line,
    record_from_dict,
    record_to_line,
    record_to_wire,
)
from repro.runner.executor import RunnerConfig
from repro.storage.durable import (
    DEFAULT_DURABILITY,
    DurableFile,
    durable_write_text,
    note_durable_record,
    retrying,
    validate_durability,
)

MANIFEST_VERSION = 1

#: Line-format generation written by :meth:`CheckpointStore.append`.
#: v1 = bare compact JSON; v2 = JSON + TAB + ``#crc32=<8 hex digits>``.
#: The framing primitives themselves (separator, CRC, encoder) live in
#: :mod:`repro.core.export` so workers can render records to their
#: final wire bytes; ``encode_record_line`` is re-exported here.
RECORDS_FORMAT_VERSION = 2


class ManifestCorrupt(ValueError):
    """``manifest.json`` exists but does not parse (torn write, bit rot).

    Carries an actionable hint instead of a raw ``JSONDecodeError`` so
    ``resume``/``fsck`` can tell the operator what to do next.
    """

    def __init__(self, path: pathlib.Path, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(
            f"{path} is torn or corrupt ({reason}); run "
            f"`repro fsck {path.parent} --repair <dest>` to salvage the "
            f"intact records, then resume the repaired checkpoint"
        )


def parse_record_line(line: str) -> tuple[dict | None, str | None]:
    """Decode one checkpoint line -> ``(data, issue)``.

    Exactly one of the pair is None: ``data`` is the parsed record dict
    for a valid line (v1 or v2), ``issue`` a short machine-readable
    defect kind (``crc-mismatch`` | ``bad-json``) otherwise.
    """
    payload, separator, crc = line.rpartition(_CRC_SEPARATOR)
    if separator:
        if _crc_suffix(payload) != crc:
            return None, "crc-mismatch"
        source = payload
    else:
        source = line  # v1 line from a pre-CRC checkpoint
    try:
        return json.loads(source), None
    except (ValueError, RecursionError):
        # ValueError covers JSONDecodeError and over-long integers.
        return None, "bad-json"


def read_record_line(chunk: bytes) -> tuple[str | None, dict | None, str | None]:
    """The one validity rule for a ``records.jsonl`` line -> ``(text, data, issue)``.

    ``text`` is the stripped decoded line (None when it is not UTF-8,
    issue ``bad-encoding``).  ``data`` is the record dict of an intact
    line: its CRC matches (or it is v1), it parses to a JSON object and
    its ``message_index`` is an integer.  Otherwise ``issue`` names the
    defect (``crc-mismatch`` | ``bad-json`` | ``missing-index``); a blank
    line has neither data nor issue.
    """
    try:
        text = chunk.decode("utf-8").strip()
    except UnicodeDecodeError:
        return None, None, "bad-encoding"
    if not text:
        return text, None, None
    data, issue = parse_record_line(text)
    if issue is not None:
        return text, None, issue
    index = data.get("message_index") if isinstance(data, dict) else None
    if type(index) is not int:
        return text, None, "missing-index"
    return text, data, None


@dataclass(frozen=True)
class LineIssue:
    """One defective line found by :meth:`CheckpointStore.scan`."""

    line_number: int  # 1-based position in records.jsonl
    kind: str  # 'crc-mismatch' | 'bad-json' | 'bad-encoding' | 'missing-index'
    detail: str = ""
    #: True for the expected kill-mid-append artifact: the *final* line
    #: failed to decode.  Tolerated (the record re-runs on resume);
    #: everything else is interior corruption.
    torn_tail: bool = False


@dataclass
class CheckpointScan:
    """Full integrity pass over ``records.jsonl``."""

    #: Every intact line's record dict, in file order (duplicates kept).
    entries: list[dict] = field(default_factory=list)
    issues: list[LineIssue] = field(default_factory=list)
    total_lines: int = 0
    #: Message index -> the verbatim JSON payload of its newest intact
    #: line (a v2 line without its CRC suffix, or the whole v1 line).
    payloads: dict[int, str] = field(default_factory=dict)

    @property
    def corruption(self) -> list[LineIssue]:
        """Issues that are NOT the tolerated torn tail."""
        return [issue for issue in self.issues if not issue.torn_tail]

    @property
    def indices(self) -> set[int]:
        return set(self.payloads)


@dataclass(frozen=True)
class CompactionResult:
    """What one :meth:`CheckpointStore.compact` pass did."""

    lines_before: int
    lines_after: int
    #: Superseded appends dropped (an older record for a message index
    #: that was appended again later — last append wins).
    duplicates_dropped: int
    #: Defective lines dropped (CRC mismatch, bad JSON, bad encoding,
    #: missing index) — the compacted file is ``fsck``-clean.
    corrupt_dropped: int
    #: Oldest-index records dropped by a ``retain`` cap (0 = no cap hit).
    retired: int
    bytes_before: int
    bytes_after: int

    @property
    def reclaimed_bytes(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


@dataclass
class RunManifest:
    """Everything needed to reconstruct and resume a run."""

    #: The run's settings; :class:`RunnerConfig` decides which of them
    #: the manifest records and how older manifests read back.
    config: RunnerConfig = field(default_factory=RunnerConfig)
    jobs: int = 1
    total_messages: int = 0
    completed: int = 0
    #: Batch lifecycle: 'running' | 'complete' | 'failed' | 'interrupted'.
    #: Service lifecycle (``repro serve``): 'serving' while the daemon is
    #: live, 'stopped' after a clean drain — distinct states so a daemon
    #: restart is distinguishable from an interrupted batch run (a bare
    #: ``resume`` on either service state is an actionable error).
    status: str = "running"
    dead_letters: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    #: Message indices checkpointed *after* a drain was requested — the
    #: in-flight work a graceful shutdown waited for.  Only populated
    #: when ``status == 'interrupted'``.
    drained: list[int] = field(default_factory=list)
    #: Service-mode state (``repro serve`` only): submission counters,
    #: the next message index, and the admission-controller snapshot a
    #: restarted daemon restores so replaying the remaining transcript
    #: sheds and accepts exactly as an uninterrupted daemon would.
    #: None for batch runs — the key is omitted so batch manifests stay
    #: byte-identical to pre-service ones.
    service: dict | None = None
    manifest_version: int = MANIFEST_VERSION

    def as_dict(self) -> dict:
        data = {
            "manifest_version": self.manifest_version,
            **self.config.manifest_items(),
            "jobs": self.jobs,
            "total_messages": self.total_messages,
            "completed": self.completed,
            "status": self.status,
            "dead_letters": self.dead_letters,
            "stats": self.stats,
        }
        # Optional keys are emitted only when they carry information so
        # pre-existing manifests' key sets are preserved byte-for-byte.
        if self.drained:
            data["drained"] = list(self.drained)
        if self.service is not None:
            data["service"] = self.service
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        return cls(
            config=RunnerConfig.from_manifest(data),
            jobs=data["jobs"],
            total_messages=data["total_messages"],
            completed=data["completed"],
            status=data["status"],
            dead_letters=list(data["dead_letters"]),
            stats=dict(data["stats"]),
            drained=list(data.get("drained") or ()),
            service=data.get("service"),
        )

    @property
    def is_service(self) -> bool:
        """True when this checkpoint belongs to a ``repro serve`` daemon."""
        return self.service is not None or self.status in ("serving", "stopped")


class CheckpointStore:
    """One run's durable state under a single directory."""

    RECORDS_NAME = "records.jsonl"
    MANIFEST_NAME = "manifest.json"

    #: Temp-file name left behind when a compaction pass crashes (or a
    #: torn-rename fault fires) — kept for post-crash inspection; the
    #: live records file is never half-written.
    COMPACT_TMP_SUFFIX = ".compact.tmp"

    def __init__(
        self,
        directory: str | pathlib.Path,
        crc: bool = True,
        durability: str = DEFAULT_DURABILITY,
    ):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.records_path = self.directory / self.RECORDS_NAME
        self.manifest_path = self.directory / self.MANIFEST_NAME
        #: Write v2 CRC-suffixed lines (readers accept both formats
        #: regardless); ``crc=False`` exists for writing v1 fixtures
        #: and for overhead benchmarking.
        self.crc = crc
        self.durability = validate_durability(durability)
        #: Reentrant: :meth:`land` holds it around :meth:`append_wire`.
        self._lock = threading.RLock()
        self._durable = DurableFile(self.records_path, durability=durability)
        #: Lines in records.jsonl, as of the last scan, landed line or
        #: compaction.
        self.lines = 0
        # Record health: lines the disk refused (see land), oldest
        # first, and the failures behind them.  The store only counts;
        # its owner decides what a failure means.
        self._parked: collections.deque[bytes] = collections.deque()
        self.failures = 0  # cumulative failed appends, compactions, manifests
        self.failure_streak = 0  # consecutive failures
        #: Longest streak since the store was last healthy (0 = healthy).
        self.worst_streak = 0
        self.recoveries = 0
        self.last_error: OSError | None = None
        #: Set once the file is known to end on a newline (see
        #: _end_on_newline); torn or unterminated tails repaired so far.
        self._tail_settled = False
        self.tail_repairs = 0

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def append(self, record: MessageRecord) -> None:
        """Append one finished record, flushed so a kill loses <= 1 line."""
        if self.crc:
            self._append_bytes(record_to_wire(record))
        else:
            self._append_bytes(record_to_line(record).encode("utf-8"))

    def append_wire(self, wire: bytes) -> None:
        """Append one *worker-serialized* record line (compact JSON +
        CRC suffix, no newline) without parsing or re-rendering it —
        the parent side of the process backend's hot loop."""
        if not self.crc:
            payload, separator, _ = wire.rpartition(_CRC_SEPARATOR_BYTES)
            if separator:
                wire = payload
        self._append_bytes(wire)

    def _append_bytes(self, data: bytes) -> None:
        # Bounded retry rides out transient ENOSPC/EIO (DurableFile
        # truncated the partial write, so the retry appends onto a
        # clean tail); a persistent failure propagates to the caller.
        with self._lock:
            if not self._tail_settled:
                self._end_on_newline()
            retrying(lambda: self._durable.append(data + b"\n"))
            self.lines += 1
        note_durable_record()

    def _end_on_newline(self) -> None:
        """End ``records.jsonl`` on a newline before the first append.

        A process killed mid-append leaves a final line without its
        newline; appending after it would glue the next line onto those
        bytes, turning a tolerated torn tail into interior corruption
        and losing the next record too.  By :func:`read_record_line`,
        the rule :meth:`scan` applies, an intact final line (the kill
        fell between its payload and its newline; resume already
        counted it) gets its newline, and anything else is cut back to
        the byte after the last newline.  Either repair is synced and
        counted in :meth:`health`.
        """
        data = self.records_path.read_bytes() if self.records_path.exists() else b""
        offset = data.rfind(b"\n") + 1
        if offset < len(data):
            if read_record_line(data[offset:])[1] is not None:
                retrying(lambda: self._durable.append(b"\n"))
            else:
                retrying(lambda: self._durable.truncate(offset))
            retrying(self._durable.sync)
            self.tail_repairs += 1
        self._tail_settled = True

    def land(self, wire: bytes) -> None:
        """Land one record line behind any parked ones, in order.

        A line the disk refuses past the bounded retry of
        :meth:`append_wire` stays parked — never dropped — and the
        failure is noted.
        """
        with self._lock:
            self._parked.append(wire)
            self._drain()

    @property
    def pending(self) -> int:
        """Parked lines, not yet in the file."""
        return len(self._parked)

    def probe(self) -> None:
        """Retry the parked lines now; the store is healthy again once
        none is left."""
        with self._lock:
            self._drain()

    def _drain(self) -> None:
        while self._parked:
            try:
                self.append_wire(self._parked[0])
            except OSError as error:
                self.note_error(error)
                return
            self._parked.popleft()
            self.failure_streak = 0
        if self.worst_streak:
            self.worst_streak = 0
            self.recoveries += 1

    def note_error(self, error: OSError) -> None:
        """Count a failed durable write (an append, a compaction, a
        progress manifest)."""
        with self._lock:
            self.failures += 1
            self.failure_streak += 1
            self.worst_streak = max(self.worst_streak, self.failure_streak)
            self.last_error = error

    def health(self) -> dict:
        """The store's side of an owner's storage report."""
        with self._lock:
            return {
                "durability": self.durability,
                "pending_appends": len(self._parked),
                "append_errors": self.failures,
                "recoveries": self.recoveries,
                "tail_repairs": self.tail_repairs,
                "last_error": None if self.last_error is None else str(self.last_error),
            }

    def sync(self) -> None:
        """Force records to stable storage now (manifest boundaries)."""
        with self._lock:
            retrying(self._durable.sync)

    def close(self) -> None:
        with self._lock:
            self._durable.close()

    # ------------------------------------------------------------------
    def scan(self) -> CheckpointScan:
        """Validate every line of ``records.jsonl``: the one reader.

        A line is intact only if its CRC matches (or it is v1), it
        parses to a JSON object, and its ``message_index`` is an
        integer.  Every other line is a :class:`LineIssue`; only a
        CRC, JSON or encoding defect on the *final* line is a tolerated
        torn tail.  A well-formed line whose ``message_index`` is
        missing or not an integer is ``missing-index`` corruption: it
        cannot be resumed from or loaded.  The file is read as bytes
        and decoded line by line, so corruption that destroys the UTF-8
        encoding itself (a flipped high bit, for instance) is reported
        as ``bad-encoding`` rather than aborting the whole pass.

        Besides the intact entries, the scan keeps the verbatim payload
        of each index's newest append (last append wins), which
        :meth:`load_records`, :meth:`compact` and :meth:`salvage_to`
        take as their answer.
        """
        scan = CheckpointScan()
        if not self.records_path.exists():
            self.lines = 0
            return scan
        chunks = self.records_path.read_bytes().split(b"\n")
        terminated = not chunks[-1]
        if terminated:
            chunks.pop()  # trailing newline, not an empty final line
        scan.total_lines = len(chunks)
        lines = [(line_number, chunk, *read_record_line(chunk))
                 for line_number, chunk in enumerate(chunks, start=1)]
        lines = [line for line in lines if line[2] != ""]
        last_line_number = lines[-1][0] if lines else 0
        for line_number, chunk, text, data, kind in lines:
            if data is not None:
                scan.entries.append(data)
                # A v2 line minus its CRC suffix, or a whole v1 line.
                scan.payloads[data["message_index"]] = text.rpartition(_CRC_SEPARATOR)[0] or text
                continue
            detail = repr(chunk[:60]) if text is None else text[:80]
            torn_tail = line_number == last_line_number and kind != "missing-index"
            scan.issues.append(LineIssue(line_number, kind, detail, torn_tail))
        # The next append cuts an unterminated final line that is not
        # intact (see _end_on_newline), so it is not counted.
        torn = bool(chunks) and not terminated and read_record_line(chunks[-1])[1] is None
        self.lines = len(chunks) - torn
        return scan

    def load_records(self) -> list[MessageRecord]:
        """All durable records, sorted into corpus (message index) order.

        If a record was appended twice (a job finished right as the run
        was killed, then re-ran on resume), the last append wins.
        Defective lines are skipped silently; :meth:`scan` reports them.
        """
        payloads = self.scan().payloads
        return [record_from_dict(json.loads(payloads[index])) for index in sorted(payloads)]

    def _write_records(self, payloads: dict[int, str], indices: list[int]) -> None:
        """Replace ``records.jsonl`` with ``payloads[index]`` for each of
        ``indices``, in that order, each CRC-framed as a v2 line.

        Temp write -> fsync -> atomic rename -> *directory* fsync
        (rename alone is not power-loss durable).  A crash — real or an
        injected torn rename — leaves records.jsonl untouched and the
        ``.compact.tmp`` behind for post-crash inspection.
        """
        content = "".join(encode_record_line(payloads[index]) + "\n" for index in indices)
        durable_write_text(
            self.records_path,
            content,
            durability=self.durability,
            suffix=self.COMPACT_TMP_SUFFIX,
        )
        self.lines = len(indices)

    # ------------------------------------------------------------------
    # fsck / repair
    # ------------------------------------------------------------------
    def salvage_to(self, destination: str | pathlib.Path) -> "CheckpointStore":
        """Write every intact record (last append wins) plus an adjusted
        manifest to a fresh checkpoint directory, and return its store.

        The records are the bytes :meth:`compact` would write: each
        index's newest payload from :meth:`scan`, verbatim, in index
        order and CRC-framed.  The repaired manifest keeps the source's
        settings (its :class:`RunnerConfig`) but recomputes
        ``completed`` from the salvaged records and marks the run
        ``interrupted`` so a bare ``resume`` re-analyzes whatever
        corruption destroyed.  A torn/corrupt source manifest does not
        block the salvage: the records are copied and the repaired
        checkpoint is left without a manifest (``repro run --checkpoint
        <dest> --seed/--scale`` re-creates one and resumes from the
        salvaged records).
        """
        repaired = CheckpointStore(destination, durability=self.durability)
        payloads = self.scan().payloads
        repaired._write_records(payloads, sorted(payloads))
        try:
            manifest = self.read_manifest()
        except ValueError:
            manifest = None  # corrupt manifest: salvage records anyway
        if manifest is not None:
            manifest.completed = len(payloads)
            manifest.status = "interrupted"
            manifest.drained = []
            repaired.write_manifest(manifest)
        return repaired

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, retain: int | None = None) -> CompactionResult:
        """Rewrite ``records.jsonl`` keeping the *last* record per
        message index, in ascending index order.

        Always-on daemons (``repro serve``) append one line per verdict
        plus one per crash-retry re-delivery; over a month the file
        accumulates superseded appends and tolerated torn tails without
        bound.  Compaction is :meth:`scan`, then the ``retain`` cut,
        then an atomic rewrite in place (temp file and ``os.replace``),
        so that:

        - every surviving line is the newest append for its index
          (exactly the record :meth:`load_records` would have chosen);
        - surviving payload bytes are preserved verbatim (the JSON is
          *not* re-serialized; v1 lines are upgraded to the v2 CRC
          format around their original payload);
        - every line :meth:`scan` reports as an issue (including the
          torn tail) is dropped, so the output is ``fsck``-clean;
        - with ``retain=N``, only the N highest message indices survive
          (service mode: verdicts were already streamed to submitters,
          so the live file is a rolling window, not an archive).

        Without a cap, the output is byte-identical to what
        :meth:`salvage_to` writes.  Thread-safe against concurrent
        :meth:`append`: the store lock is held for the whole rewrite,
        so an appender blocks rather than writing into the file being
        replaced.
        """
        with self._lock:
            self._durable.close()
            if not self.records_path.exists():
                return CompactionResult(0, 0, 0, 0, 0, 0, 0)
            bytes_before = self.records_path.stat().st_size
            scan = self.scan()
            survivors = sorted(scan.payloads)
            retired = 0
            if retain is not None and len(survivors) > retain:
                retired = len(survivors) - retain
                survivors = survivors[retired:]
            self._write_records(scan.payloads, survivors)
            return CompactionResult(
                lines_before=scan.total_lines,
                lines_after=len(survivors),
                duplicates_dropped=len(scan.entries) - len(scan.payloads),
                corrupt_dropped=len(scan.issues),
                retired=retired,
                bytes_before=bytes_before,
                bytes_after=self.records_path.stat().st_size,
            )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, manifest: RunManifest) -> None:
        payload = json.dumps(manifest.as_dict(), indent=2, sort_keys=True)
        with self._lock:
            # Atomic replace: readers never observe a half-written
            # manifest, even across power loss (temp fsync + rename +
            # directory fsync).  Bounded retry rides out an ENOSPC
            # episode; torn-rename faults leave manifest.json.tmp
            # behind and the previous manifest intact.
            retrying(
                lambda: durable_write_text(
                    self.manifest_path, payload, durability=self.durability
                )
            )

    def snapshot(self, manifest: RunManifest) -> None:
        """Best-effort progress manifest: the records are the source of
        truth, so a failed write is noted, never raised."""
        try:
            self.write_manifest(manifest)
        except OSError as error:
            self.note_error(error)

    def finish(self, manifest: RunManifest) -> None:
        """End a run: land the parked lines, sync the records, then
        write the terminal ``manifest`` — records reach stable storage
        before a manifest claims them — and close.  Raises ``OSError``
        if a line stays parked (no manifest is written then) or the
        sync or manifest write fails."""
        try:
            self.probe()
            if self._parked:
                error, stranded = self.last_error, len(self._parked)
                raise OSError(error.errno, f"{stranded} record line(s) unpersisted ({error})")
            self.sync()
            self.write_manifest(manifest)
        finally:
            self.close()

    def read_manifest(self) -> RunManifest | None:
        if not self.manifest_path.exists():
            return None
        raw = self.manifest_path.read_text(encoding="utf-8")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ManifestCorrupt(self.manifest_path, str(err)) from None
        if not isinstance(data, dict):
            raise ManifestCorrupt(self.manifest_path, "not a JSON object")
        return RunManifest.from_dict(data)

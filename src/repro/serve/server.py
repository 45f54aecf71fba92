"""The always-on analysis daemon behind ``repro serve``.

One process, five moving parts:

- **Sessions** — one thread per connection reads line-delimited JSON
  submissions (:mod:`repro.serve.protocol`).  The same port answers
  HTTP ``GET /stats`` / ``GET /healthz`` for monitoring.  The ingress
  is hardened against hostile clients (see DESIGN.md §11): a session
  cap refused with explicit ``busy`` lines, per-line read deadlines, a
  progress-based idle reaper, a malformed-line strike budget, and
  bounded verdict sends with dead-peer detection — all exercised by
  :mod:`repro.serve.netchaos`.
- **Admission** — a single lock serializes arrivals, which *defines*
  the arrival order; the deterministic controller
  (:mod:`repro.serve.admission`) sheds with explicit ``overloaded``
  responses, and accepted submissions get the next message index.
- **Fair scheduling + micro-batching** — accepted submissions queue
  per reporter (:mod:`repro.serve.scheduler`) inside the persistent
  engine (:mod:`repro.serve.engine`), whose workers pull round-robin
  micro-batches from those queues whenever they are free.
- **Durability** — every verdict appends to the PR-5 CRC checkpoint
  before it streams back to the submitter; rolling compaction rewrites
  the JSONL each time it grows by a threshold, so a month-long daemon
  stays bounded.  The manifest carries ``status: serving`` plus a
  ``service`` block (the submission ledger, next index, admission
  snapshot).
- **Drain** — SIGTERM stops intake (new submissions are ``rejected``
  with reason ``draining``), flushes every accepted submission through
  analysis and checkpoint, syncs the records, then writes ``status:
  stopped`` with the exact admission snapshot, and exits 0.  A
  restarted daemon refuses run settings that would change a record
  and restores that snapshot, so replaying the remaining transcript
  produces records byte-identical to an uninterrupted daemon — and to
  a batch run over the same messages, because records depend only on
  (seed material, admission index).

Backpressure vs shedding: when the hardware falls behind, a session
stops *reading* once the accepted backlog passes ``backlog_high_water``
(TCP pushes back on the submitter) and resumes once it falls to a
quarter of that.  Blocking delays arrivals without reordering or
dropping them, so the deterministic shed set is unaffected by machine
speed.
"""

from __future__ import annotations

import base64
import collections
import json
import os
import pathlib
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.runner.checkpoint import CheckpointStore, RunManifest
from repro.runner.executor import RunnerConfig
from repro.runner.stats import RunningStats
from repro.serve.admission import REFUSED_BUSY, AdmissionConfig, AdmissionController
from repro.serve.engine import ServeJob, build_engine
from repro.serve.protocol import (
    HTTP_ALLOWED_METHODS,
    IdleTimeout,
    LineChannel,
    LineTooLong,
    ProtocolError,
    ReadDeadlineExceeded,
    decode_line,
    encode_line,
    encode_verdict_line,
    http_request_parts,
    http_response,
    looks_like_http,
    send_bounded,
    set_nodelay,
)
from repro.storage.durable import DEFAULT_DURABILITY, durable_write_text, retrying

#: Name of the discovery file written into the checkpoint directory so
#: clients (and tests) can find the bound port of a daemon they spawned.
ENDPOINT_NAME = "endpoint.json"

#: Rewrite the manifest every N completions (and always at drain).
MANIFEST_EVERY = 50
#: Verdict latencies kept for the /stats percentiles.
LATENCY_WINDOW = 2048
#: Consecutive failed verdict appends (each already bounded-retried)
#: before the health state machine drops from ``degraded`` to
#: ``readonly`` and new submissions shed.
READONLY_AFTER = 3
#: Submission outcomes the ledger counts, daemon-wide and per reporter.
#: ``submitted`` is the sum of the first three and never stored.
OUTCOMES = ("accepted", "shed", "rejected", "completed", "failed")
#: The daemon-wide totals a manifest persists and a restart restores.
_TOTALS = (*OUTCOMES, "compactions")
#: Manifest keys a restart may change: disk weather decides when a
#: write fails, never what a record holds.
_DISK_WEATHER = ("storage_faults", "storage_fault_seed")


@dataclass
class ServeConfig:
    """Everything ``repro serve`` tunes: the run settings its records
    depend on, plus service settings that never change a record."""

    #: The run settings (``repro run``'s record): the engine's world
    #: recipe, the disk weather, and what the manifest records.  A
    #: restart must match the checkpoint on all of them but the disk
    #: weather.
    run: RunnerConfig = field(default_factory=lambda: RunnerConfig(scale=0.15))
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in endpoint.json
    jobs: int = 1
    #: 'auto' (inline at jobs=1, process above) | 'inline' | 'process'.
    executor: str = "auto"
    batch_size: int = 8
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Accepted-but-unfinished submissions above which sessions stop
    #: reading (flow control); reading resumes at a quarter of it.
    backlog_high_water: int = 256
    #: Compact records.jsonl once it holds this many more lines than
    #: the last compaction left (0 = never).
    compact_lines: int = 100_000
    #: Keep only the newest N message indices when compacting (None =
    #: dedupe only).  Verdicts were already streamed to submitters, so
    #: the live checkpoint may be a rolling window.
    retain: int | None = None
    #: fsync policy for the checkpoint (``--durability``).
    durability: str = DEFAULT_DURABILITY
    # ------------------------------------------------------------------
    # Ingress hardening (the connection lifecycle; see DESIGN.md §11).
    # ------------------------------------------------------------------
    #: Hard cap on concurrently open ingress connections.  Excess
    #: connections are refused with an explicit machine-readable
    #: ``busy`` line (never ticking the admission clock) and closed
    #: from the accept loop, so session threads stay bounded by this.
    max_sessions: int = 64
    #: Wall-clock budget to *complete* one protocol line once its first
    #: byte arrived (slowloris guard; 0 disables).
    line_deadline: float = 30.0
    #: Quiet seconds between lines before an idle session is reaped.
    #: Progress-based: a session still owed verdicts is never reaped,
    #: and the clock restarts when the last verdict streams (0 disables).
    idle_timeout: float = 300.0
    #: Wall-clock budget for streaming one response line to a slow
    #: peer before the socket is declared dead.  The verdict is already
    #: durable in the checkpoint; only the doomed write is abandoned.
    send_deadline: float = 30.0
    #: Malformed protocol lines (undecodable JSON, missing/unknown op)
    #: one session may send before a clean close.
    strike_budget: int = 8
    #: listen(2) backlog for the ingress socket.
    listen_backlog: int = 64
    #: Seconds a ``bye`` waits for outstanding verdicts before closing
    #: anyway (the drain path for one polite session).
    flush_timeout: float = 300.0


def _submitted(counter: collections.Counter) -> int:
    """Every submission has exactly one admission outcome."""
    return counter["accepted"] + counter["shed"] + counter["rejected"]


class _Session:
    """One live client connection (response side)."""

    _next_id = 0
    _id_lock = threading.Lock()

    def __init__(
        self,
        conn: socket.socket,
        send_deadline: float = 30.0,
        on_dead_peer=None,
    ):
        with _Session._id_lock:
            _Session._next_id += 1
            self.session_id = _Session._next_id
        self.conn = conn
        self.send_deadline = send_deadline
        self._on_dead_peer = on_dead_peer
        self._write_lock = threading.Lock()
        self.alive = True
        #: Accepted message indices whose verdict has not streamed yet
        #: (what ``bye`` waits for, and what defers the idle reaper).
        self.outstanding: set[int] = set()
        self.flushed = threading.Condition()

    def send(self, payload: dict) -> bool:
        return self.send_raw(encode_line(payload))

    def send_raw(self, data: bytes) -> bool:
        """Stream pre-encoded line bytes (the verdict splice path).

        Bounded: a peer that stops reading trips the send deadline and
        is declared dead rather than pinning an engine callback thread.
        Only the socket write is abandoned — the verdict is already
        durable in the checkpoint by the time this is called.
        """
        with self._write_lock:
            if not self.alive:
                return False
            if send_bounded(self.conn, data, self.send_deadline):
                return True
            self.alive = False
            # Shut down (not close) so the reader thread's select wakes
            # and runs the session's normal cleanup path; closing here
            # would race the reader on the fd.
            try:
                self.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._on_dead_peer is not None:
            self._on_dead_peer()
        return False

    def has_outstanding(self) -> bool:
        """True while verdicts are still owed (defers the idle reaper)."""
        with self.flushed:
            return bool(self.outstanding)

    def finish(self, index: int) -> None:
        with self.flushed:
            self.outstanding.discard(index)
            self.flushed.notify_all()

    def close(self) -> None:
        with self._write_lock:
            self.alive = False
            try:
                self.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.conn.close()
            except OSError:
                pass
        with self.flushed:
            self.flushed.notify_all()


class ServeDaemon:
    """The long-lived analysis service: ``start()``, then ``wait()``
    blocks until a shutdown request has drained it."""

    def __init__(self, config: ServeConfig, checkpoint_dir: str | pathlib.Path):
        self.config = config
        self.directory = pathlib.Path(checkpoint_dir)
        self.checkpoint = CheckpointStore(self.directory, durability=config.durability)
        self.admission = AdmissionController(config.admission)
        self.stats = RunningStats()
        #: Serializes arrivals; holding it defines the arrival order the
        #: determinism contract is stated in.
        self._admission_lock = threading.Lock()
        #: Guards the ledger, stats and compaction on the verdict path.
        self._completion = threading.Condition()
        self._sessions: dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        #: Connections currently owned by a session thread (includes the
        #: HTTP-sniff window before a session registers).  Guarded by
        #: _sessions_lock; the accept loop refuses above max_sessions,
        #: so session threads are bounded by the cap.
        self._open_connections = 0
        # Ingress telemetry (surfaced in /stats and /healthz only —
        # never the manifest, so `--client-faults off` runs stay
        # byte-identical to pre-hardening daemons).
        self._ingress_lock = threading.Lock()
        self._ingress: collections.Counter = collections.Counter()
        self._shutdown = threading.Event()
        self._draining = False
        self._fatal: str | None = None
        self.started_at = time.monotonic()
        self.port: int | None = None
        # The ledger, restored across restarts: daemon-wide totals per
        # outcome (plus ``compactions``) and each reporter's outcomes.
        self.next_index = 0
        self.totals: collections.Counter = collections.Counter()
        self.reporters: dict[str, collections.Counter] = {}
        #: Lines the last compaction left in records.jsonl.
        self._compacted_lines = 0
        self.storage_shed = 0  # submissions shed while storage is readonly
        self._latencies: collections.deque = collections.deque(maxlen=LATENCY_WINDOW)
        self._engine = None
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Restore state, build the engine, bind, and go live.  A start
        that fails (settings refused, port taken) closes the store; the
        disk weather is installed only once the settings are accepted."""
        try:
            self._restore()
            self.config.run.install_storage_faults(clear=False)
            self._build_engine()
            listener = socket.create_server(
                (self.config.host, self.config.port),
                backlog=max(1, self.config.listen_backlog),
                reuse_port=False,
            )
            self._listener = listener
            self.port = listener.getsockname()[1]
            self._write_endpoint()
            self.checkpoint.write_manifest(self._manifest("serving"))
        except BaseException:
            self.checkpoint.close()
            raise
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._acceptor.start()

    def wait(self) -> int:
        """Block until a shutdown request, then drain; the exit code."""
        self._shutdown.wait()
        self._drain()
        return 1 if self._fatal else 0

    def request_shutdown(self) -> None:
        """Signal-handler safe: ask the daemon to drain and stop."""
        self._shutdown.set()

    # ------------------------------------------------------------------
    def _restore(self) -> None:
        """Adopt a prior daemon's manifest + checkpoint, if any."""
        try:
            manifest = self.checkpoint.read_manifest()
        except ValueError as error:
            raise RuntimeError(f"unreadable manifest under {self.directory}: {error}")
        durable = self.checkpoint.scan().indices
        if manifest is not None:
            if not manifest.is_service:
                raise RuntimeError(
                    f"{self.directory} holds a batch checkpoint "
                    f"(status {manifest.status!r}); `repro serve` cannot adopt it — "
                    f"use `repro resume` for batch runs or point --checkpoint at "
                    f"a fresh directory"
                )
            saved = manifest.config.manifest_items()
            wanted = self.config.run.manifest_items()
            differing = sorted(
                key for key in saved.keys() | wanted.keys()
                if key not in _DISK_WEATHER and saved.get(key) != wanted.get(key)
            )
            if differing:
                raise RuntimeError(
                    "checkpoint was analysed under other settings: "
                    + "; ".join(
                        f"{key} was {saved.get(key)!r}, now {wanted.get(key)!r}"
                        for key in differing
                    )
                    + "; restart with matching settings or the replayed "
                    "transcript cannot be byte-identical"
                )
            service = manifest.service or {}
            self.stats = RunningStats.from_dict(manifest.stats)
            self.next_index = int(service.get("next_index", 0))
            ledgers = [(self.totals, service)] + [
                (self._reporter(name), counts)
                for name, counts in (service.get("reporters") or {}).items()
            ]
            for counter, counts in ledgers:
                for key in _TOTALS:
                    if counts.get(key):
                        counter[key] = int(counts[key])
            if service.get("admission"):
                self.admission.restore(service["admission"])
        # A daemon killed without a drain (kill -9) leaves the manifest
        # stale relative to records.jsonl: trust the records for index
        # allocation so no index is ever reused.
        if durable:
            totals = self.totals
            self.next_index = max(self.next_index, max(durable) + 1)
            totals["completed"] = max(totals["completed"], len(durable))
            totals["accepted"] = max(totals["accepted"], totals["completed"] + totals["failed"])

    def _build_engine(self) -> None:
        config = self.config
        self._engine = build_engine(
            config.executor,
            config.jobs,
            self._on_result,
            self.config.run,
            batch_size=config.batch_size,
            on_fatal=self._on_fatal,
            on_stats=self._on_stats,
        )

    def _write_endpoint(self) -> None:
        payload = json.dumps(
            {"host": self.config.host, "port": self.port, "pid": os.getpid()},
            indent=2,
            sort_keys=True,
        )
        retrying(
            lambda: durable_write_text(
                self.directory / ENDPOINT_NAME,
                payload,
                durability=self.config.durability,
            )
        )

    def _on_fatal(self, reason: str) -> None:
        self._fatal = reason
        self.request_shutdown()

    # ------------------------------------------------------------------
    # Intake: sessions
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: drain in progress
            set_nodelay(conn)
            if self._draining:
                # The drain's wake-up poke (closing a listener does not
                # reliably interrupt a blocked accept()).
                try:
                    conn.close()
                except OSError:
                    pass
                return
            with self._sessions_lock:
                if self._open_connections >= max(1, self.config.max_sessions):
                    over_cap = True
                else:
                    over_cap = False
                    self._open_connections += 1
            if over_cap:
                # Refuse inline — no thread is ever spawned for an
                # over-cap connection, which is what bounds the daemon's
                # thread count by the session cap.
                self._refuse_busy(conn)
                continue
            self._count_ingress("sessions_total")
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-serve-session",
                daemon=True,
            ).start()

    def _refuse_busy(self, conn: socket.socket) -> None:
        """Explicit machine-readable refusal of an over-cap connection.

        Never ticks the admission clock: the connection carried no
        submission, so the deterministic admission transcript — and the
        records of every admitted message — is unaffected by floods.
        """
        self._count_ingress("busy_refused")
        line = encode_line(
            {
                "op": "busy",
                "reason": REFUSED_BUSY,
                "detail": f"{self.config.max_sessions} concurrent sessions are "
                f"already open; reconnect after one closes",
            }
        )
        try:
            conn.setblocking(False)
            send_bounded(conn, line, timeout=1.0)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _count_ingress(self, key: str, amount: int = 1) -> None:
        with self._ingress_lock:
            self._ingress[key] += amount

    def _release_connection(self) -> None:
        with self._sessions_lock:
            self._open_connections = max(0, self._open_connections - 1)

    def _serve_connection(self, conn: socket.socket) -> None:
        session = _Session(
            conn,
            send_deadline=self.config.send_deadline,
            on_dead_peer=lambda: self._count_ingress("dead_peers"),
        )
        channel = LineChannel(conn)
        try:
            line = self._read_session_line(channel, session)
            if line is None:
                return
            if looks_like_http(line):
                self._serve_http(conn, line)
                return
            with self._sessions_lock:
                self._sessions[session.session_id] = session
            strikes = max(1, self.config.strike_budget)
            while line is not None:
                received = time.monotonic()
                try:
                    payload = decode_line(line)
                except ProtocolError as error:
                    self._count_ingress("malformed_lines")
                    strikes -= 1
                    if not self._strike(session, strikes, str(error)):
                        return
                    line = self._read_session_line(channel, session)
                    continue
                verdict = self._handle_op(session, payload, received)
                if verdict == "close":
                    return
                if verdict == "strike":
                    self._count_ingress("malformed_lines")
                    strikes -= 1
                    reason = f"unknown op {payload['op']!r}"
                    if not self._strike(session, strikes, reason):
                        return
                self._backpressure_wait()
                line = self._read_session_line(channel, session)
        except OSError:
            pass
        finally:
            with self._sessions_lock:
                self._sessions.pop(session.session_id, None)
            session.close()
            self._release_connection()

    def _read_session_line(self, channel: LineChannel, session: _Session) -> bytes | None:
        """One deadline-guarded line; ``None`` means close the session.

        Every reaping is explicit: the peer gets a machine-readable
        ``error`` naming why before the close (best-effort — a reaped
        peer is often not reading anyway).
        """
        config = self.config
        try:
            line = channel.read_line(
                line_deadline=config.line_deadline or None,
                idle_timeout=config.idle_timeout or None,
                defer_idle=session.has_outstanding,
            )
        except LineTooLong as error:
            # No resync is possible mid-line: error + close.
            self._count_ingress("oversized_lines")
            session.send({"op": "error", "reason": str(error)})
            return None
        except ReadDeadlineExceeded as error:
            self._count_ingress("line_deadline_reaped")
            session.send({"op": "error", "reason": f"read deadline: {error}"})
            return None
        except IdleTimeout as error:
            self._count_ingress("idle_reaped")
            session.send({"op": "error", "reason": f"idle timeout: {error}"})
            return None
        if line is None and channel.pending:
            self._count_ingress("mid_line_disconnects")
        return line

    def _strike(self, session: _Session, strikes_remaining: int, reason: str) -> bool:
        """Answer one malformed line; False when the budget is spent."""
        if strikes_remaining <= 0:
            self._count_ingress("strike_closes")
            session.send(
                {
                    "op": "error",
                    "reason": f"strike budget exhausted: {reason}",
                    "strikes_remaining": 0,
                }
            )
            return False
        session.send(
            {"op": "error", "reason": reason, "strikes_remaining": strikes_remaining}
        )
        return True

    def _serve_http(self, conn: socket.socket, request_line: bytes) -> None:
        self._count_ingress("http_requests")
        method, path = http_request_parts(request_line)
        if method not in HTTP_ALLOWED_METHODS:
            response = http_response(
                405,
                {"error": f"method {method} not allowed; use GET or HEAD"},
                headers={"Allow": ", ".join(HTTP_ALLOWED_METHODS)},
            )
        elif path == "/stats":
            response = http_response(200, self.stats_payload())
        elif path == "/healthz":
            # readonly is 503 like draining — load balancers should
            # route elsewhere — but the payload still answers with the
            # full storage diagnosis either way.
            status = 503 if (self._draining or self.storage_health == "readonly") else 200
            response = http_response(status, self.health_payload())
        else:
            response = http_response(404, {"error": f"no such endpoint {path!r}"})
        if method == "HEAD":
            response = response.split(b"\r\n\r\n", 1)[0] + b"\r\n\r\n"
        send_bounded(conn, response, self.config.send_deadline)
        try:
            conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _handle_op(self, session: _Session, payload: dict, received: float) -> str:
        """Dispatch one message (its line was read at ``received``) ->
        ``'ok'`` | ``'close'`` | ``'strike'``."""
        op = payload["op"]
        if op == "submit":
            self._handle_submit(session, payload, received)
            return "ok"
        if op == "ping":
            session.send({"op": "pong", "draining": self._draining})
            return "ok"
        if op == "stats":
            session.send({"op": "stats", "stats": self.stats_payload()})
            return "ok"
        if op == "bye":
            self._flush_session(session)
            session.send({"op": "goodbye"})
            return "close"
        return "strike"

    def _handle_submit(self, session: _Session, payload: dict, received: float) -> None:
        from repro.mail.ingest import IngestError, ingest_eml_bytes

        client_id = str(payload.get("id") or "")
        reporter = str(payload.get("reporter") or "anonymous")

        def reject(reason: str) -> None:
            with self._completion:
                self._count(reporter, "rejected")
            session.send({"op": "rejected", "id": client_id, "reason": reason})

        if self._draining:
            reject("draining: the daemon is shutting down; resubmit after restart")
            return
        raw_b64 = payload.get("eml")
        if not isinstance(raw_b64, str):
            reject("missing 'eml' (base64 RFC-822 bytes)")
            return
        try:
            raw = base64.b64decode(raw_b64.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            reject("eml is not valid base64")
            return
        try:
            message = ingest_eml_bytes(raw)
        except IngestError as error:
            reject(f"ingest-error: {error}")
            return

        # Readonly storage: the disk refused enough appends in a row
        # that accepting more work would only grow the unpersistable
        # backlog.  Each arrival first probes the disk (draining the
        # pending buffer recovers the daemon the moment space returns),
        # then — if still readonly — sheds with an explicit machine-
        # readable response.  These sheds never tick the admission
        # clock, so the deterministic shed set of the admission
        # transcript is unaffected (like ``draining`` rejects).
        if self.storage_health == "readonly":
            self.checkpoint.probe()
        if self.storage_health == "readonly":
            with self._completion:
                self._count(reporter, "shed")
                self.storage_shed += 1
            session.send(
                {
                    "op": "overloaded",
                    "id": client_id,
                    "reason": "readonly: checkpoint storage is failing "
                    f"({self.checkpoint.last_error}); retry once space returns",
                    "retry_after_submissions": None,
                }
            )
            return

        # Arrival: the admission lock defines the arrival order; the
        # draining flag is re-checked under it so a drain boundary is a
        # clean cut in the transcript (rejected submissions never tick
        # the admission clock and are safe to replay after restart).
        with self._admission_lock:
            if self._draining:
                pass  # fall through to the draining reject below
            else:
                decision = self.admission.admit(reporter)
                with self._completion:
                    if decision.admitted:
                        index = self.next_index
                        self.next_index += 1
                    self._count(reporter, "accepted" if decision.admitted else "shed")
                if not decision.admitted:
                    session.send(
                        {
                            "op": "overloaded",
                            "id": client_id,
                            "reason": decision.reason,
                            "retry_after_submissions": decision.retry_after_submissions,
                        }
                    )
                    return
                job = ServeJob(
                    index=index,
                    reporter=reporter,
                    client_id=client_id,
                    eml_bytes=raw,
                    message=message,
                    session=session,
                    submitted_at=received,
                )
                with session.flushed:
                    session.outstanding.add(index)
                session.send(
                    {"op": "accepted", "id": client_id, "message_index": index}
                )
                self._engine.push(job)
                return
        reject("draining: the daemon is shutting down; resubmit after restart")

    def _flush_session(self, session: _Session, timeout: float | None = None) -> None:
        """Block a ``bye`` until every accepted verdict streamed back."""
        if timeout is None:
            timeout = self.config.flush_timeout
        deadline = time.monotonic() + timeout
        with session.flushed:
            while session.outstanding and session.alive:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                session.flushed.wait(min(0.25, remaining))

    def _backpressure_wait(self) -> None:
        """Flow control: pause reading while the backlog is too deep."""
        high = self.config.backlog_high_water
        if high <= 0:
            return
        low = max(1, high // 4)
        with self._completion:
            if self._backlog() <= high:
                return
            while not self._draining and self._backlog() > low:
                self._completion.wait(0.25)

    def _backlog(self) -> int:
        totals = self.totals
        return totals["accepted"] - totals["completed"] - totals["failed"]

    def _reporter(self, name: str) -> collections.Counter:
        counter = self.reporters.get(name)
        if counter is None:
            counter = self.reporters[name] = collections.Counter()
        return counter

    def _count(self, reporter: str, outcome: str) -> None:
        """Ledger one submission outcome, daemon-wide and for its
        reporter; the caller holds ``_completion``."""
        self.totals[outcome] += 1
        self._reporter(reporter)[outcome] += 1

    def _reporters(self) -> dict:
        """Each reporter's outcomes, ``submitted`` derived."""
        return {
            name: {"submitted": _submitted(counter), **counter}
            for name, counter in sorted(self.reporters.items())
        }

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _on_stats(self, shard: RunningStats) -> None:
        """Engine callback: fold one stats delta (a frame shard, a retry)."""
        with self._completion:
            self.stats.absorb(shard)

    @property
    def storage_health(self) -> str:
        """``ok`` -> ``degraded`` (a line failed past its bounded retry
        and is parked, or a compaction or manifest write failed) ->
        ``readonly`` once ``READONLY_AFTER`` failures ran in a row; it
        stays there until the store is healthy again."""
        worst = self.checkpoint.worst_streak
        if not worst:
            return "ok"
        return "readonly" if worst >= READONLY_AFTER else "degraded"

    def _on_result(self, job: ServeJob, wire, error) -> None:
        """Engine callback: exactly one outcome per accepted submission.

        An error is final: the engine's scheduler already retried it.
        """
        if error is not None:
            with self._completion:
                self._count(job.reporter, "failed")
                self.stats.dead_lettered += 1
                self._completion.notify_all()
            if job.session is not None:
                job.session.send(
                    {
                        "op": "failed",
                        "id": job.client_id,
                        "message_index": job.index,
                        "error": repr(error),
                        "attempts": job.attempts,
                    }
                )
                job.session.finish(job.index)
            self._manifest_maybe()
            return

        # The worker already rendered the final checkpoint line: land
        # the bytes and splice them into the verdict — the hot path
        # never re-serializes the record.  A failing disk parks the
        # line in the store (degraded/readonly) instead of killing the
        # daemon; the verdict still streams below — analysis happened,
        # and the record is queued for the checkpoint, not lost.
        self.checkpoint.land(wire.wire)
        compacted = False
        with self._completion:
            # Compact once the file grew by compact_lines since the last
            # compaction: what a compaction cannot shrink (distinct
            # records without --retain) must not retrigger it.
            if (
                self.config.compact_lines
                and self.checkpoint.lines - self._compacted_lines >= self.config.compact_lines
                and self.storage_health == "ok"
            ):
                try:
                    self._compacted_lines = self.checkpoint.compact(
                        retain=self.config.retain
                    ).lines_after
                except OSError as error:
                    self.checkpoint.note_error(error)
                else:
                    self.totals["compactions"] += 1
                    compacted = True
            self._count(job.reporter, "completed")
            if job.submitted_at:
                self._latencies.append(time.monotonic() - job.submitted_at)
            self._completion.notify_all()
        if job.session is not None:
            job.session.send_raw(
                encode_verdict_line(job.client_id, job.index, wire.payload)
            )
            job.session.finish(job.index)
        self._manifest_maybe(force=compacted)

    def _manifest_maybe(self, force: bool = False) -> None:
        resolved = self.totals["completed"] + self.totals["failed"]
        if force or resolved % MANIFEST_EVERY == 0:
            self.checkpoint.snapshot(self._manifest("serving"))

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Finish everything accepted, persist exact state, stop."""
        with self._admission_lock:
            self._draining = True  # no push or accept after this
        with self._completion:
            self._completion.notify_all()  # wake backpressure waiters
        if self._listener is not None:
            # Wake a blocked accept() with a throwaway connection (closing
            # the listener alone does not reliably interrupt it), then close.
            host = self.config.host if self.config.host not in ("", "0.0.0.0") else "127.0.0.1"
            try:
                socket.create_connection((host, self.port), timeout=1.0).close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout=60.0)
        # Every accepted submission resolves to a verdict or a final
        # failure before stop() returns: the engine dispatches what is
        # queued, its scheduler retries and quarantines stalls, and it
        # fails everything outstanding on a fatal error.
        if self._engine is not None:
            self._engine.stop()
        try:
            self.checkpoint.finish(self._manifest("stopped"))
        except OSError as error:
            # Zero-loss means zero *silent* loss: if the disk never
            # recovered, say so loudly and exit non-zero.
            self._fatal = f"drain could not persist its state: {error}"
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def _latency_quantiles(self) -> dict:
        window = sorted(self._latencies)
        if not window:
            return {"count": 0, "p50_ms": None, "p99_ms": None}

        def at(q: float) -> float:
            position = min(len(window) - 1, int(q * (len(window) - 1)))
            return round(window[position] * 1000.0, 3)

        return {"count": len(window), "p50_ms": at(0.50), "p99_ms": at(0.99)}

    def stats_payload(self) -> dict:
        queue = self._engine.queue
        with self._completion:
            queued = len(queue)
            in_flight = max(0, self._backlog() - queued)
            reporters = self._reporters()
            payload = {
                "status": "draining" if self._draining else "serving",
                "uptime_seconds": round(time.monotonic() - self.started_at, 3),
                "executor": self._engine.name,
                "jobs": self.config.jobs,
                "seed": self.config.run.seed,
                "scale": self.config.run.scale,
                "submitted": _submitted(self.totals),
                **{outcome: self.totals[outcome] for outcome in OUTCOMES},
                "queued": queued,
                "in_flight": in_flight,
                "latency": self._latency_quantiles(),
                "checkpoint": {
                    "directory": str(self.directory),
                    "lines": self.checkpoint.lines,
                    "compactions": self.totals["compactions"],
                    "retain": self.config.retain,
                },
                "storage": self._storage_payload(),
                "analysis": self.stats.as_dict(),
            }
        depths = queue.depths()
        for name, depth in depths.items():
            reporters.setdefault(name, {})["queued"] = depth
        payload["reporters"] = reporters
        # Outside _completion: ingress has its own locks, and the
        # counters are telemetry, not part of the service state the
        # manifest persists.
        payload["ingress"] = self.ingress_payload()
        return payload

    def ingress_payload(self) -> dict:
        """Connection-lifecycle telemetry (/stats and /healthz only).

        Deliberately never written to the manifest: a daemon run with
        ``--client-faults off`` must leave a checkpoint directory
        byte-identical to one produced before ingress hardening existed.
        """
        with self._sessions_lock:
            open_connections = self._open_connections
            active_sessions = len(self._sessions)
        with self._ingress_lock:
            counters = dict(self._ingress)
        return {
            "open_connections": open_connections,
            "active_sessions": active_sessions,
            "max_sessions": self.config.max_sessions,
            "strike_budget": self.config.strike_budget,
            "sessions_total": counters.get("sessions_total", 0),
            "busy_refused": counters.get("busy_refused", 0),
            "idle_reaped": counters.get("idle_reaped", 0),
            "line_deadline_reaped": counters.get("line_deadline_reaped", 0),
            "mid_line_disconnects": counters.get("mid_line_disconnects", 0),
            "malformed_lines": counters.get("malformed_lines", 0),
            "strike_closes": counters.get("strike_closes", 0),
            "oversized_lines": counters.get("oversized_lines", 0),
            "dead_peers": counters.get("dead_peers", 0),
            "http_requests": counters.get("http_requests", 0),
        }

    def _storage_payload(self) -> dict:
        return {
            "health": self.storage_health,
            **self.checkpoint.health(),
            "storage_shed": self.storage_shed,
        }

    def health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else self.storage_health,
            "pid": os.getpid(),
            "port": self.port,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "backlog": self._backlog(),
            "storage": self._storage_payload(),
            "ingress": self.ingress_payload(),
        }

    def _service_state(self) -> dict:
        return {
            "next_index": self.next_index,
            "submitted": _submitted(self.totals),
            **{key: self.totals[key] for key in _TOTALS},
            "executor": self._engine.name,
            "reporters": self._reporters(),
            "admission": self.admission.snapshot(),
        }

    def _manifest(self, status: str) -> RunManifest:
        with self._completion:
            return RunManifest(
                config=self.config.run,
                jobs=self.config.jobs,
                total_messages=self.totals["accepted"],
                completed=self.totals["completed"],
                status=status,
                stats=self.stats.as_dict(),
                service=self._service_state(),
            )

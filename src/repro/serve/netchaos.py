"""Deterministic hostile-client fault injection for the serve ingress.

Luo et al. (PAPERS.md) characterize the networks behind enterprise
phishing mail as bursty, abusive, and adversarial at the connection
level — and the paper's pipeline is fed by exactly that population.
This module schedules that abuse against the *clients* of
``repro serve``: a :class:`ClientFaultEngine` schedules hostile
connection behavior and a :class:`ChaosClient` executes it over real
sockets against a live daemon:

===============  ====================================================
kind             observable behavior
===============  ====================================================
``slowloris``    a protocol line trickled in tiny chunks, slower than
                 the daemon's line deadline — never completes
``idle_camp``    connect, then send nothing past the idle timeout
``mid_line``     half a line, then a hard disconnect
``fuzz``         one malformed protocol line (see :func:`fuzz_corpus`)
``oversized``    a line just past the daemon's per-line byte cap
``flood``        a burst of bare connections against the session cap
``flap``         drop the connection and immediately reconnect
``noop``         a well-formed ``ping`` (keeps the schedule honest)
===============  ====================================================

Decisions are keyed on ``(client_fault_seed, client id, op index)``
through :mod:`repro._chaos`, which owns the draw contract.  The
``op index`` ordinal is supplied by the driving :class:`ChaosClient`,
so the same seed replays the same abuse schedule on every run, which
is what lets the churn bench assert that well-behaved reporters'
records are byte-identical under chaos.

Crucially, no hostile behavior ever submits a *valid* message: fuzz
lines are never admissible submissions, trickled lines never complete,
and floods never speak.  Hostile clients therefore never tick the
admission clock, so a chaos run assigns well-behaved submissions the
same admission indices — and thus byte-identical records — as a
chaos-free run over the same messages.
"""

from __future__ import annotations

import collections
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from repro._chaos import ChaosProfile, keyed_rng, pick_band, preset
from repro.serve.protocol import MAX_LINE_BYTES, encode_line, set_nodelay

__all__ = [
    "CLIENT_FAULT_PROFILES",
    "ChaosClient",
    "ChaosReport",
    "ClientBehavior",
    "ClientFaultEngine",
    "ClientFaultProfile",
    "TRICKLE_CHUNKS",
    "client_fault_profile",
    "fuzz_corpus",
    "run_chaos_fleet",
]


#: Segments a slowloris line is trickled in.
TRICKLE_CHUNKS = 8


@dataclass(frozen=True)
class ClientFaultProfile(ChaosProfile):
    """Per-op behavior rates (bands of one roll per op slot).

    The leftover band is a benign ``noop`` (a well-formed ping), so even
    a hostile client exercises the happy path between attacks — the
    nastiest traffic shape to harden for.
    """

    slowloris: float = 0.0
    idle_camp: float = 0.0
    mid_line: float = 0.0
    fuzz: float = 0.0
    oversized: float = 0.0
    flood: float = 0.0
    flap: float = 0.0
    #: Bare connections one flood op opens.
    flood_burst: int = 6

    RATE_FIELDS = (
        "slowloris",
        "idle_camp",
        "mid_line",
        "fuzz",
        "oversized",
        "flood",
        "flap",
    )


#: The presets (``--client-faults {off,light,heavy,hostile}``).
CLIENT_FAULT_PROFILES: dict[str, ClientFaultProfile] = {
    "off": ClientFaultProfile(name="off"),
    "light": ClientFaultProfile(
        name="light",
        slowloris=0.02,
        idle_camp=0.02,
        mid_line=0.04,
        fuzz=0.08,
        oversized=0.02,
        flood=0.02,
        flap=0.04,
        flood_burst=4,
    ),
    "heavy": ClientFaultProfile(
        name="heavy",
        slowloris=0.06,
        idle_camp=0.05,
        mid_line=0.08,
        fuzz=0.18,
        oversized=0.04,
        flood=0.05,
        flap=0.08,
        flood_burst=6,
    ),
    "hostile": ClientFaultProfile(
        name="hostile",
        slowloris=0.12,
        idle_camp=0.08,
        mid_line=0.12,
        fuzz=0.25,
        oversized=0.08,
        flood=0.10,
        flap=0.12,
        flood_burst=8,
    ),
}


def client_fault_profile(name: str) -> ClientFaultProfile:
    """Look up a preset by name (``off``/``light``/``heavy``/``hostile``)."""
    return preset(CLIENT_FAULT_PROFILES, name, "client fault")


@dataclass(frozen=True)
class ClientBehavior:
    """One scheduled op for one hostile client: what to do, with what."""

    kind: str
    client_id: str
    op_index: int
    #: Line bytes to (partially) send — fuzz / slowloris / mid_line.
    payload: bytes = b""
    #: Trickle segments for ``slowloris``.
    chunks: int = 1
    #: Bare connections for ``flood``.
    burst: int = 0
    #: Idle dwell for ``idle_camp``, as a multiple of the daemon's idle
    #: timeout (the driver owns absolute timing, the engine the shape).
    hold_factor: float = 0.0
    #: Target byte size for ``oversized`` (driver adds the daemon cap).
    overshoot: int = 0


# ----------------------------------------------------------------------
# The fuzz corpus: every way a protocol line can be malformed
# ----------------------------------------------------------------------
#: Shape vocabulary for :func:`fuzz_corpus` / ``fuzz`` ops.  Every shape
#: must draw a machine-readable ``error``/``rejected`` response or a
#: clean close — never a hang, a thread death, or a silent drop.
FUZZ_SHAPES = (
    "truncated_json",
    "binary",
    "deep_nesting",
    "non_dict",
    "missing_op",
    "non_string_op",
    "control_bytes",
    "http_like",
    "empty_object",
)


def _fuzz_payload(rng: random.Random) -> bytes:
    """One malformed protocol line (newline-free), drawn from ``rng``."""
    shape = rng.choice(FUZZ_SHAPES)
    if shape == "truncated_json":
        whole = encode_line(
            {"op": "submit", "id": f"t-{rng.randrange(1 << 16)}", "eml": "QUFBQQ=="}
        ).rstrip(b"\n")
        cut = rng.randrange(1, max(2, len(whole) - 1))
        return whole[:cut]
    if shape == "binary":
        blob = rng.randbytes(rng.randrange(8, 256))
        return blob.replace(b"\n", b"\xff")
    if shape == "deep_nesting":
        # Deep enough that json.loads recurses past the interpreter's
        # stack budget: the daemon must answer with a protocol error,
        # not die of RecursionError.
        depth = rng.randrange(2000, 6000)
        return b"[" * depth + b"]" * depth
    if shape == "non_dict":
        return rng.choice(
            [b"[1,2,3]", b'"just a string"', b"42", b"true", b"null"]
        )
    if shape == "missing_op":
        return b'{"id": "no-op-here", "reporter": "chaos"}'
    if shape == "non_string_op":
        return b'{"op": %d}' % rng.randrange(1 << 10)
    if shape == "control_bytes":
        return b"\x00\x01\x02submit\x7f" + rng.randbytes(4).replace(b"\n", b"\xfe")
    if shape == "http_like":
        # A POST probe mid-session: must draw a JSON protocol error (as
        # the first line of a connection it is answered with HTTP 405).
        return b"POST /submit HTTP/1.1"
    return b"{}"  # empty_object: decodes, but has no op


def fuzz_corpus(seed: int, count: int = 64) -> list[bytes]:
    """A deterministic corpus of ``count`` malformed protocol lines.

    Pure function of ``(seed, index)`` — the i-th line is the same on
    every machine, so a fuzz failure reproduces from its seed alone.
    """
    return [_fuzz_payload(keyed_rng("fuzz", seed, index)) for index in range(count)]


# ----------------------------------------------------------------------
# The engine: a pure behavior schedule
# ----------------------------------------------------------------------
class ClientFaultEngine:
    """Seeded scheduler for hostile-client behavior.

    Stateless by construction: :meth:`behavior` is a pure function of
    ``(seed, client_id, op_index)``, so two engines built with the same
    seed produce identical schedules and a driver can replay any op in
    isolation.  The only mutable state is telemetry (``injected``).
    """

    def __init__(self, profile: ClientFaultProfile | None = None, seed: int = 0):
        self.profile = profile or CLIENT_FAULT_PROFILES["off"]
        self.seed = seed
        #: Telemetry: behavior kind -> times scheduled.
        self.injected: collections.Counter[str] = collections.Counter()

    @property
    def active(self) -> bool:
        return self.profile.active

    def behavior(self, client_id: str, op_index: int) -> ClientBehavior:
        """The scheduled behavior for one ``(client, op)`` coordinate."""
        rng = keyed_rng(self.seed, client_id, op_index)
        profile = self.profile
        kind = pick_band(rng.random(), profile.bands(*profile.RATE_FIELDS)) or "noop"
        self.injected[kind] += 1
        if kind == "fuzz":
            return ClientBehavior(kind, client_id, op_index, payload=_fuzz_payload(rng))
        if kind == "slowloris":
            # The trickled line is itself junk, so even a daemon that
            # (wrongly) let it complete could never admit it.
            return ClientBehavior(
                kind,
                client_id,
                op_index,
                payload=_fuzz_payload(rng) + b"\n",
                chunks=TRICKLE_CHUNKS,
            )
        if kind == "mid_line":
            return ClientBehavior(
                kind, client_id, op_index,
                payload=b'{"op": "submit", "id": "never-fini',
            )
        if kind == "oversized":
            return ClientBehavior(
                kind, client_id, op_index, overshoot=rng.randrange(1, 4096)
            )
        if kind == "flood":
            return ClientBehavior(
                kind, client_id, op_index, burst=max(1, self.profile.flood_burst)
            )
        if kind == "idle_camp":
            return ClientBehavior(
                kind, client_id, op_index, hold_factor=1.2 + rng.random()
            )
        return ClientBehavior(kind, client_id, op_index)


# ----------------------------------------------------------------------
# The driver: real sockets against a live daemon
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """What one hostile client did, and what the daemon answered."""

    client_id: str
    ops: collections.Counter = field(default_factory=collections.Counter)
    #: Server responses observed, keyed by their ``op`` field, plus the
    #: synthetic keys ``closed`` (EOF where a response was possible) and
    #: ``no_response`` (a probe the daemon ignored, e.g. an under-cap
    #: flood connection the client abandoned first).
    responses: collections.Counter = field(default_factory=collections.Counter)
    #: Contract violations observed client-side.  The only way a chaos
    #: run can put one here is the daemon *admitting* hostile junk —
    #: which would shift well-behaved admission indices and break the
    #: byte-identity invariant — so the churn bench asserts it empty.
    anomalies: list[str] = field(default_factory=list)

    def merge(self, other: "ChaosReport") -> None:
        self.ops.update(other.ops)
        self.responses.update(other.responses)
        self.anomalies.extend(other.anomalies)


class ChaosClient:
    """Executes one hostile client's schedule against a live daemon.

    Client-side sockets are blocking with short timeouts (``io_timeout``)
    so a daemon that wrongly stops answering shows up as timeouts in the
    report, never as a hung bench.  ``line_deadline`` / ``idle_timeout``
    mirror the daemon's configured deadlines: the slowloris trickle is
    paced to overrun the former, the camp dwell to overrun the latter.
    """

    def __init__(
        self,
        host: str,
        port: int,
        engine: ClientFaultEngine,
        client_id: str,
        line_deadline: float = 0.5,
        idle_timeout: float = 0.5,
        io_timeout: float = 10.0,
        max_hold: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.engine = engine
        self.client_id = client_id
        self.line_deadline = line_deadline
        self.idle_timeout = idle_timeout
        self.io_timeout = io_timeout
        self.max_hold = max_hold
        self.report = ChaosReport(client_id)
        self._conn: socket.socket | None = None
        self._stream = None

    # -- connection plumbing -------------------------------------------
    def _connect(self) -> bool:
        self._disconnect()
        try:
            conn = socket.create_connection(
                (self.host, self.port), timeout=self.io_timeout
            )
        except OSError:
            self.report.responses["connect_refused"] += 1
            return False
        set_nodelay(conn)
        self._conn = conn
        self._stream = conn.makefile("rb")
        return True

    def _disconnect(self, hard: bool = False) -> None:
        if self._conn is None:
            return
        try:
            if hard:
                # RST instead of FIN: the peer sees a dead socket, not a
                # polite shutdown — the shape that trips dead-peer
                # detection on the daemon's verdict-send path.
                self._conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
        except OSError:
            pass
        for closer in (self._stream, self._conn):
            try:
                if closer is not None:
                    closer.close()
            except OSError:
                pass
        self._conn = self._stream = None

    def _ensure_connected(self) -> bool:
        return self._conn is not None or self._connect()

    def _send(self, data: bytes) -> bool:
        if self._conn is None:
            return False
        try:
            self._conn.sendall(data)
            return True
        except OSError:
            self.report.responses["closed"] += 1
            self._disconnect()
            return False

    def _read_response(self) -> dict | None:
        """One server line -> its payload; None on close/timeout/junk."""
        if self._stream is None:
            return None
        try:
            line = self._stream.readline(MAX_LINE_BYTES)
        except OSError:
            self._disconnect()
            self.report.responses["closed"] += 1
            return None
        if not line:
            self._disconnect()
            self.report.responses["closed"] += 1
            return None
        try:
            import json

            payload = json.loads(line.decode("utf-8"))
        except Exception:
            self.report.responses["unparseable"] += 1
            return None
        op = payload.get("op") if isinstance(payload, dict) else None
        self.report.responses[str(op)] += 1
        if op == "accepted":
            self.report.anomalies.append(
                f"{self.client_id}: hostile line was ADMITTED at op — "
                f"admission indices are no longer chaos-invariant"
            )
        return payload if isinstance(payload, dict) else None

    # -- behaviors ------------------------------------------------------
    def run(self, ops: int) -> ChaosReport:
        for op_index in range(ops):
            behavior = self.engine.behavior(self.client_id, op_index)
            self.report.ops[behavior.kind] += 1
            try:
                self._execute(behavior)
            except OSError:
                self.report.responses["oserror"] += 1
                self._disconnect()
        self._disconnect()
        return self.report

    def _execute(self, behavior: ClientBehavior) -> None:
        kind = behavior.kind
        if kind == "noop":
            if self._ensure_connected() and self._send(encode_line({"op": "ping"})):
                self._read_response()
        elif kind == "fuzz":
            if self._ensure_connected() and self._send(behavior.payload + b"\n"):
                self._read_response()
        elif kind == "oversized":
            if self._ensure_connected():
                line = b"x" * (MAX_LINE_BYTES + behavior.overshoot) + b"\n"
                if self._send(line):
                    self._read_response()
                # The daemon cannot resync after an oversized line; it
                # answers and closes.  Reconnect lazily next op.
                self._disconnect()
        elif kind == "slowloris":
            if self._ensure_connected():
                self._trickle(behavior)
        elif kind == "idle_camp":
            if self._ensure_connected():
                dwell = min(self.max_hold, behavior.hold_factor * self.idle_timeout)
                time.sleep(dwell)
                # The daemon should have reaped us by now: a ping must
                # meet a closed socket (or an error line, then close).
                if self._send(encode_line({"op": "ping"})):
                    self._read_response()
        elif kind == "mid_line":
            if self._ensure_connected():
                self._send(behavior.payload)
                self._disconnect(hard=True)
        elif kind == "flap":
            self._disconnect()
            self._connect()
        elif kind == "flood":
            self._flood(behavior.burst)

    def _trickle(self, behavior: ClientBehavior) -> None:
        """Send a line slower than the daemon's line deadline allows."""
        payload, chunks = behavior.payload, behavior.chunks
        step = max(1, len(payload) // chunks)
        # Pace the gaps so the full line takes ~2x the line deadline:
        # the daemon must cut us off mid-trickle.
        gap = (2.0 * self.line_deadline) / max(1, chunks)
        for offset in range(0, len(payload), step):
            if not self._send(payload[offset : offset + step]):
                return  # reaped mid-trickle: exactly what we want
            time.sleep(gap)
        # The daemon let a whole slow line through: read its answer
        # (the payload is junk, so at worst it costs us a strike).
        self._read_response()

    def _flood(self, burst: int) -> None:
        """Open a burst of bare connections; collect busy refusals."""
        probes: list[socket.socket] = []
        for _ in range(burst):
            try:
                probes.append(
                    socket.create_connection((self.host, self.port), timeout=self.io_timeout)
                )
            except OSError:
                self.report.responses["connect_refused"] += 1
        for probe in probes:
            try:
                probe.settimeout(max(0.2, self.line_deadline))
                line = probe.makefile("rb").readline(4096)
            except OSError:
                line = b""
            if b'"busy"' in line:
                self.report.responses["busy"] += 1
            elif line:
                self.report.responses["unparseable"] += 1
            else:
                self.report.responses["no_response"] += 1
            try:
                probe.close()
            except OSError:
                pass


def run_chaos_fleet(
    host: str,
    port: int,
    engine: ClientFaultEngine,
    clients: int,
    ops_per_client: int,
    client_prefix: str = "chaos",
    **client_kwargs,
) -> list[ChaosReport]:
    """Run ``clients`` hostile clients concurrently; their reports.

    Each client gets a stable id (``chaos-0`` …), so the fleet's abuse
    schedule is a pure function of the engine seed even though the
    clients interleave freely on the wire — hostile ops never touch the
    admission clock, which is why interleaving is harmless.
    """
    runners = [
        ChaosClient(host, port, engine, f"{client_prefix}-{index}", **client_kwargs)
        for index in range(clients)
    ]
    threads = [
        threading.Thread(target=runner.run, args=(ops_per_client,), daemon=True)
        for runner in runners
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [runner.report for runner in runners]

"""The hardened serve ingress under hostile clients, end to end.

The contract (ISSUE 10): a hostile fleet — slowloris trickles, idle
campers, mid-line disconnects, fuzz lines, floods — may cost itself
whatever it likes, but

- every refusal is explicit and machine-readable (``busy``, ``error``
  with ``strikes_remaining``, a reaping ``error`` before close) — never
  a silent drop or a hung thread;
- the daemon's health endpoints keep answering afterward;
- well-behaved reporters' accepted submissions export byte-identical
  records to a chaos-free run over the same messages (hostile traffic
  never ticks the admission clock);
- the daemon's thread count stays bounded by the session cap.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import socket
import struct
import threading
import time

import pytest

from repro.runner.executor import RunnerConfig
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.netchaos import ClientFaultEngine, client_fault_profile, fuzz_corpus, run_chaos_fleet
from repro.serve.protocol import encode_line
from repro.serve.server import _Session

SEED, SCALE = 31, 0.02


def _eml(i: int) -> bytes:
    return (
        f"From: \"IT Support\" <support@spammer{i}.ru>\n"
        f"To: victim@corp.example\n"
        f"Subject: Password expires today {i}\n"
        f"Date: Tue, 12 Mar 2024 10:30:00 +0000\n"
        f"MIME-Version: 1.0\n"
        f"Content-Type: text/html; charset=utf-8\n"
        f"\n"
        f"<html><body><a href=\"https://phish{i}.example/portal\">Open</a>"
        f"</body></html>\n"
    ).encode()


MESSAGES = [_eml(i) for i in range(4)]

#: Short enough that reaping tests run in seconds, long enough that a
#: well-behaved client on a loaded CI box is never reaped by accident.
HARDENED = dict(
    line_deadline=0.4,
    idle_timeout=0.6,
    send_deadline=2.0,
    strike_budget=3,
    max_sessions=6,
)


@contextlib.contextmanager
def _daemon(directory, **overrides):
    config = ServeConfig(
        run=RunnerConfig(seed=SEED, scale=SCALE), jobs=overrides.pop("jobs", 1),
        executor=overrides.pop("executor", "inline"),
        batch_size=overrides.pop("batch_size", 3),
        **overrides,
    )
    daemon = ServeDaemon(config, directory)
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.request_shutdown()
        assert daemon.wait() == 0


def _connect(port: int, timeout: float = 30.0):
    conn = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    return conn, conn.makefile("rb")


def _read_json(stream) -> dict | None:
    line = stream.readline(1 << 20)
    return json.loads(line) if line else None


def _http(port: int, request: bytes, timeout: float = 30.0) -> bytes:
    conn = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        conn.sendall(request)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        conn.close()


def _stats_over_http(port: int) -> dict:
    response = _http(port, b"GET /stats HTTP/1.0\r\n\r\n")
    return json.loads(response.split(b"\r\n\r\n", 1)[1])


class TestFuzzResilience:
    def test_whole_corpus_draws_errors_and_daemon_stays_healthy(self, tmp_path):
        # Budget above the corpus size: one session survives every line.
        with _daemon(tmp_path, **{**HARDENED, "strike_budget": 100,
                                  "line_deadline": 5.0, "idle_timeout": 10.0}) as daemon:
            conn, stream = _connect(daemon.port)
            try:
                for line in fuzz_corpus(17, count=32):
                    conn.sendall(line + b"\n")
                    response = _read_json(stream)
                    assert response is not None, line
                    assert response["op"] == "error"
                    assert response["strikes_remaining"] > 0
                # The session protocol still works on the same connection.
                conn.sendall(encode_line({"op": "ping"}))
                assert _read_json(stream)["op"] == "pong"
            finally:
                conn.close()
            stats = _stats_over_http(daemon.port)
            assert stats["ingress"]["malformed_lines"] >= 32
            assert stats["submitted"] == 0  # fuzz never ticks admission
            health = _http(daemon.port, b"GET /healthz HTTP/1.0\r\n\r\n")
            assert health.startswith(b"HTTP/1.0 200")

    def test_strike_budget_exhaustion_closes_cleanly(self, tmp_path):
        with _daemon(tmp_path, **{**HARDENED, "idle_timeout": 10.0}) as daemon:
            conn, stream = _connect(daemon.port)
            try:
                remaining = []
                conn.sendall(b"junk one\n" + b'{"op": "frobnicate"}\n' + b"junk two\n")
                while True:
                    response = _read_json(stream)
                    if response is None:
                        break
                    assert response["op"] == "error"
                    remaining.append(response["strikes_remaining"])
                # Three strikes, counted down explicitly, then EOF.
                assert remaining == [2, 1, 0]
            finally:
                conn.close()
            stats = _stats_over_http(daemon.port)
            assert stats["ingress"]["strike_closes"] == 1
            assert stats["ingress"]["malformed_lines"] == 3


class TestDeadlines:
    def test_slowloris_is_reaped_at_the_line_deadline(self, tmp_path):
        with _daemon(tmp_path, **HARDENED) as daemon:
            conn, stream = _connect(daemon.port)
            started = time.monotonic()
            try:
                # Trickle a line slower than the 0.4 s deadline allows.
                for _ in range(20):
                    try:
                        conn.sendall(b'{"op')
                    except OSError:
                        break
                    time.sleep(0.15)
                response = _read_json(stream)
                if response is not None:
                    assert response["op"] == "error"
                    assert "read deadline" in response["reason"]
            finally:
                conn.close()
            assert time.monotonic() - started < 10.0
            stats = _stats_over_http(daemon.port)
            assert stats["ingress"]["line_deadline_reaped"] >= 1

    def test_idle_camper_is_reaped(self, tmp_path):
        with _daemon(tmp_path, **HARDENED) as daemon:
            conn, stream = _connect(daemon.port)
            try:
                # Send nothing at all; the daemon must cut us loose.
                response = _read_json(stream)
                if response is not None:
                    assert response["op"] == "error"
                    assert "idle timeout" in response["reason"]
                    assert stream.readline(1024) == b""  # then EOF
            finally:
                conn.close()
            stats = _stats_over_http(daemon.port)
            assert stats["ingress"]["idle_reaped"] >= 1

    def test_verdict_waiting_session_is_never_reaped(self, tmp_path):
        # Progress-based reaping: the idle clock parks while verdicts
        # are outstanding, so a silent reporter awaiting results always
        # gets them — and is reaped only after the last verdict lands.
        with _daemon(tmp_path, **HARDENED) as daemon:
            import base64

            conn, stream = _connect(daemon.port)
            try:
                conn.sendall(encode_line({
                    "op": "submit", "id": "w-1", "reporter": "patient",
                    "eml": base64.b64encode(MESSAGES[0]).decode("ascii"),
                }))
                seen = []
                while True:
                    response = _read_json(stream)
                    if response is None:
                        break
                    seen.append(response["op"])
                    if response["op"] == "error":
                        assert "idle timeout" in response["reason"]
                ops = [op for op in seen if op != "error"]
                # Accepted, then the verdict — despite our total silence
                # across the idle window — then the reap, then EOF.
                assert ops == ["accepted", "verdict"]
            finally:
                conn.close()
            assert daemon.totals["completed"] == 1

    def test_mid_line_disconnect_is_counted(self, tmp_path):
        with _daemon(tmp_path, **HARDENED) as daemon:
            conn, stream = _connect(daemon.port)
            conn.sendall(b'{"op": "submit", "id": "never-fini')
            # FIN-close: unlike an RST (which discards undelivered
            # bytes), the partial line is guaranteed to reach the daemon
            # before the EOF, so the orphaned bytes are observable.
            stream.close()
            conn.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = _stats_over_http(daemon.port)
                if stats["ingress"]["mid_line_disconnects"] >= 1:
                    break
                time.sleep(0.1)
            assert stats["ingress"]["mid_line_disconnects"] >= 1


class TestSessionCap:
    def test_over_cap_connections_get_explicit_busy(self, tmp_path):
        with _daemon(tmp_path, **{**HARDENED, "max_sessions": 2,
                                  "idle_timeout": 30.0}) as daemon:
            held = []
            try:
                for _ in range(2):
                    conn, stream = _connect(daemon.port)
                    conn.sendall(encode_line({"op": "ping"}))
                    assert _read_json(stream)["op"] == "pong"
                    held.append((conn, stream))
                # The third connection is refused before a session starts.
                over, over_stream = _connect(daemon.port)
                busy = _read_json(over_stream)
                assert busy["op"] == "busy"
                assert busy["reason"] == "session-limit"
                assert over_stream.readline(1024) == b""  # then closed
                over_stream.close()
                over.close()

                # Freeing one slot readmits new connections.  Both the
                # socket AND its makefile must close, or no FIN is sent.
                conn, stream = held.pop()
                stream.close()
                conn.close()
                deadline = time.monotonic() + 10.0
                while True:
                    retry, retry_stream = _connect(daemon.port)
                    try:
                        retry.sendall(encode_line({"op": "ping"}))
                        response = _read_json(retry_stream)
                    except OSError:
                        response = None
                    retry_stream.close()
                    retry.close()
                    if response and response.get("op") == "pong":
                        break
                    assert time.monotonic() < deadline, "slot never freed"
                    time.sleep(0.1)
            finally:
                for conn, stream in held:
                    stream.close()
                    conn.close()
            deadline = time.monotonic() + 10.0
            while True:  # the /stats connection needs a slot too
                try:
                    stats = _stats_over_http(daemon.port)
                    break
                except (IndexError, json.JSONDecodeError, OSError):
                    assert time.monotonic() < deadline
                    time.sleep(0.1)
            assert stats["ingress"]["busy_refused"] >= 1
            assert stats["ingress"]["max_sessions"] == 2
            # Busy refusals never tick the admission clock.
            assert stats["submitted"] == 0


class TestHttpHardening:
    def test_post_gets_405_not_a_json_protocol_error(self, tmp_path):
        with _daemon(tmp_path, **HARDENED) as daemon:
            response = _http(
                daemon.port, b"POST /submit HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            )
            head = response.split(b"\r\n\r\n", 1)[0]
            assert head.startswith(b"HTTP/1.0 405 Method Not Allowed")
            assert b"Allow: GET, HEAD" in head
            for method in (b"PUT", b"DELETE", b"OPTIONS"):
                response = _http(daemon.port, method + b" /stats HTTP/1.0\r\n\r\n")
                assert response.startswith(b"HTTP/1.0 405")

    def test_head_answers_headers_only(self, tmp_path):
        with _daemon(tmp_path, **HARDENED) as daemon:
            response = _http(daemon.port, b"HEAD /healthz HTTP/1.0\r\n\r\n")
            head, body = response.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.0 200 OK")
            assert body == b""

    def test_health_payload_carries_ingress_counters(self, tmp_path):
        with _daemon(tmp_path, **HARDENED) as daemon:
            response = _http(daemon.port, b"GET /healthz HTTP/1.0\r\n\r\n")
            payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
            ingress = payload["ingress"]
            assert ingress["max_sessions"] == HARDENED["max_sessions"]
            for key in ("busy_refused", "idle_reaped", "strike_closes",
                        "dead_peers", "malformed_lines"):
                assert key in ingress


class TestDeadPeer:
    def test_session_send_detects_a_peer_that_stopped_reading(self):
        # Unit-level: _Session.send_raw under a tiny send deadline and a
        # peer that never reads must declare the peer dead — exactly
        # once — and fire the callback.
        server, client = socket.socketpair()
        try:
            for sock, opt in ((server, socket.SO_SNDBUF), (client, socket.SO_RCVBUF)):
                sock.setsockopt(socket.SOL_SOCKET, opt, 4096)
            deaths = []
            session = _Session(server, send_deadline=0.3,
                               on_dead_peer=lambda: deaths.append(1))
            assert session.send({"op": "pong"})  # fits the buffer
            assert not session.send_raw(b"x" * (1 << 22) + b"\n")
            assert deaths == [1]
            assert not session.alive
            # Later sends fail fast without re-counting the death.
            assert not session.send({"op": "verdict"})
            assert deaths == [1]
        finally:
            server.close()
            client.close()

    def test_verdict_stays_durable_when_the_peer_dies(self, tmp_path):
        # A reporter that submits and vanishes (RST) loses only its
        # socket: the verdict still lands in the checkpoint.
        import base64

        with _daemon(tmp_path, **HARDENED) as daemon:
            conn, _stream = _connect(daemon.port)
            conn.sendall(encode_line({
                "op": "submit", "id": "gone-1", "reporter": "flaky",
                "eml": base64.b64encode(MESSAGES[0]).decode("ascii"),
            }))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            deadline = time.monotonic() + 60.0
            while daemon.totals["completed"] < 1:
                assert time.monotonic() < deadline, "verdict never completed"
                time.sleep(0.1)
        records = pathlib.Path(tmp_path, "records.jsonl").read_bytes().splitlines()
        assert len(records) == 1


class TestChaosByteIdentity:
    """The acceptance criterion: hostile fleet + well-behaved reporter
    vs a chaos-free daemon over the same messages -> identical records."""

    @staticmethod
    def _well_behaved_run(port: int) -> list[str]:
        ids = []
        with ServeClient("127.0.0.1", port, timeout=120) as client:
            outcomes = [
                client.submit_with_retry(raw, reporter="honest")
                for raw in MESSAGES
            ]
            # Verdicts interleave with later acks, so earlier outcomes
            # may already have been upgraded past "accepted" here.
            assert all(o.accepted for o in outcomes)
            client.wait_verdicts(timeout=120)
            assert all(o.status == "verdict" for o in outcomes)
            ids = [o.message_index for o in outcomes]
        return ids

    def test_chaos_run_matches_clean_run_byte_for_byte(self, tmp_path):
        clean_dir = tmp_path / "clean"
        chaos_dir = tmp_path / "chaos"

        with _daemon(clean_dir) as daemon:
            assert self._well_behaved_run(daemon.port) == list(range(4))

        threads_before = threading.active_count()
        max_threads = 0
        stop_sampling = threading.Event()

        def sample():
            nonlocal max_threads
            while not stop_sampling.is_set():
                max_threads = max(max_threads, threading.active_count())
                time.sleep(0.02)

        engine = ClientFaultEngine(client_fault_profile("hostile"), seed=7)
        with _daemon(chaos_dir, **HARDENED) as daemon:
            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            # The honest reporter connects first (a held slot), then the
            # hostile fleet does its worst around it.
            fleet_reports = []

            def fleet():
                fleet_reports.extend(run_chaos_fleet(
                    "127.0.0.1", daemon.port, engine,
                    clients=2, ops_per_client=8,
                    line_deadline=HARDENED["line_deadline"],
                    idle_timeout=HARDENED["idle_timeout"],
                    io_timeout=5.0, max_hold=1.5,
                ))

            fleet_thread = threading.Thread(target=fleet, daemon=True)
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                fleet_thread.start()
                outcomes = [
                    client.submit_with_retry(raw, reporter="honest")
                    for raw in MESSAGES
                ]
                assert all(o.accepted for o in outcomes)
                # Chaos never ticks the admission clock, so the honest
                # indices are exactly the chaos-free ones.
                assert [o.message_index for o in outcomes] == list(range(4))
                client.wait_verdicts(timeout=120)
                assert all(o.status == "verdict" for o in outcomes)
            fleet_thread.join(timeout=120)
            assert not fleet_thread.is_alive()
            stop_sampling.set()
            sampler.join(timeout=5)

            # No hostile line was ever admitted.
            for report in fleet_reports:
                assert report.anomalies == []
            assert sum(r.ops.total() for r in fleet_reports) == 16
            stats = _stats_over_http(daemon.port)
            assert stats["accepted"] == 4 and stats["completed"] == 4
            assert stats["submitted"] == (
                stats["accepted"] + stats["shed"] + stats["rejected"]
            )
            assert stats["analysis"]["dead_lettered"] == 0

        # Zero accepted-record loss, byte-identical to the clean run.
        clean = sorted(pathlib.Path(clean_dir, "records.jsonl").read_bytes().splitlines())
        chaos = sorted(pathlib.Path(chaos_dir, "records.jsonl").read_bytes().splitlines())
        assert chaos == clean
        assert len(clean) == 4

        # Thread count stayed bounded by the session cap (+ the fixed
        # daemon threads, engine workers, fleet, and this test's own).
        assert max_threads <= threads_before + HARDENED["max_sessions"] + 2 + 2 + 4

        # Ingress telemetry never leaks into the manifest: an off-profile
        # run's checkpoint directory is byte-identical to pre-PR output.
        manifest = json.loads(pathlib.Path(chaos_dir, "manifest.json").read_text())
        assert "ingress" not in manifest
        assert "ingress" not in (manifest.get("service") or {})

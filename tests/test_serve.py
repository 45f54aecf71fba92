"""Service-mode units: protocol framing, deterministic admission, fair
scheduling, checkpoint compaction, guard-limit overrides, and the
service manifest lifecycle.  The live daemon is exercised end to end in
``test_serve_daemon.py``; everything here runs without sockets.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro.cli import main
from repro.mail.guard import (
    GUARD_LIMIT_KEYS,
    GuardLimitError,
    GuardLimits,
    guard_limits_from_overrides,
    parse_guard_limit,
)
from repro.runner import (
    CheckpointStore,
    RunManifest,
    RunnerConfig,
    RunningStats,
    encode_record_line,
)
from repro.serve.admission import (
    ADMITTED,
    SHED_GLOBAL,
    SHED_REPORTER,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.protocol import (
    IdleTimeout,
    LineChannel,
    LineTooLong,
    ProtocolError,
    ReadDeadlineExceeded,
    decode_line,
    encode_line,
    http_request_parts,
    http_response,
    looks_like_http,
    read_line,
    send_bounded,
)
from repro.serve.scheduler import FairScheduler


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        payload = {"op": "submit", "id": "c-1", "eml": "aGk="}
        line = encode_line(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_line(line.rstrip(b"\n")) == payload

    def test_decode_rejects_non_object_and_missing_op(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]")
        with pytest.raises(ProtocolError):
            decode_line(b'{"id": "x"}')
        with pytest.raises(ProtocolError):
            decode_line(b"not json at all")

    def test_read_line_bounds_hostile_lines(self):
        stream = io.BytesIO(b"x" * 100 + b"\n")
        with pytest.raises(ProtocolError):
            read_line(stream, limit=64)
        # Under the limit: the newline is stripped; EOF returns None.
        stream = io.BytesIO(b'{"op":"ping"}\n')
        assert read_line(stream, limit=64) == b'{"op":"ping"}'
        assert read_line(stream, limit=64) is None

    def test_http_sniffing_and_response(self):
        assert looks_like_http(b"GET /stats HTTP/1.1")
        assert looks_like_http(b"HEAD /healthz HTTP/1.0")
        assert not looks_like_http(b'{"op":"ping"}')
        response = http_response(200, {"ok": True})
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"ok": True}


# ----------------------------------------------------------------------
# Admission: the shed set is a pure function of arrival order + budget
# ----------------------------------------------------------------------
def _drive(controller: AdmissionController, arrivals: list[str]) -> list[bool]:
    return [controller.admit(reporter).admitted for reporter in arrivals]


class TestAdmission:
    def test_default_config_never_sheds(self):
        controller = AdmissionController()
        assert all(_drive(controller, ["acme"] * 500))

    def test_shed_set_is_deterministic(self):
        config = AdmissionConfig(cost=100, global_rate=50, global_burst=200)
        arrivals = ["acme", "globex", "acme", "initech"] * 100
        first = _drive(AdmissionController(config), arrivals)
        second = _drive(AdmissionController(config), arrivals)
        assert first == second
        assert False in first  # the budget actually binds

    def test_two_x_overload_sheds_half(self):
        # rate = cost/2 per arrival => the sustainable stream is half the
        # offered one; after the burst drains, every other arrival sheds.
        config = AdmissionConfig(cost=100, global_rate=50, global_burst=200)
        controller = AdmissionController(config)
        decisions = _drive(controller, ["acme"] * 1000)
        shed = decisions.count(False)
        assert 0.45 <= shed / len(decisions) <= 0.55
        # Steady state (past the burst): strictly alternating.
        tail = decisions[-100:]
        assert tail == [i % 2 == 1 for i in range(100)] or tail == [
            i % 2 == 0 for i in range(100)
        ]

    def test_shed_reasons_and_retry_hint(self):
        config = AdmissionConfig(cost=10, global_rate=0, global_burst=10)
        controller = AdmissionController(config)
        assert controller.admit("acme").reason == ADMITTED
        decision = controller.admit("acme")
        assert not decision.admitted
        assert decision.reason == SHED_GLOBAL
        # rate 0: the budget can never recover on its own.
        assert decision.retry_after_submissions is None

    def test_reporter_budget_protects_the_quiet(self):
        config = AdmissionConfig(
            cost=10, reporter_rate=5, reporter_burst=10,
            global_rate=1000, global_burst=10000,
        )
        controller = AdmissionController(config)
        flood = [controller.admit("flooder") for _ in range(50)]
        assert any(
            not d.admitted and d.reason == SHED_REPORTER for d in flood
        )
        # The quiet reporter's first arrival starts with a full burst.
        assert controller.admit("quiet").admitted

    def test_snapshot_restore_is_exact(self):
        config = AdmissionConfig(cost=100, global_rate=50, global_burst=200,
                                 reporter_rate=30, reporter_burst=100)
        arrivals = (["acme", "globex"] * 80) + (["initech"] * 40)
        reference = AdmissionController(config)
        baseline = _drive(reference, arrivals)

        first = AdmissionController(config)
        _drive(first, arrivals[:100])
        snapshot = json.loads(json.dumps(first.snapshot()))  # via JSON, as the manifest does
        second = AdmissionController(config)
        second.restore(snapshot)
        assert _drive(second, arrivals[100:]) == baseline[100:]


# ----------------------------------------------------------------------
# Fair scheduling
# ----------------------------------------------------------------------
class TestFairScheduler:
    def test_flooder_cannot_starve_quiet_reporters(self):
        scheduler = FairScheduler()
        for item in range(100):
            scheduler.push("flooder", ("flooder", item))
        for name in ("a", "b", "c", "d"):
            scheduler.push(name, (name, 0))
        batch = scheduler.next_batch(5)
        # One slot per active reporter per cycle: every quiet reporter
        # appears in the very first batch despite the 100-deep flood.
        assert {reporter for reporter, _ in batch} == {"flooder", "a", "b", "c", "d"}

    def test_round_robin_order_within_batches(self):
        scheduler = FairScheduler()
        for item in range(3):
            scheduler.push("x", f"x{item}")
            scheduler.push("y", f"y{item}")
        assert scheduler.next_batch(4) == ["x0", "y0", "x1", "y1"]
        assert scheduler.next_batch(4) == ["x2", "y2"]

    def test_empty_queue_answers_at_once(self):
        # The engine pops on its own thread while workers wait: an empty
        # queue must answer "nothing now", never block.
        scheduler = FairScheduler()
        assert scheduler.next_batch(8) == []
        scheduler.push("acme", "only")
        assert scheduler.next_batch(8) == ["only"]
        assert scheduler.next_batch(8) == []

    def test_depths_and_len(self):
        scheduler = FairScheduler()
        scheduler.push("a", 1)
        scheduler.push("a", 2)
        scheduler.push("b", 3)
        assert len(scheduler) == 3
        assert scheduler.depths() == {"a": 2, "b": 1}


class _DyingTransport:
    """One worker that reports a failed start once ``release`` is set."""

    def __init__(self):
        self.workers = {0: None}
        self.stall_timeout = None
        self.release = threading.Event()

    def get(self, timeout=None):
        assert self.release.wait(30.0), "never released"
        return ("init-failed", 0, "injected")

    def wake(self):
        pass

    def send(self, worker_id, command):
        raise AssertionError("a worker that never started took a batch")

    def stop(self, graceful=True):
        pass


class TestEngineIntake:
    def test_fatal_fails_every_push_exactly_once(self):
        # Session threads push while the engine thread hits a fatal
        # error: every job queued before it, and every job pushed after
        # it, must get exactly one failed result, or a drain never ends.
        from repro.serve.engine import ProcessEngine, ServeJob

        transport = _DyingTransport()
        results, results_lock = [], threading.Lock()

        def on_result(job, wire, error):
            with results_lock:
                results.append((job.index, wire, error))

        class DyingEngine(ProcessEngine):
            def _open(self, config, jobs):
                return transport

        pushers, per_pusher = 8, 100
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine = DyingEngine(RunnerConfig(), 1, on_result, batch_size=3)

            def push_all(first):
                for index in range(first, first + per_pusher):
                    engine.push(ServeJob(index, f"r{first}", f"c{index}", b""))
                    if index == first + per_pusher // 2:
                        transport.release.set()

            threads = [
                threading.Thread(target=push_all, args=(n * per_pusher,))
                for n in range(pushers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            engine.stop()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(index for index, _, _ in results) == list(range(pushers * per_pusher))
        assert all(wire is None and "failed to initialize" in str(error)
                   for _, wire, error in results)
        assert len(engine.queue) == 0


# ----------------------------------------------------------------------
# Guard-limit overrides (--guard-limit)
# ----------------------------------------------------------------------
class TestGuardLimitOverrides:
    def test_parse_ok(self):
        assert parse_guard_limit("max_parts=64") == ("max_parts", 64)
        assert parse_guard_limit(" max_depth = 4 ") == ("max_depth", 4)

    def test_unknown_key_lists_vocabulary(self):
        with pytest.raises(GuardLimitError) as info:
            parse_guard_limit("max_bananas=3")
        for key in GUARD_LIMIT_KEYS:
            assert key in str(info.value)

    def test_bad_values(self):
        with pytest.raises(GuardLimitError):
            parse_guard_limit("max_parts")  # no '='
        with pytest.raises(GuardLimitError):
            parse_guard_limit("max_parts=lots")
        with pytest.raises(GuardLimitError):
            parse_guard_limit("max_parts=0")  # caps are >= 1

    def test_overrides_build_limits(self):
        limits = guard_limits_from_overrides((("max_parts", 4), ("max_depth", 2)))
        assert limits == GuardLimits(max_parts=4, max_depth=2)
        assert guard_limits_from_overrides(None) is None
        assert guard_limits_from_overrides(()) is None

    def test_build_pipeline_config_applies_overrides(self):
        from repro.core.pipeline import build_pipeline_config

        assert build_pipeline_config(None, None) is None
        config = build_pipeline_config(None, (("max_parts", 4),))
        assert config.guard_limits == GuardLimits(max_parts=4)
        config = build_pipeline_config(500, (("max_depth", 2),))
        assert config.budget_work_units == 500
        assert config.guard_limits == GuardLimits(max_depth=2)
        # budget=0 is the CLI's 'unlimited'.
        assert build_pipeline_config(0, None).budget_work_units is None

    def test_runner_config_carries_overrides_to_workers(self):
        from repro.runner import RunnerConfig

        config = RunnerConfig(seed=31, scale=0.02, guard_limits=(("max_parts", 4),))
        box = config.build(config.generate_world())
        assert box.config.guard_limits == GuardLimits(max_parts=4)

    def test_cli_parses_repeatable_guard_limits(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--guard-limit", "max_parts=8", "--guard-limit", "max_depth=3"]
        )
        assert args.guard_limit == [("max_parts", 8), ("max_depth", 3)]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--guard-limit", "nope=1"])


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def _write_lines(store: CheckpointStore, lines: list[str]) -> None:
    store.records_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _payload(index: int, tag: str = "a") -> str:
    return json.dumps({"message_index": index, "tag": tag}, separators=(",", ":"))


class TestCompaction:
    def test_last_append_wins_and_output_is_fsck_clean(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _write_lines(store, [
            encode_record_line(_payload(0, "old")),
            encode_record_line(_payload(1)),
            encode_record_line(_payload(0, "new")),   # supersedes line 1
            "this is not json at all",                 # corrupt: dropped
            _payload(2, "v1"),                         # v1 line: upgraded to CRC
        ])
        result = store.compact()
        assert (result.lines_before, result.lines_after) == (5, 3)
        assert result.duplicates_dropped == 1
        assert result.corrupt_dropped == 1
        assert result.retired == 0
        assert result.reclaimed_bytes > 0

        scan = store.scan()
        assert not scan.issues  # fsck-clean, including the old v1 line
        assert [entry["message_index"] for entry in scan.entries] == [0, 1, 2]
        # Surviving payloads are preserved verbatim: index 0 is the NEW one.
        assert [e["tag"] for e in scan.entries] == ["new", "a", "v1"]

    def test_valid_json_that_is_not_a_record_counts_as_corrupt(self, tmp_path):
        # v1 lines (no CRC suffix) that decode to a non-dict, or that
        # Python's int parser refuses, are corrupt lines, not exceptions.
        store = CheckpointStore(tmp_path)
        _write_lines(store, [
            _payload(0),
            "42",
            "1" * 5000,
            encode_record_line(_payload(1)),
        ])
        scan = store.scan()
        assert [issue.line_number for issue in scan.issues] == [2, 3]
        result = store.compact()
        assert (result.lines_before, result.lines_after) == (4, 2)
        assert result.corrupt_dropped == 2
        assert result.duplicates_dropped == 0
        scan = store.scan()
        assert not scan.issues
        assert [entry["message_index"] for entry in scan.entries] == [0, 1]

    def test_retain_keeps_newest_indices(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _write_lines(store, [encode_record_line(_payload(i)) for i in range(10)])
        result = store.compact(retain=3)
        assert result.retired == 7
        assert [e["message_index"] for e in store.scan().entries] == [7, 8, 9]

    def test_compact_empty_store(self, tmp_path):
        result = CheckpointStore(tmp_path).compact()
        assert result.lines_before == result.lines_after == 0

    def test_cli_compact(self, tmp_path, capsys):
        store = CheckpointStore(tmp_path)
        _write_lines(store, [
            encode_record_line(_payload(0, "old")),
            encode_record_line(_payload(0, "new")),
        ])
        assert main(["compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 -> 1" in out
        assert "fsck-clean" in out

    def test_cli_compact_refuses_live_checkpoints(self, tmp_path, capsys):
        for status in ("running", "serving"):
            store = CheckpointStore(tmp_path / status)
            _write_lines(store, [encode_record_line(_payload(0))])
            store.write_manifest(RunManifest(config=RunnerConfig(seed=1, scale=0.1),
                                             status=status))
            assert main(["compact", str(tmp_path / status)]) == 1
            assert status in capsys.readouterr().out

    def test_cli_compact_missing_records(self, tmp_path):
        assert main(["compact", str(tmp_path / "nowhere")]) == 1


# ----------------------------------------------------------------------
# Manifest lifecycle + stats restore
# ----------------------------------------------------------------------
class TestServiceManifest:
    def test_is_service(self):
        assert not RunManifest(status="running").is_service
        assert not RunManifest(status="interrupted").is_service
        assert RunManifest(status="serving").is_service
        assert RunManifest(status="stopped").is_service
        assert RunManifest(status="running", service={"next_index": 3}).is_service

    def test_service_block_roundtrips_and_batch_keys_unchanged(self):
        batch = RunManifest(config=RunnerConfig(seed=1, scale=0.1))
        assert "service" not in batch.as_dict()
        assert "guard_limits" not in batch.as_dict()
        service = RunManifest(
            config=RunnerConfig(seed=1, scale=0.1, guard_limits=(("max_parts", 4),)),
            status="stopped",
            service={"next_index": 7, "admission": {"arrivals": 9}},
        )
        loaded = RunManifest.from_dict(json.loads(json.dumps(service.as_dict())))
        assert loaded.service == {"next_index": 7, "admission": {"arrivals": 9}}
        assert loaded.config.guard_limits == (("max_parts", 4),)
        assert loaded.is_service

    def test_bare_resume_on_daemon_checkpoint_is_actionable(self, tmp_path, capsys):
        store = CheckpointStore(tmp_path)
        store.write_manifest(RunManifest(
            config=RunnerConfig(seed=31, scale=0.02), status="stopped",
            service={"next_index": 2},
        ))
        assert main(["resume", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "repro serve" in out and "--checkpoint" in out

    def test_running_stats_from_dict_roundtrip(self):
        stats = RunningStats()
        stats.analyzed = 42
        stats.categories["active_phishing"] = 7
        stats.retried = 3
        stats.quarantined = 2
        stats.stage_calls["parse"] = 42
        stats.stage_seconds["parse"] = 1.25
        stats.fault_retries = 5
        stats.fault_kinds["dns"] = 5
        restored = RunningStats.from_dict(json.loads(json.dumps(stats.as_dict())))
        assert restored.as_dict() == stats.as_dict()
        # Absent optional keys read as zero (old manifests).
        sparse = RunningStats.from_dict({"analyzed": 1, "categories": {}})
        assert sparse.analyzed == 1 and sparse.quarantined == 0


# ----------------------------------------------------------------------
# Hardened ingress primitives (PR 9): LineChannel + send_bounded + HTTP
# ----------------------------------------------------------------------
class TestLineChannel:
    """The deadline-aware server-side line reader, over socketpairs."""

    @staticmethod
    def _pair():
        import socket

        server, client = socket.socketpair()
        return server, client

    def test_reads_split_and_coalesced_lines(self):
        server, client = self._pair()
        try:
            channel = LineChannel(server, limit=1024)
            client.sendall(b'{"op":"ping"}\n{"op":')
            assert channel.read_line(idle_timeout=5.0) == b'{"op":"ping"}'
            client.sendall(b'"stats"}\n')
            assert channel.read_line(idle_timeout=5.0) == b'{"op":"stats"}'
        finally:
            server.close()
            client.close()

    def test_strips_crlf_and_reports_eof(self):
        server, client = self._pair()
        try:
            channel = LineChannel(server, limit=1024)
            client.sendall(b"hello\r\n")
            client.close()
            assert channel.read_line(idle_timeout=5.0) == b"hello"
            assert channel.read_line(idle_timeout=5.0) is None
            assert channel.pending == 0
        finally:
            server.close()

    def test_mid_line_disconnect_leaves_pending_bytes(self):
        server, client = self._pair()
        try:
            channel = LineChannel(server, limit=1024)
            client.sendall(b'{"op": "submit", "id": "never-fini')
            client.close()
            assert channel.read_line(idle_timeout=5.0) is None
            assert channel.pending > 0
        finally:
            server.close()

    def test_oversized_line_raises(self):
        server, client = self._pair()
        try:
            channel = LineChannel(server, limit=16)
            client.sendall(b"x" * 64 + b"\n")
            with pytest.raises(LineTooLong):
                channel.read_line(idle_timeout=5.0)
        finally:
            server.close()
            client.close()

    def test_slowloris_trips_the_line_deadline(self):
        import threading
        import time

        server, client = self._pair()
        try:
            channel = LineChannel(server, limit=1024, poll_slice=0.02)

            def trickle():
                for _ in range(50):
                    try:
                        client.sendall(b"x")
                    except OSError:
                        return
                    time.sleep(0.05)

            thread = threading.Thread(target=trickle, daemon=True)
            thread.start()
            started = time.monotonic()
            with pytest.raises(ReadDeadlineExceeded):
                channel.read_line(line_deadline=0.3, idle_timeout=30.0)
            assert time.monotonic() - started < 5.0
        finally:
            server.close()
            client.close()

    def test_idle_timeout_and_defer(self):
        server, client = self._pair()
        try:
            channel = LineChannel(server, limit=1024, poll_slice=0.02)
            with pytest.raises(IdleTimeout):
                channel.read_line(idle_timeout=0.2)
            # A defer callback that reports progress parks the clock;
            # once it stops deferring the timeout fires.
            deferrals = []

            def defer():
                deferrals.append(True)
                return len(deferrals) < 3

            with pytest.raises(IdleTimeout):
                channel.read_line(idle_timeout=0.1, defer_idle=defer)
            assert len(deferrals) == 3
        finally:
            server.close()
            client.close()


class TestSendBounded:
    def test_sends_to_a_reading_peer(self):
        import socket

        server, client = socket.socketpair()
        try:
            assert send_bounded(server, b"hello\n", timeout=5.0)
            assert client.recv(64) == b"hello\n"
        finally:
            server.close()
            client.close()

    def test_gives_up_on_a_peer_that_stopped_reading(self):
        import socket
        import time

        server, client = socket.socketpair()
        try:
            # Shrink both buffers so a non-reading peer backs up fast.
            for sock, opt in ((server, socket.SO_SNDBUF), (client, socket.SO_RCVBUF)):
                sock.setsockopt(socket.SOL_SOCKET, opt, 4096)
            blob = b"x" * (1 << 22)
            started = time.monotonic()
            assert not send_bounded(server, blob, timeout=0.3, poll_slice=0.02)
            assert time.monotonic() - started < 5.0
        finally:
            server.close()
            client.close()

    def test_returns_false_on_a_closed_socket(self):
        import socket

        server, client = socket.socketpair()
        server.close()
        client.close()
        assert not send_bounded(server, b"late\n", timeout=0.2)


class TestHttpMethods:
    def test_all_http_methods_are_sniffed(self):
        for method in ("GET", "HEAD", "POST", "PUT", "DELETE",
                       "OPTIONS", "PATCH", "TRACE", "CONNECT"):
            assert looks_like_http(f"{method} /submit HTTP/1.1".encode())
        assert not looks_like_http(b'{"op": "ping"}')
        assert not looks_like_http(b"GETAWAY /x")  # needs the space

    def test_request_parts(self):
        assert http_request_parts(b"POST /submit?x=1 HTTP/1.1") == ("POST", "/submit")
        assert http_request_parts(b"GET /stats") == ("GET", "/stats")
        assert http_request_parts(b"") == ("?", "/")

    def test_405_response_carries_allow_header(self):
        response = http_response(
            405, {"error": "nope"}, headers={"Allow": "GET, HEAD"}
        )
        head, body = response.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.0 405 Method Not Allowed")
        assert b"Allow: GET, HEAD" in head
        assert json.loads(body)["error"] == "nope"


class TestDecodeHardening:
    def test_deeply_nested_json_is_a_protocol_error(self):
        # A nesting bomb must not unwind the session thread with
        # RecursionError; it is just another malformed line.
        bomb = b"[" * 5000 + b"]" * 5000
        with pytest.raises(ProtocolError):
            decode_line(bomb)

    def test_binary_junk_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_line(b"\x00\x01\xff\xfe")
        with pytest.raises(ProtocolError):
            decode_line(b'{"op": 42}')

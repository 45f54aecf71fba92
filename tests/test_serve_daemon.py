"""The ``repro serve`` daemon, end to end: live sockets, real signals.

The determinism contract under test (the PR-5 invariant extended to
service mode): every verdict record depends only on (seed material,
admission index), so

- a daemon killed with SIGTERM drains its accepted submissions, and a
  restarted daemon replaying the remaining transcript produces a
  records.jsonl byte-identical to an uninterrupted daemon's;
- the daemon's records are byte-identical to a *batch* analysis of the
  same messages in admission order;
- under sustained overload the daemon sheds with explicit machine-
  readable ``overloaded`` responses — never silent drops — and the shed
  set is identical on every replay of the same arrival order;
- the process engine rides the batch scheduler's fault handling: a
  crashing submission fails alone after its retries, a wedging one is
  quarantined by the stall watchdog, and workers that cannot start
  fail every accepted submission, so a drain always completes.

The SIGTERM tests drive the real CLI in a subprocess, mirroring
``test_shutdown.py``.
"""

from __future__ import annotations

import base64
import contextlib
import json
import multiprocessing
import os
import pathlib
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import replace

import pytest

from repro._budget import DEFAULT_WORK_LIMIT
from repro.core import CrawlerBox
from repro.runner import CheckpointStore, executor
from repro.runner.executor import RunnerConfig
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.admission import AdmissionConfig
from repro.serve.protocol import encode_line

SEED, SCALE = 31, 0.02
RUN = RunnerConfig(seed=SEED, scale=SCALE)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


MESSAGES = [_eml(i) for i in range(8)]


@contextlib.contextmanager
def _daemon(directory, **overrides):
    config = ServeConfig(
        run=overrides.pop("run", RUN), jobs=overrides.pop("jobs", 1),
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


def _records_lines(directory) -> list[bytes]:
    return sorted(pathlib.Path(directory, "records.jsonl").read_bytes().splitlines())


def _assert_reconciled(stats: dict) -> None:
    """The /stats invariant: every submission is accounted for exactly."""
    assert stats["submitted"] == (
        stats["accepted"] + stats["shed"] + stats["rejected"]
    )
    assert stats["accepted"] == (
        stats["completed"] + stats["failed"] + stats["queued"] + stats["in_flight"]
    )


class TestDaemonEndToEnd:
    def test_submit_verdicts_stats_and_http(self, tmp_path):
        with _daemon(tmp_path) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                assert client.ping()["op"] == "pong"
                outcomes = [
                    client.submit_bytes(raw, reporter=f"company-{i % 3}")
                    for i, raw in enumerate(MESSAGES)
                ]
                assert all(o.accepted for o in outcomes)
                assert [o.message_index for o in outcomes] == list(range(8))
                client.wait_verdicts(timeout=120)
                assert all(o.status == "verdict" for o in outcomes)
                assert all(o.record.get("category") for o in outcomes)
                stats = client.stats()
            _assert_reconciled(stats)
            assert stats["completed"] == 8 and stats["shed"] == 0
            assert stats["reporters"]["company-0"]["completed"] == 3
            assert stats["latency"]["count"] == 8
            assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"]

            # Same port, plain HTTP, for stock monitoring.
            base = f"http://127.0.0.1:{daemon.port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
                health = json.loads(response.read())
                assert response.status == 200
                assert health["status"] == "ok" and health["pid"] == os.getpid()
            with urllib.request.urlopen(f"{base}/stats", timeout=30) as response:
                _assert_reconciled(json.loads(response.read()))
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(f"{base}/nope", timeout=30)
            assert info.value.code == 404

        # Clean drain: manifest stopped, service block present.
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "stopped"
        assert manifest["service"]["next_index"] == 8
        assert manifest["service"]["admission"]["arrivals"] == 8

    def test_malformed_submissions_are_rejected_not_dropped(self, tmp_path):
        with _daemon(tmp_path) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=60) as client:
                client._send({"op": "submit", "id": "bad-1", "reporter": "acme",
                              "eml": "###not-base64###"})
                while True:
                    payload = client._pump_one()
                    if payload.get("id") == "bad-1":
                        assert payload["op"] == "rejected"
                        assert "base64" in payload["reason"]
                        break
                client._send({"op": "submit", "id": "bad-2", "reporter": "acme"})
                while True:
                    payload = client._pump_one()
                    if payload.get("id") == "bad-2":
                        assert payload["op"] == "rejected"
                        break
                # Rejections never tick the admission clock.
                stats = client.stats()
                assert stats["rejected"] == 2 and stats["accepted"] == 0
                _assert_reconciled(stats)

    def test_unknown_op_is_answered(self, tmp_path):
        with _daemon(tmp_path) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=60) as client:
                client._send({"op": "frobnicate"})
                while True:
                    payload = client._pump_one()
                    if payload.get("op") == "error":
                        assert "frobnicate" in payload["reason"]
                        break


class TestOverloadShedding:
    def _overload_config(self) -> AdmissionConfig:
        # Sustainable rate = half the offered stream, tiny burst: a 2x
        # overload must shed ~half with explicit responses.
        cost = DEFAULT_WORK_LIMIT
        return AdmissionConfig(cost=cost, global_rate=cost // 2, global_burst=cost)

    def _run(self, directory) -> tuple[list[str], dict]:
        with _daemon(directory, admission=self._overload_config()) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                outcomes = [
                    client.submit_bytes(raw, reporter="acme") for raw in MESSAGES
                ]
                client.wait_verdicts(timeout=120)
                stats = client.stats()
        shed_ids = [o.client_id for o in outcomes if o.status == "overloaded"]
        # Every shed is explicit and machine-readable; nothing hangs.
        for outcome in outcomes:
            assert outcome.status in ("verdict", "overloaded")
            if outcome.status == "overloaded":
                assert outcome.reason == "global-admission-budget"
                assert outcome.retry_after_submissions is not None
        return shed_ids, stats

    def test_two_x_overload_sheds_deterministically(self, tmp_path):
        shed_a, stats_a = self._run(tmp_path / "a")
        shed_b, stats_b = self._run(tmp_path / "b")
        # The shed set is a pure function of arrival order + budget.
        assert shed_a == shed_b
        assert 0.25 <= len(shed_a) / len(MESSAGES) <= 0.75
        # Zero dead letters, exact accounting.
        for stats in (stats_a, stats_b):
            _assert_reconciled(stats)
            assert stats["failed"] == 0
            assert stats["shed"] == len(shed_a)
            assert stats["completed"] == len(MESSAGES) - len(shed_a)
        # Shed accounting survives the drain into the manifest.
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["service"]["shed"] == len(shed_a)

    def test_submit_with_retry_converges_under_overload(self, tmp_path):
        # The client-side retry helper honors retry_after_submissions:
        # each resubmission is itself an arrival tick that refills the
        # bucket, so a lone client lands every message within its
        # bounded retry budget instead of reimplementing the loop.
        with _daemon(tmp_path, admission=self._overload_config()) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                outcomes = [
                    client.submit_with_retry(raw, reporter="acme", max_retries=4)
                    for raw in MESSAGES
                ]
                assert all(o.accepted for o in outcomes)
                assert sum(o.retries for o in outcomes) > 0
                client.wait_verdicts(timeout=120)
                assert all(o.status == "verdict" for o in outcomes)
                stats = client.stats()
        _assert_reconciled(stats)
        assert stats["completed"] == len(MESSAGES)
        # The retried (shed) attempts are still explicit in the ledger.
        assert stats["shed"] == sum(o.retries for o in outcomes)


class TestRestartByteIdentity:
    def test_restart_replay_matches_uninterrupted_and_batch(self, tmp_path):
        full_dir, split_dir = tmp_path / "full", tmp_path / "split"
        with _daemon(full_dir) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                for raw in MESSAGES:
                    client.submit_bytes(raw, reporter="acme")
                client.wait_verdicts(timeout=120)

        # The same transcript split across a drain + restart.
        for part in (MESSAGES[:5], MESSAGES[5:]):
            with _daemon(split_dir) as daemon:
                with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                    for raw in part:
                        client.submit_bytes(raw, reporter="acme")
                    client.wait_verdicts(timeout=120)

        assert _records_lines(split_dir) == _records_lines(full_dir)
        manifest = json.loads((split_dir / "manifest.json").read_text())
        assert manifest["status"] == "stopped"
        assert manifest["service"]["next_index"] == len(MESSAGES)

        # And both equal a batch analysis of the same messages in
        # admission order, through the same pipeline entry points.
        from repro.core import CrawlerBox
        from repro.core.export import record_to_line
        from repro.dataset import CorpusGenerator
        from repro.mail.ingest import ingest_eml_bytes
        from repro.runner.checkpoint import encode_record_line

        corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
        box = CrawlerBox.for_world(corpus.world)
        batch = sorted(
            encode_record_line(
                record_to_line(box.analyze(ingest_eml_bytes(raw), message_index=i))
            ).encode()
            for i, raw in enumerate(MESSAGES)
        )
        assert batch == _records_lines(full_dir)

    def test_process_engine_matches_inline_engine(self, tmp_path):
        inline_dir, process_dir = tmp_path / "inline", tmp_path / "process"
        for directory, executor, jobs in (
            (inline_dir, "inline", 1), (process_dir, "process", 2)
        ):
            with _daemon(directory, executor=executor, jobs=jobs) as daemon:
                with ServeClient("127.0.0.1", daemon.port, timeout=240) as client:
                    for raw in MESSAGES:
                        client.submit_bytes(raw, reporter="acme")
                    client.wait_verdicts(timeout=240)
        assert _records_lines(process_dir) == _records_lines(inline_dir)

    def test_drained_process_engine_leaves_no_worker(self, tmp_path):
        with _daemon(tmp_path, executor="process", jobs=2) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=240) as client:
                for raw in MESSAGES[:3]:
                    client.submit_bytes(raw, reporter="acme")
                client.wait_verdicts(timeout=240)
        assert multiprocessing.active_children() == []


class TestRestartSettings:
    """A restart must match the checkpoint on every setting its manifest
    records except the disk weather, which never changes a record."""

    def _serve(self, directory, messages, run=RUN) -> None:
        with _daemon(directory, run=run) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                for raw in messages:
                    assert client.submit_bytes(raw, reporter="acme").accepted
                client.wait_verdicts(timeout=120)

    def test_restart_with_other_record_settings_is_refused(self, tmp_path):
        self._serve(tmp_path, MESSAGES[:2])
        before = [
            (tmp_path / name).read_bytes() for name in ("manifest.json", "records.jsonl")
        ]
        for changed, expected in (
            ({"budget": 1}, "budget was None, now 1"),
            ({"guard_limits": (("max_parts", 1),)},
             "guard_limits was None, now [['max_parts', 1]]"),
        ):
            daemon = ServeDaemon(
                ServeConfig(run=replace(RUN, **changed), executor="inline"), tmp_path
            )
            with pytest.raises(RuntimeError, match="other settings") as info:
                daemon.start()
            daemon.checkpoint.close()
            assert expected in str(info.value)
            # Refused before the engine or the listener came up; the
            # checkpoint is untouched.
            assert daemon._engine is None and daemon.port is None
            after = [
                (tmp_path / name).read_bytes() for name in ("manifest.json", "records.jsonl")
            ]
            assert after == before

    def test_refused_restart_leaves_the_disk_weather_alone(self, tmp_path):
        from repro.storage.durable import install_storage_faults, storage_engine

        self._serve(tmp_path, MESSAGES[:1])
        refused = replace(RUN, budget=1, storage_faults="light")
        daemon = ServeDaemon(ServeConfig(run=refused, executor="inline"), tmp_path)
        try:
            with pytest.raises(RuntimeError, match="other settings"):
                daemon.start()
            daemon.checkpoint.close()
            assert storage_engine() is None
        finally:
            install_storage_faults(None)

    def test_restart_with_same_settings_or_other_disk_weather_continues(self, tmp_path):
        from repro.storage.durable import install_storage_faults

        full_dir, split_dir = tmp_path / "full", tmp_path / "split"
        self._serve(full_dir, MESSAGES[:6])
        weather = replace(RUN, storage_faults="light", storage_fault_seed=7)
        try:
            for part, run in (
                (MESSAGES[:2], RUN), (MESSAGES[2:4], RUN), (MESSAGES[4:6], weather)
            ):
                self._serve(split_dir, part, run=run)
        finally:
            install_storage_faults(None)
        assert _records_lines(split_dir) == _records_lines(full_dir)
        manifest = json.loads((split_dir / "manifest.json").read_text())
        assert manifest["status"] == "stopped"
        assert manifest["service"]["next_index"] == 6
        assert (manifest["storage_faults"], manifest["storage_fault_seed"]) == ("light", 7)


class TestQuietRoundTrip:
    """One submission at a time on one connection.

    The daemon answers a submit with two small writes, ``accepted`` and
    then ``verdict``, and the client sends nothing in between.  With
    Nagle's algorithm on the daemon's socket the verdict waits for the
    ACK of ``accepted``, which the client's delayed-ACK timer holds for
    40 ms: every quiet round trip then takes about 44 ms.
    """

    ROUND_TRIPS = 12

    @pytest.mark.parametrize("engine, jobs", [("inline", 1), ("process", 2)])
    def test_quiet_round_trip_is_not_stalled(self, tmp_path, engine, jobs):
        with _daemon(tmp_path, executor=engine, jobs=jobs) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                elapsed_ms = []
                for i in range(self.ROUND_TRIPS):
                    started = time.perf_counter()
                    outcome = client.submit_bytes(_eml(i), reporter="acme")
                    client.wait_verdicts(timeout=120)
                    elapsed_ms.append(1000.0 * (time.perf_counter() - started))
                    assert outcome.status == "verdict"
                (session,) = daemon._sessions.values()
                nodelay = session.conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        median = statistics.median(elapsed_ms)
        assert median < 20.0, (
            f"quiet submit->verdict median {median:.1f} ms: "
            f"{[round(ms, 1) for ms in elapsed_ms]}"
        )
        assert nodelay, "daemon-side session socket has Nagle's algorithm on"


class TestFairDispatch:
    """One connection pipelines a flood from one reporter, then one
    report from each of four quiet reporters.

    Workers pull round-robin micro-batches from the per-reporter queues
    only when they are free, so the quiet reports overtake the flood's
    backlog instead of queueing behind it.  Fairness needs a backlog:
    each analysis here sleeps (releasing the GIL, as a crawl waiting on
    the network does), so the flood is still queued when the quiet
    reports arrive.  Without it the inline engine analyses about as
    fast as the session admits, and no queue forms to be fair about.
    """

    FLOOD, QUIET = 60, 4
    ANALYSIS_S = 0.02

    @pytest.mark.parametrize("engine, jobs", [("inline", 1), ("process", 2)])
    def test_quiet_reporters_are_not_starved(self, tmp_path, monkeypatch, engine, jobs):
        analyze = CrawlerBox.analyze_to_wire

        def slow_analyze(box, *args, **kwargs):
            time.sleep(self.ANALYSIS_S)
            return analyze(box, *args, **kwargs)

        # Patched before the daemon starts, so forked workers inherit it.
        monkeypatch.setattr(CrawlerBox, "analyze_to_wire", slow_analyze)
        reporters = ["flooder"] * self.FLOOD + [f"quiet-{k}" for k in range(self.QUIET)]
        flood = b"".join(
            encode_line({
                "op": "submit", "id": f"c{i}", "reporter": reporter,
                "eml": base64.b64encode(_eml(i)).decode("ascii"),
            })
            for i, reporter in enumerate(reporters)
        )
        with _daemon(tmp_path, executor=engine, jobs=jobs, batch_size=3) as daemon:
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=120) as conn:
                conn.sendall(flood)
                responses = conn.makefile("rb")
                verdicts = 0
                while verdicts < len(reporters):
                    op = json.loads(responses.readline())["op"]
                    assert op in ("accepted", "verdict"), op
                    verdicts += op == "verdict"
        # One connection: admission index i is submission i.
        appended = [entry["message_index"] for entry in CheckpointStore(tmp_path).scan().entries]
        assert sorted(appended) == list(range(len(reporters)))
        for quiet in range(self.FLOOD, len(reporters)):
            position = appended.index(quiet)
            flood_after = sum(index < self.FLOOD for index in appended[position + 1:])
            assert flood_after >= self.FLOOD // 2, (
                f"quiet report {quiet} appended at position {position} of "
                f"{len(appended)}, ahead of only {flood_after} flood records"
            )


class TestLatencyFromReceipt:
    def test_latency_counts_ingest(self, tmp_path, monkeypatch):
        # /stats latency is submit-to-verdict: the clock starts when the
        # submit line has been read, before decode and ingest.
        import repro.mail.ingest as ingest

        parse = ingest.ingest_eml_bytes

        def slow_ingest(raw, *args, **kwargs):
            time.sleep(0.03)
            return parse(raw, *args, **kwargs)

        monkeypatch.setattr(ingest, "ingest_eml_bytes", slow_ingest)
        with _daemon(tmp_path) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                for raw in MESSAGES[:5]:
                    client.submit_bytes(raw, reporter="acme")
                client.wait_verdicts(timeout=120)
                latency = client.stats()["latency"]
        assert latency["count"] == 5
        assert latency["p50_ms"] >= 30.0, latency


def _drain_within(daemon, timeout: float) -> int:
    """Shut ``daemon`` down; its exit code, or fail if the drain hangs."""
    codes: list[int] = []
    daemon.request_shutdown()
    waiter = threading.Thread(target=lambda: codes.append(daemon.wait()), daemon=True)
    waiter.start()
    waiter.join(timeout)
    assert codes, f"drain still running after {timeout:g}s"
    return codes[0]


class TestServeEngineFaults:
    """Worker faults under a ``--jobs 2`` process daemon.

    Each case injects a :attr:`RunnerConfig.fault` (or a world-build
    failure) and waits only with bounds: a client socket timeout and a
    thread join on the drain.
    """

    def _start(self, directory, fault: str = "") -> ServeDaemon:
        daemon = ServeDaemon(
            ServeConfig(
                run=RunnerConfig(seed=SEED, scale=SCALE, fault=fault),
                jobs=2, executor="process", batch_size=3,
            ),
            directory,
        )
        daemon.start()
        return daemon

    def _serve(self, daemon, messages, timeout: float = 60.0) -> list:
        """(outcome, final response line) per submission."""
        finals: dict[str, dict] = {}
        with ServeClient("127.0.0.1", daemon.port, timeout=timeout) as client:
            pump = client._pump_one

            def recording_pump() -> dict:
                payload = pump()
                if payload.get("op") in ("verdict", "failed"):
                    finals[payload["id"]] = payload
                return payload

            client._pump_one = recording_pump
            outcomes = [client.submit_bytes(raw, reporter="acme") for raw in messages]
            assert all(o.accepted for o in outcomes)
            client.wait_verdicts(timeout=timeout)
        return [(o, finals[o.client_id]) for o in outcomes]

    def test_crashing_submission_fails_alone_after_retries(self, tmp_path):
        with _daemon(tmp_path / "clean") as daemon:
            clean = self._serve(daemon, MESSAGES[:4])
        daemon = self._start(tmp_path / "crash", fault="crash:1")
        try:
            served = self._serve(daemon, MESSAGES[:4])
        finally:
            assert _drain_within(daemon, 60.0) == 0
        assert multiprocessing.active_children() == []
        failed = [final for _, final in served if final["op"] == "failed"]
        assert [final["message_index"] for final in failed] == [1]
        assert failed[0]["attempts"] == 3
        assert "WorkerCrash" in failed[0]["error"]
        for (outcome, _), (reference, _) in zip(served, clean):
            if outcome.message_index != 1:
                assert outcome.status == "verdict"
                assert outcome.record == reference.record

    def test_wedged_submission_is_quarantined(self, tmp_path, monkeypatch):
        # ``raising=False``: a build without the constant must fail on
        # the bounded waits below, not here.
        monkeypatch.setattr(executor, "STALL_TIMEOUT", 1.0, raising=False)
        daemon = self._start(tmp_path, fault="wedge:1")
        try:
            served = self._serve(daemon, MESSAGES[:4], timeout=30.0)
        finally:
            code = _drain_within(daemon, 30.0)
        assert code == 0
        assert multiprocessing.active_children() == []
        assert [o.status for o, _ in served] == ["verdict"] * 4
        record = served[1][0].record
        assert record["category"] == "quarantined"
        assert record["quarantine"]["reason"].startswith("worker-stall")

    def test_worker_init_failure_fails_every_submission(self, tmp_path, monkeypatch):
        parent, build = os.getpid(), RunnerConfig.build

        def build_in_parent_only(config, world):
            if os.getpid() != parent:
                raise RuntimeError("injected world-build failure")
            return build(config, world)

        # Forked workers inherit the patch; this process never builds.
        monkeypatch.setattr(RunnerConfig, "build", build_in_parent_only)
        daemon = self._start(tmp_path)
        try:
            served = self._serve(daemon, MESSAGES[:4], timeout=30.0)
        finally:
            code = _drain_within(daemon, 30.0)
        assert code == 1
        assert multiprocessing.active_children() == []
        assert [o.status for o, _ in served] == ["failed"] * 4
        assert all("failed to initialize" in final["error"] for _, final in served)
        assert all("injected world-build failure" in final["error"] for _, final in served)

    def test_idle_daemon_outlives_the_stall_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(executor, "STALL_TIMEOUT", 1.0, raising=False)
        daemon = self._start(tmp_path)
        try:
            time.sleep(2.5)  # idle well past the stall timeout
            served = self._serve(daemon, MESSAGES[:3], timeout=30.0)
        finally:
            assert _drain_within(daemon, 30.0) == 0
        assert multiprocessing.active_children() == []
        assert [o.status for o, _ in served] == ["verdict"] * 3


# ----------------------------------------------------------------------
# Real signals against the real CLI, mirroring test_shutdown.py
# ----------------------------------------------------------------------
def _launch_serve(checkpoint, *flags: str, seed: int = SEED) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--checkpoint", str(checkpoint),
         "--seed", str(seed), "--scale", str(SCALE),
         "--jobs", "1", "--executor", "inline", *flags],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )


def _wait_for_endpoint(checkpoint, process, timeout: float = 120.0) -> dict:
    deadline = time.time() + timeout
    endpoint_path = pathlib.Path(checkpoint) / "endpoint.json"
    while time.time() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon exited early ({process.returncode}):\n{process.stdout.read()}"
            )
        if endpoint_path.exists():
            try:
                endpoint = json.loads(endpoint_path.read_text())
            except json.JSONDecodeError:
                endpoint = None
            if endpoint and endpoint.get("pid") == process.pid:
                return endpoint
        time.sleep(0.1)
    raise AssertionError(f"no endpoint.json after {timeout}s")


class TestSigtermDrain:
    def test_kill_between_submissions_then_restart_is_byte_identical(self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        with _daemon(baseline_dir) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                for raw in MESSAGES:
                    client.submit_bytes(raw, reporter="acme")
                client.wait_verdicts(timeout=120)

        served_dir = tmp_path / "served"
        process = _launch_serve(served_dir)
        try:
            endpoint = _wait_for_endpoint(served_dir, process)
            client = ServeClient(endpoint["host"], endpoint["port"], timeout=120)
            accepted = [client.submit_bytes(raw, reporter="acme") for raw in MESSAGES[:5]]
            assert all(o.accepted for o in accepted)
            # SIGTERM lands between submissions, possibly with analysis
            # still in flight: the daemon must drain every accepted
            # submission before exiting 0.
            os.killpg(process.pid, signal.SIGTERM)
            assert process.wait(timeout=240) == 0
            with contextlib.suppress(Exception):
                client.close(bye=False)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=60)

        manifest = json.loads((served_dir / "manifest.json").read_text())
        assert manifest["status"] == "stopped"
        assert manifest["service"]["next_index"] == 5
        assert len(_records_lines(served_dir)) == 5  # drained, durable

        # Restart on the same checkpoint; the client replays the rest.
        (served_dir / "endpoint.json").unlink()
        process = _launch_serve(served_dir)
        try:
            endpoint = _wait_for_endpoint(served_dir, process)
            with ServeClient(endpoint["host"], endpoint["port"], timeout=120) as client:
                outcomes = [
                    client.submit_bytes(raw, reporter="acme") for raw in MESSAGES[5:]
                ]
                assert [o.message_index for o in outcomes] == [5, 6, 7]
                client.wait_verdicts(timeout=120)
                stats = client.stats()
                _assert_reconciled(stats)
                assert stats["completed"] == 8  # restored + new
            os.killpg(process.pid, signal.SIGTERM)
            assert process.wait(timeout=240) == 0
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=60)

        assert _records_lines(served_dir) == _records_lines(baseline_dir)


#: Every key :meth:`RunnerConfig.manifest_items` can write.
_SETTING_KEYS = ("seed", "scale", "faults", "fault_seed", "storage_faults",
                 "storage_fault_seed", "budget", "guard_limits", "stages", "hostile")


class TestCliSettings:
    """How ``repro serve`` flags land in its checkpoint manifest."""

    def _idle_manifest(self, directory, *flags: str) -> dict:
        process = _launch_serve(directory, *flags, seed=5)
        try:
            _wait_for_endpoint(directory, process)
            os.killpg(process.pid, signal.SIGTERM)
            assert process.wait(timeout=240) == 0
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=60)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["status"] == "stopped"
        return manifest

    def test_serve_flags_map_onto_the_manifest(self, tmp_path):
        plain = self._idle_manifest(tmp_path / "plain")
        # serve takes no --faults/--fault-seed: the fault seed stays 0,
        # not the --seed a batch run would fall back to.
        assert {key: plain[key] for key in _SETTING_KEYS if key in plain} == {
            "seed": 5, "scale": SCALE, "faults": "off", "fault_seed": 0,
        }
        # The global bucket starts full: 64 messages of the work budget.
        assert plain["service"]["admission"]["global"] == [64 * DEFAULT_WORK_LIMIT, 0]

        tuned = self._idle_manifest(
            tmp_path / "tuned", "--budget", "500000", "--guard-limit", "max_parts=64",
            "--storage-faults", "light",
        )
        assert {key: tuned[key] for key in _SETTING_KEYS if key in tuned} == {
            "seed": 5, "scale": SCALE, "faults": "off", "fault_seed": 0,
            "budget": 500000, "guard_limits": [["max_parts", 64]],
            "storage_faults": "light", "storage_fault_seed": 5,
        }
        # Admission is denominated in --budget when it is given.
        assert tuned["service"]["admission"]["global"] == [64 * 500000, 0]


# ----------------------------------------------------------------------
# Bookkeeping: what a kill -9 leaves, and what rolling compaction counts
# ----------------------------------------------------------------------
#: Enough distinct submissions to cross a small compaction threshold
#: several times.
MANY_MESSAGES = [_eml(i) for i in range(12)]


def _serve_one_at_a_time(daemon, messages) -> dict:
    """Submit ``messages`` to an in-process daemon, each after the
    previous verdict, and return its /stats."""
    with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
        for raw in messages:
            assert client.submit_bytes(raw, reporter="acme").accepted
            client.wait_verdicts(timeout=120)
        return client.stats()


class TestKillNineRestart:
    def test_kill_nine_then_restart_restores_the_ledger(self, tmp_path, monkeypatch):
        baseline_dir = tmp_path / "baseline"
        with _daemon(baseline_dir) as daemon:
            _serve_one_at_a_time(daemon, MESSAGES)

        # The daemon SIGKILLs itself right after its fifth durable line:
        # no drain, no final manifest.
        killed_dir = tmp_path / "killed"
        monkeypatch.setenv("REPRO_KILL_AFTER_RECORDS", "5")
        process = _launch_serve(killed_dir)
        monkeypatch.delenv("REPRO_KILL_AFTER_RECORDS")
        try:
            endpoint = _wait_for_endpoint(killed_dir, process)
            client = ServeClient(endpoint["host"], endpoint["port"], timeout=120)
            with contextlib.suppress(OSError, EOFError):
                for raw in MESSAGES:
                    client.submit_bytes(raw, reporter="acme")
                    client.wait_verdicts(timeout=120)
            assert process.wait(timeout=240) == -signal.SIGKILL
            with contextlib.suppress(Exception):
                client.close(bye=False)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=60)
        assert len(_records_lines(killed_dir)) == 5

        # The restart trusts the records over the stale manifest, and
        # the replay continues from message 5.
        (killed_dir / "endpoint.json").unlink()
        process = _launch_serve(killed_dir)
        try:
            endpoint = _wait_for_endpoint(killed_dir, process)
            with ServeClient(endpoint["host"], endpoint["port"], timeout=120) as client:
                restored = client.stats()
                assert [restored[key] for key in ("submitted", "accepted", "completed")] == [
                    5, 5, 5
                ]
                outcomes = [client.submit_bytes(raw, reporter="acme") for raw in MESSAGES[5:]]
                assert [o.message_index for o in outcomes] == [5, 6, 7]
                client.wait_verdicts(timeout=120)
                stats = client.stats()
                _assert_reconciled(stats)
                assert stats["completed"] == 8
            os.killpg(process.pid, signal.SIGTERM)
            assert process.wait(timeout=240) == 0
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=60)

        assert _records_lines(killed_dir) == _records_lines(baseline_dir)


class TestRollingCompaction:
    @pytest.mark.parametrize("retain", [None, 3])
    def test_compaction_keeps_its_bookkeeping(self, tmp_path, retain):
        with _daemon(tmp_path, compact_lines=4, retain=retain) as daemon:
            stats = _serve_one_at_a_time(daemon, MANY_MESSAGES)
        compactions = stats["checkpoint"]["compactions"]
        assert compactions > 0
        assert stats["checkpoint"]["lines"] == len(_records_lines(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["service"]["compactions"] == compactions
        scan = CheckpointStore(tmp_path).scan()
        assert scan.issues == []
        expected = [9, 10, 11] if retain else list(range(len(MANY_MESSAGES)))
        assert sorted(scan.indices) == expected

    def test_compaction_waits_for_new_lines(self, tmp_path):
        # Without --retain a compaction cannot shrink 11 distinct
        # records below the threshold of 4: the next one waits for 4
        # more lines instead of rewriting the file on every verdict.
        with _daemon(tmp_path, compact_lines=4) as daemon:
            stats = _serve_one_at_a_time(daemon, MANY_MESSAGES[:11])
        assert 1 <= stats["checkpoint"]["compactions"] <= 2
        assert stats["checkpoint"]["lines"] == 11

"""The serve daemon's storage health machine: ok -> degraded ->
readonly -> recovered, with zero accepted-record loss.

A scripted storage-fault engine fails exactly the ``records.jsonl``
appends the test says to fail.  The contract under test:

- a failed verdict append *degrades* the daemon (the verdict still
  streams; its wire bytes are buffered, never dropped);
- enough consecutive failures flip it *readonly*: new submissions shed
  with an explicit machine-readable ``overloaded`` response whose
  reason names the storage failure, ``/healthz`` answers 503 but keeps
  answering, and the ``/stats`` reconciliation invariant still holds;
- readonly sheds never tick the admission clock, so the deterministic
  shed set of the admission transcript is unaffected;
- when the disk heals, the next arrival probes recovery: the buffer
  drains in order, health returns to ``ok``, and the drained checkpoint
  holds every accepted record exactly once.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import urllib.error
import urllib.request

import pytest

from repro.runner import CheckpointStore
from repro.runner.executor import RunnerConfig
from repro.serve import ServeClient, ServeConfig, ServeDaemon, server
from repro.storage.durable import install_storage_faults
from repro.storage.faults import InjectedDiskFull

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


class BrokenRecordsDisk:
    """Scripted engine: while ``failing``, every write to records.jsonl
    reports ENOSPC; everything else (manifest, endpoint) stays healthy."""

    active = True

    def __init__(self):
        self.failing = False

    def write_fault(self, path, nbytes):
        if self.failing and pathlib.PurePath(path).name == "records.jsonl":
            return InjectedDiskFull("records.jsonl: no space left (scripted)"), 0
        return None

    def check_fsync(self, path):
        pass

    def check_replace(self, path):
        pass


@pytest.fixture()
def broken_disk():
    disk = BrokenRecordsDisk()
    install_storage_faults(disk)
    yield disk
    install_storage_faults(None)


@contextlib.contextmanager
def _daemon(directory, monkeypatch):
    # Two consecutive failed appends trip readonly (the default is three).
    monkeypatch.setattr(server, "READONLY_AFTER", 2)
    config = ServeConfig(
        run=RunnerConfig(seed=SEED, scale=SCALE), jobs=1, executor="inline", batch_size=1,
    )
    daemon = ServeDaemon(config, directory)
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.request_shutdown()
        assert daemon.wait() == 0


def _healthz(port: int) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=30
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _assert_reconciled(stats: dict) -> None:
    assert stats["submitted"] == (
        stats["accepted"] + stats["shed"] + stats["rejected"]
    )
    assert stats["accepted"] == (
        stats["completed"] + stats["failed"] + stats["queued"] + stats["in_flight"]
    )


class TestStorageHealthMachine:
    def test_degrade_readonly_shed_recover_zero_loss(self, tmp_path, broken_disk, monkeypatch):
        with _daemon(tmp_path, monkeypatch) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                # Healthy baseline: two verdicts, both durable.
                for i in range(2):
                    assert client.submit_bytes(_eml(i), reporter="acme").accepted
                client.wait_verdicts(timeout=120)
                assert daemon.storage_health == "ok"

                # First failed append: degraded, verdict still streamed,
                # record buffered (not lost), /healthz still 200.
                broken_disk.failing = True
                outcome = client.submit_bytes(_eml(2), reporter="acme")
                assert outcome.accepted
                client.wait_verdicts(timeout=120)
                assert outcome.status == "verdict"
                assert daemon.storage_health == "degraded"
                status, health = _healthz(daemon.port)
                assert status == 200 and health["status"] == "degraded"
                assert health["storage"]["pending_appends"] == 1

                # Second consecutive failure trips READONLY_AFTER=2.
                outcome = client.submit_bytes(_eml(3), reporter="acme")
                assert outcome.accepted
                client.wait_verdicts(timeout=120)
                assert outcome.status == "verdict"
                assert daemon.storage_health == "readonly"
                status, health = _healthz(daemon.port)
                assert status == 503 and health["status"] == "readonly"
                assert health["storage"]["pending_appends"] == 2
                assert "no space left" in health["storage"]["last_error"]

                # Readonly sheds explicitly — and keeps /stats honest.
                shed = client.submit_bytes(_eml(4), reporter="acme")
                assert shed.status == "overloaded"
                assert "readonly" in shed.reason
                assert "no space left" in shed.reason
                stats = client.stats()
                _assert_reconciled(stats)
                assert stats["storage"]["health"] == "readonly"
                assert stats["storage"]["storage_shed"] == 1
                assert stats["storage"]["append_errors"] >= 2

                # Disk heals: the next arrival probes recovery, drains
                # the buffer in order, and is admitted normally.
                broken_disk.failing = False
                outcome = client.submit_bytes(_eml(5), reporter="acme")
                assert outcome.accepted
                client.wait_verdicts(timeout=120)
                assert outcome.status == "verdict"
                assert daemon.storage_health == "ok"
                status, health = _healthz(daemon.port)
                assert status == 200 and health["status"] == "ok"
                assert health["storage"]["pending_appends"] == 0
                assert health["storage"]["recoveries"] >= 1
                stats = client.stats()
                _assert_reconciled(stats)
                assert stats["completed"] == 5

        # Zero loss: all five accepted submissions (indices 0-4; the
        # shed one was never assigned an index) are durable exactly once.
        install_storage_faults(None)
        store = CheckpointStore(tmp_path)
        scan = store.scan()
        assert scan.corruption == []
        assert scan.indices == {0, 1, 2, 3, 4}
        manifest = store.read_manifest()
        assert manifest.status == "stopped"
        assert manifest.service["next_index"] == 5

    def test_drain_flushes_pending_buffer(self, tmp_path, broken_disk, monkeypatch):
        # Records buffered while degraded are flushed by the drain once
        # the disk heals — even with no further traffic to probe it.
        with _daemon(tmp_path, monkeypatch) as daemon:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                broken_disk.failing = True
                assert client.submit_bytes(_eml(0), reporter="acme").accepted
                client.wait_verdicts(timeout=120)
                assert daemon.storage_health == "degraded"
                broken_disk.failing = False
            # No more submissions: the drain itself must flush.
        install_storage_faults(None)
        store = CheckpointStore(tmp_path)
        assert store.scan().indices == {0}
        assert store.read_manifest().status == "stopped"

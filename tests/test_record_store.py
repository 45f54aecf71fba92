"""One record-store rule for both owners of a checkpoint.

A batch run (:class:`~repro.runner.runner.CorpusRunner`) and the serve
daemon (:class:`~repro.serve.server.ServeDaemon`) land their record
lines through the same :class:`~repro.runner.checkpoint.CheckpointStore`
calls and end a run with the same terminal sequence.  What a failure
*means* stays with the owner:

- a batch run whose appends keep failing aborts with the ``OSError``
  and a ``failed`` manifest; the lines that landed are fsck-clean and a
  ``resume`` on a healthy disk exports byte-identically to a run that
  never failed;
- on both owners the records reach stable storage before the terminal
  manifest claims the run over: the last ``records.jsonl`` fsync comes
  before the last ``manifest.json`` replace;
- every line the store lands is counted by its owner, including the
  parked lines a readonly daemon's probe lands.
"""

from __future__ import annotations

import errno
import json
import pathlib

import pytest

from repro.cli import main
from repro.dataset import CorpusGenerator
from repro.runner import CheckpointStore, CorpusRunner
from repro.runner.executor import RunnerConfig
from repro.serve import ServeClient, ServeConfig, ServeDaemon, server
from repro.storage.durable import install_storage_faults
from repro.storage.faults import InjectedDiskFull

SEED, SCALE = 31, 0.02
CONFIG = RunnerConfig(seed=SEED, scale=SCALE)


@pytest.fixture(autouse=True)
def _clean_engine():
    """The fault engine is process-global: never leak one."""
    yield
    install_storage_faults(None)


class RecordingDisk:
    """A storage-fault engine that injects nothing and logs every call."""

    active = True

    def __init__(self):
        self.calls: list[tuple[str, str]] = []

    def write_fault(self, path, nbytes):
        self.calls.append(("write", pathlib.PurePath(path).name))
        return None

    def check_fsync(self, path):
        self.calls.append(("fsync", pathlib.PurePath(path).name))

    def check_replace(self, path):
        self.calls.append(("replace", pathlib.PurePath(path).name))

    def last(self, call: tuple[str, str]) -> int:
        return max(position for position, seen in enumerate(self.calls) if seen == call)


class RecordsFillUp:
    """A storage-fault engine under which ``records.jsonl`` takes
    ``capacity`` lines and then refuses every write with ENOSPC."""

    active = True

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.written = 0

    def write_fault(self, path, nbytes):
        if pathlib.PurePath(path).name != "records.jsonl":
            return None
        if self.written >= self.capacity:
            return InjectedDiskFull("records.jsonl: no space left (scripted)"), 0
        self.written += 1
        return None

    def check_fsync(self, path):
        pass

    def check_replace(self, path):
        pass


def _runner(directory, executor: str) -> tuple[CorpusRunner, list]:
    corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
    inline = executor == "inline"
    runner = CorpusRunner(
        world=corpus.world,
        jobs=1 if inline else 2,
        executor=executor,
        config=CONFIG,
        checkpoint=CheckpointStore(directory),
        batch_size=None if inline else 2,
    )
    return runner, corpus.messages


@pytest.fixture(scope="module")
def uninterrupted_export(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("uninterrupted") / "export.json"
    assert main(["run", "--scale", str(SCALE), "--seed", str(SEED),
                 "--export", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_batch_run_aborts_when_appends_keep_failing(
    tmp_path, executor, uninterrupted_export, capsys
):
    capacity = 5
    checkpoint = tmp_path / "ckpt"
    runner, messages = _runner(checkpoint, executor)
    install_storage_faults(RecordsFillUp(capacity))
    with pytest.raises(OSError) as info:
        runner.run(messages)
    assert info.value.errno == errno.ENOSPC
    install_storage_faults(None)

    store = CheckpointStore(checkpoint)
    assert store.read_manifest().status == "failed"
    scan = store.scan()
    assert scan.issues == []
    assert scan.total_lines == capacity == len(scan.indices)

    out = tmp_path / "resumed.json"
    assert main(["resume", str(checkpoint), "--export", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == uninterrupted_export


def test_batch_run_syncs_records_before_the_terminal_manifest(tmp_path):
    disk = RecordingDisk()
    runner, messages = _runner(tmp_path, "inline")
    install_storage_faults(disk)
    runner.run(messages[:6])
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "complete"
    assert disk.last(("fsync", "records.jsonl")) < disk.last(("replace", "manifest.json"))


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


def test_lines_landed_by_a_readonly_probe_are_counted(tmp_path, monkeypatch):
    # Two failed verdict appends in a row make the daemon readonly; the
    # next arrival after the disk heals probes it, landing both parked
    # lines before its own.  /stats must count all four lines.
    monkeypatch.setattr(server, "READONLY_AFTER", 2)
    disk = RecordsFillUp(capacity=1)
    install_storage_faults(disk)
    config = ServeConfig(run=CONFIG, executor="inline", batch_size=1)
    daemon = ServeDaemon(config, tmp_path)
    daemon.start()
    try:
        with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
            for i in range(3):
                assert client.submit_bytes(_eml(i), reporter="acme").accepted
                client.wait_verdicts(timeout=120)
            assert daemon.storage_health == "readonly"
            disk.capacity = 100
            assert client.submit_bytes(_eml(3), reporter="acme").accepted
            client.wait_verdicts(timeout=120)
            assert daemon.storage_health == "ok"
            assert client.stats()["checkpoint"]["lines"] == 4
    finally:
        daemon.request_shutdown()
        assert daemon.wait() == 0
    assert CheckpointStore(tmp_path).scan().total_lines == 4


def test_drained_daemon_syncs_records_before_the_stopped_manifest(tmp_path):
    disk = RecordingDisk()
    install_storage_faults(disk)
    daemon = ServeDaemon(ServeConfig(run=CONFIG, executor="inline"), tmp_path)
    daemon.start()
    try:
        with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
            for i in range(3):
                assert client.submit_bytes(_eml(i), reporter="acme").accepted
            client.wait_verdicts(timeout=120)
    finally:
        daemon.request_shutdown()
        assert daemon.wait() == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "stopped"
    assert disk.last(("fsync", "records.jsonl")) < disk.last(("replace", "manifest.json"))

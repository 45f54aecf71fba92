"""Graceful shutdown: drain on SIGINT, survive SIGKILL, resume exactly.

These tests drive the real CLI in a subprocess (signals delivered to a
live process, not simulated), then finish the run in-process and compare
against an uninterrupted baseline:

- first SIGINT: workers finish their in-flight messages, the checkpoint
  flushes, the manifest lands as ``status: interrupted``, and the exit
  code is 130;
- SIGKILL of the whole process group (no chance to clean up): the
  checkpoint may carry a torn tail but nothing worse;
- in both cases a bare ``resume`` completes the run with records
  byte-identical to a never-interrupted one, on both executors.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.runner import CheckpointStore

SEED, SCALE = 31, 0.06
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def baseline_export(tmp_path_factory):
    """Records of the uninterrupted run, exported once."""
    path = tmp_path_factory.mktemp("baseline") / "run.json"
    assert main(["run", "--scale", str(SCALE), "--seed", str(SEED),
                 "--export", str(path)]) == 0
    return json.loads(path.read_text())["records"]


def _launch(checkpoint, executor: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run",
         "--scale", str(SCALE), "--seed", str(SEED),
         "--jobs", "1" if executor == "inline" else "2", "--executor", executor,
         "--checkpoint", str(checkpoint)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # its own process group, killable as one
    )


def _wait_for_records(checkpoint, minimum: int, timeout: float = 120.0) -> int:
    """Block until ``records.jsonl`` holds >= minimum lines."""
    records = checkpoint / "records.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if records.exists():
            lines = records.read_text().count("\n")
            if lines >= minimum:
                return lines
        time.sleep(0.05)
    raise AssertionError(f"no {minimum} durable records within {timeout}s")


def _resume_and_export(checkpoint, tmp_path):
    out = tmp_path / "resumed.json"
    assert main(["resume", str(checkpoint), "--export", str(out)]) == 0
    return json.loads(out.read_text())["records"]


@pytest.mark.parametrize("executor", ["process", "inline"])
class TestSigintDrain:
    def test_sigint_drains_then_resume_is_byte_identical(
        self, tmp_path, executor, baseline_export, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        proc = _launch(checkpoint, executor)
        try:
            _wait_for_records(checkpoint, minimum=2)
            proc.send_signal(signal.SIGINT)
            output = proc.communicate(timeout=120)[0]
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)

        if proc.returncode == 0:
            pytest.skip("run finished before the signal landed")
        assert proc.returncode == 130, output
        assert "Drain requested" in output
        assert "Interrupted:" in output
        assert "resume" in output

        # The drain left a *consistent* checkpoint: CRC-clean lines and
        # an 'interrupted' manifest that already counts them.
        store = CheckpointStore(checkpoint)
        scan = store.scan()
        assert scan.issues == []
        manifest = store.read_manifest()
        assert manifest.status == "interrupted"
        assert manifest.completed == len(scan.indices)
        assert manifest.completed < manifest.total_messages

        resumed = _resume_and_export(checkpoint, tmp_path)
        capsys.readouterr()
        assert json.dumps(resumed) == json.dumps(baseline_export)


@pytest.mark.parametrize("executor", ["process", "inline"])
class TestSigkillResume:
    def test_sigkill_then_resume_is_byte_identical(
        self, tmp_path, executor, baseline_export, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        proc = _launch(checkpoint, executor)
        try:
            _wait_for_records(checkpoint, minimum=2)
        finally:
            # No warning, no cleanup: the whole process group dies now.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=120)

        # At worst the kill tore the line being appended; fsck agrees
        # the checkpoint is otherwise intact.
        store = CheckpointStore(checkpoint)
        assert store.scan().corruption == []
        assert main(["fsck", str(checkpoint)]) == 0
        capsys.readouterr()

        resumed = _resume_and_export(checkpoint, tmp_path)
        capsys.readouterr()
        assert json.dumps(resumed) == json.dumps(baseline_export)

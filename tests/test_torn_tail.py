"""The tail rule: a torn final line never costs a record.

A process killed mid-append leaves ``records.jsonl`` ending without a
newline.  Before its first append after opening,
:class:`~repro.runner.checkpoint.CheckpointStore` ends the file on a
newline by the validity rule :meth:`~CheckpointStore.scan` applies to
every line: it cuts a torn final line back to the byte after the last
newline, and terminates a final line that is intact but lost only its
newline.  Under test:

- the store: a torn tail is cut (and not counted in ``lines``), an
  intact unterminated line is kept and terminated, a clean file is left
  alone, and each repair is counted once per opening in ``health()``;
- the CLI: a triage run killed after 10 records, with 25 bytes of a
  line appended, resumes to a ``complete`` manifest whose ``completed``
  equals the distinct intact indices, ``fsck`` exits 0, and the export
  equals the uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

from repro.core.artifacts import MessageRecord
from repro.core.export import encode_record_line, record_to_line
from repro.runner import CheckpointStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTINGS = ["--scale", "0.02", "--seed", "3", "--stages", "auth,parse"]


def _line(index: int) -> bytes:
    payload = record_to_line(
        MessageRecord(
            message_index=index,
            delivered_at=1.5,
            recipient="user@example.org",
            sender_domain="sender.example",
            category="inactive",
        )
    )
    return encode_record_line(payload).encode()


def _good_lines(*indices: int) -> bytes:
    return b"".join(_line(index) + b"\n" for index in indices)


def _repro(*argv: str, kill_after: int | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    if kill_after is not None:
        env["REPRO_KILL_AFTER_RECORDS"] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )


def test_first_append_cuts_a_torn_tail(tmp_path):
    store = CheckpointStore(tmp_path)
    store.records_path.write_bytes(_good_lines(0, 1) + _line(2)[:25])
    assert store.scan().issues[0].torn_tail
    assert store.lines == 2  # the torn tail is cut before it could count
    store.land(_line(3))
    assert store.records_path.read_bytes() == _good_lines(0, 1, 3)
    scan = store.scan()
    assert scan.issues == [] and scan.indices == {0, 1, 3}
    assert store.lines == 3
    assert store.health()["tail_repairs"] == 1
    store.land(_line(4))
    assert store.health()["tail_repairs"] == 1  # once per opening


def test_first_append_terminates_an_intact_final_line(tmp_path):
    store = CheckpointStore(tmp_path)
    store.records_path.write_bytes(_good_lines(0, 1) + _line(2))
    assert store.scan().indices == {0, 1, 2}
    assert store.lines == 3
    store.land(_line(3))
    assert store.records_path.read_bytes() == _good_lines(0, 1, 2, 3)
    assert store.lines == 4
    assert store.health()["tail_repairs"] == 1


def test_a_clean_file_is_left_alone(tmp_path):
    store = CheckpointStore(tmp_path)
    store.records_path.write_bytes(_good_lines(0))
    store.land(_line(1))
    assert store.records_path.read_bytes() == _good_lines(0, 1)
    assert store.health()["tail_repairs"] == 0


def test_resume_after_torn_bytes_keeps_every_record(tmp_path):
    """A kill mid-append, modelled as 25 bytes of a line after the last
    whole one: the resumed run's first line must not glue onto them."""
    checkpoint = tmp_path / "killed"
    killed = _repro("run", *SETTINGS, "--checkpoint", str(checkpoint), kill_after=10)
    assert killed.returncode == -signal.SIGKILL, killed.stdout + killed.stderr
    records = checkpoint / "records.jsonl"
    first_line = records.read_bytes().splitlines()[0]
    with records.open("ab") as handle:
        handle.write(first_line[:25])

    resumed = _repro("resume", str(checkpoint), "--export", str(tmp_path / "resumed.json"))
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    fsck = _repro("fsck", str(checkpoint))
    assert fsck.returncode == 0, fsck.stdout
    scan = CheckpointStore(checkpoint).scan()
    assert scan.issues == []
    manifest = json.loads((checkpoint / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"
    assert manifest["completed"] == len(scan.indices) == manifest["total_messages"]

    full = _repro("run", *SETTINGS, "--export", str(tmp_path / "full.json"))
    assert full.returncode == 0, full.stdout + full.stderr
    assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "full.json").read_bytes()

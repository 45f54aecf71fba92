"""One reader for ``records.jsonl``: fsck, compact, salvage and resume agree.

:meth:`CheckpointStore.scan` is the only code that parses the records
file, and it alone decides what an intact line is: the CRC matches (or
the line is v1), the payload is a JSON object, and its
``message_index`` is an integer.  Under test:

- a property over generated records files that mix v2 and v1 lines,
  duplicate indices, a flipped interior byte, non-integer or missing
  indices, invalid UTF-8, blank lines and a torn final line: ``scan``
  and ``load_records`` never raise and yield integer indices only;
  ``compact`` keeps exactly the scanned indices with counts taken from
  the scan, and its output scans clean and loads the same records;
  ``salvage_to`` writes the compacted bytes; ``repro fsck`` exits 0
  exactly when the scan finds no corruption;
- the CLI, on a killed triage run whose sixth line carries its index
  as a string under a valid CRC: ``fsck`` names the line and exits 1,
  ``fsck --repair`` salvages a clean checkpoint, and ``resume``
  re-analyses the line into the uninterrupted run's export.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.artifacts import MessageRecord
from repro.core.export import encode_record_line, record_to_line
from repro.runner import CheckpointStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _payload(index: int, tag: int) -> str:
    return record_to_line(
        MessageRecord(
            message_index=index,
            delivered_at=1.5 * tag,
            recipient=f"user{tag}@example.org",
            sender_domain="sender.example",
            category="inactive",
        )
    )


# ----------------------------------------------------------------------
# Generated records files
# ----------------------------------------------------------------------
_INDEX = st.integers(0, 5)
_TAG = st.integers(0, 3)
#: Values a line may carry as its ``message_index`` that are not
#: integers (``"drop"`` removes the key).
_NOT_AN_INDEX = st.sampled_from(["3", 3.0, True, False, None, "drop"])

_LINE = st.one_of(
    st.tuples(st.just("v2"), _INDEX, _TAG),
    st.tuples(st.just("v1"), _INDEX, _TAG),
    st.tuples(st.just("not-an-index"), _NOT_AN_INDEX, st.booleans()),
    st.tuples(st.just("flip"), _INDEX, st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("bad-utf8"), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("blank"), st.sampled_from([b"", b"  ", b"\t"])),
)


def _render(spec: tuple) -> bytes:
    kind = spec[0]
    if kind == "v2":
        return encode_record_line(_payload(spec[1], spec[2])).encode()
    if kind == "v1":
        return _payload(spec[1], spec[2]).encode()
    if kind == "not-an-index":
        _, value, framed = spec
        data = json.loads(_payload(0, 0))
        if value == "drop":
            del data["message_index"]
        else:
            data["message_index"] = value
        line = json.dumps(data, separators=(",", ":"))
        return (encode_record_line(line) if framed else line).encode()
    if kind == "flip":
        _, index, position, mask = spec
        line = bytearray(encode_record_line(_payload(index, 0)).encode())
        position %= len(line)
        if line[position] ^ mask == ord("\n"):
            mask ^= 1  # stay on one line
        line[position] ^= mask
        return bytes(line)
    if kind == "bad-utf8":
        return b"\xff" + spec[1].replace(b"\n", b"")
    return spec[1]  # blank


def _records_file(specs: list[tuple], torn: int) -> bytes:
    body = b"".join(_render(spec) + b"\n" for spec in specs)
    if torn:
        # A kill mid-append: part of one more line, no newline.
        tail = encode_record_line(_payload(5, 3)).encode()
        body += tail[: torn % len(tail)]
    return body


def _fsck(directory: pathlib.Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["fsck", str(directory)])


def _lines(records: list[MessageRecord]) -> list[str]:
    return [record_to_line(record) for record in records]


@settings(max_examples=120, deadline=None)
@given(st.lists(_LINE, max_size=12), st.integers(0, 400))
@example([("v2", 1, 0), ("not-an-index", "3", True), ("v2", 2, 1)], 0)
@example([("v2", 1, 0), ("v1", 1, 2), ("flip", 3, 40, 7), ("blank", b"")], 17)
def test_fsck_compact_salvage_and_resume_agree_on_every_line(specs, torn):
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        source = CheckpointStore(root / "source")
        content = _records_file(specs, torn)
        source.records_path.write_bytes(content)

        scan = source.scan()
        loaded = source.load_records()
        assert all(type(index) is int for index in scan.indices)
        assert [record.message_index for record in loaded] == sorted(scan.indices)
        assert all(type(entry["message_index"]) is int for entry in scan.entries)

        assert _fsck(source.directory) == (1 if scan.corruption else 0)

        copy = CheckpointStore(root / "compacted")
        copy.records_path.write_bytes(content)
        result = copy.compact()
        assert result.lines_before == scan.total_lines
        assert result.lines_after == len(scan.indices)
        assert result.corrupt_dropped == len(scan.issues)
        assert result.duplicates_dropped == len(scan.entries) - len(scan.indices)
        assert result.retired == 0
        compacted = copy.scan()
        assert compacted.issues == []
        assert compacted.indices == scan.indices
        assert _lines(copy.load_records()) == _lines(loaded)

        repaired = source.salvage_to(root / "salvaged")
        assert repaired.records_path.read_bytes() == copy.records_path.read_bytes()


# ----------------------------------------------------------------------
# The CLI on a checkpoint with a string index under a valid CRC
# ----------------------------------------------------------------------
SETTINGS = ["--scale", "0.02", "--seed", "3", "--stages", "auth,parse"]


def _repro(*argv: str, kill_after: int | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    if kill_after is not None:
        env["REPRO_KILL_AFTER_RECORDS"] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )


def test_string_index_is_corruption_that_fsck_repairs_and_resume_reanalyses(tmp_path):
    checkpoint = tmp_path / "killed"
    killed = _repro("run", *SETTINGS, "--checkpoint", str(checkpoint), kill_after=20)
    assert killed.returncode == -signal.SIGKILL, killed.stdout + killed.stderr

    records = checkpoint / "records.jsonl"
    lines = records.read_text(encoding="utf-8").splitlines()
    data = json.loads(lines[5].rpartition("\t")[0])
    data["message_index"] = str(data["message_index"])
    lines[5] = encode_record_line(json.dumps(data, separators=(",", ":")))
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")

    fsck = _repro("fsck", str(checkpoint))
    assert fsck.returncode == 1, fsck.stdout
    assert "line 6: CORRUPT [missing-index]" in fsck.stdout

    repaired = tmp_path / "repaired"
    repair = _repro("fsck", str(checkpoint), "--repair", str(repaired))
    assert f"Salvaged {len(lines) - 1} record(s)" in repair.stdout, repair.stdout
    clean = _repro("fsck", str(repaired))
    assert clean.returncode == 0, clean.stdout
    assert "RESULT: checkpoint intact" in clean.stdout

    resumed = _repro("resume", str(checkpoint), "--export", str(tmp_path / "resumed.json"))
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "1 corrupt line(s)" in resumed.stdout
    full = _repro("run", *SETTINGS, "--export", str(tmp_path / "full.json"))
    assert full.returncode == 0, full.stdout + full.stderr
    assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "full.json").read_bytes()

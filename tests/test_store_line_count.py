"""The checkpoint store counts the lines ``records.jsonl`` holds.

:meth:`~repro.runner.checkpoint.CheckpointStore.scan` sets the count
from what it read, every line that lands adds one (a parked line once
a probe lands it), and a compaction sets it to what it wrote.  The
serve daemon reports this count as ``/stats`` ``checkpoint.lines``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.runner import CheckpointStore
from repro.runner.checkpoint import encode_record_line
from repro.storage.durable import install_storage_faults
from repro.storage.faults import InjectedDiskFull


class RecordsRefused:
    """A storage-fault engine that refuses ``records.jsonl`` appends
    while ``full`` is set."""

    active = True

    def __init__(self):
        self.full = False

    def write_fault(self, path, nbytes):
        if self.full and pathlib.PurePath(path).name == "records.jsonl":
            return InjectedDiskFull("records.jsonl: no space left (scripted)"), 0
        return None

    def check_fsync(self, path):
        pass

    def check_replace(self, path):
        pass


@pytest.fixture(autouse=True)
def _clean_engine():
    """The fault engine is process-global: never leak one."""
    yield
    install_storage_faults(None)


def _wire(index: int, tag: str = "a") -> bytes:
    payload = json.dumps({"message_index": index, "tag": tag}, separators=(",", ":"))
    return encode_record_line(payload).encode()


def _file_lines(store: CheckpointStore) -> int:
    return len(store.records_path.read_bytes().splitlines())


def test_the_count_follows_scan_land_probe_and_compact(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.scan().total_lines == store.lines == 0

    store.records_path.write_bytes(
        b"".join(line + b"\n" for line in (_wire(0, "old"), _wire(1), _wire(0, "new")))
    )
    store.scan()
    assert store.lines == 3

    store.land(_wire(2))
    assert store.lines == _file_lines(store) == 4

    disk = RecordsRefused()
    install_storage_faults(disk)
    disk.full = True
    store.land(_wire(3))
    assert store.pending == 1
    assert store.lines == _file_lines(store) == 4  # parked, not yet a line
    disk.full = False
    store.probe()
    assert store.pending == 0
    assert store.lines == _file_lines(store) == 5

    result = store.compact()
    assert result.lines_after == 4  # the superseded index-0 line is gone
    assert store.lines == _file_lines(store) == 4
    store.land(_wire(4))
    assert store.lines == _file_lines(store) == 5


def test_a_salvaged_store_counts_what_it_was_written(tmp_path):
    store = CheckpointStore(tmp_path / "source")
    for index in (0, 1, 1):
        store.land(_wire(index))
    repaired = store.salvage_to(tmp_path / "repaired")
    assert repaired.lines == _file_lines(repaired) == 2

"""Checkpoint integrity: CRC-suffixed records, scan, salvage, and fsck.

The durability contract under test:

- every appended line carries a CRC32 suffix (v2); v1 checkpoints —
  written before the suffix existed — remain fully readable;
- a *torn tail* (writer killed mid-append) is expected and tolerated:
  the interrupted record simply re-analyses on resume;
- *interior* corruption (bit rot, hostile edits, valid JSON without a
  ``message_index``) is detected and reported, never silently dropped;
- ``CheckpointStore.salvage_to`` copies every intact record to a fresh
  checkpoint whose resume completes byte-identically;
- ``repro fsck`` exposes all of the above with exit codes scripts can
  trust (0 = intact, 1 = corruption or unreadable manifest).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import CrawlerBox
from repro.core.export import export_records
from repro.dataset import CorpusGenerator
from repro.runner import (
    CheckpointStore,
    CorpusRunner,
    RunnerConfig,
    encode_record_line,
    parse_record_line,
)

SEED, SCALE = 31, 0.02
SAMPLE = 8


@pytest.fixture(scope="module")
def integrity_corpus():
    return CorpusGenerator(seed=SEED, scale=SCALE).generate()


@pytest.fixture(scope="module")
def serial_records(integrity_corpus):
    box = CrawlerBox.for_world(integrity_corpus.world)
    return box.analyze_corpus(integrity_corpus.messages[:SAMPLE])


def _checkpointed_run(corpus, directory, **store_kwargs):
    store = CheckpointStore(directory, **store_kwargs)
    runner = CorpusRunner(
        box=CrawlerBox.for_world(corpus.world),
        jobs=1,
        checkpoint=store,
        config=RunnerConfig(seed=SEED, scale=SCALE),
    )
    result = runner.run(corpus.messages[:SAMPLE])
    return store, result


# ----------------------------------------------------------------------
# The line format
# ----------------------------------------------------------------------
class TestLineFormat:
    def test_round_trip(self):
        payload = json.dumps({"message_index": 17, "category": "inactive"})
        data, issue = parse_record_line(encode_record_line(payload))
        assert issue is None
        assert data == {"message_index": 17, "category": "inactive"}

    def test_v1_line_without_suffix_still_parses(self):
        data, issue = parse_record_line('{"message_index": 3}')
        assert issue is None
        assert data == {"message_index": 3}

    def test_flipped_byte_is_crc_mismatch(self):
        line = encode_record_line('{"message_index": 17, "spear": false}')
        corrupted = line.replace("17", "18", 1)  # plausible-looking edit
        data, issue = parse_record_line(corrupted)
        assert data is None
        assert issue == "crc-mismatch"

    def test_truncated_v1_line_is_bad_json(self):
        data, issue = parse_record_line('{"message_index": 17, "cat')
        assert data is None
        assert issue == "bad-json"

    def test_suffix_survives_tabs_nowhere_else(self):
        # json.dumps escapes control characters, so the literal TAB of
        # the separator cannot occur inside the payload.
        payload = json.dumps({"subject": "tab\there", "message_index": 0})
        assert "\t" not in payload
        data, issue = parse_record_line(encode_record_line(payload))
        assert issue is None
        assert data["subject"] == "tab\there"


# ----------------------------------------------------------------------
# Store-level scan
# ----------------------------------------------------------------------
class TestCheckpointScan:
    def test_clean_checkpoint_scans_clean(self, tmp_path, integrity_corpus):
        store, result = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        scan = store.scan()
        assert scan.issues == []
        assert scan.indices == set(range(SAMPLE))
        assert len(scan.entries) == SAMPLE

    def test_every_written_line_is_v2(self, tmp_path, integrity_corpus):
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        for line in store.records_path.read_text().splitlines():
            assert "\t#crc32=" in line

    def test_v1_checkpoint_remains_readable(self, tmp_path, integrity_corpus,
                                            serial_records):
        legacy, _ = _checkpointed_run(integrity_corpus, tmp_path / "v1", crc=False)
        assert "\t#crc32=" not in legacy.records_path.read_text()
        scan = legacy.scan()
        assert scan.issues == []
        assert scan.indices == set(range(SAMPLE))
        assert json.dumps(export_records(legacy.load_records())) == json.dumps(
            export_records(serial_records)
        )

    def test_torn_tail_tolerated(self, tmp_path, integrity_corpus):
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        content = store.records_path.read_text()
        store.records_path.write_text(content[:-40])  # kill mid-append
        scan = store.scan()
        (issue,) = scan.issues
        assert issue.torn_tail
        assert scan.corruption == []
        # The torn record is simply absent; everything else survived.
        assert scan.indices == set(range(SAMPLE)) - {SAMPLE - 1}

    def test_interior_corruption_detected(self, tmp_path, integrity_corpus):
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        lines = store.records_path.read_text().splitlines()
        lines[2] = lines[2].replace('"', "'", 1)  # bit-rot a middle line
        store.records_path.write_text("\n".join(lines) + "\n")
        scan = store.scan()
        (issue,) = scan.corruption
        assert issue.line_number == 3
        assert issue.kind == "crc-mismatch"
        assert not issue.torn_tail

    def test_invalid_utf8_is_corruption_not_a_crash(self, tmp_path,
                                                    integrity_corpus):
        # Regression: scan() read the file in text mode, so a flipped
        # high bit anywhere raised UnicodeDecodeError out of fsck/resume
        # instead of reporting the line as corrupt.
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        raw = bytearray(store.records_path.read_bytes())
        offset = raw.index(b"\n") + 20  # inside line 2's JSON payload
        raw[offset] ^= 0xFF
        store.records_path.write_bytes(bytes(raw))
        scan = store.scan()
        (issue,) = scan.corruption
        assert issue.line_number == 2
        assert issue.kind == "bad-encoding"
        assert not issue.torn_tail
        # Every other record is still loadable around the bad line.
        assert scan.indices == set(range(SAMPLE)) - {1}

    def test_missing_index_line_is_corruption_not_a_crash(self, tmp_path,
                                                          integrity_corpus):
        # Regression: a well-formed JSON line without a message_index
        # used to KeyError out of completed_indices(); now it scans as
        # its own corruption kind and resume just re-analyses it.
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        with store.records_path.open("a") as handle:
            handle.write(encode_record_line('{"category": "inactive"}') + "\n")
            handle.write(encode_record_line('{"message_index": 0}') + "\n")
        scan = store.scan()
        (issue,) = scan.corruption
        assert issue.kind == "missing-index"
        assert store.scan().indices == set(range(SAMPLE))

    def test_resume_reanalyzes_corrupted_index(self, tmp_path, integrity_corpus,
                                               serial_records):
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        lines = store.records_path.read_text().splitlines()
        victim = json.loads(lines[1].rpartition("\t#crc32=")[0])["message_index"]
        lines[1] = lines[1][:-1]  # drop the last CRC digit
        store.records_path.write_text("\n".join(lines) + "\n")

        runner = CorpusRunner(
            box=CrawlerBox.for_world(integrity_corpus.world),
            jobs=1,
            checkpoint=CheckpointStore(tmp_path / "ckpt"),
        )
        result = runner.run(integrity_corpus.messages[:SAMPLE])
        assert victim not in result.resumed_indices
        assert json.dumps(export_records(result.records)) == json.dumps(
            export_records(serial_records)
        )


# ----------------------------------------------------------------------
# Salvage
# ----------------------------------------------------------------------
class TestSalvage:
    def _corrupt(self, store, line_index: int) -> None:
        lines = store.records_path.read_text().splitlines()
        lines[line_index] = lines[line_index].swapcase()
        store.records_path.write_text("\n".join(lines) + "\n")

    def test_salvage_keeps_intact_records_and_marks_interrupted(
        self, tmp_path, integrity_corpus
    ):
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        self._corrupt(store, 4)
        repaired = store.salvage_to(tmp_path / "repaired")
        assert len(repaired.scan().indices) == SAMPLE - 1
        assert repaired.scan().corruption == []
        manifest = repaired.read_manifest()
        assert manifest.status == "interrupted"
        assert manifest.completed == SAMPLE - 1
        assert manifest.config.seed == SEED  # settings preserved

    def test_salvaged_checkpoint_resumes_byte_identical(
        self, tmp_path, integrity_corpus, serial_records
    ):
        store, _ = _checkpointed_run(integrity_corpus, tmp_path / "ckpt")
        self._corrupt(store, 0)
        store.salvage_to(tmp_path / "repaired")

        runner = CorpusRunner(
            box=CrawlerBox.for_world(integrity_corpus.world),
            jobs=1,
            checkpoint=CheckpointStore(tmp_path / "repaired"),
        )
        result = runner.run(integrity_corpus.messages[:SAMPLE])
        assert len(result.resumed_indices) == SAMPLE - 1
        assert json.dumps(export_records(result.records)) == json.dumps(
            export_records(serial_records)
        )


# ----------------------------------------------------------------------
# The fsck command
# ----------------------------------------------------------------------
class TestFsckCommand:
    @pytest.fixture()
    def checkpoint(self, tmp_path, capsys):
        exit_code = main(["run", "--scale", str(SCALE), "--seed", str(SEED),
                          "--checkpoint", str(tmp_path / "ckpt")])
        assert exit_code == 0
        capsys.readouterr()
        return tmp_path / "ckpt"

    def test_clean_checkpoint_exits_zero(self, checkpoint, capsys):
        assert main(["fsck", str(checkpoint)]) == 0
        output = capsys.readouterr().out
        assert "RESULT: checkpoint intact" in output
        assert "status=complete" in output

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nothing")]) == 1
        assert "No checkpoint directory" in capsys.readouterr().out

    def test_torn_tail_still_exits_zero(self, checkpoint, capsys):
        records = checkpoint / "records.jsonl"
        records.write_text(records.read_text()[:-25])
        assert main(["fsck", str(checkpoint)]) == 0
        output = capsys.readouterr().out
        assert "torn tail (tolerated)" in output

    def test_interior_corruption_exits_one(self, checkpoint, capsys):
        records = checkpoint / "records.jsonl"
        lines = records.read_text().splitlines()
        lines[1] = lines[1].replace("a", "e", 1)
        records.write_text("\n".join(lines) + "\n")
        assert main(["fsck", str(checkpoint)]) == 1
        output = capsys.readouterr().out
        assert "CORRUPT" in output
        assert "corrupt line(s)" in output
        assert "without a durable record" in output

    def test_unreadable_manifest_exits_one(self, checkpoint, capsys):
        (checkpoint / "manifest.json").write_text('{"manifest_version": 99}')
        assert main(["fsck", str(checkpoint)]) == 1
        assert "UNREADABLE" in capsys.readouterr().out

    def test_repair_salvages_and_names_destination(self, checkpoint, tmp_path,
                                                   capsys):
        records = checkpoint / "records.jsonl"
        lines = records.read_text().splitlines()
        lines[0] = lines[0].replace("0", "1", 1)
        records.write_text("\n".join(lines) + "\n")
        destination = tmp_path / "repaired"
        assert main(["fsck", str(checkpoint), "--repair", str(destination)]) == 1
        output = capsys.readouterr().out
        assert f"Salvaged {len(lines) - 1} record(s)" in output
        assert (destination / "records.jsonl").exists()
        # The repaired checkpoint itself checks out clean.
        assert main(["fsck", str(destination)]) == 0
        assert "status=interrupted" in capsys.readouterr().out

"""The record data plane: worker-side serialization end to end.

The process transport's workers render each record to its final
checkpoint wire form — canonical JSON line plus CRC32 suffix — and
ship batches of those bytes in length-prefixed frames; the parent
appends bytes it never re-serializes, and the serve daemon splices the
same bytes into verdict responses.  These tests pin the invariants
that make that safe:

- a worker-written checkpoint line is byte-identical to what the
  parent would have serialized from the same record (so `repro fsck`,
  `repro compact`, resume, and salvage all keep working unchanged);
- the frame codec round-trips exactly;
- fault injection and the hostile corpus produce byte-identical
  checkpoint files on both transports;
- worker-merged stats match inline accounting, and the inline and
  process transports agree on wire bytes, stats, retries and dead
  letters.
"""

from __future__ import annotations

import json

import pytest

from repro.core import CrawlerBox
from repro.core.export import (
    WireRecord,
    export_records,
    record_to_dict,
    record_to_line,
    record_to_wire,
)
from repro.dataset import CorpusGenerator
from repro.runner import (
    CheckpointStore,
    CorpusRunner,
    RetryPolicy,
    RunnerConfig,
    encode_record_line,
    parse_record_line,
)
from repro.runner.pool import pack_frame, unpack_frame

SEED, SCALE = 31, 0.02
CONFIG = RunnerConfig(seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def plane_corpus():
    return CorpusGenerator(seed=SEED, scale=SCALE).generate()


@pytest.fixture(scope="module")
def serial_records(plane_corpus):
    box = CrawlerBox.for_world(plane_corpus.world)
    return box.analyze_corpus(plane_corpus.messages)


def _runner(corpus, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("executor", "process")
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("box", CrawlerBox.for_world(corpus.world))
    return CorpusRunner(**kwargs)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        entries = [(0, b"abc"), (7, b""), (123_456, b"x" * 10_000)]
        assert unpack_frame(pack_frame(entries)) == entries

    def test_empty_frame(self):
        assert unpack_frame(pack_frame([])) == []

    def test_wire_bytes_pass_through_verbatim(self, serial_records):
        wires = [
            (record.message_index, record_to_wire(record))
            for record in serial_records[:5]
        ]
        assert unpack_frame(pack_frame(wires)) == wires


# ----------------------------------------------------------------------
# Worker-serialized checkpoint lines
# ----------------------------------------------------------------------
class TestWorkerSerializedCheckpoint:
    def test_lines_byte_identical_to_parent_serialization(
        self, tmp_path, plane_corpus, serial_records
    ):
        sample = plane_corpus.messages[:12]
        store = CheckpointStore(tmp_path / "ckpt")
        result = _runner(plane_corpus, checkpoint=store).run(sample)
        assert not result.dead_letters
        lines = (tmp_path / "ckpt" / "records.jsonl").read_text().splitlines()
        expected = {
            record.message_index: encode_record_line(record_to_line(record))
            for record in serial_records[:12]
        }
        assert len(lines) == len(sample)
        for line in lines:
            data, issue = parse_record_line(line)
            assert issue is None  # CRC-clean as written
            assert line == expected[data["message_index"]]

    def test_fsck_clean_over_worker_written_lines(self, tmp_path, plane_corpus):
        from repro.cli import main

        store = CheckpointStore(tmp_path / "ckpt")
        result = _runner(plane_corpus, checkpoint=store).run(
            plane_corpus.messages[:8]
        )
        assert not result.dead_letters
        assert main(["fsck", str(tmp_path / "ckpt")]) == 0

    def test_compact_idempotent_over_worker_written_lines(
        self, tmp_path, plane_corpus, serial_records
    ):
        from repro.cli import main

        store = CheckpointStore(tmp_path / "ckpt")
        result = _runner(plane_corpus, checkpoint=store).run(
            plane_corpus.messages[:10]
        )
        assert not result.dead_letters
        records_path = tmp_path / "ckpt" / "records.jsonl"
        assert main(["compact", str(tmp_path / "ckpt")]) == 0
        once = records_path.read_bytes()
        assert main(["compact", str(tmp_path / "ckpt")]) == 0
        assert records_path.read_bytes() == once
        # Compaction orders by index: the file is now exactly the
        # parent-side serialization of the serial records.
        expected = b"".join(
            encode_record_line(record_to_line(record)).encode("utf-8") + b"\n"
            for record in serial_records[:10]
        )
        assert once == expected
        assert main(["fsck", str(tmp_path / "ckpt")]) == 0

    def test_append_wire_strips_crc_for_plain_stores(self, tmp_path, serial_records):
        record = serial_records[0]
        store = CheckpointStore(tmp_path / "plain", crc=False)
        store.append_wire(record_to_wire(record))
        store.close()
        line = (tmp_path / "plain" / "records.jsonl").read_text().rstrip("\n")
        assert "\t#crc32=" not in line
        assert line == record_to_line(record)


# ----------------------------------------------------------------------
# Stats come back from worker shards
# ----------------------------------------------------------------------
class TestMergedStats:
    def test_process_stats_match_inline_stats(self, plane_corpus):
        sample = plane_corpus.messages[:12]
        process = _runner(plane_corpus).run(sample)
        inline = _runner(plane_corpus, executor="inline", jobs=1).run(sample)
        assert process.stats.as_dict() == inline.stats.as_dict()
        assert process.stats.analyzed == len(sample)
        # Stage timings travel in the frames' shards on both transports:
        # equal call counts (the seconds are wall clock).
        assert process.stats.stage_calls == inline.stats.stage_calls
        assert process.stats.stage_calls["auth"] == len(sample)


# ----------------------------------------------------------------------
# One scheduler, two transports
# ----------------------------------------------------------------------
class TestTransportsAgree:
    RECOVERS, DOOMED = "transient:3:2", "transient:5:9"

    def _run(self, corpus, directory, executor: str, fault: str):
        # jobs=1 on both sides: an injected fault counts attempts per
        # worker, so every retry must meet the same worker.
        store = CheckpointStore(directory)
        result = _runner(
            corpus, executor=executor, jobs=1, checkpoint=store,
            config=RunnerConfig(seed=SEED, scale=SCALE, fault=fault),
            retry_policy=RetryPolicy(max_attempts=3),
        ).run(corpus.messages[:8])
        return result, sorted(store.records_path.read_bytes().splitlines())

    def test_inline_and_process_transports_agree(self, tmp_path, plane_corpus):
        runs = {
            (executor, fault): self._run(
                plane_corpus, tmp_path / f"{executor}-{index}", executor, fault
            )
            for executor in ("inline", "process")
            for index, fault in enumerate(("", self.RECOVERS, self.DOOMED))
        }
        for fault in ("", self.RECOVERS, self.DOOMED):
            (inline, inline_lines), (process, process_lines) = (
                runs["inline", fault], runs["process", fault]
            )
            assert (inline.executor, process.executor) == ("inline", "process")
            assert inline_lines == process_lines
            assert inline.stats.as_dict() == process.stats.as_dict()
            assert [letter.as_dict() for letter in inline.dead_letters] == [
                letter.as_dict() for letter in process.dead_letters
            ]
        for executor in ("inline", "process"):
            recovered, lines = runs[executor, self.RECOVERS]
            assert not recovered.dead_letters and recovered.stats.retried == 2
            assert lines == runs[executor, ""][1]
            doomed, lines = runs[executor, self.DOOMED]
            assert [letter.index for letter in doomed.dead_letters] == [5]
            assert doomed.dead_letters[0].attempts == 3
            assert len(lines) == 7

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_batch_run_dispatches_in_corpus_order(self, monkeypatch, plane_corpus, executor):
        # The scheduler pulls each batch from the runner when a worker
        # is free; a batch run's only queue is the corpus, in order.
        from repro.runner.executor import InlineTransport
        from repro.runner.pool import WorkerPool

        transport = InlineTransport if executor == "inline" else WorkerPool
        send, dispatched = transport.send, []

        def recording_send(self, worker_id, command):
            dispatched.append(command)
            return send(self, worker_id, command)

        monkeypatch.setattr(transport, "send", recording_send)
        result = _runner(plane_corpus, executor=executor, jobs=2 if executor == "process" else 1,
                         batch_size=2).run(plane_corpus.messages[:12])
        assert len(result.records) == 12
        batches = [command[1] for command in dispatched if command[0] == "batch"]
        assert [index for batch in batches for index in batch] == list(range(12))
        if executor == "process":
            assert {len(batch) for batch in batches} == {2}


# ----------------------------------------------------------------------
# Byte-identity under fire, pinned at the checkpoint-line level
# ----------------------------------------------------------------------
class TestCheckpointBytesUnderFire:
    def test_fault_injection_identical_lines_across_backends(self, tmp_path):
        from repro.web.faults import FaultEngine, fault_profile

        # A dedicated corpus: installing faults mutates the shared
        # world's network, so the module fixture must stay pristine.
        corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
        corpus.world.network.install_faults(
            FaultEngine(fault_profile("hostile"), seed=99)
        )
        config = RunnerConfig(seed=SEED, scale=SCALE, faults="hostile", fault_seed=99)
        messages = corpus.messages[:8]
        outputs = {}
        for executor, jobs in (("inline", 1), ("process", 2)):
            store = CheckpointStore(tmp_path / executor)
            result = _runner(
                corpus, executor=executor, jobs=jobs, config=config, checkpoint=store
            ).run(messages)
            assert not result.dead_letters
            assert all(r.fault_telemetry is not None for r in result.records)
            store.compact()
            outputs[executor] = (tmp_path / executor / "records.jsonl").read_bytes()
        assert outputs["inline"] == outputs["process"]

    def test_hostile_corpus_identical_lines_across_backends(
        self, tmp_path, plane_corpus
    ):
        from repro.core import PipelineConfig
        from repro.dataset.hostile import hostile_corpus

        budget = 500_000
        config = RunnerConfig(
            seed=SEED, scale=SCALE, hostile="7:1", budget=budget
        )
        pipeline = PipelineConfig(budget_work_units=budget)
        messages = plane_corpus.messages[:4] + hostile_corpus(seed=7, copies=1)
        outputs = {}
        for executor, jobs in (("inline", 1), ("process", 2)):
            store = CheckpointStore(tmp_path / executor)
            runner = CorpusRunner(
                box=CrawlerBox.for_world(plane_corpus.world, config=pipeline),
                jobs=jobs,
                executor=executor,
                config=config,
                checkpoint=store,
            )
            result = runner.run(messages)
            assert not result.dead_letters
            store.compact()
            outputs[executor] = (tmp_path / executor / "records.jsonl").read_bytes()
        assert outputs["inline"] == outputs["process"]

        from repro.cli import main

        assert main(["fsck", str(tmp_path / "process")]) == 0


# ----------------------------------------------------------------------
# The verdict splice
# ----------------------------------------------------------------------
class TestVerdictSplice:
    def test_spliced_verdict_decodes_like_the_encoded_one(self, serial_records):
        from repro.serve.protocol import encode_verdict_line

        record = serial_records[0]
        wire = WireRecord(record_to_wire(record))
        line = encode_verdict_line("client-17", record.message_index, wire.payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert json.loads(line) == {
            "op": "verdict",
            "id": "client-17",
            "message_index": record.message_index,
            "record": record_to_dict(record),
        }

    def test_wire_record_lazy_parse_matches_original(self, serial_records):
        record = serial_records[1]
        wire = WireRecord(record_to_wire(record))
        assert record_to_dict(wire.record) == record_to_dict(record)

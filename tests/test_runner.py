"""The runner subsystem: retry, checkpoint, stats, CorpusRunner.

The headline guarantees under test:

- parallel-equals-serial: ``jobs=4`` produces byte-identical exported
  records to ``jobs=1`` (and to the plain ``analyze_corpus`` path);
- resume-from-checkpoint skips already-analyzed indices and finishes
  with the same records as an uninterrupted run;
- transient faults are re-delivered and either recover or land on the
  dead-letter list; non-transient faults abort the run.
"""

from __future__ import annotations

import json

import pytest

from repro.core import CrawlerBox
from repro.core.export import export_records, record_to_dict
from repro.dataset import CorpusGenerator
from repro.runner import (
    CheckpointStore,
    CorpusRunner,
    RetryPolicy,
    RunManifest,
    RunnerConfig,
    RunningStats,
    TransientFault,
)

SEED, SCALE = 31, 0.02


@pytest.fixture(scope="module")
def runner_corpus():
    return CorpusGenerator(seed=SEED, scale=SCALE).generate()


@pytest.fixture(scope="module")
def serial_records(runner_corpus):
    box = CrawlerBox.for_world(runner_corpus.world)
    return box.analyze_corpus(runner_corpus.messages)


class HookedBox:
    """A test-double box: ``hook(index)`` runs before the real analysis
    (raise from it to fail that delivery attempt)."""

    def __init__(self, corpus, hook):
        self.real = CrawlerBox.for_world(corpus.world)
        self.hook = hook
        self.profiler = self.real.profiler

    def analyze_to_wire(self, message, message_index):
        self.hook(message_index)
        return self.real.analyze_to_wire(message, message_index=message_index)


def _fault(spec: str) -> RunnerConfig:
    return RunnerConfig(seed=SEED, scale=SCALE, fault=spec)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransientFault("flaky"))
        assert not policy.is_transient(ValueError("bug"))


# ----------------------------------------------------------------------
# RunningStats
# ----------------------------------------------------------------------
class TestRunningStats:
    def test_incremental_equals_batch(self, serial_records):
        incremental = RunningStats()
        for record in serial_records:
            incremental.update(record)
        assert incremental.as_dict() == RunningStats.from_records(serial_records).as_dict()

    def test_merge_of_partials_equals_whole(self, serial_records):
        half = len(serial_records) // 2
        left = RunningStats.from_records(serial_records[:half])
        right = RunningStats.from_records(serial_records[half:])
        assert left.merge(right).as_dict() == RunningStats.from_records(serial_records).as_dict()

    def test_agrees_with_batch_figures(self, serial_records):
        from repro.analysis import figures

        stats = RunningStats.from_records(serial_records)
        breakdown = figures.outcome_breakdown(serial_records)
        assert stats.analyzed == breakdown.total
        assert dict(stats.categories) == dict(breakdown.counts)
        evasion = figures.section5c_evasion(serial_records)
        assert stats.turnstile == evasion.turnstile
        assert stats.recaptcha == evasion.recaptcha
        assert stats.faulty_qr == evasion.faulty_qr


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_append_load_roundtrip_sorted(self, tmp_path, serial_records):
        store = CheckpointStore(tmp_path / "ckpt")
        for record in reversed(serial_records[:5]):  # completion order != index order
            store.append(record)
        store.close()
        loaded = store.load_records()
        assert [record.message_index for record in loaded] == [0, 1, 2, 3, 4]
        assert [record_to_dict(r) for r in loaded] == [
            record_to_dict(r) for r in serial_records[:5]
        ]
        assert store.scan().indices == {0, 1, 2, 3, 4}

    def test_torn_final_line_ignored(self, tmp_path, serial_records):
        store = CheckpointStore(tmp_path / "ckpt")
        for record in serial_records[:3]:
            store.append(record)
        store.close()
        with store.records_path.open("a") as handle:
            handle.write('{"message_index": 99, "truncated')  # killed mid-write
        assert store.scan().indices == {0, 1, 2}

    def test_duplicate_append_last_wins(self, tmp_path, serial_records):
        store = CheckpointStore(tmp_path / "ckpt")
        store.append(serial_records[0])
        store.append(serial_records[0])
        store.close()
        assert len(store.load_records()) == 1

    def test_manifest_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        manifest = RunManifest(
            config=RunnerConfig(seed=5, scale=0.03), jobs=4, total_messages=290,
            completed=144,
            status="running", dead_letters=[{"index": 7, "attempts": 3, "error": "x"}],
            stats={"analyzed": 144},
        )
        store.write_manifest(manifest)
        assert store.read_manifest() == manifest

    def test_unsupported_manifest_version(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.manifest_path.write_text('{"manifest_version": 99}')
        with pytest.raises(ValueError, match="manifest version"):
            store.read_manifest()


# ----------------------------------------------------------------------
# CorpusRunner: determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_equals_serial(self, runner_corpus, serial_records):
        runner = CorpusRunner(config=RunnerConfig(seed=SEED, scale=SCALE), jobs=4)
        result = runner.run(runner_corpus.messages)
        assert result.executor == "process"
        serial_doc = json.dumps(export_records(serial_records))
        parallel_doc = json.dumps(export_records(result.records))
        assert parallel_doc == serial_doc

    def test_single_message_in_isolation_matches_corpus_run(
        self, runner_corpus, serial_records
    ):
        index = len(serial_records) // 2
        box = CrawlerBox.for_world(runner_corpus.world)
        record = box.analyze(runner_corpus.messages[index], message_index=index)
        assert record_to_dict(record) == record_to_dict(serial_records[index])

    def test_pipeline_owned_crawler_does_not_accumulate(self, runner_corpus):
        box = CrawlerBox.for_world(runner_corpus.world)
        box.analyze_corpus(runner_corpus.messages[:10])
        assert box.crawler.crawled == []

    def test_standalone_crawler_retains_results(self, runner_corpus):
        from repro.crawlers.notabot import NotABot

        crawler = NotABot(runner_corpus.world.network)
        assert crawler.retain_results
        crawler.crawl_url("https://nonexistent-domain.example/")
        assert len(crawler.crawled) == 1


# ----------------------------------------------------------------------
# CorpusRunner: resume
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_skips_completed_indices(self, tmp_path, runner_corpus, serial_records):
        store = CheckpointStore(tmp_path / "ckpt")
        prefix = len(serial_records) // 3
        for record in serial_records[:prefix]:  # the "interrupted" run's output
            store.append(record)
        store.close()

        analyzed: list[int] = []
        runner = CorpusRunner(
            HookedBox(runner_corpus, analyzed.append),
            checkpoint=CheckpointStore(tmp_path / "ckpt"),
        )
        result = runner.run(runner_corpus.messages)

        assert result.resumed_indices == tuple(range(prefix))
        assert not (set(analyzed) & set(range(prefix)))  # skipped, not re-run
        assert [record_to_dict(r) for r in result.records] == [
            record_to_dict(r) for r in serial_records
        ]
        assert result.stats.analyzed == len(serial_records)

        manifest = store.read_manifest()
        assert manifest.status == "complete"
        assert manifest.completed == len(serial_records)

    def test_completed_checkpoint_resumes_to_noop(self, tmp_path, runner_corpus, serial_records):
        store = CheckpointStore(tmp_path / "ckpt")
        for record in serial_records:
            store.append(record)
        store.close()
        runner = CorpusRunner(
            HookedBox(runner_corpus, lambda index: pytest.fail("nothing should run")),
            checkpoint=CheckpointStore(tmp_path / "ckpt"),
        )
        result = runner.run(runner_corpus.messages)
        assert len(result.resumed_indices) == len(serial_records)


# ----------------------------------------------------------------------
# CorpusRunner: retry and dead letters
# ----------------------------------------------------------------------
FAST_RETRY = RetryPolicy(max_attempts=3)


class TestRetries:
    def test_twice_failing_job_recovers(self, runner_corpus, serial_records):
        target = 3
        runner = CorpusRunner(
            CrawlerBox.for_world(runner_corpus.world), retry_policy=FAST_RETRY,
            config=_fault(f"transient:{target}:2"),
        )
        result = runner.run(runner_corpus.messages[:8])
        assert result.stats.retried == 2
        assert not result.dead_letters
        assert [r.message_index for r in result.records] == list(range(8))
        # The retried record is STILL byte-identical to the serial run.
        assert record_to_dict(result.records[target]) == record_to_dict(serial_records[target])

    def test_always_failing_job_dead_letters(self, runner_corpus):
        runner = CorpusRunner(
            CrawlerBox.for_world(runner_corpus.world), retry_policy=FAST_RETRY,
            config=_fault("transient:2:9"),
        )
        result = runner.run(runner_corpus.messages[:6])
        assert len(result.dead_letters) == 1
        letter = result.dead_letters[0]
        assert letter.index == 2
        assert letter.attempts == FAST_RETRY.max_attempts
        assert "injected fault attempt 3" in letter.error
        assert result.stats.dead_lettered == 1
        assert [r.message_index for r in result.records] == [0, 1, 3, 4, 5]

    def test_non_transient_fault_aborts_run(self, runner_corpus):
        def buggy(index):
            if index == 1:
                raise ValueError("pipeline bug")

        runner = CorpusRunner(HookedBox(runner_corpus, buggy), retry_policy=FAST_RETRY)
        with pytest.raises(ValueError, match="pipeline bug"):
            runner.run(runner_corpus.messages[:6])

    def test_jobs_must_be_positive(self, runner_corpus):
        with pytest.raises(ValueError):
            CorpusRunner(CrawlerBox.for_world(runner_corpus.world), jobs=0)

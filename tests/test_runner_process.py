"""The process execution backend: scale past the GIL, keep the bytes.

The headline guarantees under test:

- the process transport's records are byte-identical to the jobs=1
  inline run (and therefore to plain ``analyze_corpus``), surviving the
  record -> dict -> record trip across the process boundary;
- a worker process killed mid-run loses nothing: its in-flight indices
  are retried on a fresh worker, a persistently-crashing ("poison")
  index lands on the dead-letter list *alone*, every landed record
  keeps its stage timings, and a checkpointed run resumes to
  completion with byte-identical records;
- transient faults raised inside a worker retry and recover;
- ``executor="auto"`` is inline at jobs=1 and process above, and a
  transport that cannot run the request is refused up front;
- no worker process outlives the run that spawned it.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core import CrawlerBox
from repro.core.export import export_records, record_to_dict
from repro.core.stages import STAGE_NAMES
from repro.dataset import CorpusGenerator
from repro.runner import (
    CheckpointStore,
    CorpusRunner,
    RetryPolicy,
    RunnerConfig,
    parse_record_line,
)

SEED, SCALE = 31, 0.02
CONFIG = RunnerConfig(seed=SEED, scale=SCALE)
FAST_RETRY = RetryPolicy(max_attempts=2)


@pytest.fixture(scope="module")
def runner_corpus():
    return CorpusGenerator(seed=SEED, scale=SCALE).generate()


@pytest.fixture(scope="module")
def serial_records(runner_corpus):
    box = CrawlerBox.for_world(runner_corpus.world)
    return box.analyze_corpus(runner_corpus.messages)


def _runner(corpus, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("executor", "process")
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("box", CrawlerBox.for_world(corpus.world))
    return CorpusRunner(**kwargs)


# ----------------------------------------------------------------------
# Determinism across the process boundary
# ----------------------------------------------------------------------
class TestProcessDeterminism:
    def test_process_equals_serial_byte_for_byte(self, runner_corpus, serial_records):
        result = _runner(runner_corpus).run(runner_corpus.messages)
        assert result.executor == "process"
        assert not result.dead_letters
        assert json.dumps(export_records(result.records)) == json.dumps(
            export_records(serial_records)
        )

    def test_profile_snapshots_merge_from_workers(self, runner_corpus):
        sample = runner_corpus.messages[:12]
        result = _runner(runner_corpus).run(sample)
        # Worker-side stage timings survived the queue trip and the merge.
        assert result.stats.stage_calls["auth"] == len(sample)
        assert result.stats.stage_seconds["crawl"] >= 0.0
        # ...and stay out of the manifest's stats: they are wall clock.
        assert "stages" not in result.stats.as_dict()

    def test_no_worker_outlives_the_run(self, runner_corpus):
        result = _runner(runner_corpus, jobs=2).run(runner_corpus.messages[:6])
        assert len(result.records) == 6
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Executor selection
# ----------------------------------------------------------------------
class TestExecutorResolution:
    def test_auto_is_inline_for_one_job(self, runner_corpus):
        runner = _runner(runner_corpus, jobs=1, executor="auto")
        assert runner.executor == "inline"

    def test_auto_is_process_for_parallel_jobs_with_config(self, runner_corpus):
        runner = _runner(runner_corpus, jobs=4, executor="auto")
        assert runner.executor == "process"

    def test_auto_without_config_needs_one_job(self, runner_corpus):
        # Parallel auto means processes, which rebuild their world from
        # a RunnerConfig; a live box alone cannot be shared with them.
        with pytest.raises(ValueError, match="RunnerConfig"):
            _runner(runner_corpus, jobs=4, executor="auto", config=None)

    def test_inline_rejects_parallel_jobs(self, runner_corpus):
        with pytest.raises(ValueError, match="jobs=1"):
            _runner(runner_corpus, jobs=2, executor="inline")

    def test_inline_needs_a_box(self):
        with pytest.raises(ValueError, match="box"):
            CorpusRunner(jobs=1, executor="inline", config=CONFIG)

    def test_inline_refuses_process_only_faults(self, runner_corpus):
        for spec in ("crash:1", "wedge:1"):
            runner = _runner(
                runner_corpus, jobs=1, executor="inline",
                config=RunnerConfig(seed=SEED, scale=SCALE, fault=spec),
            )
            with pytest.raises(ValueError, match="worker process"):
                runner.run(runner_corpus.messages[:2])

    def test_explicit_process_requires_config(self, runner_corpus):
        with pytest.raises(ValueError, match="RunnerConfig"):
            _runner(runner_corpus, executor="process", config=None)

    def test_unknown_executor_rejected(self, runner_corpus):
        with pytest.raises(ValueError, match="executor"):
            _runner(runner_corpus, executor="fiber")


# ----------------------------------------------------------------------
# Worker crashes, dead letters, resume
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_poison_index_dead_letters_alone(self, runner_corpus, serial_records):
        poison = 5
        runner = _runner(
            runner_corpus,
            config=RunnerConfig(seed=SEED, scale=SCALE, fault=f"crash:{poison}"),
            retry_policy=FAST_RETRY,
            batch_size=4,  # the poison index gets batch-mates to endanger
        )
        result = runner.run(runner_corpus.messages[:10])
        # Only the poison index dead-letters; batch-mates of the crashed
        # worker are retried on a replacement and complete normally.
        assert [letter.index for letter in result.dead_letters] == [poison]
        assert result.dead_letters[0].attempts == FAST_RETRY.max_attempts
        assert "died" in result.dead_letters[0].error
        assert [r.message_index for r in result.records] == [
            i for i in range(10) if i != poison
        ]
        for record in result.records:
            assert record_to_dict(record) == record_to_dict(
                serial_records[record.message_index]
            )

    def test_stage_timings_survive_a_worker_crash(self, runner_corpus):
        # Timings ride in the result frames, so a worker that dies (or
        # is terminated) has already delivered the timings of every
        # record it shipped: each landed record counts one call per
        # stage, and the crashed attempts count none.
        poison = 20
        runner = _runner(
            runner_corpus,
            config=RunnerConfig(seed=SEED, scale=SCALE, fault=f"crash:{poison}"),
            retry_policy=RetryPolicy(max_attempts=3),
            batch_size=4,
        )
        result = runner.run(runner_corpus.messages[:40])
        assert [letter.index for letter in result.dead_letters] == [poison]
        assert result.stats.analyzed == 39
        for name in STAGE_NAMES:
            assert result.stats.stage_calls[name] == result.stats.analyzed, name

    def test_resume_after_kill_completes_byte_identical(
        self, tmp_path, runner_corpus, serial_records
    ):
        poison = 4
        crashing = _runner(
            runner_corpus,
            config=RunnerConfig(seed=SEED, scale=SCALE, fault=f"crash:{poison}"),
            retry_policy=FAST_RETRY,
            checkpoint=CheckpointStore(tmp_path / "ckpt"),
            batch_size=4,
        )
        interrupted = crashing.run(runner_corpus.messages[:10])
        assert len(interrupted.records) == 9  # poison index missing

        # Second run over the same checkpoint, crash cause cleared (the
        # "environmental" fault went away): only the missing index runs.
        resumed = _runner(
            runner_corpus, checkpoint=CheckpointStore(tmp_path / "ckpt")
        ).run(runner_corpus.messages[:10])
        assert len(resumed.resumed_indices) == 9
        assert json.dumps(export_records(resumed.records)) == json.dumps(
            export_records(serial_records[:10])
        )

    def test_transient_worker_fault_retries_then_recovers(
        self, runner_corpus, serial_records
    ):
        flaky = 3
        runner = _runner(
            runner_corpus,
            config=RunnerConfig(seed=SEED, scale=SCALE, fault=f"transient:{flaky}:1"),
            retry_policy=FAST_RETRY,
        )
        result = runner.run(runner_corpus.messages[:8])
        assert not result.dead_letters
        assert result.stats.retried == 1
        assert json.dumps(export_records(result.records)) == json.dumps(
            export_records(serial_records[:8])
        )

    def test_transient_fault_under_fault_injection_checkpoints_once(
        self, tmp_path, runner_corpus
    ):
        # A TransientFault raised inside a worker while the simulated
        # internet is injecting hostile faults: the retry machinery and
        # the resilient crawl path compose — the run completes with zero
        # dead letters and the retried record is checkpointed exactly once.
        flaky = 2
        retry = RetryPolicy(max_attempts=3)
        runner = _runner(
            runner_corpus,
            config=RunnerConfig(
                seed=SEED, scale=SCALE, fault=f"transient:{flaky}:2",
                faults="hostile", fault_seed=99,
            ),
            retry_policy=retry,
            checkpoint=CheckpointStore(tmp_path / "ckpt"),
        )
        result = runner.run(runner_corpus.messages[:8])
        assert not result.dead_letters
        assert result.stats.retried == 2
        assert [r.message_index for r in result.records] == list(range(8))
        assert all(r.fault_telemetry is not None for r in result.records)
        lines = (tmp_path / "ckpt" / "records.jsonl").read_text().splitlines()
        parsed = [parse_record_line(line) for line in lines]
        assert all(issue is None for _, issue in parsed)  # every line CRC-clean
        indices = [data["message_index"] for data, _ in parsed]
        assert indices.count(flaky) == 1
        assert sorted(indices) == list(range(8))

    def test_injected_fault_counts_the_schedulers_attempts(self):
        # Each worker process holds its own InjectedFault; the attempt
        # number travels with the dispatch, so a retry that lands on a
        # fresh worker still knows it is the second delivery.
        from repro.runner.executor import InjectedFault, TransientFault

        first_worker, second_worker = InjectedFault("transient:2:2"), InjectedFault("transient:2:2")
        first_worker.fire(1, 1, batcher=None)  # another index: no fault
        with pytest.raises(TransientFault, match="attempt 1"):
            first_worker.fire(2, 1, batcher=None)
        with pytest.raises(TransientFault, match="attempt 2"):
            second_worker.fire(2, 2, batcher=None)
        first_worker.fire(2, 3, batcher=None)  # the third delivery succeeds


# ----------------------------------------------------------------------
# Hard wedges: the stall watchdog reaps into quarantine
# ----------------------------------------------------------------------
class TestWorkerStall:
    def test_wedged_index_quarantined_not_dead_lettered(
        self, runner_corpus, serial_records, monkeypatch
    ):
        from repro.core.outcomes import MessageCategory
        from repro.core.stages.base import StageStatus
        from repro.runner import executor

        monkeypatch.setattr(executor, "STALL_TIMEOUT", 1.0)
        wedged = 2
        runner = _runner(
            runner_corpus,
            config=RunnerConfig(seed=SEED, scale=SCALE, fault=f"wedge:{wedged}"),
            retry_policy=FAST_RETRY,
        )
        result = runner.run(runner_corpus.messages[:6])
        # A hard wedge (native loop, deadlock) is hostile *input*, not
        # infrastructure: it must end as a durable quarantined record,
        # never a dead letter or an infinite retry.
        assert not result.dead_letters
        assert [r.message_index for r in result.records] == list(range(6))
        record = result.records[wedged]
        assert record.category == MessageCategory.QUARANTINED
        assert record.quarantine is not None
        assert record.quarantine.reason.startswith("worker-stall")
        assert record.quarantine.violations[0].limit == "stall-timeout"
        assert record.quarantine.violations[0].observed == FAST_RETRY.max_attempts
        assert set(record.stage_status.values()) == {StageStatus.SKIPPED}
        assert result.stats.quarantined == 1
        # Batch-mates of the reaped workers complete normally.
        for other in result.records:
            if other.message_index != wedged:
                assert record_to_dict(other) == record_to_dict(
                    serial_records[other.message_index]
                )


# ----------------------------------------------------------------------
# Hostile ingest: both transports, byte-identical, nothing crashes
# ----------------------------------------------------------------------
class TestHostileCorpusAcrossBackends:
    BUDGET = 500_000  # calibrated messages stay far below; js-loop trips it

    def _run(self, corpus, executor: str, jobs: int):
        from repro.core import PipelineConfig
        from repro.dataset.hostile import hostile_corpus

        config = RunnerConfig(
            seed=SEED, scale=SCALE, hostile="7:1",
            budget=self.BUDGET,
        )
        # The inline transport analyzes on the parent-side box, so it
        # needs the same pipeline budget the process workers rebuild
        # from the RunnerConfig (exactly what the CLI wires up).
        pipeline = PipelineConfig(budget_work_units=self.BUDGET)
        messages = corpus.messages[:4] + hostile_corpus(seed=7, copies=1)
        runner = CorpusRunner(
            box=CrawlerBox.for_world(corpus.world, config=pipeline),
            jobs=jobs,
            executor=executor,
            config=config,
        )
        return messages, runner.run(messages)

    def test_hostile_corpus_survives_both_backends_byte_identical(
        self, runner_corpus
    ):
        from repro.dataset.hostile import EXPECTED_VIOLATIONS, SHAPES

        messages, process_result = self._run(runner_corpus, "process", 2)
        # Zero worker crashes, zero dead letters: every hostile message
        # became a record.
        assert not process_result.dead_letters
        assert [r.message_index for r in process_result.records] == list(
            range(len(messages))
        )
        # Each shape met the defense it targets: quarantined with the
        # intended headline limit, or degraded by the work budget.
        for position, shape in enumerate(SHAPES):
            record = process_result.records[4 + position]
            expected = EXPECTED_VIOLATIONS[shape]
            if expected:
                assert record.quarantine is not None, shape
                assert record.quarantine.violations[0].limit == expected
            else:
                assert record.quarantine is None
                assert record.stage_errors, shape
                assert any(
                    reason.startswith("BudgetExceeded")
                    for reason in record.stage_errors.values()
                )
        assert process_result.stats.quarantined == sum(
            1 for limit in EXPECTED_VIOLATIONS.values() if limit
        )
        assert process_result.stats.budget_stage_failures >= 1

        _, inline_result = self._run(runner_corpus, "inline", 1)
        assert json.dumps(export_records(process_result.records)) == json.dumps(
            export_records(inline_result.records)
        )

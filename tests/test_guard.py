"""Hostile-input hardening: the ingestion guard and the work budget.

Two layers under test, plus their integration into the pipeline:

- :mod:`repro.mail.guard` — structural limits applied *before* a
  message enters the stage plan.  Every hostile shape from
  :mod:`repro.dataset.hostile` must trip exactly the limit it targets,
  and every calibrated-corpus message must pass untouched.
- :mod:`repro._budget` — the cooperative work-unit meter that bounds
  what a structurally-clean message may consume *during* analysis.
- ``CrawlerBox.analyze`` — quarantined records carry a structured
  report (serialization round-trip included), budget exhaustion
  degrades the running stage to ``failed`` without killing anything,
  and both decisions are deterministic.
"""

from __future__ import annotations

import threading

import pytest

from repro._budget import (
    DEFAULT_WORK_LIMIT,
    BudgetExceeded,
    MessageBudget,
    activate,
    current_budget,
)
from repro.core import CrawlerBox, PipelineConfig
from repro.core.export import record_from_dict, record_to_dict
from repro.core.outcomes import MessageCategory
from repro.core.stages.base import StageStatus
from repro.dataset.hostile import (
    EXPECTED_VIOLATIONS,
    SHAPES,
    hostile_corpus,
    hostile_message,
)
from repro.mail.guard import GuardLimits, MessageGuard, QuarantineReport
from repro.mail.message import EmailMessage, MessagePart
from repro.runner import RunningStats


def _clean_message() -> EmailMessage:
    message = EmailMessage(
        sender="sender@legit.example",
        recipient="employee@corp.example",
        subject="quarterly report",
        delivered_at=12.0,
    )
    message.add_part(MessagePart.text("see https://legit.example/report"))
    return message


# ----------------------------------------------------------------------
# The structural guard
# ----------------------------------------------------------------------
class TestMessageGuard:
    def test_clean_message_passes(self):
        assert MessageGuard().inspect(_clean_message()) is None

    def test_calibrated_corpus_never_quarantined(self, small_corpus):
        guard = MessageGuard()
        reports = [guard.inspect(message) for message in small_corpus.messages]
        assert reports == [None] * len(small_corpus.messages)

    @pytest.mark.parametrize(
        "shape,expected",
        [(shape, limit) for shape, limit in EXPECTED_VIOLATIONS.items() if limit],
    )
    def test_each_hostile_shape_trips_its_limit(self, shape, expected):
        report = MessageGuard().inspect(hostile_message(shape))
        assert report is not None, f"{shape} passed the guard"
        # The headline violation is the one the shape was built to trip.
        assert report.violations[0].limit == expected
        assert expected in report.reason
        violation = report.violations[0]
        assert violation.observed > violation.cap

    def test_js_loop_shape_passes_the_guard(self):
        # Structurally clean by design: bounding its runtime is the work
        # budget's job, not the guard's.
        assert MessageGuard().inspect(hostile_message("js-loop")) is None

    def test_report_preserves_triage_headers(self):
        report = MessageGuard().inspect(hostile_message("header-giant"))
        assert report.headers["From"].endswith("@hostile.example")
        assert report.headers["To"] == "employee@corp.example"
        assert "header-giant" in report.headers["Subject"]
        # Triage values are truncated, never multi-kilobyte.
        assert all(len(value) <= 256 for value in report.headers.values())

    def test_decision_is_deterministic(self):
        guard = MessageGuard()
        message = hostile_message("rfc822-chain", seed=3)
        assert guard.inspect(message).as_dict() == guard.inspect(message).as_dict()

    def test_violation_never_raises_it_reports(self):
        # A message tripping several limits yields one report listing
        # each limit once (first occurrence carries the diagnosis).
        message = hostile_message("header-bomb")
        message.headers["X-Giant"] = "B" * 20_000
        report = MessageGuard().inspect(message)
        limits = [violation.limit for violation in report.violations]
        assert sorted(limits) == sorted(set(limits))
        assert {"header-count", "header-bytes"} <= set(limits)

    def test_custom_limits_tighten_the_guard(self):
        strict = MessageGuard(GuardLimits(max_parts=1))
        report = strict.inspect(_clean_message())
        assert report is not None
        assert report.violations[0].limit == "part-count"

    def test_report_round_trips_through_dict(self):
        report = MessageGuard().inspect(hostile_message("archive-bomb"))
        clone = QuarantineReport.from_dict(report.as_dict())
        assert clone == report

    def test_base64_bomb_sized_without_decoding(self):
        # 6M encoded chars: the guard must estimate (~4.5 MiB) rather
        # than materialize the decode.
        report = MessageGuard().inspect(hostile_message("base64-bomb"))
        (violation,) = [v for v in report.violations if v.limit == "decoded-bytes"]
        assert violation.observed == len("QUJD" * 1_500_000) * 3 // 4


# ----------------------------------------------------------------------
# The work budget
# ----------------------------------------------------------------------
class TestMessageBudget:
    def test_charges_accumulate_per_kind(self):
        budget = MessageBudget(work_limit=10_000)
        budget.charge(1024, "js-steps")
        budget.charge(1024, "js-steps")
        budget.charge(2000, "ocr-tiles")
        assert budget.spent == 4048
        assert budget.spent_by_kind == {"js-steps": 2048, "ocr-tiles": 2000}

    def test_exhaustion_raises_with_diagnosis(self):
        budget = MessageBudget(work_limit=1000)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge(1024, "js-steps")
        assert excinfo.value.kind == "js-steps"
        assert excinfo.value.spent == 1024
        assert excinfo.value.limit == 1000
        assert "js-steps" in str(excinfo.value)

    def test_budget_exceeded_is_not_transient(self):
        # A deterministic exhaustion must never be retried by the runner.
        from repro.runner.retry import TransientFault

        assert not issubclass(BudgetExceeded, TransientFault)

    def test_unlimited_budget_never_trips(self):
        budget = MessageBudget(work_limit=None)
        budget.charge(10 * DEFAULT_WORK_LIMIT, "js-steps")
        assert budget.spent == 10 * DEFAULT_WORK_LIMIT

    def test_activate_installs_and_restores(self):
        assert current_budget() is None
        outer, inner = MessageBudget(), MessageBudget()
        with activate(outer):
            assert current_budget() is outer
            with activate(inner):
                assert current_budget() is inner
            assert current_budget() is outer
        assert current_budget() is None

    def test_activate_none_is_a_noop(self):
        with activate(None):
            assert current_budget() is None

    def test_budget_is_thread_local(self):
        mine = MessageBudget()
        seen = []
        with activate(mine):
            thread = threading.Thread(target=lambda: seen.append(current_budget()))
            thread.start()
            thread.join()
        assert seen == [None]  # the other thread never saw our budget


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipelineQuarantine:
    def test_hostile_message_becomes_quarantined_record(self, crawlerbox):
        record = crawlerbox.analyze(hostile_message("part-bomb"), message_index=3)
        assert record.category == MessageCategory.QUARANTINED
        assert record.quarantine is not None
        assert record.quarantine.violations[0].limit == "part-count"
        # Nothing ran: every stage is skipped, nothing was crawled.
        assert set(record.stage_status.values()) == {StageStatus.SKIPPED}
        assert record.crawls == []

    def test_quarantined_record_round_trips_serialization(self, crawlerbox):
        record = crawlerbox.analyze(hostile_message("rfc822-chain"), message_index=0)
        data = record_to_dict(record)
        assert data["category"] == "quarantined"
        assert data["quarantine"]["violations"][0]["limit"] == "rfc822-depth"
        clone = record_from_dict(data)
        assert clone.quarantine == record.quarantine
        assert record_to_dict(clone) == data

    def test_clean_record_serialization_untouched(self, analyzed_records):
        # Hardening must not perturb the historical artifact format: no
        # clean record grows quarantine/stage_errors keys.
        for record in analyzed_records:
            data = record_to_dict(record)
            assert "quarantine" not in data
            assert "stage_errors" not in data

    def test_guard_can_be_disabled(self, small_corpus):
        box = CrawlerBox.for_world(
            small_corpus.world, config=PipelineConfig(guard_enabled=False)
        )
        record = box.analyze(hostile_message("header-bomb"), message_index=0)
        assert record.quarantine is None
        assert record.category != MessageCategory.QUARANTINED

    def test_quarantine_decision_identical_across_boxes(self, small_corpus):
        first = CrawlerBox.for_world(small_corpus.world)
        second = CrawlerBox.for_world(small_corpus.world)
        for index, message in enumerate(hostile_corpus(seed=5)):
            left = record_to_dict(first.analyze(message, message_index=index))
            right = record_to_dict(second.analyze(message, message_index=index))
            assert left == right

    def test_stats_count_quarantines(self, crawlerbox):
        records = [
            crawlerbox.analyze(message, message_index=index)
            for index, message in enumerate(hostile_corpus(seed=1))
        ]
        stats = RunningStats.from_records(records)
        quarantined = sum(1 for shape in SHAPES if EXPECTED_VIOLATIONS[shape])
        assert stats.quarantined == quarantined
        assert stats.categories[MessageCategory.QUARANTINED] == quarantined
        assert stats.as_dict()["quarantined"] == quarantined

    def test_stats_omit_zero_hostile_counters(self, analyzed_records):
        data = RunningStats.from_records(analyzed_records).as_dict()
        assert "quarantined" not in data
        assert "budget_stage_failures" not in data


class TestPipelineBudget:
    def test_tight_budget_fails_stage_not_worker(self, small_corpus):
        box = CrawlerBox.for_world(
            small_corpus.world, config=PipelineConfig(budget_work_units=50_000)
        )
        record = box.analyze(hostile_message("js-loop"), message_index=0)
        # The runaway script exhausted the budget inside dynamic-html;
        # the stage failed, the record survived with a readable reason.
        assert record.stage_status["dynamic-html"] == StageStatus.FAILED
        assert record.stage_errors["dynamic-html"].startswith("BudgetExceeded")
        assert "js-steps" in record.stage_errors["dynamic-html"]
        assert record.quarantine is None  # degraded, not quarantined

    def test_budget_failures_counted_and_serialized(self, small_corpus):
        box = CrawlerBox.for_world(
            small_corpus.world, config=PipelineConfig(budget_work_units=50_000)
        )
        record = box.analyze(hostile_message("js-loop"), message_index=0)
        stats = RunningStats.from_records([record])
        assert stats.budget_stage_failures == 1
        assert stats.as_dict()["budget_stage_failures"] == 1
        clone = record_from_dict(record_to_dict(record))
        assert clone.stage_errors == record.stage_errors

    def test_budget_failure_is_deterministic(self, small_corpus):
        config = PipelineConfig(budget_work_units=50_000)
        runs = [
            record_to_dict(
                CrawlerBox.for_world(small_corpus.world, config=config).analyze(
                    hostile_message("js-loop"), message_index=0
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_default_budget_leaves_corpus_records_identical(self, small_corpus,
                                                            analyzed_records):
        # The default 8M budget must be invisible on the calibrated
        # corpus: same records as an unlimited run, no stage errors.
        box = CrawlerBox.for_world(
            small_corpus.world, config=PipelineConfig(budget_work_units=None)
        )
        unlimited = box.analyze_corpus(small_corpus.messages)
        assert [record_to_dict(r) for r in unlimited] == [
            record_to_dict(r) for r in analyzed_records
        ]
        assert all(not record.stage_errors for record in analyzed_records)

    def test_runaway_script_default_budget_degrades_gracefully(self, crawlerbox):
        # Under the *default* budget the JS interpreter's own step limit
        # catches the loop first: the stage completes, the script error
        # is recorded, the worker never sees an exception.
        record = crawlerbox.analyze(hostile_message("js-loop"), message_index=0)
        assert record.quarantine is None
        assert record.stage_status["dynamic-html"] == StageStatus.OK

"""Stage-graph behaviour: failure isolation, subsetting, degradation.

The contracts under test:

- an exception inside any built-in stage marks that stage ``failed`` in
  ``MessageRecord.stage_status``, degrades exactly its (transitive)
  dependents to ``skipped``, and never aborts the message;
- the runner therefore does NOT dead-letter messages whose pipeline
  merely degraded — only :class:`TransientFault` still reaches the
  retry machinery;
- ``stages=('auth', 'parse')`` performs crawl-free triage without ever
  touching the crawler;
- ``record_to_line``/``record_from_line`` round-trip the new
  ``stage_status``/``benign_url_skips`` fields, while healthy full-plan
  records serialize without them (byte-compatibility with the
  pre-stage-graph format);
- the benign-infrastructure skip list keeps utility hosts out of the
  crawl set and counts the skips on the record.
"""

from __future__ import annotations

import pytest

from repro.browser.session import SessionSignals
from repro.core import CrawlerBox, PipelineConfig
from repro.core.export import record_from_line, record_to_line
from repro.core.pipeline import BENIGN_INFRASTRUCTURE_HOSTS
from repro.core.stages import BUILTIN_STAGES, STAGE_NAMES, StageStatus, get_stage
from repro.mail.message import EmailMessage, MessagePart
from repro.runner import CorpusRunner, TransientFault
from repro.runner.profile import PROFILE_TABLE_STAGES


def _fresh_box(small_corpus, **kwargs) -> CrawlerBox:
    return CrawlerBox.for_world(small_corpus.world, **kwargs)


def _transitive_dependents(name: str) -> set[str]:
    """Registry stages that (transitively) require ``name``'s provides."""
    dependents: set[str] = set()
    tainted = set(get_stage(name).provides)
    for stage in BUILTIN_STAGES:
        if stage.name == name:
            continue
        if tainted & set(stage.requires):
            dependents.add(stage.name)
            tainted |= set(stage.provides)
    return dependents


def _message_with_enrichment_index(small_corpus, records) -> int:
    for record in records:
        if record.enrichments:
            return record.message_index
    raise AssertionError("expected at least one enriched record in the corpus")


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    @pytest.mark.parametrize("stage_name", STAGE_NAMES)
    def test_each_stage_failure_degrades_dependents(
        self, small_corpus, monkeypatch, stage_name
    ):
        box = _fresh_box(small_corpus)

        def boom(self, ctx):
            raise ValueError(f"injected {stage_name} bug")

        monkeypatch.setattr(type(get_stage(stage_name)), "run", boom)
        record = box.analyze(small_corpus.messages[0], message_index=0)

        status = record.stage_status
        assert set(status) == set(STAGE_NAMES)
        assert status[stage_name] == StageStatus.FAILED
        expected_skipped = _transitive_dependents(stage_name)
        for name in STAGE_NAMES:
            if name == stage_name:
                continue
            expected = (
                StageStatus.SKIPPED if name in expected_skipped else StageStatus.OK
            )
            assert status[name] == expected, f"{name} after {stage_name} failure"
        assert record.degraded_stages  # visible to callers

    def test_broken_crawler_keeps_parse_output(self, small_corpus, monkeypatch):
        box = _fresh_box(small_corpus)
        monkeypatch.setattr(
            box.crawler, "crawl_url", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("net down"))
        )
        # Pick a message that actually extracts URLs so the crawl stage runs.
        for index, message in enumerate(small_corpus.messages[:50]):
            record = box.analyze(message, message_index=index)
            if record.stage_status["crawl"] == StageStatus.FAILED:
                break
        else:
            raise AssertionError("no message exercised the broken crawler")
        assert record.auth is not None
        assert record.extraction is not None
        assert record.stage_status["parse"] == StageStatus.OK
        assert record.stage_status["classify"] == StageStatus.SKIPPED
        assert record.stage_status["spear"] == StageStatus.SKIPPED
        assert record.stage_status["enrich"] == StageStatus.SKIPPED
        assert record.category == ""  # classify degraded, not defaulted

    def test_broken_enricher_degrades_only_enrich(self, small_corpus, analyzed_records, monkeypatch):
        box = _fresh_box(small_corpus)
        index = _message_with_enrichment_index(small_corpus, analyzed_records)

        def explode(domain, at_time, server_ip=""):
            raise KeyError("enrichment source offline")

        monkeypatch.setattr(box.enricher, "enrich", explode)
        record = box.analyze(small_corpus.messages[index], message_index=index)
        healthy = next(r for r in analyzed_records if r.message_index == index)
        assert record.stage_status["enrich"] == StageStatus.FAILED
        assert record.enrichments == {}
        # Everything upstream matches the healthy analysis.
        assert record.category == healthy.category
        assert [c.url for c in record.crawls] == [c.url for c in healthy.crawls]
        for name in STAGE_NAMES:
            if name != "enrich":
                assert record.stage_status[name] == StageStatus.OK

    def test_runner_does_not_dead_letter_degraded_messages(self, small_corpus):
        def explode(domain, at_time, server_ip=""):
            raise KeyError("enrichment source offline")

        box = _fresh_box(small_corpus)
        box.enricher.enrich = explode

        sample = small_corpus.messages[:25]
        result = CorpusRunner(box).run(sample)
        assert result.dead_letters == []
        assert result.stats.dead_lettered == 0
        assert result.stats.retried == 0
        assert len(result.records) == len(sample)
        failed = [r for r in result.records if r.stage_status.get("enrich") == StageStatus.FAILED]
        assert failed, "expected at least one record to hit the broken enricher"

    def test_transient_fault_still_reaches_retry_machinery(
        self, small_corpus, analyzed_records, monkeypatch
    ):
        box = _fresh_box(small_corpus)
        index = _message_with_enrichment_index(small_corpus, analyzed_records)
        monkeypatch.setattr(
            box.enricher,
            "enrich",
            lambda *a, **k: (_ for _ in ()).throw(TransientFault("flaky source")),
        )
        with pytest.raises(TransientFault):
            box.analyze(small_corpus.messages[index], message_index=index)


# ----------------------------------------------------------------------
# Stage subsetting (--stages triage plans)
# ----------------------------------------------------------------------
class TestSubsetPlans:
    def test_auth_parse_triage_never_touches_the_crawler(self, small_corpus, monkeypatch):
        box = _fresh_box(small_corpus, stages=("auth", "parse"))
        assert box.plan.stage_names == ("auth", "parse")
        assert "crawl" not in box.plan and "dynamic-html" not in box.plan

        def forbidden(*args, **kwargs):
            raise AssertionError("crawler invoked during parse-only triage")

        monkeypatch.setattr(box.crawler, "crawl_url", forbidden)
        monkeypatch.setattr(box.crawler, "crawl_html", forbidden)

        for index, message in enumerate(small_corpus.messages[:20]):
            record = box.analyze(message, message_index=index)
            assert record.auth is not None
            assert record.extraction is not None
            assert record.crawls == []
            assert record.stage_status["auth"] == StageStatus.OK
            assert record.stage_status["parse"] == StageStatus.OK
            for name in ("dynamic-html", "crawl", "classify", "spear", "enrich"):
                assert record.stage_status[name] == StageStatus.SKIPPED

    def test_selection_order_is_normalized(self, small_corpus):
        box = _fresh_box(small_corpus, stages=("parse", "auth"))
        assert box.plan.stage_names == ("auth", "parse")

    def test_selection_with_missing_provider_is_rejected(self, small_corpus):
        from repro.core.stages import StagePlanError

        with pytest.raises(StagePlanError, match="requires"):
            _fresh_box(small_corpus, stages=("auth", "crawl"))

    def test_unknown_stage_is_rejected(self, small_corpus):
        from repro.core.stages import StagePlanError

        with pytest.raises(StagePlanError, match="unknown stage"):
            _fresh_box(small_corpus, stages=("auth", "fetch"))


# ----------------------------------------------------------------------
# Serialization round-trip and byte-compatibility
# ----------------------------------------------------------------------
class TestStageStatusSerialization:
    def test_degraded_record_round_trips(self, small_corpus, monkeypatch):
        box = _fresh_box(small_corpus)
        monkeypatch.setattr(
            box.parser, "parse", lambda message: (_ for _ in ()).throw(ValueError("bad MIME"))
        )
        record = box.analyze(small_corpus.messages[0], message_index=0)
        assert record.stage_status["parse"] == StageStatus.FAILED

        line = record_to_line(record)
        assert "stage_status" in line
        restored = record_from_line(line)
        assert restored.stage_status == record.stage_status
        assert record_to_line(restored) == line

    def test_subset_record_round_trips(self, small_corpus):
        box = _fresh_box(small_corpus, stages=("auth", "parse"))
        record = box.analyze(small_corpus.messages[0], message_index=0)
        restored = record_from_line(record_to_line(record))
        assert restored.stage_status == record.stage_status
        assert restored.stage_status["crawl"] == StageStatus.SKIPPED

    def test_healthy_record_serializes_without_new_fields(self, analyzed_records):
        healthy = next(
            r
            for r in analyzed_records
            if r.stage_status
            and all(s == StageStatus.OK for s in r.stage_status.values())
            and not r.benign_url_skips
        )
        line = record_to_line(healthy)
        assert "stage_status" not in line
        assert "benign_url_skips" not in line
        restored = record_from_line(line)
        assert restored.stage_status == {}  # dropped for healthy records

    def test_benign_skips_round_trip(self, analyzed_records):
        skipped = [r for r in analyzed_records if r.benign_url_skips]
        assert skipped, "seeded corpus should skip at least one benign URL"
        record = skipped[0]
        restored = record_from_line(record_to_line(record))
        assert restored.benign_url_skips == record.benign_url_skips


# ----------------------------------------------------------------------
# Benign-infrastructure skip list
# ----------------------------------------------------------------------
class TestBenignSkipList:
    def _message(self, urls):
        message = EmailMessage(
            sender="docs@sharepoint-notify.example",
            recipient="employee@corp.example",
            subject="links",
            delivered_at=100.0,
            sending_domain="sharepoint-notify.example",
        )
        message.add_part(MessagePart.text("\n".join(urls)))
        return message

    def test_utility_hosts_are_skipped_and_counted(self, small_corpus):
        box = _fresh_box(small_corpus)
        urls = [
            "https://gyazo-cdn.example/bg/1.png",
            "https://httpbin.org/ip",
            "https://phish-landing.example/login",
        ]
        record = box.analyze(self._message(urls), message_index=0)
        crawled = [crawl.url for crawl in record.crawls]
        assert crawled == ["https://phish-landing.example/login"]
        assert set(record.benign_url_skips) == {
            "https://gyazo-cdn.example/bg/1.png",
            "https://httpbin.org/ip",
        }

    def test_skip_list_can_be_disabled(self, small_corpus):
        box = _fresh_box(
            small_corpus, config=PipelineConfig(skip_benign_hosts=False)
        )
        urls = ["https://httpbin.org/ip", "https://phish-landing.example/login"]
        record = box.analyze(self._message(urls), message_index=0)
        assert [crawl.url for crawl in record.crawls] == urls
        assert record.benign_url_skips == ()

    def test_subdomains_of_benign_hosts_match(self):
        assert CrawlerBox._is_benign_infrastructure("httpbin.org")
        assert CrawlerBox._is_benign_infrastructure("cdn.httpbin.org")
        assert not CrawlerBox._is_benign_infrastructure("nothttpbin.org")
        assert not CrawlerBox._is_benign_infrastructure("phish-landing.example")

    def test_skip_list_covers_kit_and_web_utilities(self):
        assert "gyazo-cdn.example" in BENIGN_INFRASTRUCTURE_HOSTS
        assert "freeimages-cdn.example" in BENIGN_INFRASTRUCTURE_HOSTS
        assert "httpbin.org" in BENIGN_INFRASTRUCTURE_HOSTS
        assert "ipapi.co" in BENIGN_INFRASTRUCTURE_HOSTS


# ----------------------------------------------------------------------
# SessionSignals.merge
# ----------------------------------------------------------------------
class TestSessionSignalsMerge:
    def test_empty_chain_merges_to_none(self):
        assert SessionSignals.merge([]) is None

    def test_single_session_passes_through(self):
        signals = SessionSignals(debugger_hits=2)
        assert SessionSignals.merge([signals]) is signals

    def test_hue_rotation_takes_the_maximum(self):
        merged = SessionSignals.merge(
            [
                SessionSignals(hue_rotation_deg=30.0),
                SessionSignals(hue_rotation_deg=180.0),
                SessionSignals(hue_rotation_deg=90.0),
            ]
        )
        assert merged.hue_rotation_deg == 180.0

    def test_counters_and_sequences_accumulate(self):
        merged = SessionSignals.merge(
            [
                SessionSignals(debugger_hits=1, navigator_reads=("webdriver",)),
                SessionSignals(
                    debugger_hits=3, navigator_reads=("userAgent",), console_hijacked=True
                ),
            ]
        )
        assert merged.debugger_hits == 4
        assert merged.navigator_reads == ("webdriver", "userAgent")
        assert merged.console_hijacked is True


# ----------------------------------------------------------------------
# Profiler coverage
# ----------------------------------------------------------------------
class TestProfilerCoverage:
    def test_profile_rows_derive_from_registry_plus_unattributed(self, small_corpus):
        box = _fresh_box(small_corpus)
        for index in range(3):
            box.analyze(small_corpus.messages[index], message_index=index)
        profiler = box.profiler
        assert set(profiler.stage_calls) == set(PROFILE_TABLE_STAGES)
        for name in STAGE_NAMES:
            assert profiler.stage_calls[name] == 3
        assert profiler.stage_calls["unattributed"] == 3
        # The residual bucket is the (non-negative) remainder of the
        # total analysis wall clock after per-stage attribution.
        assert profiler.stage_seconds["unattributed"] >= 0.0

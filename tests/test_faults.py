"""Deterministic fault injection and the resilient crawl path.

The headline guarantees under test:

- every fault kind in the taxonomy is reachable and degrades into the
  browser's existing outcomes (never an uncaught exception);
- the schedule is a pure function of ``(fault_seed, host, attempt,
  epoch)``: same seed, same weather — across jobs counts and backends
  the exported records are byte-identical;
- ``--faults off`` (or no engine at all) produces byte-identical
  records to the pre-fault-engine pipeline;
- flaky-then-recovers hosts recover within the retry allowance, the
  circuit breaker bounds work spent on permanently-dead hosts, and the
  per-message retry budget caps total retries;
- a hostile full-soak run completes with zero dead letters and a
  populated FaultTelemetry on every record;
- enrichment lookups that hit a takedown degrade the enrich stage
  instead of aborting the message;
- dead letters carry the full per-attempt retry history.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.browser.browser import Browser, VisitOutcome
from repro.browser.profile import BrowserProfile
from repro.core import CrawlerBox
from repro.core.artifacts import MessageRecord
from repro.core.export import export_records, record_from_dict, record_to_dict
from repro.core.stages.builtin import EnrichStage
from repro.crawlers.base import Crawler
from repro.dataset import CorpusGenerator
from repro.enrichment.enricher import Enricher
from repro.runner import CorpusRunner, RetryPolicy, RunnerConfig
from repro.web.faults import (
    FAULT_PROFILES,
    FLAKY_MAX_DEAD_ATTEMPTS,
    FaultEngine,
    FaultProfile,
    fault_profile,
)
from repro.web.http import HttpRequest, HttpResponse
from repro.web.network import ConnectionFailed, Network
from repro.web.resilient import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_JITTER,
    CircuitBreaker,
    FaultTelemetry,
    ResiliencePolicy,
    ResilientFetcher,
)
from repro.web.site import Page, Website
from repro.web.tls import TLSCertificate

SEED, SCALE, FAULT_SEED = 31, 0.02, 77
FAST_RETRY = RetryPolicy(max_attempts=2)


def _hostile_corpus():
    corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
    corpus.world.network.install_faults(
        FaultEngine(fault_profile("hostile"), seed=FAULT_SEED)
    )
    return corpus


def _site_network(**profile_fields) -> Network:
    """A one-site network whose host gets the given fault rates."""
    network = Network()
    site = Website("a.example", ip="9.9.9.9")
    site.add_page("/", Page(html="<html><body>home</body></html>"))
    network.host_website(site)
    network.issue_certificate(TLSCertificate("a.example", "CA", 0.0, 1000.0))
    engine = FaultEngine(seed=3)
    engine.set_host_profile("a.example", FaultProfile(**profile_fields))
    network.install_faults(engine)
    return network


def _visit(network: Network, url: str = "https://a.example/"):
    return Browser(network, BrowserProfile(), timestamp=5.0).visit(url)


# ----------------------------------------------------------------------
# Profiles and engine basics
# ----------------------------------------------------------------------
class TestProfiles:
    def test_presets_exist(self):
        assert set(FAULT_PROFILES) == {"off", "light", "heavy", "hostile"}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            fault_profile("apocalyptic")

    def test_off_profile_is_inactive(self):
        assert not fault_profile("off").active
        assert not FaultEngine(fault_profile("off"), seed=1).active

    def test_hostile_profile_is_active(self):
        assert fault_profile("hostile").active
        assert FaultEngine(fault_profile("hostile"), seed=1).active

    def test_host_override_activates_engine(self):
        engine = FaultEngine(fault_profile("off"), seed=1)
        engine.set_host_profile("Dead.Example", FaultProfile(connect_timeout=1.0))
        assert engine.active
        assert engine.profile_for("dead.EXAMPLE").connect_timeout == 1.0


class TestEngineDeterminism:
    def _transcript(self, engine: FaultEngine) -> list[str]:
        kinds = []
        for host in ("a.example", "b.example", "c.example"):
            for attempt in range(3):
                for hour in (0.0, 1.0, 24.0):
                    request = HttpRequest.get(f"https://{host}/", timestamp=hour)
                    request.fault_attempt = attempt
                    try:
                        engine.check_connection(request)
                    except Exception as exc:  # noqa: BLE001 - classifying
                        kinds.append(getattr(exc, "kind", "?"))
                    else:
                        kinds.append("-")
        return kinds

    def test_same_seed_same_weather(self):
        profile = fault_profile("hostile")
        first = self._transcript(FaultEngine(profile, seed=9))
        second = self._transcript(FaultEngine(profile, seed=9))
        assert first == second
        assert any(kind != "-" for kind in first)  # hostile actually fires

    def test_flaky_trait_is_stable_per_host(self):
        engine = FaultEngine(fault_profile("hostile"), seed=9)
        hosts = [f"host{i}.example" for i in range(64)]
        traits = [engine.flaky_dead_attempts(host) for host in hosts]
        assert traits == [engine.flaky_dead_attempts(host) for host in hosts]
        assert any(traits)  # fraction 0.30 over 64 hosts
        assert all(t <= FLAKY_MAX_DEAD_ATTEMPTS for t in traits)


# ----------------------------------------------------------------------
# Every taxonomy kind degrades into a browser outcome
# ----------------------------------------------------------------------
class TestFaultKinds:
    @pytest.mark.parametrize(
        "rates, outcome, kind",
        [
            ({"nxdomain_flap": 1.0}, VisitOutcome.NXDOMAIN, "nxdomain_flap"),
            ({"dns_servfail": 1.0}, VisitOutcome.NXDOMAIN, "dns_servfail"),
            ({"connect_timeout": 1.0}, VisitOutcome.CONNECTION_FAILED, "connect_timeout"),
            ({"tls_handshake": 1.0}, VisitOutcome.TLS_ERROR, "tls_handshake"),
            ({"slow_start": 1.0}, VisitOutcome.CONNECTION_FAILED, "slow_start"),
            ({"mid_body_stall": 1.0}, VisitOutcome.CONNECTION_FAILED, "mid_body_stall"),
            ({"truncated_body": 1.0}, VisitOutcome.CONNECTION_FAILED, "truncated_body"),
            ({"http_429": 1.0}, VisitOutcome.HTTP_ERROR, "http_429"),
            ({"redirect_loop": 1.0}, VisitOutcome.REDIRECT_LOOP, "redirect_loop"),
        ],
    )
    def test_kind_reaches_outcome(self, rates, outcome, kind):
        result = _visit(_site_network(**rates))
        assert result.outcome == outcome
        assert kind in result.fault_kinds

    def test_http_5xx_statuses(self):
        result = _visit(_site_network(http_5xx=1.0))
        assert result.outcome == VisitOutcome.HTTP_ERROR
        assert result.final_response.status in (500, 502, 503)
        assert "http_5xx" in result.fault_kinds

    def test_429_carries_retry_after(self):
        result = _visit(_site_network(http_429=1.0))
        assert result.final_response.status == 429
        assert result.final_response.headers.get("Retry-After") == "30"

    def test_tls_handshake_skipped_for_plain_http(self):
        result = _visit(_site_network(tls_handshake=1.0), url="http://a.example/")
        assert result.outcome == VisitOutcome.OK
        assert not result.fault_kinds

    def test_genuine_errors_record_no_fault_kind(self):
        network = Network()  # nothing hosted, no engine
        result = _visit(network, url="https://gone.example/")
        assert result.outcome == VisitOutcome.NXDOMAIN
        assert not result.fault_kinds


# ----------------------------------------------------------------------
# The resilient fetch path
# ----------------------------------------------------------------------
class TestFlakyRecovery:
    def test_flaky_host_recovers_within_retry_allowance(self):
        network = _site_network(flaky_host_fraction=1.0)
        crawler = Crawler(network, BrowserProfile())
        telemetry = FaultTelemetry()
        fetcher = ResilientFetcher(
            fetch=lambda url, ts, attempt: crawler.crawl_url(
                url, timestamp=ts, fault_attempt=attempt
            ),
            telemetry=telemetry,
        )
        result = fetcher.fetch("https://a.example/", "a.example", 5.0)
        # Dead for its first 1-2 attempts, healthy afterwards: the default
        # 3 attempts always reach the recovery.
        assert result.outcome == VisitOutcome.OK
        assert 1 <= telemetry.retries <= 2
        assert telemetry.fault_kinds.get("flaky_host", 0) >= 1
        assert telemetry.backoff_seconds > 0.0


def _dead_result():
    return SimpleNamespace(
        outcome="connection_failed", final_response=None, fault_kinds=["connect_timeout"]
    )


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker(threshold=2, probe_after=2)
        assert breaker.allow("h") == "closed"
        assert breaker.failure("h") is False
        assert breaker.failure("h") is True  # threshold reached: tripped
        assert breaker.is_open("h")
        assert breaker.allow("h") == "blocked"
        assert breaker.allow("h") == "probe"  # probe_after skips elapsed
        assert breaker.failure("h") is False  # probe failure: no re-trip
        assert breaker.allow("h") == "blocked"
        assert breaker.allow("h") == "probe"
        breaker.success("h")  # probe succeeded: closed again
        assert not breaker.is_open("h")
        assert breaker.allow("h") == "closed"

    def test_breaker_bounds_work_on_dead_host(self):
        calls = []

        def dead_fetch(url, ts, attempt):
            calls.append(url)
            return _dead_result()

        policy = ResiliencePolicy(
            max_attempts_per_request=3,
            retry_budget_per_message=100,
            breaker_threshold=3,
            breaker_probe_after=3,
        )
        telemetry = FaultTelemetry()
        fetcher = ResilientFetcher(dead_fetch, policy=policy, telemetry=telemetry)
        results = [
            fetcher.fetch(f"https://dead.example/{i}", "dead.example", 0.0)
            for i in range(10)
        ]
        # The first URL consumed the trip threshold; afterwards the open
        # breaker allows at most one probe per URL, so total fetches are
        # bounded far below 10 URLs x 3 attempts.
        assert telemetry.breaker_trips == 1
        assert len(calls) == policy.breaker_threshold + telemetry.breaker_probes
        assert len(calls) <= policy.breaker_threshold + len(results) - 1
        # Suppressed URLs surface as "no data at all" for the crawl stage.
        assert results.count(None) == telemetry.unreachable > 0

    def test_breaker_success_resets_host(self):
        outcomes = iter(["connection_failed"] * 3 + ["ok"] * 10)

        def flaky_fetch(url, ts, attempt):
            return SimpleNamespace(
                outcome=next(outcomes), final_response=None, fault_kinds=[]
            )

        policy = ResiliencePolicy(breaker_threshold=3, breaker_probe_after=1)
        telemetry = FaultTelemetry()
        fetcher = ResilientFetcher(flaky_fetch, policy=policy, telemetry=telemetry)
        first = fetcher.fetch("https://h.example/a", "h.example", 0.0)
        assert first.outcome == "connection_failed"  # exhausted 3 attempts
        assert telemetry.breaker_trips == 1
        second = fetcher.fetch("https://h.example/b", "h.example", 0.0)
        assert second.outcome == "ok"  # probe succeeded, breaker closed
        third = fetcher.fetch("https://h.example/c", "h.example", 0.0)
        assert third.outcome == "ok"
        assert telemetry.breaker_probes == 1


class TestRetryBudget:
    def test_budget_exhaustion_caps_retries(self):
        policy = ResiliencePolicy(
            max_attempts_per_request=5,
            retry_budget_per_message=3,
            breaker_threshold=100,  # keep the breaker out of the way
        )
        telemetry = FaultTelemetry()
        fetcher = ResilientFetcher(
            lambda url, ts, attempt: _dead_result(), policy=policy, telemetry=telemetry
        )
        result = fetcher.fetch("https://dead.example/", "dead.example", 0.0)
        assert result.outcome == "connection_failed"
        assert telemetry.budget_exhausted
        assert telemetry.retries == policy.retry_budget_per_message
        assert telemetry.requests_attempted == policy.retry_budget_per_message + 1


class TestBackoff:
    def test_backoff_grows_and_caps(self):
        fetcher = ResilientFetcher(None, rng=SimpleNamespace(random=lambda: 0.0))
        delays = [fetcher.backoff_delay(None, attempt) for attempt in range(1, 10)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]

    def test_jitter_bounded(self, rng):
        fetcher = ResilientFetcher(None, rng=rng)
        for _ in range(50):
            delay = fetcher.backoff_delay(None, 1)
            assert BACKOFF_BASE_SECONDS <= delay <= BACKOFF_BASE_SECONDS * (1 + BACKOFF_JITTER)


class TestRetryAfter:
    def test_retry_after_header_drives_backoff(self):
        def throttled(url, ts, attempt):
            response = HttpResponse(status=429, body="")
            response.headers.set("Retry-After", "30")
            return SimpleNamespace(
                outcome="http_error", final_response=response, fault_kinds=["http_429"]
            )

        telemetry = FaultTelemetry()
        fetcher = ResilientFetcher(throttled, telemetry=telemetry)
        fetcher.fetch("https://busy.example/", "busy.example", 0.0)
        # Two retries (default 3 attempts), both delayed by the server's
        # Retry-After instead of exponential backoff.
        assert telemetry.retries == 2
        assert telemetry.backoff_seconds == pytest.approx(60.0)

    def test_genuine_redirect_loop_is_not_retried(self):
        calls = []

        def looping(url, ts, attempt):
            calls.append(url)
            return SimpleNamespace(
                outcome="redirect_loop", final_response=None, fault_kinds=[]
            )

        fetcher = ResilientFetcher(looping)
        fetcher.fetch("https://loop.example/", "loop.example", 0.0)
        assert len(calls) == 1  # a kit's own loop is its answer


# ----------------------------------------------------------------------
# Enrichment degradation (takedown between crawl and enrich)
# ----------------------------------------------------------------------
class TestEnrichGuard:
    def _context(self, network: Network, crawl_domains: list[str]):
        record = MessageRecord(
            message_index=0, delivered_at=5.0, recipient="r@x", sender_domain="x"
        )
        record.fault_telemetry = FaultTelemetry()
        record.crawls = [
            SimpleNamespace(landing_domain=domain, server_ip="")
            for domain in crawl_domains
        ]
        return SimpleNamespace(
            config=SimpleNamespace(enrich=True),
            record=record,
            box=SimpleNamespace(enricher=Enricher(network)),
        )

    def test_dead_lookup_degrades_stage_keeps_partials(self):
        network = Network()
        engine = FaultEngine(seed=3)
        engine.set_host_profile("dead.example", FaultProfile(connect_timeout=1.0))
        network.install_faults(engine)
        ctx = self._context(network, ["alive.example", "dead.example"])
        with pytest.raises(ConnectionFailed, match="dead.example"):
            EnrichStage().run(ctx)
        # The healthy domain's enrichment survived; only the dead one is
        # missing and the telemetry ledger recorded the failure.
        assert "alive.example" in ctx.record.enrichments
        assert "dead.example" not in ctx.record.enrichments
        assert ctx.record.fault_telemetry.enrich_failures == 1
        assert ctx.record.fault_telemetry.fault_kinds.get("connect_timeout") == 1

    def test_enrich_stage_failure_marks_status_not_message(self):
        # A domain taken down between crawl and enrichment: the crawl
        # succeeded, the lookup dies, the stage degrades — the message
        # still completes with its category and partial enrichments.
        corpus = CorpusGenerator(seed=SEED, scale=0.01).generate()
        box = CrawlerBox.for_world(corpus.world)
        real_enrich = box.enricher.enrich
        dead: set[str] = set()

        def takedown_enrich(domain, at_time, server_ip=""):
            if not dead:
                dead.add(domain)  # the first domain looked up goes dark
            if domain in dead:
                raise ConnectionFailed(f"{domain}: taken down before enrichment")
            return real_enrich(domain, at_time=at_time, server_ip=server_ip)

        box.enricher.enrich = takedown_enrich
        records = box.analyze_corpus(corpus.messages[:40])
        assert len(records) == 40
        failed = [r for r in records if r.stage_status.get("enrich") == "failed"]
        assert failed  # some message landed on the dead domain
        assert all(record.category for record in records)


# ----------------------------------------------------------------------
# Telemetry serialization
# ----------------------------------------------------------------------
class TestTelemetrySerialization:
    def test_record_roundtrip_preserves_telemetry(self):
        record = MessageRecord(
            message_index=1, delivered_at=2.0, recipient="r@x", sender_domain="x"
        )
        record.fault_telemetry = FaultTelemetry(
            requests_attempted=7, retries=3, backoff_seconds=1.5, deadline_hits=1,
            breaker_trips=1, breaker_skips=2, breaker_probes=1,
            budget_exhausted=True, unreachable=1, enrich_failures=1,
            fault_kinds={"connect_timeout": 2, "http_429": 1},
        )
        clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        assert clone.fault_telemetry is not None
        assert clone.fault_telemetry.as_dict() == record.fault_telemetry.as_dict()

    def test_faultless_record_serializes_without_telemetry_key(self):
        record = MessageRecord(
            message_index=1, delivered_at=2.0, recipient="r@x", sender_domain="x"
        )
        assert "fault_telemetry" not in record_to_dict(record)


# ----------------------------------------------------------------------
# End to end: hostile soak, cross-backend determinism, off-identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hostile_inline():
    corpus = _hostile_corpus()
    result = CorpusRunner(CrawlerBox.for_world(corpus.world)).run(corpus.messages)
    return corpus, result


class TestHostileSoak:
    def test_soak_degrades_instead_of_dying(self, hostile_inline):
        corpus, result = hostile_inline
        assert not result.dead_letters
        assert len(result.records) == len(corpus.messages)
        assert all(r.fault_telemetry is not None for r in result.records)
        assert sum(r.fault_telemetry.total_faults for r in result.records) > 0
        assert result.stats.has_fault_activity
        assert result.stats.fault_retries > 0
        faults_dict = result.stats.as_dict()["faults"]
        assert faults_dict["kinds"]  # per-kind counts surfaced

    def test_fault_report_renders(self, hostile_inline):
        from repro.runner import format_fault_report

        _, result = hostile_inline
        report = format_fault_report(result.stats)
        assert "fault injection:" in report
        assert "breaker trips" in report

    def test_inline_jobs1_and_process_jobs2_byte_identical(self, hostile_inline):
        corpus, serial_result = hostile_inline
        serial = json.dumps(export_records(serial_result.records))

        config = RunnerConfig(seed=SEED, scale=SCALE, faults="hostile", fault_seed=FAULT_SEED)
        process = CorpusRunner(config=config, jobs=2, executor="process").run(
            corpus.messages
        )
        assert process.executor == "process"
        assert json.dumps(export_records(process.records)) == serial


class TestFaultsOffIdentity:
    def test_off_engine_matches_no_engine_byte_for_byte(self):
        def run(install_off_engine: bool) -> str:
            corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
            if install_off_engine:
                corpus.world.network.install_faults(
                    FaultEngine(fault_profile("off"), seed=FAULT_SEED)
                )
            box = CrawlerBox.for_world(corpus.world)
            records = box.analyze_corpus(corpus.messages[:30])
            assert all(record.fault_telemetry is None for record in records)
            return json.dumps(export_records(records))

        assert run(True) == run(False)


# ----------------------------------------------------------------------
# Dead-letter retry history
# ----------------------------------------------------------------------
class TestDeadLetterHistory:
    def test_dead_letter_carries_per_attempt_history(self):
        corpus = CorpusGenerator(seed=SEED, scale=0.01).generate()
        runner = CorpusRunner(
            CrawlerBox.for_world(corpus.world),
            config=RunnerConfig(seed=SEED, scale=0.01, fault="transient:1:9"),
            retry_policy=FAST_RETRY,
        )
        result = runner.run(corpus.messages[:4])
        assert len(result.dead_letters) == 1
        letter = result.dead_letters[0]
        assert letter.attempts == FAST_RETRY.max_attempts
        assert len(letter.history) == FAST_RETRY.max_attempts
        assert "attempt 1" in letter.history[0]
        assert "attempt 2" in letter.history[1]
        assert letter.history[-1] == letter.error
        payload = letter.as_dict()
        assert payload["history"] == list(letter.history)
        # Re-deliveries are immediate: nothing slept, nothing recorded.
        assert "backoff_seconds" not in payload

    def test_manifest_with_legacy_backoff_key_still_loads(self, tmp_path):
        from repro.runner import CheckpointStore, RunManifest

        letter = {"index": 1, "attempts": 3, "error": "x", "backoff_seconds": 0.15}
        store = CheckpointStore(tmp_path / "ckpt")
        store.write_manifest(RunManifest(
            config=RunnerConfig(seed=SEED, scale=SCALE), jobs=2, total_messages=4,
            completed=3,
            status="complete", dead_letters=[letter],
        ))
        assert store.read_manifest().dead_letters == [letter]

    def test_clean_dead_letter_dict_keeps_legacy_keys(self):
        from repro.runner import DeadLetter

        assert set(DeadLetter(1, 2, "boom").as_dict()) == {"index", "attempts", "error"}

"""The CrawlerBox pipeline: fetch -> parse -> crawl -> log (Figure 1).

``CrawlerBox.analyze(message)`` drives a validated
:class:`~repro.core.stages.StagePlan` over one reported message: SPF/
DKIM/DMARC evaluation, recursive part parsing, dynamic loading of
HTML/JavaScript attachments, crawling of every discovered URL with the
configured crawler (NotABot by default), screenshot hashing,
spear-phishing classification, outcome bucketing, and enrichment —
producing one :class:`~repro.core.artifacts.MessageRecord`.

The stage bodies live in :mod:`repro.core.stages.builtin`; this module
owns the components they share (crawler, parser, enricher, classifier),
the per-message RNG seeding, and the URL admission policy.  Each stage
runs under failure isolation (see :mod:`repro.core.stages.plan`): an
exception degrades the record's ``stage_status`` map instead of
aborting the message, so the runner's dead-letter machinery only sees
infrastructure faults.  A subset plan (``repro run --stages
auth,parse``) performs cheap triage without ever invoking the crawler.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro._budget import DEFAULT_WORK_LIMIT, MessageBudget, activate
from repro._chaos import keyed_seed
from repro.core.artifacts import MessageRecord
from repro.core.outcomes import MessageCategory
from repro.core.stages.base import StageStatus
from repro.mail.guard import GuardLimits, MessageGuard
from repro.web.resilient import FaultTelemetry, ResiliencePolicy
from repro.core.spearphish import SpearPhishClassifier
from repro.core.stages import AnalysisContext, build_plan
from repro.crawlers.base import Crawler
from repro.crawlers.notabot import notabot_profile
from repro.enrichment.enricher import Enricher
from repro.kits.attachment import LEGIT_MEDIA_HOSTS
from repro.kits.brands import COMPANY_BRANDS
from repro.mail.auth import MailAuthDns
from repro.mail.message import EmailMessage
from repro.mail.parser import EmailParser
from repro.runner.profile import StageProfiler
from repro.web.network import Network, UTILITY_HOSTS
from repro.web.urls import UrlError, parse_url

#: Well-known benign infrastructure the crawler skips: the media CDNs
#: the attachment kits hotlink page furniture from, and the IP echo /
#: geolocation utilities the kits' server-side filtering calls.  The
#: paper crawls phishing resources, not utilities.
BENIGN_INFRASTRUCTURE_HOSTS: frozenset[str] = frozenset(LEGIT_MEDIA_HOSTS) | frozenset(
    UTILITY_HOSTS
)


@dataclass
class PipelineConfig:
    """Tunable pipeline behaviour."""

    lenient_qr: bool = True
    max_urls_per_message: int = 6
    #: Hours between expert tagging and analysis ("CrawlerBox analyzes
    #: the reported emails as soon as they are tagged by experts").
    analysis_delay_hours: float = 1.0
    enrich: bool = True
    #: Skip crawling :data:`BENIGN_INFRASTRUCTURE_HOSTS` (skips are
    #: counted on ``MessageRecord.benign_url_skips``).  Disable to
    #: reproduce pre-skip-list crawl sets.
    skip_benign_hosts: bool = True
    #: Run the structural-limits guard (:mod:`repro.mail.guard`) before
    #: the stage plan; violating messages become ``quarantined`` records
    #: instead of entering the pipeline.
    guard_enabled: bool = True
    #: Structural caps (None = :class:`~repro.mail.guard.GuardLimits`
    #: defaults, generous enough that no calibrated-corpus message
    #: trips them).
    guard_limits: GuardLimits | None = None
    #: Per-message cooperative work-unit budget (None = unlimited); see
    #: :mod:`repro._budget`.  Exhaustion degrades the running stage to
    #: ``failed``, never the worker.  Deterministic: work units depend
    #: only on the message.
    budget_work_units: int | None = DEFAULT_WORK_LIMIT


def build_pipeline_config(
    budget: int | None = None,
    guard_limits: tuple[tuple[str, int], ...] | None = None,
) -> PipelineConfig | None:
    """The pipeline config the CLI's ``--budget`` / ``--guard-limit``
    overrides resolve to, or None when neither is set (so callers keep
    passing ``config=None`` and stay byte-identical to default runs).

    ``budget`` uses the CLI convention: None = pipeline default, 0 =
    unlimited.  ``guard_limits`` takes the picklable ``(key, value)``
    pair form of :func:`~repro.mail.guard.parse_guard_limit`.  Shared by
    ``repro run``, the process workers' ``RunnerConfig.build``, and the
    ``repro serve`` daemon, so every backend resolves overrides the same
    way.
    """
    if budget is None and not guard_limits:
        return None
    overrides: dict = {}
    if budget is not None:
        overrides["budget_work_units"] = budget or None
    if guard_limits:
        from repro.mail.guard import guard_limits_from_overrides

        overrides["guard_limits"] = guard_limits_from_overrides(guard_limits)
    return PipelineConfig(**overrides)


class CrawlerBox:
    """The analysis infrastructure."""

    def __init__(
        self,
        network: Network,
        mail_dns: MailAuthDns | None = None,
        crawler: Crawler | None = None,
        enricher: Enricher | None = None,
        spear_classifier: SpearPhishClassifier | None = None,
        config: PipelineConfig | None = None,
        rng: random.Random | None = None,
        stages: Sequence[str] | None = None,
    ):
        self.network = network
        #: Per-stage timings, always on; the runner moves each
        #: message's rows into its stats shard (see
        #: :func:`repro.runner.executor.analyse_batch`).
        self.profiler = StageProfiler()
        self.mail_dns = mail_dns or MailAuthDns()
        self.config = config or PipelineConfig()
        self.rng = rng or random.Random(7)
        #: Stable per-run seed material, drawn once: every message's
        #: crawler stream is derived from (material, message_index), so
        #: analyzing messages out of order — or a single message in
        #: isolation — yields the same record as a full serial run.
        self._seed_material = self.rng.getrandbits(64)
        #: The validated stage plan (``stages=None`` selects every
        #: built-in stage in Figure 1 order); invalid selections raise
        #: :class:`~repro.core.stages.StagePlanError` here, before any
        #: message is analyzed.
        self.plan = build_plan(stages)
        #: Structural-limits pass applied before the plan (see
        #: :mod:`repro.mail.guard`); None when disabled.
        self.guard = (
            MessageGuard(self.config.guard_limits) if self.config.guard_enabled else None
        )
        self.crawler = crawler or Crawler(
            network, notabot_profile(), rng=self.rng, retain_results=False
        )
        self.enricher = enricher or Enricher(network)
        #: Retry/breaker/deadline knobs for the resilient crawl path;
        #: only consulted when the network carries an active fault
        #: engine (``Network.install_faults``).
        self.resilience_policy = ResiliencePolicy()
        self.parser = EmailParser(lenient_qr=self.config.lenient_qr)
        if spear_classifier is None and "spear" in self.plan:
            # Crawls and fingerprints the five reference portals: only a
            # plan that classifies spear-phishing pays for it.
            spear_classifier = SpearPhishClassifier.from_portals(network, COMPANY_BRANDS)
        #: None when the plan has no ``spear`` stage.
        self.spear_classifier = spear_classifier
        self.records: list[MessageRecord] = []

    # ------------------------------------------------------------------
    @classmethod
    def for_world(cls, world, **kwargs) -> "CrawlerBox":
        """Wire a CrawlerBox against a generated world."""
        enricher = Enricher(world.network, world.passive_dns, world.shodan)
        return cls(world.network, mail_dns=world.mail_dns, enricher=enricher, **kwargs)

    # ------------------------------------------------------------------
    def message_seed(self, message_index: int) -> int:
        """The crawler RNG seed for one message.

        Mixed through BLAKE2 so neighbouring indices produce unrelated
        streams; depends only on the seed material and the index, never
        on how many messages were analyzed before this one.
        """
        return keyed_seed(self._seed_material, message_index)

    # ------------------------------------------------------------------
    def analyze(self, message: EmailMessage, message_index: int = 0) -> MessageRecord:
        """Run the stage plan over one reported message.

        Thin driver: build the record and context, seed the per-message
        crawler RNG, and hand off to :meth:`StagePlan.run`.  Stage
        timing rows derive from the plan's registry names; whatever wall
        clock the stages themselves do not account for (record/context
        construction, plan bookkeeping) lands in the ``unattributed``
        bucket so the ``--profile`` table sums to the total.
        """
        started = time.perf_counter()
        record = MessageRecord(
            message_index=message_index,
            delivered_at=message.delivered_at,
            recipient=message.recipient,
            sender_domain=message.sender_domain,
            ground_truth=dict(message.ground_truth),
        )
        if self.guard is not None:
            report = self.guard.inspect(message)
            if report is not None:
                # Structurally hostile: quarantine instead of analyzing.
                # A pure function of the message, so the decision — and
                # the record — is identical on every backend.
                record.quarantine = report
                record.category = MessageCategory.QUARANTINED
                record.stage_status = {
                    name: StageStatus.SKIPPED for name in self.plan.all_stage_names
                }
                self.profiler.record("unattributed", time.perf_counter() - started)
                return record
        engine = getattr(self.network, "faults", None)
        if engine is not None and engine.active:
            record.fault_telemetry = FaultTelemetry()
        self.crawler.rng = random.Random(self.message_seed(message_index))
        ctx = AnalysisContext(
            message=message,
            message_index=message_index,
            box=self,
            config=self.config,
            rng=self.crawler.rng,
            record=record,
            analysis_time=message.delivered_at + self.config.analysis_delay_hours,
        )
        budget = None
        if self.config.budget_work_units is not None:
            budget = MessageBudget(self.config.budget_work_units)
        with activate(budget):
            attributed = self.plan.run(ctx, self.profiler)
        self.profiler.record("unattributed", (time.perf_counter() - started) - attributed)
        return record

    def analyze_to_wire(
        self, message: EmailMessage, message_index: int = 0
    ) -> tuple[MessageRecord, bytes]:
        """``(record, wire)``: the record plus its checkpoint wire form.

        The record→bytes rendering of the data plane lives behind this
        one method: process workers call it so checkpoint lines ship
        fully serialized (compact JSON + CRC32 suffix) and the parent
        appends bytes without re-rendering; the inline transport calls
        the same method, which is what keeps every transport
        byte-identical.
        """
        from repro.core.export import record_to_wire

        record = self.analyze(message, message_index=message_index)
        return record, record_to_wire(record)

    def analyze_corpus(self, messages: list[EmailMessage]) -> list[MessageRecord]:
        """Analyze a whole corpus, keeping the records.

        Delegates to an inline :class:`~repro.runner.runner.CorpusRunner`
        — the same scheduler the ``--jobs N`` CLI path uses — so serial
        callers and sharded runs share one code path (and, because each
        message's RNG stream depends only on its index, one output).
        """
        from repro.runner.runner import CorpusRunner

        runner = CorpusRunner(box=self)
        self.records = runner.run(messages).records
        return self.records

    # ------------------------------------------------------------------
    def _crawlable(self, url: str, record: MessageRecord | None = None) -> bool:
        """URL admission policy for the crawl stage.

        Rejects unparsable URLs and reserved ``.invalid`` hosts, and —
        unless ``config.skip_benign_hosts`` is off — skips well-known
        benign infrastructure (media CDNs, IP echo services), counting
        each skip on ``record.benign_url_skips``.
        """
        try:
            host = parse_url(url).host
        except UrlError:
            return False
        if host.endswith((".invalid",)):
            return False
        if self.config.skip_benign_hosts and self._is_benign_infrastructure(host):
            if record is not None:
                record.benign_url_skips = record.benign_url_skips + (url,)
            return False
        return True

    @staticmethod
    def _is_benign_infrastructure(host: str) -> bool:
        """``host`` is (a subdomain of) a known benign utility host."""
        return any(
            host == benign or host.endswith(f".{benign}")
            for benign in BENIGN_INFRASTRUCTURE_HOSTS
        )

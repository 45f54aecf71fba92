"""The built-in CrawlerBox stages (Figure 1, decomposed).

Each stage carries the logic that used to live inline in the monolithic
``CrawlerBox.analyze``; the bodies are unchanged so a default full plan
produces byte-identical records.  Stages are stateless singletons — all
per-message state lives on the :class:`~repro.core.stages.base.AnalysisContext`
and the mutable components (crawler, parser, enricher, classifier) on
the owning CrawlerBox.
"""

from __future__ import annotations

import random
import re

from repro._budget import CRAWL_HOP_UNITS, current_budget
from repro.browser.browser import VisitOutcome, VisitResult
from repro.browser.session import SessionSignals
from repro.core.artifacts import UrlCrawl
from repro.core.outcomes import (
    MessageCategory,
    PageClass,
    aggregate_message_category,
    classify_visit,
    password_form_visible,
)
from repro.core.stages.base import AnalysisContext, Token
from repro.core.stages.plan import register_stage
from repro.imaging.phash import hamming_distance
from repro.mail.auth import evaluate_authentication
from repro.web.dns import NxDomainError
from repro.web.faults import FaultError
from repro.web.network import ConnectionFailed, TLSValidationError
from repro.web.resilient import ResilientFetcher
from repro.web.urls import UrlError, parse_url

_NOISE_RE = re.compile(r"\n{25,}")


class AuthStage:
    """SPF/DKIM/DMARC evaluation against the simulated DNS."""

    name = "auth"
    requires: tuple[str, ...] = ()
    provides = (Token.AUTH,)

    def run(self, ctx: AnalysisContext) -> None:
        ctx.record.auth = evaluate_authentication(ctx.message, ctx.box.mail_dns)


class ParseStage:
    """Recursive part walking + static URL/QR/OCR extraction."""

    name = "parse"
    requires: tuple[str, ...] = ()
    provides = (Token.EXTRACTION,)

    def run(self, ctx: AnalysisContext) -> None:
        report = ctx.box.parser.parse(ctx.message)
        ctx.report = report
        ctx.record.extraction = report
        ctx.record.qr_payloads = tuple(report.qr_payloads)
        ctx.record.noise_padded = bool(_NOISE_RE.search(ctx.message.body_text()))


class DynamicHtmlStage:
    """Dynamic loading of HTML documents (attachments and bodies)."""

    name = "dynamic-html"
    requires = (Token.EXTRACTION,)
    provides = (Token.DYNAMIC_URLS,)

    def run(self, ctx: AnalysisContext) -> None:
        record = ctx.record
        budget = current_budget()
        for part_path, markup in ctx.report.html_documents:
            if budget is not None:
                budget.charge(CRAWL_HOP_UNITS, "crawl-hops")
            session = ctx.box.crawler.crawl_html(markup, timestamp=ctx.analysis_time)
            record.local_session_signals.append(session.signals())
            is_attachment = part_path in ctx.report.html_attachment_paths
            if is_attachment and password_form_visible(session):
                record.local_login_form = True
            target = session.navigation_target
            if target:
                resolved = session.resolve_url(target)
                if resolved is not None:
                    ctx.dynamic_urls.append(resolved.raw)


class CrawlStage:
    """Crawl every discovered URL with the configured crawler."""

    name = "crawl"
    requires = (Token.EXTRACTION, Token.DYNAMIC_URLS)
    provides = (Token.CRAWLS,)

    def run(self, ctx: AnalysisContext) -> None:
        urls: list[str] = []
        seen: set[str] = set()
        for extracted in ctx.report.urls:
            if extracted.url not in seen:
                seen.add(extracted.url)
                urls.append(extracted.url)
        for url in ctx.dynamic_urls:
            if url not in seen:
                seen.add(url)
                urls.append(url)
        urls = [url for url in urls if ctx.box._crawlable(url, ctx.record)]
        urls = urls[: ctx.config.max_urls_per_message]
        ctx.crawl_urls = urls

        method_by_url = {item.url: item.method for item in ctx.report.urls}
        fetcher = self._fetcher(ctx)
        budget = current_budget()
        for url in urls:
            if budget is not None:
                # One hop = one full browser visit (redirect chain,
                # scripts, screenshot); charged up front so a message
                # that already burned its budget elsewhere stops here.
                budget.charge(CRAWL_HOP_UNITS, "crawl-hops")
            discovered_dynamically = url in ctx.dynamic_urls
            extraction_method = method_by_url.get(url, "dynamic")
            result = self._fetch(ctx, fetcher, url)
            if result is None:
                # Circuit breaker open before any attempt got data: a
                # partial record instead of a dead-lettered message.
                ctx.record.crawls.append(
                    self._unreachable_crawl(url, discovered_dynamically, extraction_method)
                )
                continue
            ctx.record.crawls.append(
                self._build_crawl(ctx, url, result, discovered_dynamically, extraction_method)
            )

    # ------------------------------------------------------------------
    def _fetcher(self, ctx: AnalysisContext) -> ResilientFetcher | None:
        """The resilient fetch wrapper, when a fault engine is active.

        Fault-free runs keep the direct crawl path (and its exact RNG
        consumption), preserving byte-identical records.  The wrapper's
        breaker/budget/jitter state is scoped to this message: both the
        telemetry ledger and the jitter RNG derive from the per-message
        seed, so records stay order-independent.
        """
        engine = getattr(ctx.box.network, "faults", None)
        if engine is None or not engine.active or ctx.record.fault_telemetry is None:
            return None
        return ResilientFetcher(
            fetch=lambda url, timestamp, attempt: ctx.box.crawler.crawl_url(
                url, timestamp=timestamp, fault_attempt=attempt
            ),
            policy=ctx.box.resilience_policy,
            rng=random.Random(ctx.box.message_seed(ctx.message_index) ^ 0x5E51_71E7),
            telemetry=ctx.record.fault_telemetry,
        )

    def _fetch(
        self, ctx: AnalysisContext, fetcher: ResilientFetcher | None, url: str
    ) -> VisitResult | None:
        if fetcher is None:
            return ctx.box.crawler.crawl_url(url, timestamp=ctx.analysis_time)
        try:
            host = parse_url(url).host
        except UrlError:
            host = ""
        return fetcher.fetch(url, host, ctx.analysis_time)

    @staticmethod
    def _unreachable_crawl(
        url: str, discovered_dynamically: bool, extraction_method: str
    ) -> UrlCrawl:
        return UrlCrawl(
            url=url,
            outcome=VisitOutcome.UNREACHABLE,
            page_class=PageClass.ERROR,
            final_url=url,
            discovered_dynamically=discovered_dynamically,
            extraction_method=extraction_method,
        )

    # ------------------------------------------------------------------
    def _build_crawl(
        self,
        ctx: AnalysisContext,
        url: str,
        result: VisitResult,
        discovered_dynamically: bool,
        extraction_method: str,
    ) -> UrlCrawl:
        page_class = classify_visit(result)
        session = result.final_session

        landing_domain = ""
        final_url = result.final_url
        try:
            landing_domain = parse_url(final_url).host
        except UrlError:
            pass

        certificate = result.certificates[-1] if result.certificates else None
        signals = (
            SessionSignals.merge([s.signals() for s in result.sessions])
            if result.sessions
            else None
        )
        screenshot_phash = screenshot_dhash = None
        if session is not None and page_class in (
            PageClass.LOGIN_FORM, PageClass.GATED_LOGIN, PageClass.INTERACTION, PageClass.BENIGN
        ):
            screenshot_phash, screenshot_dhash = session.fingerprint()

        resource_requests = tuple(
            (request.url, request.kind, request.referrer)
            for request in result.requests
            if request.kind in ("resource", "script")
        )
        # Aggregate network/script observations across the whole chain:
        # challenge interstitials run (and call home) before the final
        # page ever loads.
        ajax_urls = tuple(
            call.url for chain_session in result.sessions for call in chain_session.ajax_log
        )
        executed_scripts = tuple(
            script for chain_session in result.sessions for script in chain_session.executed_scripts
        )
        final_title = ""
        final_text = ""
        if session is not None:
            final_title = session.parsed.title
            final_text = (session.parsed.text or "")[:200]

        return UrlCrawl(
            url=url,
            outcome=result.outcome,
            page_class=page_class,
            final_url=final_url,
            url_chain=tuple(result.url_chain),
            landing_domain=landing_domain,
            server_ip=result.server_ips.get(landing_domain, ""),
            certificate_fingerprint=certificate.fingerprint if certificate else "",
            certificate_not_before=certificate.not_before if certificate else None,
            signals=signals,
            resource_requests=resource_requests,
            ajax_urls=ajax_urls,
            screenshot_phash=screenshot_phash,
            screenshot_dhash=screenshot_dhash,
            executed_scripts=executed_scripts,
            http_statuses=tuple(response.status for response in result.responses),
            discovered_dynamically=discovered_dynamically,
            extraction_method=extraction_method,
            final_title=final_title,
            final_text_snippet=final_text,
        )


class ClassifyStage:
    """Aggregate per-URL page classes into the Section V message bucket."""

    name = "classify"
    requires = (Token.EXTRACTION, Token.CRAWLS)
    provides = (Token.CATEGORY,)

    def run(self, ctx: AnalysisContext) -> None:
        ctx.record.category = aggregate_message_category(
            had_urls=bool(ctx.crawl_urls) or bool(ctx.report.urls),
            page_classes=[crawl.page_class for crawl in ctx.record.crawls],
            local_login_form=ctx.record.local_login_form,
        )


class SpearStage:
    """pHash+dHash lookalike classification of login-form screenshots."""

    name = "spear"
    requires = (Token.CRAWLS, Token.CATEGORY)
    provides = (Token.SPEAR,)

    def run(self, ctx: AnalysisContext) -> None:
        record = ctx.record
        if record.category != MessageCategory.ACTIVE_PHISHING:
            return
        classifier = ctx.box.spear_classifier
        best = None
        for crawl in record.crawls:
            if crawl.page_class != PageClass.LOGIN_FORM or crawl.screenshot_phash is None:
                continue
            for reference in classifier.references:
                p_distance = hamming_distance(crawl.screenshot_phash, reference.phash)
                d_distance = hamming_distance(crawl.screenshot_dhash, reference.dhash)
                threshold = classifier.threshold
                if p_distance <= threshold and d_distance <= threshold:
                    candidate = (p_distance + d_distance, reference.brand, p_distance, d_distance)
                    if best is None or candidate < best:
                        best = candidate
        if best is not None:
            record.spear_brand = best[1]
            record.spear_distances = (best[2], best[3])


class EnrichStage:
    """WHOIS / passive-DNS / Shodan enrichment of landing domains.

    Honours ``PipelineConfig.enrich``: when the config disables
    enrichment the stage is a successful no-op (``ok``), not
    ``skipped`` — skipped is reserved for dependency degradation and
    plan subsetting.
    """

    name = "enrich"
    requires = (Token.CRAWLS,)
    provides = (Token.ENRICHMENTS,)

    def run(self, ctx: AnalysisContext) -> None:
        if not ctx.config.enrich:
            return
        record = ctx.record
        failures: set[str] = set()
        for crawl in record.crawls:
            domain = crawl.landing_domain
            if not domain or domain in record.enrichments or domain in failures:
                continue
            try:
                record.enrichments[domain] = ctx.box.enricher.enrich(
                    domain, at_time=record.delivered_at, server_ip=crawl.server_ip
                )
            except (NxDomainError, ConnectionFailed, TLSValidationError) as exc:
                # A host taken down between crawl and enrichment (or an
                # injected lookup fault) costs this domain's enrichment,
                # not the whole message: partial enrichments are kept
                # and the stage is marked failed at the end.
                failures.add(domain)
                telemetry = record.fault_telemetry
                if telemetry is not None:
                    telemetry.enrich_failures += 1
                    if isinstance(exc, FaultError):
                        telemetry.note_kind(exc.kind)
        if failures:
            raise ConnectionFailed(
                f"enrichment unreachable for {len(failures)} domain(s): "
                + ", ".join(sorted(failures))
            )


#: Figure 1 order; registration order is the stable topological tiebreak.
BUILTIN_STAGES = (
    register_stage(AuthStage()),
    register_stage(ParseStage()),
    register_stage(DynamicHtmlStage()),
    register_stage(CrawlStage()),
    register_stage(ClassifyStage()),
    register_stage(SpearStage()),
    register_stage(EnrichStage()),
)

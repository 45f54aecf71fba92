"""The corpus generator: from calibration targets to a live world.

``CorpusGenerator(seed, scale).generate()`` produces a
:class:`GeneratedCorpus`: a fully deployed :class:`~repro.dataset.world.World`
(landing sites with their cloaking stacks, WHOIS/CT/passive-DNS records,
legitimate portals) plus the reported-malicious message corpus.  At
``scale=1.0`` the counts are the paper's; smaller scales shrink
everything proportionally for fast tests.

The generator writes ground truth into ``message.ground_truth`` and the
per-domain ledger — the *pipeline* never reads these; they exist so the
calibration tests can verify that the analysis layer re-derives the
paper's numbers from raw behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dataset import allocation, names
from repro.dataset.calibration import CALIBRATION, Calibration, scaled
from repro.dataset.world import World
from repro.kits.attachment import (
    build_download_lure,
    build_html_attachment_message,
    deploy_download_site,
)
from repro.kits.brands import COMMODITY_BRANDS, COMPANY_BRANDS, Brand
from repro.kits.credential import CredentialKit, CredentialKitOptions, DeployedSite
from repro.kits.fraud import build_fraud_message
from repro.kits.interaction import (
    INTERACTION_KINDS,
    build_interaction_message,
    deploy_interaction_site,
)
from repro.kits.lures import build_credential_lure
from repro.mail.message import EmailMessage
from repro.web.whois import RU_REGISTRARS, WhoisRecord

_GENERIC_REGISTRARS = ("NameCheap", "GoDaddy", "Porkbun", "Gandi", "Tucows")


@dataclass
class DomainPlan:
    """Ground truth for one landing domain."""

    host: str
    tld: str
    klass: str  # 'fresh' | 'fresh-outlier' | 'compromised' | 'abused-service'
    role: str  # 'spear' | 'commodity' | 'otp' | 'math'
    brand: Brand
    message_count: int
    extra_messages: int = 0
    deceptive: str | None = None
    timedelta_a: float = 0.0
    timedelta_b: float = 0.0
    month: int = 0
    options: CredentialKitOptions = field(default_factory=CredentialKitOptions)
    deployment: DeployedSite | None = None
    #: Mean delivery hour of the domain's messages (set during emission).
    delivery_hours: list[float] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return self.message_count + self.extra_messages


@dataclass
class GeneratedCorpus:
    """The generator's output."""

    world: World
    messages: list[EmailMessage]
    domain_plans: list[DomainPlan]
    calibration: Calibration
    scale: float


# ----------------------------------------------------------------------
# Exact-sum domain picking for feature budgets
# ----------------------------------------------------------------------
def take_exact(
    pool: list[DomainPlan], n_domains: int, n_messages: int
) -> list[DomainPlan] | None:
    """Pick ``n_domains`` plans whose base counts sum to ``n_messages``.

    Greedy largest-first with a feasibility guard; relies on the pool's
    plentiful 1- and 2-count campaigns to land the sum exactly.  Returns
    None when infeasible (scaled-down corpora fall back to approximate).
    """
    available = sorted(pool, key=lambda plan: plan.message_count, reverse=True)
    chosen: list[DomainPlan] = []
    msgs_left, domains_left = n_messages, n_domains
    for plan in available:
        if domains_left == 0:
            break
        count = plan.message_count
        if count <= msgs_left - (domains_left - 1):
            chosen.append(plan)
            msgs_left -= count
            domains_left -= 1
    if domains_left == 0 and msgs_left == 0:
        return chosen
    return None


def take_until(
    pool: list[DomainPlan], n_messages: int, use_totals: bool = False
) -> list[DomainPlan]:
    """Pick plans until their message counts reach ``n_messages`` exactly
    (or as close as the pool allows).

    ``use_totals`` counts follow-up messages too — used for the features
    whose paper headline is a *fraction* of all credential messages.
    """

    def weight(plan: DomainPlan) -> int:
        return plan.total_messages if use_totals else plan.message_count

    available = sorted(pool, key=weight, reverse=True)
    chosen: list[DomainPlan] = []
    remaining = n_messages
    for plan in available:
        if remaining <= 0:
            break
        if weight(plan) <= remaining:
            chosen.append(plan)
            remaining -= weight(plan)
    return chosen


class CorpusGenerator:
    """Builds the world and the 5,181-message corpus."""

    def __init__(self, seed: int = 2024, scale: float = 1.0, calibration: Calibration = CALIBRATION):
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.seed = seed
        self.scale = scale
        self.cal = calibration
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    def generate(self) -> GeneratedCorpus:
        world = World(seed=self.seed)
        self._employees = self._make_employees()
        self._ip_counter = 0
        self._used_hosts: set[str] = set()

        plans = self._plan_domains()
        self._assign_features(plans)

        messages: list[EmailMessage] = []
        messages.extend(self._emit_credential_messages(world, plans))
        messages.extend(self._emit_fraud_messages(world))
        messages.extend(self._emit_error_messages(world))
        messages.extend(self._emit_interaction_messages(world))
        messages.extend(self._emit_download_messages(world))
        messages.extend(self._emit_local_html_messages(world, plans))
        self._apply_noise_padding(messages)
        self._seed_passive_dns(world, plans)

        messages.sort(key=lambda message: message.delivered_at)
        return GeneratedCorpus(
            world=world,
            messages=messages,
            domain_plans=plans,
            calibration=self.cal,
            scale=self.scale,
        )

    # ------------------------------------------------------------------
    # Identities and infrastructure helpers
    # ------------------------------------------------------------------
    def _make_employees(self) -> list[str]:
        employees: list[str] = []
        seen = set()
        rng = random.Random(self.seed + 1)
        for company in self.cal.company_domains:
            quota = max(20, scaled(160, self.scale, minimum=20))
            while len([e for e in employees if e.endswith(company)]) < quota:
                email = names.employee_email(rng, company)
                if email not in seen:
                    seen.add(email)
                    employees.append(email)
        return employees

    def _victim(self, brand: Brand | None = None) -> str:
        if brand is not None:
            for index, company_brand in enumerate(COMPANY_BRANDS):
                if company_brand.name == brand.name:
                    company = self.cal.company_domains[index]
                    pool = [email for email in self._employees if email.endswith(company)]
                    return self.rng.choice(pool)
        return self.rng.choice(self._employees)

    def _next_ip(self, prefix: str = "185.20") -> str:
        self._ip_counter += 1
        return f"{prefix}.{(self._ip_counter // 250) % 250}.{self._ip_counter % 250 + 1}"

    def _fresh_host(self, builder) -> str:
        """Generate a not-yet-used host name.

        Low-variety generators (e.g. homoglyphs of one brand) get a
        numeric disambiguator once the natural namespace is exhausted.
        """
        for _ in range(60):
            host = builder()
            if host not in self._used_hosts:
                self._used_hosts.add(host)
                return host
        for _ in range(200):
            host = builder()
            head, _, tail = host.partition(".")
            host = f"{head}{self.rng.randrange(10, 99)}.{tail}"
            if host not in self._used_hosts:
                self._used_hosts.add(host)
                return host
        raise RuntimeError("could not find a fresh host name")

    def _publish_sender(self, world: World, message: EmailMessage) -> None:
        world.publish_sender(message.sending_domain, message.sending_ip)

    # ------------------------------------------------------------------
    # Phase 1: domain planning
    # ------------------------------------------------------------------
    def _plan_domains(self) -> list[DomainPlan]:
        cal, rng = self.cal, self.rng
        spear_counts = allocation.expand_tiers(allocation.SPEAR_TIERS, self.scale)
        commodity_counts = allocation.expand_tiers(allocation.COMMODITY_TIERS, self.scale)

        n_otp_domains = max(1, scaled(12, self.scale, 1))
        n_math_domains = max(1, scaled(3, self.scale, 1))
        total_domains = (
            len(spear_counts) + len(commodity_counts) + n_otp_domains + n_math_domains
        )
        tlds = allocation.tld_labels(cal, total_domains, rng)

        # Outlier classes are carved out of the spear population.
        n_fresh_outlier = scaled(cal.outlier_fresh_domains, self.scale, 1)
        n_compromised = scaled(cal.outlier_compromised_domains, self.scale, 1)
        n_abused = scaled(cal.outlier_abused_service_domains, self.scale, 1)
        n_bulk_tail = scaled(
            cal.domains_timedelta_a_over_90d
            - cal.outlier_fresh_domains
            - cal.outlier_compromised_domains
            - cal.outlier_abused_service_domains,
            self.scale,
            1,
        )

        plans: list[DomainPlan] = []
        tld_pool = list(tlds)

        def next_tld(prefer: tuple[str, ...] = ()) -> str:
            for wanted in prefer:
                if wanted in tld_pool:
                    tld_pool.remove(wanted)
                    return wanted
            if tld_pool:
                return tld_pool.pop(0)
            return ".com"

        # --- spear domains -------------------------------------------------
        brand_cycle = self._spear_brand_sequence(len(spear_counts))
        klasses = (
            ["abused-service"] * n_abused
            + ["compromised"] * n_compromised
            + ["fresh-outlier"] * n_fresh_outlier
        )
        klasses += ["fresh"] * (len(spear_counts) - len(klasses))
        rng.shuffle(klasses)

        deceptive_budget = scaled(
            cal.deceptive_domains_total - cal.deceptive_domains_nontargeted, self.scale, 1
        )
        bulk_samples = allocation.sample_bulk_timedeltas(
            sum(1 for klass in klasses if klass == "fresh"), n_bulk_tail, rng
        )
        bulk_cursor = 0
        outlier_counters = {"fresh-outlier": 0, "compromised": 0, "abused-service": 0}

        for index, count in enumerate(spear_counts):
            brand = brand_cycle[index]
            klass = klasses[index]
            if klass == "abused-service":
                tld = next_tld(prefer=(".dev", ".com", ".net", ".app"))
            else:
                tld = next_tld()
            deceptive = None
            if deceptive_budget > 0 and klass == "fresh" and rng.random() < 0.25:
                deceptive = names.DECEPTIVE_TECHNIQUES[deceptive_budget % 5]
                deceptive_budget -= 1
            host = self._plan_host(klass, brand, deceptive, tld, rng)
            if klass == "fresh":
                delta_a, delta_b = bulk_samples[bulk_cursor]
                bulk_cursor += 1
            else:
                delta_a, delta_b = allocation.sample_outlier_timedeltas(
                    klass, outlier_counters[klass], rng
                )
                outlier_counters[klass] += 1
            plans.append(
                DomainPlan(
                    host=host,
                    tld=tld,
                    klass=klass,
                    role="spear",
                    brand=brand,
                    message_count=count,
                    deceptive=deceptive,
                    timedelta_a=delta_a,
                    timedelta_b=delta_b,
                )
            )

        # --- commodity (non-targeted credential) domains -------------------
        commodity_brand_cycle = self._commodity_brand_sequence(len(commodity_counts))
        nontargeted_deceptive = scaled(cal.deceptive_domains_nontargeted, self.scale, 1)
        # 197 duplicate-page follow-ups, concentrated on a minority of the
        # commodity domains so the per-domain median stays at 1 message.
        extras_pool = max(1, min(len(commodity_counts), scaled(30, self.scale, 1)))
        extras = allocation.distribute_extras(scaled(197, self.scale), extras_pool, rng)
        extras += [0] * (len(commodity_counts) - len(extras))
        for index, count in enumerate(commodity_counts):
            brand = commodity_brand_cycle[index]
            tld = next_tld()
            deceptive = None
            if nontargeted_deceptive > 0 and rng.random() < 0.2:
                deceptive = names.DECEPTIVE_TECHNIQUES[nontargeted_deceptive % 5]
                nontargeted_deceptive -= 1
            host = self._plan_host("fresh", brand, deceptive, tld, rng)
            delta_a = allocation.lognormal_hours(470.0, 0.9, rng)
            delta_b = max(4.0, min(allocation.lognormal_hours(170.0, 0.8, rng), delta_a - 1.0))
            plans.append(
                DomainPlan(
                    host=host,
                    tld=tld,
                    klass="fresh",
                    role="commodity",
                    brand=brand,
                    message_count=count,
                    extra_messages=extras[index],
                    deceptive=deceptive,
                    timedelta_a=min(delta_a, 2100.0),
                    timedelta_b=min(delta_b, 1050.0),
                )
            )

        # --- OTP and math-challenge domains --------------------------------
        otp_messages = scaled(cal.otp_gate_messages, self.scale, 1)
        math_messages = scaled(cal.math_challenge_messages, self.scale, 1)
        for role, n_domains, total in (
            ("otp", n_otp_domains, otp_messages),
            ("math", n_math_domains, math_messages),
        ):
            quotas = allocation.monthly_quota(total, tuple([1] * n_domains))
            for quota in quotas:
                if quota <= 0:
                    continue
                brand = rng.choice([brand for brand, _ in COMMODITY_BRANDS])
                tld = next_tld()
                host = self._plan_host("fresh", brand, None, tld, rng)
                delta_a = min(allocation.lognormal_hours(470.0, 0.9, rng), 2100.0)
                delta_b = max(4.0, min(allocation.lognormal_hours(170.0, 0.8, rng), delta_a - 1.0))
                plans.append(
                    DomainPlan(
                        host=host,
                        tld=tld,
                        klass="fresh",
                        role=role,
                        brand=brand,
                        message_count=quota,
                        timedelta_a=delta_a,
                        timedelta_b=delta_b,
                    )
                )
        return plans

    def _spear_brand_sequence(self, count: int) -> list[Brand]:
        weights = (0.45, 0.17, 0.14, 0.13, 0.11)
        sequence: list[Brand] = []
        for brand, weight in zip(COMPANY_BRANDS, weights):
            sequence.extend([brand] * max(1, int(round(count * weight))))
        rng = random.Random(self.seed + 2)
        rng.shuffle(sequence)
        return (sequence * 2)[:count]

    def _commodity_brand_sequence(self, count: int) -> list[Brand]:
        sequence: list[Brand] = []
        total_messages = sum(n for _, n in COMMODITY_BRANDS)
        for brand, message_count in COMMODITY_BRANDS:
            share = max(1, int(round(count * message_count / total_messages)))
            sequence.extend([brand] * share)
        rng = random.Random(self.seed + 3)
        rng.shuffle(sequence)
        return (sequence * 2)[:count]

    def _plan_host(
        self,
        klass: str,
        brand: Brand,
        deceptive: str | None,
        tld: str,
        rng: random.Random,
    ) -> str:
        if klass == "abused-service":
            # Keep Table II intact: pick a service whose suffix matches the
            # TLD label this domain was assigned, where one exists.
            by_tld = {
                ".dev": ("workers.dev", "r2.dev"),
                ".com": ("cloudflare-ipfs.com", "oraclecloud.com"),
                ".net": ("cloudfront.net",),
                ".app": ("vercel.app",),
            }
            candidates = by_tld.get(tld) or self.cal.abused_services
            service = candidates[rng.randrange(len(candidates))]
            return self._fresh_host(
                lambda: f"{names.neutral_domain(rng).replace('-', '')}-{rng.randrange(100, 999)}.{service}"
            )
        brand_token = brand.name.lower().replace(" ", "")
        if deceptive is not None:
            return self._fresh_host(
                lambda: names.deceptive_host(deceptive, brand_token, rng, tld)
            )
        return self._fresh_host(lambda: names.neutral_domain(rng) + tld)

    # ------------------------------------------------------------------
    # Phase 2: feature assignment
    # ------------------------------------------------------------------
    def _assign_features(self, plans: list[DomainPlan]) -> None:
        cal = self.cal
        credential = [plan for plan in plans if plan.role in ("spear", "commodity")]
        spear = [plan for plan in plans if plan.role == "spear"]

        def budget(value: int) -> int:
            return scaled(value, self.scale, 1)

        features: dict[str, set[str]] = {}

        def mark(selected: list[DomainPlan] | None, flag: str) -> list[DomainPlan]:
            selected = selected or []
            features[flag] = {plan.host for plan in selected}
            return selected

        # Victim-check variants: exact domain/message targets.
        vc_a = take_exact(spear, budget(cal.victim_check_a_domains), budget(cal.victim_check_a_messages))
        if vc_a is None:
            vc_a = take_until(spear, budget(cal.victim_check_a_messages))
        mark(vc_a, "vc_a")
        remaining_spear = [plan for plan in spear if plan not in vc_a]
        vc_b = take_exact(remaining_spear, budget(cal.victim_check_b_domains), budget(cal.victim_check_b_messages))
        if vc_b is None:
            vc_b = take_until(remaining_spear, budget(cal.victim_check_b_messages))
        mark(vc_b, "vc_b")

        vc_hosts = features["vc_a"] | features["vc_b"]
        non_vc = [plan for plan in credential if plan.host not in vc_hosts]

        # The remaining exclusive reveal gates.
        pool = sorted(non_vc, key=lambda plan: plan.message_count, reverse=True)
        ua_cloak = take_until(pool, budget(cal.ua_tz_lang_cloak_messages))
        mark(ua_cloak, "ua_cloak")
        pool = [plan for plan in pool if plan not in ua_cloak]
        fingerprint = take_until(pool, budget(cal.fingerprint_lib_messages))
        mark(fingerprint, "fingerprint")
        pool = [plan for plan in pool if plan not in fingerprint]

        # Console hijack: the victim-check scripts hijack the console by
        # themselves; top up with dedicated domains to reach the target.
        vc_messages = sum(plan.message_count for plan in vc_a + vc_b)
        topup = max(0, budget(cal.console_hijack_messages) - vc_messages)
        console_extra = take_until(pool, topup)
        mark(console_extra, "console_extra")

        # Turnstile stays off the custom-gate campaigns (UA/timezone cloak
        # and fingerprinting-library kits run their own checks instead).
        # The paper's headline for Turnstile/reCAPTCHA is a *fraction* of
        # credential-harvesting messages (74.4% / 24.8%), and duplicate
        # follow-ups land on the same protected pages, so these two are
        # budgeted over total (base + follow-up) message counts.
        turnstile_pool = [
            plan for plan in credential if plan not in ua_cloak and plan not in fingerprint
        ]
        total_credential = sum(plan.total_messages for plan in credential)
        turnstile_fraction = cal.turnstile_messages / cal.credential_harvesting_messages
        recaptcha_fraction = cal.recaptcha_messages / cal.credential_harvesting_messages
        mark(
            take_until(turnstile_pool, round(turnstile_fraction * total_credential), use_totals=True),
            "turnstile",
        )
        turnstile_plans = [plan for plan in credential if plan.host in features["turnstile"]]
        mark(
            take_until(turnstile_plans, round(recaptcha_fraction * total_credential), use_totals=True),
            "recaptcha",
        )
        mark(take_until(credential, budget(cal.debugger_timer_messages)), "debugger")
        mark(take_until(credential, budget(cal.context_menu_block_messages)), "contextmenu")
        mark(take_until(credential, budget(cal.httpbin_messages)), "httpbin")
        httpbin_plans = [plan for plan in credential if plan.host in features["httpbin"]]
        mark(take_until(httpbin_plans, budget(cal.ipapi_messages)), "ipapi")
        mark(take_until(spear, budget(cal.hue_rotate_messages)), "huerotate")
        mark(take_until(spear, budget(cal.spear_hotlink_messages)), "hotlink")

        for plan in plans:
            host = plan.host
            variant = "a" if host in features["vc_a"] else ("b" if host in features["vc_b"] else None)
            if host in features["ipapi"]:
                exfiltration = "httpbin+ipapi"
            elif host in features["httpbin"]:
                exfiltration = "httpbin"
            else:
                exfiltration = "none"
            plan.options = CredentialKitOptions(
                use_turnstile=host in features["turnstile"],
                use_recaptcha=host in features["recaptcha"],
                otp_gate=plan.role == "otp",
                math_challenge=plan.role == "math",
                victim_check_variant=variant,
                hue_rotate=host in features["huerotate"],
                console_hijack=host in features["console_extra"],
                debugger_timer=host in features["debugger"],
                context_menu_block=host in features["contextmenu"],
                ua_tz_lang_cloak=host in features["ua_cloak"],
                fingerprint_lib_gate=host in features["fingerprint"],
                ip_exfiltration=exfiltration,
                hotlink_brand_resources=host in features["hotlink"],
                tokenized_urls=True,
                block_cloud_ips=False,  # crawlable by the mobile-IP NotABot
            )

        # The fingerprint-library campaign is pinned to its July window.
        for plan in plans:
            if plan.options.fingerprint_lib_gate:
                plan.month = 6  # July (0-indexed from January)

    # ------------------------------------------------------------------
    # Phase 3: message emission
    # ------------------------------------------------------------------
    def _emit_credential_messages(self, world: World, plans: list[DomainPlan]) -> list[EmailMessage]:
        cal, rng = self.cal, self.rng
        months = allocation.MonthAllocator(
            allocation.monthly_quota(
                sum(plan.total_messages for plan in plans), cal.monthly_malicious_2024
            ),
            cal.hours_per_month,
            rng,
        )
        faulty_qr_budget = scaled(cal.faulty_qr_messages, self.scale, 1)
        regular_qr_budget = scaled(cal.regular_qr_messages, self.scale, 1)
        pdf_budget = scaled(cal.pdf_lure_messages, self.scale, 1)
        image_text_budget = scaled(cal.image_text_lure_messages, self.scale, 1)
        double_url_budget = scaled(cal.hue_rotate_pages - cal.hue_rotate_messages, self.scale, 1)

        messages: list[EmailMessage] = []
        token_counter = 0
        for plan in sorted(plans, key=lambda p: p.total_messages, reverse=True):
            month = plan.month if plan.options.fingerprint_lib_gate else months.take(plan.total_messages)
            plan.month = month
            delivery_hours = sorted(
                months.delivery_hour(month) for _ in range(plan.total_messages)
            )
            plan.delivery_hours = delivery_hours
            mean_delivery = sum(delivery_hours) / len(delivery_hours)

            kit = CredentialKit(plan.brand, plan.options, recaptcha=world.recaptcha)
            # The certificate must predate the first lure; long campaigns
            # therefore push their measured timedeltaB above the sampled
            # value, exactly as registering ahead of a campaign implies.
            cert_at = min(delivery_hours[0] - 2.0, mean_delivery - plan.timedelta_b)
            registered_at = cert_at - max(24.0, plan.timedelta_a - plan.timedelta_b)
            deployment = kit.deploy(
                world.network,
                plan.host,
                ip=self._next_ip(),
                cert_issued_at=cert_at,
                activated_at=0.0,  # active throughout (the error bucket models dead sites)
            )
            plan.deployment = deployment
            world.register_deployment(deployment)
            world.network.dns.add_record(plan.host, deployment.website.ip)
            self._register_whois(world, plan, registered_at)
            world.shodan.add_https_host(deployment.website.ip)

            sending_domain = f"notify-{plan.host.replace('.', '-')}.example"
            sending_ip = self._next_ip(prefix="198.51")
            for delivered_at in delivery_hours:
                token_counter += 1
                token = f"t{token_counter:06d}{rng.randrange(16**4):04x}"
                victim = self._victim(plan.brand if plan.role == "spear" else None)
                if plan.role in ("otp", "math"):
                    embed = "link"
                elif faulty_qr_budget > 0:
                    embed = "faulty_qr"
                    faulty_qr_budget -= 1
                elif regular_qr_budget > 0 and not plan.options.victim_check_variant:
                    embed = "qr"
                    regular_qr_budget -= 1
                elif pdf_budget > 0 and not plan.options.victim_check_variant:
                    embed = "pdf"
                    pdf_budget -= 1
                elif image_text_budget > 0 and not plan.options.victim_check_variant:
                    embed = "image_text"
                    image_text_budget -= 1
                else:
                    embed = "link"
                extra_urls: tuple[str, ...] = ()
                if plan.options.hue_rotate and double_url_budget > 0 and embed == "link":
                    token_counter += 1
                    second = f"t{token_counter:06d}{rng.randrange(16**4):04x}"
                    extra_urls = (deployment.register_victim(victim, second),)
                    double_url_budget -= 1
                message = build_credential_lure(
                    deployment,
                    victim,
                    token,
                    delivered_at,
                    rng,
                    embed_as=embed,
                    sending_domain=sending_domain,
                    sending_ip=sending_ip,
                    extra_urls=extra_urls,
                )
                message.ground_truth.update(
                    {
                        "role": plan.role,
                        "month": month,
                        "options": plan.options,
                        "domain_class": plan.klass,
                        "counts_toward_1267": plan.role in ("spear", "commodity")
                        and len(messages) >= 0,  # refined below
                    }
                )
                self._publish_sender(world, message)
                messages.append(message)

        # Mark which credential messages form the paper's 1,267 subset:
        # base (non-extra) messages of spear and commodity domains.
        base_budget = {
            plan.host: plan.message_count for plan in plans if plan.role in ("spear", "commodity")
        }
        for message in messages:
            host = message.ground_truth.get("landing_domain")
            if host in base_budget and base_budget[host] > 0:
                base_budget[host] -= 1
                message.ground_truth["counts_toward_1267"] = True
            else:
                message.ground_truth["counts_toward_1267"] = False
        return messages

    def _register_whois(self, world: World, plan: DomainPlan, registered_at: float) -> None:
        from repro.web.urls import registered_domain

        registrable = registered_domain(plan.host)
        if plan.tld == ".ru":
            registrar = RU_REGISTRARS[self.rng.randrange(len(RU_REGISTRARS))]
        else:
            registrar = _GENERIC_REGISTRARS[self.rng.randrange(len(_GENERIC_REGISTRARS))]
        world.network.whois.register(
            WhoisRecord(
                domain=registrable,
                registrar=registrar,
                created=registered_at,
                expires=registered_at + 24 * 365,
                registrant_country="RU" if plan.tld == ".ru" else "US",
                compromised=plan.klass == "compromised",
            )
        )

    # ------------------------------------------------------------------
    def _emit_fraud_messages(self, world: World) -> list[EmailMessage]:
        cal, rng = self.cal, self.rng
        # 2,572 + the other buckets overshoots the paper's 5,181 total by
        # 5 (the paper's own counts do too); we shave the fraud bucket.
        total = scaled(cal.no_web_resources - 5, self.scale, 2)
        quotas = allocation.monthly_quota(total, cal.monthly_malicious_2024)
        messages = []
        for month, quota in enumerate(quotas):
            for _ in range(quota):
                delivered = month * cal.hours_per_month + rng.uniform(1.0, cal.hours_per_month - 1.0)
                message = build_fraud_message(self._victim(), delivered, rng)
                message.ground_truth["month"] = month
                self._publish_sender(world, message)
                messages.append(message)
        return messages

    def _emit_error_messages(self, world: World) -> list[EmailMessage]:
        cal, rng = self.cal, self.rng
        specs = (
            ("nxdomain", scaled(cal.error_nxdomain, self.scale, 1)),
            ("unreachable", scaled(cal.error_unreachable, self.scale, 1)),
            ("mobile-only", scaled(cal.error_mobile_only, self.scale, 1)),
            ("geo-filtered", scaled(cal.error_geo_filtered, self.scale, 1)),
        )
        messages: list[EmailMessage] = []
        quotas = allocation.monthly_quota(
            sum(count for _, count in specs), cal.monthly_malicious_2024
        )
        months = allocation.MonthAllocator(quotas, cal.hours_per_month, rng)
        for kind, count in specs:
            emitted = 0
            while emitted < count:
                campaign = min(count - emitted, rng.randrange(2, 7))
                month = months.take(campaign)
                host = self._fresh_host(lambda: names.neutral_domain(rng) + ".com")
                if kind == "unreachable":
                    world.network.dns.add_record(host, self._next_ip())
                elif kind in ("mobile-only", "geo-filtered"):
                    options = CredentialKitOptions(
                        mobile_only=kind == "mobile-only",
                        geo_countries=("BR", "IN") if kind == "geo-filtered" else (),
                        tokenized_urls=False,
                        error_on_deny=True,
                        block_cloud_ips=False,
                    )
                    kit = CredentialKit(COMPANY_BRANDS[0], options, recaptcha=world.recaptcha)
                    deployment = kit.deploy(
                        world.network, host, ip=self._next_ip(), cert_issued_at=0.0
                    )
                    world.register_deployment(deployment)
                for _ in range(campaign):
                    delivered = months.delivery_hour(month)
                    url = f"https://{host}/doc/{rng.randrange(10**6):06d}"
                    message = build_fraud_message(self._victim(), delivered, rng)
                    message.subject = "Secure document notification"
                    message.parts[0].content += f"\n\nView the document: {url}\n"
                    message.ground_truth = {
                        "category": f"error-{kind}",
                        "month": month,
                        "landing_domain": host,
                    }
                    self._publish_sender(world, message)
                    messages.append(message)
                emitted += campaign
        return messages

    def _emit_interaction_messages(self, world: World) -> list[EmailMessage]:
        cal, rng = self.cal, self.rng
        total = scaled(cal.interaction_required, self.scale, 1)
        quotas = allocation.monthly_quota(total, cal.monthly_malicious_2024)
        months = allocation.MonthAllocator(quotas, cal.hours_per_month, rng)
        messages: list[EmailMessage] = []
        emitted = 0
        kind_index = 0
        while emitted < total:
            campaign = min(total - emitted, rng.randrange(3, 8))
            kind = INTERACTION_KINDS[kind_index % len(INTERACTION_KINDS)]
            kind_index += 1
            month = months.take(campaign)
            host = self._fresh_host(lambda: names.neutral_domain(rng) + ".com")
            cert_at = month * cal.hours_per_month - rng.uniform(24.0, 200.0)
            deploy_interaction_site(world.network, host, self._next_ip(), kind, cert_issued_at=cert_at)
            for _ in range(campaign):
                delivered = months.delivery_hour(month)
                url = f"https://{host}/view/{rng.randrange(10**6):06d}"
                message = build_interaction_message(self._victim(), delivered, url, kind, rng)
                message.ground_truth["month"] = month
                self._publish_sender(world, message)
                messages.append(message)
            emitted += campaign
        return messages

    def _emit_download_messages(self, world: World) -> list[EmailMessage]:
        cal, rng = self.cal, self.rng
        total = scaled(cal.downloads, self.scale, 1)
        messages: list[EmailMessage] = []
        host = self._fresh_host(lambda: names.neutral_domain(rng) + ".net")
        deploy_download_site(
            world.network, host, self._next_ip(), "malicious-js-loader.example", 0.0, rng
        )
        for index in range(total):
            month = index % len(cal.monthly_malicious_2024)
            delivered = month * cal.hours_per_month + rng.uniform(1.0, cal.hours_per_month - 1.0)
            url = f"https://{host}/package/{rng.randrange(10**6):06d}.zip"
            message = build_download_lure(self._victim(), delivered, url, rng)
            message.ground_truth["month"] = month
            self._publish_sender(world, message)
            messages.append(message)
        return messages

    def _emit_local_html_messages(self, world: World, plans: list[DomainPlan]) -> list[EmailMessage]:
        cal, rng = self.cal, self.rng
        local_total = scaled(cal.html_attachment_local_loading, self.scale, 1)
        redirect_total = scaled(
            cal.html_attachment_messages - cal.html_attachment_local_loading, self.scale, 1
        )
        commodity = [plan for plan in plans if plan.role == "commodity" and plan.deployment]
        messages: list[EmailMessage] = []
        for index in range(local_total + redirect_total):
            local = index < local_total
            month = rng.randrange(len(cal.monthly_malicious_2024))
            landing_url = ""
            if not local and commodity:
                plan = commodity[index % len(commodity)]
                assert plan.deployment is not None
                # Deliver inside the landing campaign's month so the
                # site's certificate already exists at analysis time.
                month = plan.month
                token = f"h{index:04d}{rng.randrange(16**4):04x}"
                landing_url = plan.deployment.register_victim(self._victim(), token)
            delivered = month * cal.hours_per_month + rng.uniform(1.0, cal.hours_per_month - 1.0)
            if landing_url and plan.delivery_hours:
                window_end = (month + 1) * cal.hours_per_month - 1.0
                campaign_start = min(plan.delivery_hours)
                delivered = rng.uniform(campaign_start, max(window_end, campaign_start + 1.0))
            message = build_html_attachment_message(
                self._victim(), delivered, rng, local_loading=local, landing_url=landing_url
            )
            message.ground_truth["month"] = month
            if landing_url:
                from repro.web.urls import parse_url

                message.ground_truth["landing_domain"] = parse_url(landing_url).host
            self._publish_sender(world, message)
            messages.append(message)
        return messages

    # ------------------------------------------------------------------
    def _apply_noise_padding(self, messages: list[EmailMessage]) -> None:
        """Stamp noise padding onto the first N credential lures."""
        from repro.kits.lures import _noise_block
        from repro.mail.message import MessagePart

        budget = scaled(self.cal.noise_padding_messages, self.scale, 1)
        for message in messages:
            if budget <= 0:
                break
            if message.ground_truth.get("category") == "credential-phishing" and not message.ground_truth.get("noise_padding"):
                message.add_part(MessagePart.text(_noise_block(self.rng)))
                message.ground_truth["noise_padding"] = True
                budget -= 1

    def _seed_passive_dns(self, world: World, plans: list[DomainPlan]) -> None:
        """Seed Umbrella-style volumes, including the paper's top three."""
        cal, rng = self.cal, self.rng
        ranked = sorted(plans, key=lambda plan: plan.total_messages, reverse=True)
        five_message = [plan for plan in ranked if plan.message_count == 5]
        one_message = [plan for plan in ranked if plan.message_count == 1]
        specials = {}
        if ranked:
            specials[ranked[0].host] = cal.dns_top_domain_total
        if five_message:
            specials[five_message[0].host] = cal.dns_second_total
        if one_message:
            specials[one_message[0].host] = cal.dns_third_total

        for plan in plans:
            if not plan.delivery_hours:
                continue
            first_day = int(min(plan.delivery_hours) // 24)
            if plan.host in specials:
                total = specials[plan.host]
            elif plan.total_messages > 1:
                total = max(2, int(allocation.lognormal_hours(cal.dns_multi_median_total, 0.7, rng)))
            else:
                total = max(1, int(allocation.lognormal_hours(cal.dns_single_median_total, 0.7, rng)))
            # Low-volume campaigns concentrate their queries into a few
            # days (paper: median max-daily is ~43% of the 30-day total).
            if total > 10**6:
                active_days = 30
            else:
                active_days = max(1, min(rng.randrange(2, 5), total))
            base = total // active_days
            remainder = total - base * active_days
            for offset in range(active_days):
                day = first_day - 1 - offset
                volume = base + (remainder if offset == 0 else 0)
                if volume > 0:
                    world.passive_dns.record_volume(plan.host, day, volume)

"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``     generate the calibrated world, analyse the corpus — in
              this process, or with ``--jobs N`` across N worker
              processes (``--executor auto|inline|process``), with
              ``--checkpoint DIR`` durably, and with ``--profile``
              printing where the analysis time went per pipeline
              stage — print the headline statistics (optionally export
              the artifacts).
- ``resume``  continue an interrupted checkpointed run, skipping the
              message indices that already have durable records.
- ``report``  recompute the statistics from a previously exported run.
- ``table1``  the crawler-vs-detector assessment, computed live.
- ``fsck``    validate a checkpoint's records.jsonl (per-line CRC) and
              manifest; optionally salvage the intact records to a
              repaired checkpoint directory.
- ``serve``   run the always-on analysis daemon: line-delimited JSON
              ingestion over a socket (raw RFC-822 bytes + reporter id
              in, verdict records out), per-reporter fair scheduling,
              deterministic load-shedding, rolling checkpoint
              compaction, SIGTERM drain (see :mod:`repro.serve`).
- ``submit``  send .eml files to a running daemon and print (or
              export) the verdicts.
- ``compact`` rewrite a checkpoint's records.jsonl keeping the last
              record per message index (fsck-clean, CRC-v2 output).

Graceful shutdown: during ``run``/``resume`` the first SIGINT/SIGTERM
requests a drain — workers finish the message they are on, the
checkpoint flushes, and the manifest records ``status: interrupted`` so
a bare ``resume`` continues byte-identically.  A second signal
force-exits; the checkpoint is consistent at every line boundary.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import NamedTuple

from repro._budget import DEFAULT_WORK_LIMIT
from repro.runner.executor import RunnerConfig
from repro.runner.runner import EXECUTORS
from repro.storage.durable import DURABILITY_POLICIES
from repro.storage.faults import STORAGE_FAULT_PROFILES
from repro.web.faults import FAULT_PROFILES


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return jobs


def _budget_arg(value: str) -> int:
    units = int(value)
    if units < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = unlimited)")
    return units


def _guard_limit_arg(value: str) -> tuple[str, int]:
    """One ``--guard-limit key=value`` override, validated at parse time
    (unknown keys list the full vocabulary instead of failing mid-run)."""
    from repro.mail.guard import GuardLimitError, parse_guard_limit

    try:
        return parse_guard_limit(value)
    except GuardLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _hostile_spec(value: str) -> str:
    seed, _, copies = value.partition(":")
    try:
        int(seed)
        if copies:
            if int(copies) < 1:
                raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected '<seed>' or '<seed>:<copies>' with copies >= 1"
        ) from None
    return value


def _stage_list(value: str) -> tuple[str, ...]:
    """Validate a ``--stages auth,parse,...`` selection against the
    registry, including the requires/provides closure, so a bad subset
    fails at argument parsing instead of mid-run."""
    from repro.core.stages import StagePlanError, build_plan

    names = tuple(name.strip() for name in value.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list of stages")
    try:
        build_plan(names)
    except StagePlanError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


class _Flag(NamedTuple):
    """One flag shared by ``run``, ``resume`` and possibly ``serve``."""

    option: str
    #: The :class:`RunnerConfig` field it sets (None: per invocation).
    setting: str | None
    #: Recorded in the manifest, so ``resume`` defaults it to None:
    #: "what the interrupted run used".
    saved: bool
    #: ``serve`` takes it too.
    serve: bool
    kwargs: dict

    @property
    def dest(self) -> str:
        return self.option[2:].replace("-", "_")


def _flag(option, setting=None, *, saved=None, serve=False, **kwargs) -> _Flag:
    return _Flag(option, setting, setting is not None if saved is None else saved,
                 serve, kwargs)


#: The run settings and per-invocation flags, declared once for every
#: subcommand that takes them.
_FLAGS = (
    _flag("--jobs", saved=True, serve=True, type=_positive_int, default=1,
          help="workers, each with a private CrawlerBox (records are identical "
               "for any jobs count); asking for more jobs than cores just adds "
               "scheduling overhead"),
    _flag("--executor", serve=True, choices=EXECUTORS, default="auto",
          help="transport: 'inline' analyses in this process (--jobs 1 only); "
               "'process' runs workers in separate processes (each serializes "
               "its own records and ships batched frames); 'auto' is inline at "
               "--jobs 1 and process above.  Multi-core speedup is unmeasured: "
               "on a 1-2 core host process runs stay at inline throughput for "
               "jobs 1-8 (bench_runner_scaling)"),
    _flag("--batch-size", type=_positive_int, default=None, metavar="N",
          help="messages per dispatch to a process worker (default: adaptive "
               "from corpus size and --jobs); results travel back in batched "
               "frames either way, so this mainly tunes tail-end load balance"),
    _flag("--profile", action="store_true",
          help="print the per-stage timing table (stages are always timed; "
               "the timings are never written to the checkpoint)"),
    _flag("--stages", "stages", type=_stage_list, default=None,
          metavar="NAME,NAME,...",
          help="run only these pipeline stages (e.g. 'auth,parse' for "
               "crawl-free triage); unselected stages are recorded as skipped "
               "on each record's stage_status; a stage's upstream providers "
               "must be included"),
    _flag("--faults", "faults", choices=tuple(FAULT_PROFILES), default="off",
          help="inject deterministic network faults (DNS flaps, timeouts, TLS "
               "failures, 5xx/429, stalls, redirect loops) into the simulated "
               "internet; the resilient crawl path retries/degrades instead of "
               "dying"),
    _flag("--fault-seed", "fault_seed", type=int, default=None, metavar="N",
          help="seed for the fault schedule (default: the run's --seed); a "
               "fixed fault-seed gives byte-identical records for any --jobs "
               "count or executor"),
    _flag("--budget", "budget", serve=True, type=_budget_arg, default=None,
          metavar="UNITS",
          help="per-message work budget in abstract units (JS steps, crawl "
               "hops, OCR tiles); a message that exhausts it has that stage "
               "degraded to 'failed' instead of wedging a worker; 0 = unlimited "
               f"(default: the pipeline's built-in {DEFAULT_WORK_LIMIT:,}); a daemon also "
               "denominates its admission buckets in it"),
    _flag("--guard-limit", "guard_limits", serve=True, type=_guard_limit_arg,
          action="append", default=None, metavar="KEY=VALUE",
          help="override one ingestion-guard structural cap (repeatable), e.g. "
               "--guard-limit max_parts=64 --guard-limit max_depth=10; unknown "
               "keys list the vocabulary; reaches inline and process runs "
               "identically"),
    _flag("--hostile", "hostile", type=_hostile_spec, default=None,
          metavar="SEED[:COPIES]",
          help="append the seeded hostile corpus (repro.dataset.hostile) after "
               "the calibrated messages — pathological MIME/header/payload "
               "shapes that must quarantine, never crash"),
    _flag("--durability", serve=True, choices=DURABILITY_POLICIES, default="batch",
          help="fsync policy for durable writes, per invocation (never "
               "recorded in the manifest): 'none' never fsyncs (page cache "
               "only), 'batch' fsyncs the records file every 256 appends + on "
               "close and all whole-file replacements (default), 'always' "
               "additionally fsyncs every append (lose at most one record to "
               "power failure)"),
    _flag("--storage-faults", "storage_faults", serve=True,
          choices=tuple(STORAGE_FAULT_PROFILES), default="off",
          help="inject deterministic storage faults (short writes, ENOSPC "
               "episodes, EIO, fsync failures, torn renames) into every durable "
               "write; the crash-consistent write path retries/degrades instead "
               "of corrupting the checkpoint, and a daemon turns read-only under "
               "a persistent episode until the disk recovers (watch /healthz)"),
    _flag("--storage-fault-seed", "storage_fault_seed", serve=True, type=int,
          default=None, metavar="N",
          help="seed for the storage-fault schedule (default: the run's "
               "--seed); decisions key on file basenames, so the same seed "
               "reproduces the same disk weather in any checkpoint directory"),
    _flag("--export", metavar="PATH", default=None,
          help="write the analysis artifacts to a JSON file"),
)


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for flag in _FLAGS:
        if command == "serve" and not flag.serve:
            continue
        kwargs = flag.kwargs
        if command == "resume" and flag.saved:
            kwargs = {**kwargs, "default": None}
        parser.add_argument(flag.option, **kwargs)


def _print_study_report(records, world=None) -> None:
    from repro.analysis import figures
    from repro.core.outcomes import MessageCategory

    breakdown = figures.outcome_breakdown(records)
    print(f"\nMessages analysed: {breakdown.total}")
    print("Outcome breakdown:")
    for label, category in (
        ("no web resources", MessageCategory.NO_RESOURCES),
        ("error pages", MessageCategory.ERROR),
        ("interaction required", MessageCategory.INTERACTION),
        ("downloads", MessageCategory.DOWNLOAD),
        ("active phishing", MessageCategory.ACTIVE_PHISHING),
    ):
        print(f"  {label:<22s} {breakdown.count(category):>6d} "
              f"({100 * breakdown.fraction(category):5.1f}%)")

    spear = sum(1 for record in records if record.spear_brand is not None)
    active = breakdown.count(MessageCategory.ACTIVE_PHISHING)
    if active:
        print(f"Spear phishing: {spear}/{active} ({100 * spear / active:.1f}% of active)")

    evasion = figures.section5c_evasion(records)
    print(f"Turnstile prevalence: {100 * evasion.turnstile_fraction:.1f}% | "
          f"reCAPTCHA: {100 * evasion.recaptcha_fraction:.1f}% | "
          f"faulty QR: {evasion.faulty_qr} | console hijack: {evasion.console_hijack}")
    clusters = [c for c in evasion.shared_script_clusters if c.kind == "victim-check"]
    for cluster in clusters:
        print(f"Shared victim-check script: {cluster.n_domains} domains / "
              f"{cluster.n_messages} messages")

    # Timelines need enrichment data; a triage run (--stages without
    # enrich) or a fully degraded enrich stage has none to summarize.
    if world is not None and any(record.enrichments for record in records):
        summary = figures.figure3(records, world.network)
        print(f"Timelines: median registration->delivery {summary.median_timedelta_a:.0f} h, "
              f"TLS->delivery {summary.median_timedelta_b:.0f} h "
              f"({summary.over_90d_a} domains registered >90 d ahead)")

    from repro.analysis.infrastructure import summarize_infrastructure

    infrastructure = summarize_infrastructure(records)
    print(f"Infrastructure: {infrastructure.n_domains} landing domains in "
          f"{infrastructure.n_campaigns} campaigns "
          f"({infrastructure.singleton_campaigns} singletons, largest "
          f"{infrastructure.largest_campaign_domains} domains)")


def _install_drain_handlers(runner) -> None:
    """First SIGINT/SIGTERM drains gracefully; the second force-exits."""
    import os
    import signal

    def handle(signum, frame):
        if runner.request_drain():
            print("\nDrain requested: finishing in-flight messages "
                  "(checkpoint stays consistent); signal again to force-exit.",
                  flush=True)
        else:
            print("\nForce exit (checkpoint consistent at the last completed record).",
                  flush=True)
            os._exit(130)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handle)
        except ValueError:
            pass  # not the main thread (embedded use): leave defaults


def _run_settings(args, manifest=None) -> RunnerConfig:
    """The run's settings: every setting flag given on the command line
    wins; the rest come from the flag defaults (``run``, ``serve``) or
    from the interrupted run's ``manifest`` (``resume``).  A fault seed
    the run never used falls back to its ``--seed``; ``serve`` takes no
    ``--fault-seed`` and keeps the record's 0."""
    if manifest is None:
        base = RunnerConfig(seed=args.seed, scale=args.scale,
                            fault_seed=args.seed if "fault_seed" in vars(args) else 0,
                            storage_fault_seed=args.seed)
    else:
        saved = manifest.config
        base = replace(
            saved,
            fault_seed=saved.fault_seed if saved.faults != "off" else saved.seed,
            storage_fault_seed=(saved.storage_fault_seed
                                if saved.storage_faults != "off" else saved.seed),
        )
    given = {}
    for flag in _FLAGS:
        value = getattr(args, flag.dest, None)
        if flag.setting is not None and value is not None:
            given[flag.setting] = tuple(value) if isinstance(value, list) else value
    return replace(base, **given)


def _announce(config: RunnerConfig, durability: str) -> None:
    """Print the fault, storage, budget and guard settings in force."""
    if config.faults != "off":
        print(f"Fault injection: profile={config.faults}, fault-seed={config.fault_seed}",
              flush=True)
    if config.storage_faults != "off":
        print(f"Storage-fault injection: profile={config.storage_faults}, "
              f"storage-fault-seed={config.storage_fault_seed}, "
              f"durability={durability}", flush=True)
    if config.budget is not None:
        print(f"Per-message budget: "
              f"{'unlimited' if config.budget == 0 else f'{config.budget} work units'}",
              flush=True)
    if config.guard_limits:
        print("Guard limits: " + ", ".join(
            f"{key}={value}" for key, value in config.guard_limits), flush=True)


def _build_runner(corpus, config: RunnerConfig, jobs: int, args):
    """A CorpusRunner over ``corpus`` under ``config``; ``args`` gives
    the per-invocation flags (checkpoint, executor, batch size,
    durability).

    The runner gets the world generated here: an inline run builds its
    box on it, process workers inherit it, and each box is built by the
    same :meth:`RunnerConfig.build`, so both transports see identical
    stages, weather and limits.  The disk weather is installed
    process-wide here: only this process writes durable state
    (checkpoint, manifest, export).
    """
    from repro.runner import CheckpointStore, CorpusRunner

    config.install_storage_faults()
    checkpoint = (
        CheckpointStore(args.checkpoint, durability=args.durability)
        if args.checkpoint else None
    )

    def progress(stats, completed, total):
        if completed % 200 and completed != total:
            return
        print(f"  ... {completed}/{total} analysed "
              f"(active {stats.active}, spear {stats.spear}, "
              f"retried {stats.retried}, dead-lettered {stats.dead_lettered})")

    return CorpusRunner(
        world=corpus.world,
        jobs=jobs,
        executor=args.executor,
        config=config,
        checkpoint=checkpoint,
        progress=progress,
        batch_size=args.batch_size,
    )


def _finish_run(result, corpus, export_path, profile: bool) -> int:
    if profile:
        from repro.runner import format_stage_report

        print("\nPer-stage timing:")
        print(format_stage_report(result.stats.stage_calls, result.stats.stage_seconds))
    _print_study_report(result.records, corpus.world)
    if result.stats.quarantined:
        from repro.runner import format_quarantine_report

        print()
        print(format_quarantine_report(result.records))
    if result.stats.budget_stage_failures:
        print(f"Budget-exhausted stages: {result.stats.budget_stage_failures} "
              f"(degraded to 'failed', see stage_errors)")
    if result.stats.has_fault_activity:
        from repro.runner import format_fault_report

        print()
        print(format_fault_report(result.stats))
    degraded = sum(1 for record in result.records if record.degraded_stages)
    if degraded:
        print(f"\nDegraded records (failed or skipped stages): {degraded}")
    for letter in result.dead_letters:
        print(f"DEAD LETTER: message {letter.index} after {letter.attempts} attempts: "
              f"{letter.error}")
        for attempt, error in enumerate(letter.history, start=1):
            print(f"  attempt {attempt}: {error}")
    if export_path:
        from repro.core.export import save_records

        save_records(result.records, export_path)
        print(f"\nArtifacts exported to {export_path}")
    return 0


def _interrupted_exit(result, total: int, checkpoint_dir) -> int:
    durable = len(result.records) + len(result.dead_letters)
    print(f"\nInterrupted: {durable}/{total} messages durable "
          f"({len(result.stats.categories)} categories so far); "
          f"checkpoint is consistent.")
    if checkpoint_dir:
        print(f"Continue with: python -m repro resume {checkpoint_dir}")
    return 130


def cmd_run(args) -> int:
    from repro import CorpusGenerator

    config = _run_settings(args)
    print(f"Generating world and corpus (seed={config.seed}, scale={config.scale}) ...")
    started = time.time()
    corpus = CorpusGenerator(seed=config.seed, scale=config.scale).generate()
    print(f"  {len(corpus.messages)} messages, {len(corpus.domain_plans)} landing domains "
          f"({time.time() - started:.1f}s)")
    messages = config.with_hostile(corpus.messages)
    if config.hostile:
        print(f"  + {len(messages) - len(corpus.messages)} hostile messages "
              f"(spec {config.hostile!r})")

    runner = _build_runner(corpus, config, args.jobs, args)
    _announce(config, args.durability)
    print(f"Running CrawlerBox over the corpus "
          f"(jobs={args.jobs}, executor={runner.executor}) ...")
    _install_drain_handlers(runner)
    started = time.time()
    result = runner.run(messages)
    print(f"  analysed in {time.time() - started:.1f}s")

    if result.interrupted:
        return _interrupted_exit(result, len(messages), args.checkpoint)
    return _finish_run(result, corpus, args.export, args.profile)


def cmd_resume(args) -> int:
    from repro import CorpusGenerator
    from repro.runner import CheckpointStore

    store = CheckpointStore(args.checkpoint)
    try:
        manifest = store.read_manifest()
    except ValueError as exc:
        print(f"Cannot resume from {args.checkpoint}: {exc}")
        return 1
    if manifest is None:
        print(f"No manifest under {args.checkpoint}; nothing to resume")
        return 1
    if manifest.is_service:
        print(f"{args.checkpoint} belongs to a `repro serve` daemon "
              f"(status {manifest.status!r}), not an interrupted batch run.\n"
              f"Restart the daemon instead:\n"
              f"  python -m repro serve --checkpoint {args.checkpoint}\n"
              f"(it restores its admission state and message indices from "
              f"the manifest; clients resubmit anything that was rejected "
              f"while it drained)")
        return 1
    config = _run_settings(args, manifest)
    jobs = args.jobs if args.jobs is not None else (
        1 if args.executor == "inline" else manifest.jobs)
    scan = store.scan()
    if scan.corruption:
        print(f"WARNING: {len(scan.corruption)} corrupt line(s) in "
              f"{store.records_path} — their records will be re-analysed; "
              f"run `repro fsck {args.checkpoint}` for details")
    durable = len(scan.indices)
    print(f"Resuming run (seed={config.seed}, scale={config.scale}, "
          f"{durable}/{manifest.total_messages} already analysed, jobs={jobs}) ...")
    _announce(config, args.durability)
    for letter in manifest.dead_letters:
        print(f"  prior dead letter: message {letter['index']} after "
              f"{letter['attempts']} attempts: {letter['error']}")
        for attempt, error in enumerate(letter.get("history") or (), start=1):
            print(f"    attempt {attempt}: {error}")

    corpus = CorpusGenerator(seed=config.seed, scale=config.scale).generate()
    messages = config.with_hostile(corpus.messages)
    if len(messages) != manifest.total_messages:
        print(f"Corpus mismatch: regenerated {len(messages)} messages, "
              f"manifest expects {manifest.total_messages}"
              + ("" if config.hostile else
                 " (a hostile-ingest run needs its --hostile spec again)"))
        return 1

    started = time.time()
    runner = _build_runner(corpus, config, jobs, args)
    _install_drain_handlers(runner)
    result = runner.run(messages)
    print(f"  {len(result.resumed_indices)} records reused, "
          f"{len(result.records) - len(result.resumed_indices)} analysed "
          f"in {time.time() - started:.1f}s")

    if result.interrupted:
        return _interrupted_exit(result, len(messages), args.checkpoint)
    return _finish_run(result, corpus, args.export, args.profile)


def cmd_report(args) -> int:
    from repro.core.export import load_records

    records = load_records(args.artifacts)
    print(f"Loaded {len(records)} records from {args.artifacts}")
    _print_study_report(records)
    return 0


def cmd_fsck(args) -> int:
    """Validate a checkpoint: per-line CRC scan, manifest consistency,
    ``endpoint.json`` sanity (serve checkpoints), leftover temp files.

    Exit codes: 0 = intact (a torn final line is tolerated and
    reported), 1 = interior corruption, an unreadable manifest or
    endpoint file, or a missing checkpoint.
    """
    import json
    import pathlib

    from repro.runner import CheckpointStore
    from repro.runner.checkpoint import ManifestCorrupt

    directory = pathlib.Path(args.checkpoint)
    if not directory.is_dir():
        print(f"No checkpoint directory at {directory}")
        return 1
    store = CheckpointStore(directory)
    scan = store.scan()
    print(f"{store.records_path}: {scan.total_lines} line(s), "
          f"{len(scan.entries)} intact record(s), "
          f"{len(scan.indices)} distinct message indices")

    for issue in scan.issues:
        label = "torn tail (tolerated)" if issue.torn_tail else "CORRUPT"
        print(f"  line {issue.line_number}: {label} [{issue.kind}] {issue.detail}")

    manifest = None
    manifest_broken = False
    try:
        manifest = store.read_manifest()
    except ManifestCorrupt as exc:
        # Torn write or bit rot, not a version skew: the records are
        # independent of the manifest, so repair can still salvage.
        manifest_broken = True
        print(f"{store.manifest_path}: UNREADABLE ({exc.reason})")
        print(f"  hint: the records are independent of the manifest — "
              f"`repro fsck {directory} --repair <dest>` salvages every "
              f"intact record; then `repro run --checkpoint <dest> "
              f"--seed/--scale` re-creates the manifest and resumes")
    except (ValueError, KeyError) as exc:
        manifest_broken = True
        print(f"{store.manifest_path}: UNREADABLE ({exc})")
    if manifest is None and not manifest_broken:
        print(f"{store.manifest_path}: missing (records-only checkpoint)")
    elif manifest is not None:
        print(f"{store.manifest_path}: status={manifest.status}, "
              f"completed={manifest.completed}/{manifest.total_messages}, "
              f"dead letters={len(manifest.dead_letters)}")
        dead = {letter.get("index") for letter in manifest.dead_letters}
        unaccounted = sorted(
            set(range(manifest.total_messages)) - scan.indices - dead
        )
        if unaccounted:
            preview = ", ".join(str(index) for index in unaccounted[:10])
            if len(unaccounted) > 10:
                preview += ", ..."
            print(f"  {len(unaccounted)} message(s) without a durable record "
                  f"(lost to corruption or never analysed): {preview}")
        if manifest.drained:
            print(f"  drained in-flight indices: "
                  f"{', '.join(str(index) for index in manifest.drained)}")

    # Serve checkpoints carry an endpoint.json; a torn one sends every
    # `repro submit --checkpoint` to a parse error, so diagnose it here.
    endpoint_broken = False
    endpoint_path = directory / "endpoint.json"
    if endpoint_path.exists():
        try:
            endpoint = json.loads(endpoint_path.read_text(encoding="utf-8"))
            if not isinstance(endpoint, dict) or not {"host", "port"} <= set(endpoint):
                raise ValueError("missing host/port keys")
        except (ValueError, OSError) as exc:
            endpoint_broken = True
            reason = getattr(exc, "msg", None) or str(exc)
            print(f"{endpoint_path}: UNREADABLE ({reason})")
            print("  hint: stale or torn endpoint file — delete it; the "
                  "daemon rewrites it on startup (submit can use --port "
                  "meanwhile)")
        else:
            print(f"{endpoint_path}: daemon endpoint "
                  f"{endpoint['host']}:{endpoint['port']}")

    # Leftover temp files mark a crash (or torn-rename fault) between
    # temp write and atomic rename; the live files are intact.
    for leftover in sorted(path for path in directory.iterdir()
                           if path.name.endswith(".tmp")):
        print(f"{leftover}: leftover temp file ({leftover.stat().st_size} "
              f"byte(s)) — a rewrite crashed between write and rename; "
              f"the live file is intact; safe to delete")

    corrupt = scan.corruption
    if corrupt:
        print(f"RESULT: {len(corrupt)} corrupt line(s) — "
              f"records on those lines are lost")
    else:
        print("RESULT: checkpoint intact"
              + (" (torn tail will re-analyse on resume)"
                 if any(issue.torn_tail for issue in scan.issues) else ""))

    if args.repair:
        repaired = store.salvage_to(args.repair)
        salvaged = len(repaired.scan().indices)
        if manifest_broken or manifest is None:
            print(f"Salvaged {salvaged} record(s) to {repaired.directory} "
                  f"(no readable source manifest: run `repro run "
                  f"--checkpoint {repaired.directory} --seed S --scale C` "
                  f"to re-create one — the salvaged records are reused, "
                  f"the rest re-analyse)")
        else:
            print(f"Salvaged {salvaged} record(s) to {repaired.directory} "
                  f"(manifest marked 'interrupted'; resume it to re-analyse "
                  f"the rest)")
    return 1 if (corrupt or manifest_broken or endpoint_broken) else 0


def cmd_serve(args) -> int:
    """Run the always-on analysis daemon (see :mod:`repro.serve`)."""
    import signal

    from repro.serve import ServeConfig, ServeDaemon
    from repro.serve.admission import AdmissionConfig

    settings = _run_settings(args)
    # Admission budgets are denominated in the per-message work budget:
    # the operator thinks in messages per arrival, the buckets in the
    # work units those messages may consume.
    cost = settings.budget or DEFAULT_WORK_LIMIT

    def units(messages: float | None) -> int | None:
        return None if messages is None else int(messages * cost)

    config = ServeConfig(
        run=settings,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        executor=args.executor,
        batch_size=args.batch_size,
        admission=AdmissionConfig(
            cost=cost,
            global_rate=units(args.admit_rate),
            global_burst=units(args.admit_burst),
            reporter_rate=units(args.reporter_rate),
            reporter_burst=units(args.reporter_burst),
        ),
        backlog_high_water=args.backlog,
        compact_lines=args.compact_lines,
        retain=args.retain,
        durability=args.durability,
        max_sessions=args.max_sessions,
        line_deadline=args.line_deadline,
        idle_timeout=args.idle_timeout,
        send_deadline=args.send_deadline,
        strike_budget=args.strikes,
        listen_backlog=args.listen_backlog,
        flush_timeout=args.flush_timeout,
    )
    daemon = ServeDaemon(config, args.checkpoint)
    _announce(settings, config.durability)

    def handle(signum, frame):
        daemon.request_shutdown()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handle)
        except ValueError:
            pass
    try:
        daemon.start()
    except RuntimeError as exc:
        print(f"Cannot serve: {exc}")
        return 1
    print(f"repro serve: listening on {config.host}:{daemon.port} "
          f"(seed={settings.seed}, scale={settings.scale}, jobs={config.jobs}); "
          f"endpoint written to {daemon.directory}/endpoint.json; "
          f"SIGTERM drains.", flush=True)
    if args.admit_rate is not None:
        print(f"  admission: {args.admit_rate:g} msg/arrival global"
              + (f", {args.reporter_rate:g} msg/arrival per reporter"
                 if args.reporter_rate is not None else ""), flush=True)
    code = daemon.wait()
    totals = daemon.totals
    print(f"repro serve: drained ({totals['completed']} completed, "
          f"{totals['shed']} shed, {totals['rejected']} rejected); "
          f"manifest status 'stopped'.", flush=True)
    return code


def cmd_submit(args) -> int:
    """Send .eml files to a running daemon; print/export the verdicts."""
    import json
    import pathlib

    from repro.serve.client import ServeClient
    from repro.serve.server import ENDPOINT_NAME

    host, port = args.host, args.port
    if port is None:
        if not args.checkpoint:
            print("submit needs --port or --checkpoint DIR "
                  "(to read the daemon's endpoint.json)")
            return 1
        endpoint_path = pathlib.Path(args.checkpoint) / ENDPOINT_NAME
        if not endpoint_path.exists():
            print(f"No {endpoint_path}; is the daemon running?")
            return 1
        endpoint = json.loads(endpoint_path.read_text(encoding="utf-8"))
        host, port = endpoint["host"], endpoint["port"]

    paths: list[pathlib.Path] = []
    for spec in args.paths:
        path = pathlib.Path(spec)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.eml")))
        else:
            paths.append(path)
    if not paths:
        print("Nothing to submit (no .eml files found)")
        return 1

    problems = 0
    exported: list[dict] = []
    try:
        with ServeClient(host, port, timeout=args.timeout) as client:
            by_id: dict[str, pathlib.Path] = {}
            for path in paths:
                outcome = client.submit_with_retry(
                    path.read_bytes(),
                    reporter=args.reporter,
                    max_retries=max(0, args.retry),
                )
                by_id[outcome.client_id] = path
                if outcome.status == "accepted":
                    retried = f" after {outcome.retries} retries" if outcome.retries else ""
                    print(f"{path}: accepted (message index {outcome.message_index})"
                          f"{retried}")
                else:
                    problems += 1
                    extra = (f"; retry after {outcome.retry_after_submissions} "
                             f"submission(s)"
                             if outcome.retry_after_submissions is not None else "")
                    print(f"{path}: {outcome.status} ({outcome.reason}){extra}")
            outcomes = client.wait_verdicts(timeout=args.timeout)
            for outcome in outcomes:
                path = by_id.get(outcome.client_id)
                if outcome.status == "verdict":
                    record = outcome.record or {}
                    print(f"{path}: verdict index={outcome.message_index} "
                          f"category={record.get('category')}")
                    exported.append(record)
                elif outcome.status == "failed":
                    problems += 1
                    print(f"{path}: FAILED after retries: {outcome.error}")
    except (OSError, EOFError, TimeoutError) as exc:
        print(f"submit failed: {exc}")
        return 1
    if args.export and exported:
        from repro.storage.durable import durable_write_text, retrying

        payload = json.dumps(exported, indent=2, sort_keys=True)
        retrying(lambda: durable_write_text(pathlib.Path(args.export), payload))
        print(f"{len(exported)} verdict record(s) exported to {args.export}")
    return 1 if problems else 0


def cmd_compact(args) -> int:
    """Rewrite records.jsonl keeping the last record per message index."""
    from repro.runner import CheckpointStore

    store = CheckpointStore(args.checkpoint)
    if not store.records_path.exists():
        print(f"No records at {store.records_path}")
        return 1
    try:
        manifest = store.read_manifest()
    except ValueError as exc:
        print(f"Unreadable manifest under {args.checkpoint}: {exc}; "
              f"run `repro fsck` first")
        return 1
    if manifest is not None and manifest.status in ("running", "serving"):
        print(f"{args.checkpoint} is live (manifest status {manifest.status!r}): "
              f"its owner holds the records file open and compacting under it "
              f"would race the writer.\n"
              f"Stop it first (SIGTERM drains cleanly), or — for a daemon — "
              f"let `repro serve --compact-lines` compact in place.")
        return 1
    result = store.compact(retain=args.retain)
    print(f"{store.records_path}: {result.lines_before} -> {result.lines_after} "
          f"line(s)")
    print(f"  superseded duplicates dropped: {result.duplicates_dropped}")
    print(f"  defective lines dropped:       {result.corrupt_dropped}")
    if result.retired:
        print(f"  retired by --retain cap:       {result.retired}")
    print(f"  bytes: {result.bytes_before} -> {result.bytes_after} "
          f"({result.reclaimed_bytes} reclaimed); output is fsck-clean "
          f"(CRC v2, ascending index order)")
    return 0


def cmd_table1(args) -> int:
    from repro.crawlers.assessment import assess_all_crawlers

    header = f"{'crawler':<26s}|{'BotD':^8s}|{'Turnstile':^11s}|{'AnonWAF':^9s}|"
    print(header)
    print("-" * len(header))
    for row in assess_all_crawlers(seed=args.seed):
        def mark(passed: bool) -> str:
            return "pass" if passed else "FAIL"

        print(f"{row.crawler:<26s}|{mark(row.passes_botd):^8s}|"
              f"{mark(row.passes_turnstile):^11s}|{mark(row.passes_anonwaf):^9s}|")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Closer Look At Modern Evasive Phishing Emails' (DSN 2025)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="generate + analyse the study corpus")
    run_parser.add_argument("--scale", type=float, default=0.15,
                            help="corpus scale in (0,1]; 1.0 = the full 5,181 messages")
    run_parser.add_argument("--seed", type=int, default=2024)
    run_parser.add_argument("--checkpoint", metavar="DIR", default=None,
                            help="append finished records to DIR/records.jsonl so the "
                                 "run can be resumed after an interruption; each line "
                                 "carries a CRC32 suffix (see 'repro fsck')")
    _add_flags(run_parser, "run")
    run_parser.set_defaults(handler=cmd_run)

    resume_parser = subparsers.add_parser(
        "resume", help="continue an interrupted checkpointed run",
        description="Continue an interrupted checkpointed run.  A bare resume "
                    "repeats every setting the manifest recorded (jobs, stages, "
                    "hostile spec, faults, storage faults, budget, guard limits); "
                    "a flag given here overrides it.  --executor, --batch-size, "
                    "--profile, --durability and --export apply per invocation.")
    resume_parser.add_argument("checkpoint", help="checkpoint directory of the interrupted run")
    _add_flags(resume_parser, "resume")
    resume_parser.set_defaults(handler=cmd_resume)

    report_parser = subparsers.add_parser("report", help="re-derive statistics from exported artifacts")
    report_parser.add_argument("artifacts", help="path produced by 'run --export'")
    report_parser.set_defaults(handler=cmd_report)

    table1_parser = subparsers.add_parser("table1", help="crawler-vs-detector assessment (Table I)")
    table1_parser.add_argument("--seed", type=int, default=7)
    table1_parser.set_defaults(handler=cmd_table1)

    fsck_parser = subparsers.add_parser(
        "fsck", help="validate a checkpoint's records and manifest")
    fsck_parser.add_argument("checkpoint", help="checkpoint directory to validate")
    fsck_parser.add_argument("--repair", metavar="DIR", default=None,
                             help="salvage every intact record (last append wins) "
                                  "into a fresh checkpoint at DIR whose manifest is "
                                  "marked 'interrupted' so lost records re-analyse "
                                  "on resume")
    fsck_parser.set_defaults(handler=cmd_fsck)

    serve_parser = subparsers.add_parser(
        "serve", help="run the always-on analysis daemon (socket ingestion API)")
    serve_parser.add_argument("--checkpoint", metavar="DIR", required=True,
                              help="daemon state directory: records.jsonl, manifest "
                                   "(status 'serving'/'stopped'), and endpoint.json "
                                   "with the bound port; restart with the same DIR "
                                   "to resume byte-identically")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="listening port (default 0 = ephemeral; the "
                                   "bound port lands in DIR/endpoint.json)")
    serve_parser.add_argument("--seed", type=int, default=2024,
                              help="world seed; verdicts are byte-identical to a "
                                   "batch run with the same seed")
    serve_parser.add_argument("--scale", type=float, default=0.15,
                              help="world scale (see 'run --scale')")
    _add_flags(serve_parser, "serve")
    serve_parser.add_argument("--batch-size", type=_positive_int, default=8,
                              help="submissions per micro-batch handed to a worker")
    serve_parser.add_argument("--admit-rate", type=float, default=None,
                              metavar="MSGS",
                              help="global admission rate in messages per arriving "
                                   "submission (e.g. 0.5 = admit at most half the "
                                   "sustained stream); excess is shed with an "
                                   "explicit 'overloaded' response; default: no "
                                   "global limit")
    serve_parser.add_argument("--admit-burst", type=float, default=None,
                              metavar="MSGS",
                              help="global admission burst capacity in messages "
                                   "(default 64)")
    serve_parser.add_argument("--reporter-rate", type=float, default=None,
                              metavar="MSGS",
                              help="per-reporter admission rate in messages per "
                                   "arriving submission (default: no per-reporter "
                                   "limit)")
    serve_parser.add_argument("--reporter-burst", type=float, default=None,
                              metavar="MSGS",
                              help="per-reporter burst capacity in messages "
                                   "(default 16)")
    serve_parser.add_argument("--backlog", type=_positive_int, default=256,
                              help="accepted-but-unfinished submissions above which "
                                   "sessions stop reading (lossless backpressure, "
                                   "distinct from admission shedding)")
    serve_parser.add_argument("--compact-lines", type=int, default=100_000,
                              metavar="N",
                              help="compact records.jsonl in place once it holds N "
                                   "more lines than the last compaction left "
                                   "(0 = never)")
    serve_parser.add_argument("--retain", type=_positive_int, default=None,
                              metavar="N",
                              help="when compacting, keep only the N newest message "
                                   "indices (verdicts were already streamed to "
                                   "submitters; default: keep all)")
    serve_parser.add_argument("--max-sessions", type=_positive_int, default=64,
                              metavar="N",
                              help="concurrent-session cap; excess connections are "
                                   "refused with an explicit 'busy' response (never "
                                   "ticking the admission clock), which bounds the "
                                   "daemon's thread count")
    serve_parser.add_argument("--line-deadline", type=float, default=30.0,
                              metavar="SECONDS",
                              help="wall-clock budget to finish one protocol line "
                                   "once its first byte arrives (slowloris guard; "
                                   "0 disables)")
    serve_parser.add_argument("--idle-timeout", type=float, default=300.0,
                              metavar="SECONDS",
                              help="quiet seconds between lines before an idle "
                                   "session is reaped; sessions still owed verdicts "
                                   "are never reaped (0 disables)")
    serve_parser.add_argument("--send-deadline", type=float, default=30.0,
                              metavar="SECONDS",
                              help="budget to stream one response to a slow peer "
                                   "before declaring it dead (the verdict stays "
                                   "durable; only the socket write is abandoned)")
    serve_parser.add_argument("--strikes", type=_positive_int, default=8,
                              metavar="N",
                              help="malformed protocol lines one session may send "
                                   "before a clean close")
    serve_parser.add_argument("--listen-backlog", type=_positive_int, default=64,
                              metavar="N",
                              help="listen(2) backlog for the ingress socket")
    serve_parser.add_argument("--flush-timeout", type=float, default=300.0,
                              metavar="SECONDS",
                              help="seconds a 'bye' waits for outstanding verdicts "
                                   "before closing anyway")
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="send .eml files to a running daemon")
    submit_parser.add_argument("paths", nargs="+",
                               help=".eml files and/or directories of *.eml")
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=None,
                               help="daemon port (default: read from "
                                    "--checkpoint DIR/endpoint.json)")
    submit_parser.add_argument("--checkpoint", metavar="DIR", default=None,
                               help="the daemon's state directory, used to "
                                    "discover its endpoint when --port is absent")
    submit_parser.add_argument("--reporter", default="anonymous",
                               help="reporter identity for fair scheduling and "
                                    "per-reporter admission budgets")
    submit_parser.add_argument("--timeout", type=float, default=120.0,
                               help="seconds to wait for admission and verdicts")
    submit_parser.add_argument("--retry", type=int, default=2, metavar="N",
                               help="automatic resubmissions per file when the "
                                    "daemon answers 'overloaded' with a "
                                    "retry_after_submissions hint (0 disables)")
    submit_parser.add_argument("--export", metavar="PATH", default=None,
                               help="write the verdict records to a JSON file")
    submit_parser.set_defaults(handler=cmd_submit)

    compact_parser = subparsers.add_parser(
        "compact", help="rewrite a checkpoint keeping the last record per index")
    compact_parser.add_argument("checkpoint", help="checkpoint directory to compact")
    compact_parser.add_argument("--retain", type=_positive_int, default=None,
                                metavar="N",
                                help="keep only the N newest message indices "
                                     "(default: keep all, dedupe only)")
    compact_parser.set_defaults(handler=cmd_compact)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "executor", None) == "inline" and (args.jobs or 1) > 1:
        parser.error("--executor inline analyses in this process; it takes --jobs 1")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

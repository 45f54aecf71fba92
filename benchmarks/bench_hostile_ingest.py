"""Hostile ingest: every pathological message dies in quarantine, not CI.

Appends a seeded hostile corpus (:mod:`repro.dataset.hostile` — MIME
bombs, base64 bombs, rfc822 recursion, header bombs, runaway scripts)
to a calibrated-corpus slice and runs the sharded runner over it on
*both* transports, asserting the hostile-input contract end to end:

- zero dead letters and zero worker crashes: every hostile message
  becomes a durable record;
- each shape trips the *intended* defense — quarantined with the
  expected headline limit (:data:`~repro.dataset.hostile.
  EXPECTED_VIOLATIONS`), or degraded by the work budget with a
  machine-readable ``BudgetExceeded`` stage error;
- determinism: the jobs=4 process run exports byte-identical records
  to a jobs=1 inline run.

The post-run quarantine report is written to
``benchmarks/results/hostile_ingest_quarantine.txt`` — CI's
hostile-ingest job uploads it as an artifact.

The sweep is gated on ``REPRO_HOSTILE_INGEST`` (CI's hostile-ingest job
sets it; the default bench sweep skips it).  Also runnable standalone::

    REPRO_HOSTILE_INGEST=1 PYTHONPATH=src python benchmarks/bench_hostile_ingest.py
"""

import argparse
import json
import os
import pathlib
import sys
import time

import pytest

from repro.core.export import export_records
from repro.dataset.hostile import EXPECTED_VIOLATIONS, SHAPES, hostile_corpus
from repro.runner import CorpusRunner, RunnerConfig, format_quarantine_report

CLEAN_SAMPLE = 40
HOSTILE_COPIES = 3
HOSTILE_SEED = 7
INGEST_JOBS = 4
#: Calibrated messages stay far under this; a runaway script trips it.
WORK_BUDGET = 500_000

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))

INGEST_ENABLED = bool(os.environ.get("REPRO_HOSTILE_INGEST"))

REPORT_PATH = pathlib.Path(__file__).parent / "results" / "hostile_ingest_quarantine.txt"


def _messages(corpus):
    return corpus.messages[:CLEAN_SAMPLE] + hostile_corpus(
        seed=HOSTILE_SEED, copies=HOSTILE_COPIES)


def _make_runner(corpus, executor: str, jobs: int):
    # Both transports build their box from the config: the inline one on
    # this corpus's world, process workers on their forked copies of it.
    return CorpusRunner(
        world=corpus.world,
        jobs=jobs,
        executor=executor,
        config=RunnerConfig(
            seed=BENCH_SEED, scale=BENCH_SCALE,
            hostile=f"{HOSTILE_SEED}:{HOSTILE_COPIES}",
            budget=WORK_BUDGET,
        ),
    )


def _check(result, total: int) -> list[str]:
    """The hostile-input contract; returns violations (empty = pass)."""
    violations = []
    if result.dead_letters:
        violations.append(
            f"{len(result.dead_letters)} dead letter(s): "
            + ", ".join(letter.error for letter in result.dead_letters[:3]))
    indices = sorted(record.message_index for record in result.records)
    if indices != list(range(total)):
        violations.append(f"conservation broken: {len(indices)}/{total} records")
    for record in result.records[CLEAN_SAMPLE:]:
        position = (record.message_index - CLEAN_SAMPLE) % len(SHAPES)
        shape = SHAPES[position]
        expected = EXPECTED_VIOLATIONS[shape]
        if expected:
            head = (record.quarantine.violations[0].limit
                    if record.quarantine and record.quarantine.violations else None)
            if head != expected:
                violations.append(
                    f"#{record.message_index} ({shape}): expected quarantine "
                    f"'{expected}', got {head!r}")
        elif not any(reason.startswith("BudgetExceeded")
                     for reason in record.stage_errors.values()):
            violations.append(
                f"#{record.message_index} ({shape}): expected a BudgetExceeded "
                f"stage failure, got stage_errors={record.stage_errors!r}")
    for record in result.records[:CLEAN_SAMPLE]:
        if record.quarantine is not None or record.stage_errors:
            violations.append(
                f"clean message #{record.message_index} was degraded: "
                f"{record.quarantine or record.stage_errors!r}")
    return violations


def _write_report(result) -> str:
    report = format_quarantine_report(result.records)
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(report + "\n")
    return report


@pytest.mark.skipif(not INGEST_ENABLED,
                    reason="set REPRO_HOSTILE_INGEST=1 to run the hostile-ingest sweep")
def bench_hostile_ingest(benchmark, full_corpus, comparison):
    messages = _messages(full_corpus)
    hostile_count = len(SHAPES) * HOSTILE_COPIES

    started = time.perf_counter()
    result = _make_runner(full_corpus, "process", INGEST_JOBS).run(messages)
    elapsed = time.perf_counter() - started
    violations = _check(result, len(messages))

    comparison.row("dead letters under hostile ingest", 0,
                   len(result.dead_letters))
    comparison.row("records (conservation)", len(messages), len(result.records))
    comparison.row("quarantined messages",
                   HOSTILE_COPIES * sum(1 for v in EXPECTED_VIOLATIONS.values() if v),
                   result.stats.quarantined)
    comparison.row("budget-degraded stages (js-loop copies)", HOSTILE_COPIES,
                   result.stats.budget_stage_failures)
    comparison.metric("messages", len(messages))
    comparison.metric("hostile_messages", hostile_count)
    comparison.metric("elapsed_seconds", elapsed)
    comparison.metric("quarantined", result.stats.quarantined)
    comparison.metric("budget_stage_failures", result.stats.budget_stage_failures)

    serial = _make_runner(full_corpus, "inline", 1).run(messages)
    identical = (json.dumps(export_records(result.records))
                 == json.dumps(export_records(serial.records)))
    comparison.row("jobs=4 process == jobs=1 inline (byte-identical)",
                   True, identical)
    comparison.metric("byte_identical", identical)

    report = _write_report(result)
    comparison.note("")
    comparison.note(f"quarantine report written to {REPORT_PATH}")
    comparison.note(report)

    assert not violations, "; ".join(violations)
    assert identical

    benchmark.pedantic(
        lambda: _make_runner(full_corpus, "process", INGEST_JOBS).run(messages),
        rounds=1, iterations=1)


def main(argv=None) -> int:
    global HOSTILE_COPIES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--copies", type=int, default=HOSTILE_COPIES,
                        help=f"hostile copies per shape (default {HOSTILE_COPIES})")
    parser.add_argument("--jobs", type=int, default=INGEST_JOBS)
    args = parser.parse_args(argv)
    HOSTILE_COPIES = args.copies

    from repro.dataset import CorpusGenerator

    print(f"Generating corpus (seed={BENCH_SEED}, scale={BENCH_SCALE}) ...")
    corpus = CorpusGenerator(seed=BENCH_SEED, scale=BENCH_SCALE).generate()
    messages = _messages(corpus)
    print(f"  {CLEAN_SAMPLE} clean + {len(messages) - CLEAN_SAMPLE} hostile "
          f"messages, executor=process, jobs={args.jobs}, "
          f"budget={WORK_BUDGET} units")

    started = time.perf_counter()
    result = _make_runner(corpus, "process", args.jobs).run(messages)
    elapsed = time.perf_counter() - started
    print(f"  {len(result.records)} records in {elapsed:.1f}s, "
          f"{len(result.dead_letters)} dead letter(s), "
          f"{result.stats.quarantined} quarantined, "
          f"{result.stats.budget_stage_failures} budget-degraded stage(s)")

    violations = _check(result, len(messages))
    for violation in violations:
        print(f"  VIOLATION: {violation}")

    serial = _make_runner(corpus, "inline", 1).run(messages)
    identical = (json.dumps(export_records(result.records))
                 == json.dumps(export_records(serial.records)))
    print(f"  jobs={args.jobs} process == jobs=1 inline = {identical}")

    print(_write_report(result))
    print(f"  report written to {REPORT_PATH}")
    return 0 if not violations and identical else 1


if __name__ == "__main__":
    sys.exit(main())

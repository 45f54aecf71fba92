"""Chaos soak: the hostile fault profile must never kill a message.

Runs the sharded process-transport runner (jobs=4) over a corpus slice
with ``faults=hostile`` — the simulated internet injecting NXDOMAIN
flaps, SERVFAILs, connect timeouts, TLS handshake failures, 5xx/429
storms, mid-body stalls, truncation, and redirect loops — and asserts
the resilience contract end to end:

- zero dead letters and zero uncaught exceptions: every message
  degrades to a (possibly partial) record instead of dying;
- conservation: every message index comes back exactly once;
- :class:`~repro.web.resilient.FaultTelemetry` attached to every
  record, with the aggregate fault mix persisted as metrics;
- determinism: the jobs=4 process run exports byte-identical records
  to a jobs=1 inline run with the same fault seed.

The soak is expensive (every retry re-crawls), so it only runs when
``REPRO_CHAOS_SOAK`` is set — CI's chaos-soak job sets it; the default
bench sweep skips it.  Also runnable standalone::

    REPRO_CHAOS_SOAK=1 PYTHONPATH=src python benchmarks/bench_chaos_soak.py
"""

import argparse
import json
import os
import sys
import time

import pytest

from repro.core.export import export_records
from repro.runner import CorpusRunner, RunnerConfig

SAMPLE_SIZE = 200
SOAK_JOBS = 4
FAULT_PROFILE = "hostile"

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))
FAULT_SEED = int(os.environ.get("REPRO_CHAOS_FAULT_SEED", str(BENCH_SEED)))

SOAK_ENABLED = bool(os.environ.get("REPRO_CHAOS_SOAK"))


CONFIG = RunnerConfig(seed=BENCH_SEED, scale=BENCH_SCALE,
                      faults=FAULT_PROFILE, fault_seed=FAULT_SEED)


def _make_runner(corpus, executor: str, jobs: int):
    # Both transports build their box (fault engine included) from the
    # RunnerConfig: the inline one on *this* corpus's network, process
    # workers on their forked copies of it.
    return CorpusRunner(
        world=corpus.world,
        jobs=jobs,
        executor=executor,
        config=CONFIG,
    )


def _soak(corpus, sample, executor: str, jobs: int):
    """Run the hostile soak; returns (result, elapsed, export JSON)."""
    # The corpus fixture is shared with the other benches: restore its
    # network's weather afterwards.
    previous = corpus.world.network.faults
    try:
        runner = _make_runner(corpus, executor, jobs)
        started = time.perf_counter()
        result = runner.run(sample)
        elapsed = time.perf_counter() - started
    finally:
        corpus.world.network.install_faults(previous)
    return result, elapsed, json.dumps(export_records(result.records))


def _check(result, sample_size: int) -> list[str]:
    """The resilience contract; returns a list of violations (empty = pass)."""
    violations = []
    if result.dead_letters:
        violations.append(f"{len(result.dead_letters)} dead letter(s): "
                          + ", ".join(letter.error for letter in result.dead_letters[:3]))
    indices = sorted(record.message_index for record in result.records)
    if indices != list(range(sample_size)):
        violations.append(f"conservation broken: {len(indices)}/{sample_size} records")
    missing = sum(1 for record in result.records if record.fault_telemetry is None)
    if missing:
        violations.append(f"{missing} record(s) without fault telemetry")
    return violations


@pytest.mark.skipif(not SOAK_ENABLED, reason="set REPRO_CHAOS_SOAK=1 to run the chaos soak")
def bench_chaos_soak(benchmark, full_corpus, comparison):
    sample = full_corpus.messages[:SAMPLE_SIZE]
    result, elapsed, export = _soak(full_corpus, sample, "process", SOAK_JOBS)

    violations = _check(result, len(sample))
    comparison.row("dead letters under hostile faults", 0, len(result.dead_letters))
    comparison.row("records (conservation)", len(sample), len(result.records))
    comparison.row("records with fault telemetry", len(sample),
                   sum(1 for r in result.records if r.fault_telemetry is not None))
    comparison.metric("messages", len(sample))
    comparison.metric("elapsed_seconds", elapsed)
    comparison.metric("msgs_per_sec", len(sample) / elapsed)

    stats = result.stats.as_dict().get("faults", {})
    for key in ("requests", "retries", "backoff_seconds", "deadline_hits",
                "breaker_trips", "unreachable", "budget_exhausted",
                "enrich_failures"):
        comparison.metric(f"fault_{key}", stats.get(key, 0))
    for kind, count in sorted(stats.get("kinds", {}).items()):
        comparison.metric(f"kind_{kind}", count)
    comparison.note("")
    comparison.note("injected fault mix: " + ", ".join(
        f"{kind}={count}" for kind, count in sorted(stats.get("kinds", {}).items())))

    # Same fault seed, jobs=1 inline transport: must be byte-identical.
    _, _, serial_export = _soak(full_corpus, sample, "inline", 1)
    identical = export == serial_export
    comparison.row("jobs=4 process == jobs=1 inline (byte-identical)", True, identical)
    comparison.metric("byte_identical", identical)

    assert not violations, "; ".join(violations)
    assert identical

    benchmark.pedantic(
        lambda: _make_runner(full_corpus, "process", SOAK_JOBS).run(sample),
        rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, default=SAMPLE_SIZE,
                        help=f"messages to soak (default {SAMPLE_SIZE})")
    parser.add_argument("--jobs", type=int, default=SOAK_JOBS)
    args = parser.parse_args(argv)

    from repro.dataset import CorpusGenerator

    print(f"Generating corpus (seed={BENCH_SEED}, scale={BENCH_SCALE}) ...")
    corpus = CorpusGenerator(seed=BENCH_SEED, scale=BENCH_SCALE).generate()
    sample = corpus.messages[:args.sample]
    print(f"  soaking {len(sample)} messages: faults={FAULT_PROFILE}, "
          f"fault-seed={FAULT_SEED}, executor=process, jobs={args.jobs}")

    result, elapsed, export = _soak(corpus, sample, "process", args.jobs)
    print(f"  {len(result.records)} records in {elapsed:.1f}s "
          f"({len(sample) / elapsed:.1f} msgs/sec), "
          f"{len(result.dead_letters)} dead letter(s)")
    stats = result.stats.as_dict().get("faults", {})
    print(f"  fault stats: {json.dumps(stats, sort_keys=True)}")

    violations = _check(result, len(sample))
    for violation in violations:
        print(f"  VIOLATION: {violation}")

    _, _, serial_export = _soak(corpus, sample, "inline", 1)
    identical = export == serial_export
    print(f"  jobs={args.jobs} process == jobs=1 inline = {identical}")
    return 0 if not violations and identical else 1


if __name__ == "__main__":
    sys.exit(main())

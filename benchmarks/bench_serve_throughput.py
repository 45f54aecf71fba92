"""Service-mode throughput: sustained msg/s, tail latency, shed under 2x.

Boots a real :class:`~repro.serve.server.ServeDaemon` (live socket, real
sessions) in a scratch checkpoint directory and drives it with the
``repro submit`` client, twice:

- **Sustained** — default admission (never sheds): measures accepted
  messages/second end to end and the daemon's own p50/p99
  submit-to-verdict latency from ``/stats``.
- **2x overload** — admission rate pinned to *half* the offered stream
  with a one-message burst: the daemon must shed ~half with explicit
  machine-readable ``overloaded`` responses, zero dead letters, and
  ``/stats`` totals that reconcile exactly
  (``submitted == accepted + shed + rejected``).
- **Quiet round trip** — one submission at a time on one connection,
  timed by the client from submit to verdict: the median must stay
  under 20 ms.  The daemon writes ``accepted`` then ``verdict`` with
  nothing from the client in between, so Nagle's algorithm on its
  socket plus the client's delayed ACK would cost 40 ms a verdict.

The gated pytest run writes ``benchmarks/results/bench_serve_throughput
.{txt,json}``; CI's serve-throughput job uploads them as an artifact.

The sweep is gated on ``REPRO_SERVE_BENCH`` (CI's serve-throughput job
sets it; the default bench sweep skips it).  Also runnable standalone::

    REPRO_SERVE_BENCH=1 PYTHONPATH=src python benchmarks/bench_serve_throughput.py

which writes the same rows-and-metrics shape to its own
``bench_serve_throughput_sweep.{txt,json}``, so it never overwrites
the gated result.
"""

import argparse
import contextlib
import os
import pathlib
import statistics
import sys
import tempfile
import time

import pytest

from repro._budget import DEFAULT_WORK_LIMIT
from repro.runner.executor import RunnerConfig
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.admission import AdmissionConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))
SERVE_ENABLED = bool(os.environ.get("REPRO_SERVE_BENCH"))

MESSAGES = int(os.environ.get("REPRO_SERVE_BENCH_MESSAGES", "120"))
QUIET_ROUND_TRIPS = 30
#: Gate on the quiet round trip's median (a delayed-ACK stall is 40 ms).
QUIET_MEDIAN_MS = 20.0
JOBS = int(os.environ.get("REPRO_SERVE_BENCH_JOBS", "1"))
EXECUTOR = os.environ.get("REPRO_SERVE_BENCH_EXECUTOR", "inline")


def _eml(i: int) -> bytes:
    return (
        f"From: \"Billing\" <notice@mailer{i % 17}.example.ru>\n"
        f"To: employee{i}@corp.example\n"
        f"Subject: Invoice {1000 + i} overdue\n"
        f"MIME-Version: 1.0\n"
        f"Content-Type: text/html; charset=utf-8\n"
        f"\n"
        f"<html><body><p>Invoice {1000 + i}</p>"
        f"<a href=\"https://pay-{i % 23}.invoices.example/settle\">Pay now</a>"
        f"</body></html>\n"
    ).encode()


def _overload_admission() -> AdmissionConfig:
    # Sustainable rate = half the offered stream; burst of one message.
    # Offering the full stream is therefore a 2x logical overload.
    cost = DEFAULT_WORK_LIMIT
    return AdmissionConfig(cost=cost, global_rate=cost // 2, global_burst=cost)


@contextlib.contextmanager
def _session(directory, admission: AdmissionConfig | None = None):
    """A fresh daemon and one client session; the daemon must drain cleanly."""
    config = ServeConfig(
        run=RunnerConfig(seed=BENCH_SEED, scale=BENCH_SCALE), jobs=JOBS, executor=EXECUTOR,
        admission=admission or AdmissionConfig(),
    )
    daemon = ServeDaemon(config, directory)
    daemon.start()
    try:
        with ServeClient("127.0.0.1", daemon.port, timeout=600) as client:
            yield client
    finally:
        daemon.request_shutdown()
        exit_code = daemon.wait()
    assert exit_code == 0, "daemon did not drain cleanly"


def _drive(directory, count: int, reporters: int = 5,
           admission: AdmissionConfig | None = None) -> dict:
    """One daemon lifecycle: submit ``count`` messages, drain, report."""
    with _session(directory, admission) as client:
        started = time.perf_counter()
        outcomes = [
            # The paper's reporting model: a handful of companies
            # feeding one analysis daemon.
            client.submit_bytes(_eml(i), reporter=f"company-{i % reporters}")
            for i in range(count)
        ]
        client.wait_verdicts(timeout=600)
        stats = client.stats()
        elapsed = time.perf_counter() - started
    shed = [o for o in outcomes if o.status == "overloaded"]
    assert all(o.status in ("verdict", "overloaded") for o in outcomes), \
        "a submission ended without an explicit terminal response"
    assert stats["submitted"] == stats["accepted"] + stats["shed"] + stats["rejected"]
    assert stats["failed"] == 0, f"dead letters under load: {stats['failed']}"
    completed = stats["completed"]
    return {
        "messages": count,
        "elapsed_seconds": round(elapsed, 3),
        "completed": completed,
        "shed": len(shed),
        "shed_rate": round(len(shed) / count, 4) if count else 0.0,
        "throughput_msg_per_s": round(completed / elapsed, 2) if elapsed else None,
        "latency_p50_ms": stats["latency"]["p50_ms"],
        "latency_p99_ms": stats["latency"]["p99_ms"],
        "executor": stats["executor"],
        "jobs": stats["jobs"],
    }


def _quiet_round_trips(directory, count: int) -> dict:
    """One submission in flight at a time, timed submit -> verdict."""
    elapsed_ms = []
    with _session(directory) as client:
        for i in range(count):
            started = time.perf_counter()
            outcome = client.submit_bytes(_eml(i), reporter=f"company-{i % 5}")
            client.wait_verdicts(timeout=600)
            elapsed_ms.append(1000.0 * (time.perf_counter() - started))
            assert outcome.status == "verdict", outcome.status
    return {
        "round_trips": count,
        "median_ms": round(statistics.median(elapsed_ms), 3),
        "max_ms": round(max(elapsed_ms), 3),
    }


def run_bench(count: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="serve-bench-") as scratch:
        scratch = pathlib.Path(scratch)
        sustained = _drive(scratch / "sustained", count)
        overload = _drive(scratch / "overload", count,
                          admission=_overload_admission())
        quiet = _quiet_round_trips(scratch / "quiet", QUIET_ROUND_TRIPS)
    return {"sustained": sustained, "overload_2x": overload, "quiet_round_trip": quiet}


def _check(results: dict) -> list[str]:
    """The service-mode contract; returns violations (empty = pass)."""
    violations = []
    sustained, overload = results["sustained"], results["overload_2x"]
    if sustained["shed"]:
        violations.append(
            f"default admission shed {sustained['shed']} message(s)")
    if sustained["completed"] != sustained["messages"]:
        violations.append(
            f"sustained run lost messages: {sustained['completed']}"
            f"/{sustained['messages']}")
    if not 0.25 <= overload["shed_rate"] <= 0.75:
        violations.append(
            f"2x overload shed rate {overload['shed_rate']:.0%}, "
            f"expected ~50%")
    if overload["completed"] + overload["shed"] != overload["messages"]:
        violations.append(
            f"overload accounting broken: {overload['completed']} completed "
            f"+ {overload['shed']} shed != {overload['messages']}")
    quiet = results["quiet_round_trip"]
    if quiet["median_ms"] >= QUIET_MEDIAN_MS:
        violations.append(
            f"quiet round trip median {quiet['median_ms']} ms, "
            f"gate {QUIET_MEDIAN_MS:g} ms")
    return violations


def _record(comparison, results: dict) -> None:
    """Rows, metrics and notes of one sweep (pytest and standalone alike)."""
    sustained, overload = results["sustained"], results["overload_2x"]
    messages = sustained["messages"]
    comparison.row("sustained: completed / offered", messages,
                   sustained["completed"])
    comparison.row("sustained: shed (must be 0)", 0, sustained["shed"])
    comparison.row("2x overload: shed rate (~0.5)", 0.5, overload["shed_rate"])
    comparison.row("dead letters (both phases)", 0, 0)
    comparison.row(f"quiet round trip: median ms (< {QUIET_MEDIAN_MS:g})",
                   f"<{QUIET_MEDIAN_MS:g}", results["quiet_round_trip"]["median_ms"])
    comparison.metric("sustained", sustained)
    comparison.metric("overload_2x", overload)
    comparison.metric("quiet_round_trip", results["quiet_round_trip"])
    comparison.note("")
    comparison.note(
        f"sustained: {sustained['throughput_msg_per_s']} msg/s, "
        f"p50={sustained['latency_p50_ms']}ms p99={sustained['latency_p99_ms']}ms "
        f"({sustained['executor']} x{sustained['jobs']})")
    comparison.note(
        f"2x overload: {overload['throughput_msg_per_s']} msg/s, "
        f"p50={overload['latency_p50_ms']}ms p99={overload['latency_p99_ms']}ms, "
        f"shed={overload['shed']}/{overload['messages']}")
    quiet = results["quiet_round_trip"]
    comparison.note(
        f"quiet round trip: median={quiet['median_ms']}ms max={quiet['max_ms']}ms "
        f"over {quiet['round_trips']} one-at-a-time submissions")


@pytest.mark.skipif(not SERVE_ENABLED,
                    reason="set REPRO_SERVE_BENCH=1 to run the serve throughput sweep")
def bench_serve_throughput(benchmark, comparison):
    results = run_bench(MESSAGES)
    violations = _check(results)
    _record(comparison, results)
    assert not violations, "; ".join(violations)

    benchmark.pedantic(lambda: run_bench(max(10, MESSAGES // 4)),
                       rounds=1, iterations=1)


def main(argv=None) -> int:
    from conftest import ComparisonWriter

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=MESSAGES,
                        help=f"messages per phase (default {MESSAGES})")
    args = parser.parse_args(argv)

    print(f"serve throughput: {args.messages} messages/phase, "
          f"executor={EXECUTOR}, jobs={JOBS}, "
          f"seed={BENCH_SEED}, scale={BENCH_SCALE}")
    results = run_bench(args.messages)
    writer = ComparisonWriter("bench_serve_throughput_sweep")
    _record(writer, results)
    writer.flush()

    violations = _check(results)
    for violation in violations:
        print(f"  VIOLATION: {violation}")
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())

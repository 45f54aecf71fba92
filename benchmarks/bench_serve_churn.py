"""Connection-churn soak: a hostile client fleet against the hardened ingress.

Boots a real :class:`~repro.serve.server.ServeDaemon` with the hardened
connection lifecycle (tight line/idle deadlines, strike budget, session
cap) and runs the same well-behaved reporter twice per executor:

- **clean** — no hostile traffic at all: the reference records;
- **churn** — a deterministic hostile fleet (``--client-faults``, seeded
  by ``--client-fault-seed``) slowloris-trickles, idle-camps, fuzzes,
  floods, and flaps around the honest reporter for the whole run.

The contract (ISSUE 10): hostile clients may cost themselves whatever
they like, but they must never perturb honest work —

- the honest reporter's accepted records export **byte-identical** to
  the chaos-free run (hostile traffic never ticks the admission clock);
- zero accepted-record loss, zero dead letters, zero silent drops: no
  hostile line is ever admitted (fleet anomaly lists stay empty);
- the daemon's thread count stays bounded by the session cap plus its
  fixed threads — reaped sessions actually release their threads.

Results land in ``benchmarks/results/bench_serve_churn.json`` — CI's
serve-churn job uploads them as an artifact.

The sweep is gated on ``REPRO_SERVE_CHURN`` (CI's serve-churn job sets
it; the default bench sweep skips it).  Also runnable standalone::

    REPRO_SERVE_CHURN=1 PYTHONPATH=src python benchmarks/bench_serve_churn.py \\
        --client-faults hostile --executor both
"""

import argparse
import json
import os
import pathlib
import socket
import sys
import tempfile
import threading
import time

import pytest

from repro.runner.executor import RunnerConfig
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.netchaos import (
    CLIENT_FAULT_PROFILES,
    ClientFaultEngine,
    client_fault_profile,
    run_chaos_fleet,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))
CHURN_ENABLED = bool(os.environ.get("REPRO_SERVE_CHURN"))

MESSAGES = int(os.environ.get("REPRO_SERVE_CHURN_MESSAGES", "12"))
CHAOS_CLIENTS = int(os.environ.get("REPRO_SERVE_CHURN_CLIENTS", "3"))
OPS_PER_CLIENT = int(os.environ.get("REPRO_SERVE_CHURN_OPS", "16"))
JOBS = int(os.environ.get("REPRO_SERVE_CHURN_JOBS", "2"))
FAULT_PROFILE = os.environ.get("REPRO_SERVE_CHURN_PROFILE", "hostile")
FAULT_SEED = int(os.environ.get("REPRO_SERVE_CHURN_FAULT_SEED", str(BENCH_SEED)))

RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "bench_serve_churn.json")

#: The hardened lifecycle under test.  Deadlines short enough that the
#: fleet's trickles and camps are reaped in under a second each (hours
#: of real-world abuse compressed into a CI-sized soak), long enough
#: that an honest reporter on a loaded runner is never reaped by
#: accident — submissions arrive in one send, and a reporter awaiting
#: verdicts defers the idle clock.
HARDENED = dict(
    line_deadline=0.5,
    idle_timeout=1.0,
    send_deadline=5.0,
    strike_budget=3,
    max_sessions=8,
)


def _eml(i: int) -> bytes:
    return (
        f"From: \"Payroll\" <update@payroll{i % 13}.example.ru>\n"
        f"To: staff{i}@corp.example\n"
        f"Subject: Direct deposit suspended {i}\n"
        f"MIME-Version: 1.0\n"
        f"Content-Type: text/html; charset=utf-8\n"
        f"\n"
        f"<html><body><p>Action required {i}</p>"
        f"<a href=\"https://verify-{i % 7}.payroll.example/login\">Restore</a>"
        f"</body></html>\n"
    ).encode()


def _honest_run(port: int, count: int) -> dict:
    """One well-behaved reporter: submit, await every verdict, report."""
    with ServeClient("127.0.0.1", port, timeout=600) as client:
        outcomes = [
            client.submit_with_retry(_eml(i), reporter="honest")
            for i in range(count)
        ]
        # Verdicts interleave with later acks, so earlier outcomes may
        # already have been upgraded past "accepted" here.
        accepted = all(o.accepted for o in outcomes)
        client.wait_verdicts(timeout=600)
    return {
        "accepted": accepted,
        "all_verdicts": all(o.status == "verdict" for o in outcomes),
        "indices": [o.message_index for o in outcomes],
        "retries": sum(o.retries for o in outcomes),
    }


def _http_stats(port: int) -> dict:
    """A final ``GET /stats`` snapshot, taken after the fleet is done
    so the ingress counters cover the whole churn."""
    conn = socket.create_connection(("127.0.0.1", port), timeout=30)
    try:
        conn.sendall(b"GET /stats HTTP/1.0\r\n\r\n")
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        conn.close()
    return json.loads(b"".join(chunks).split(b"\r\n\r\n", 1)[1])


def _drive(directory, executor: str, count: int,
           profile=None, fault_seed: int = 0,
           clients: int = 0, ops: int = 0) -> dict:
    """One daemon lifecycle; with a profile, a hostile fleet churns
    around the honest reporter for the whole run."""
    jobs = 1 if executor == "inline" else JOBS
    config = ServeConfig(
        run=RunnerConfig(seed=BENCH_SEED, scale=BENCH_SCALE), jobs=jobs, executor=executor,
        **HARDENED,
    )
    daemon = ServeDaemon(config, directory)
    daemon.start()

    threads_before = threading.active_count()
    max_threads = 0
    stop_sampling = threading.Event()

    def sample():
        nonlocal max_threads
        while not stop_sampling.is_set():
            max_threads = max(max_threads, threading.active_count())
            time.sleep(0.02)

    fleet_reports: list = []
    engine = None
    if profile is not None:
        engine = ClientFaultEngine(profile, seed=fault_seed)

        def fleet():
            fleet_reports.extend(run_chaos_fleet(
                "127.0.0.1", daemon.port, engine,
                clients=clients, ops_per_client=ops,
                line_deadline=HARDENED["line_deadline"],
                idle_timeout=HARDENED["idle_timeout"],
                io_timeout=15.0, max_hold=2.0,
            ))

        fleet_thread = threading.Thread(target=fleet, daemon=True)

    try:
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        started = time.perf_counter()
        # The honest reporter connects before the fleet starts so it
        # holds a session slot against the floods; submissions then
        # interleave freely with the abuse on the wire.
        if profile is not None:
            fleet_thread.start()
        honest = _honest_run(daemon.port, count)
        if profile is not None:
            fleet_thread.join(timeout=600)
            assert not fleet_thread.is_alive(), "hostile fleet hung"
        elapsed = time.perf_counter() - started
        stop_sampling.set()
        sampler.join(timeout=5)
        stats = _http_stats(daemon.port)
    finally:
        daemon.request_shutdown()
        exit_code = daemon.wait()
    assert exit_code == 0, "daemon did not drain cleanly"

    fleet_ops: dict = {}
    fleet_responses: dict = {}
    anomalies: list[str] = []
    for report in fleet_reports:
        for kind, n in report.ops.items():
            fleet_ops[kind] = fleet_ops.get(kind, 0) + n
        for op, n in report.responses.items():
            fleet_responses[op] = fleet_responses.get(op, 0) + n
        anomalies.extend(report.anomalies)
    records = pathlib.Path(directory, "records.jsonl").read_bytes().splitlines()
    return {
        "executor": executor,
        "messages": count,
        "elapsed_seconds": round(elapsed, 3),
        "accepted": honest["accepted"],
        "all_verdicts": honest["all_verdicts"],
        "indices": honest["indices"],
        "retries": honest["retries"],
        "records": sorted(records),
        "completed": stats["completed"],
        "dead_lettered": stats["analysis"]["dead_lettered"],
        "reconciled": stats["submitted"]
        == stats["accepted"] + stats["shed"] + stats["rejected"],
        "ingress": stats["ingress"],
        "fleet_ops": fleet_ops,
        "fleet_responses": fleet_responses,
        "anomalies": anomalies,
        "fleet_expected_ops": clients * ops,
        "threads_before": threads_before,
        "max_threads": max_threads,
        # Session cap + executor workers + fixed daemon threads + the
        # fleet's own client threads + sampler/driver slack.
        "thread_bound": threads_before + HARDENED["max_sessions"]
        + jobs + clients + 6,
    }


def run_bench(executor: str, profile_name: str, fault_seed: int,
              count: int, clients: int, ops: int) -> dict:
    profile = client_fault_profile(profile_name)
    with tempfile.TemporaryDirectory(prefix="serve-churn-") as scratch:
        scratch = pathlib.Path(scratch)
        clean = _drive(scratch / "clean", executor, count)
        churn = _drive(scratch / "churn", executor, count,
                       profile=profile, fault_seed=fault_seed,
                       clients=clients, ops=ops)
    identical = clean["records"] == churn["records"]
    result = {
        "executor": executor,
        "profile": profile_name,
        "fault_seed": fault_seed,
        "byte_identical": identical,
        "records": len(churn["records"]),
        "clean": {k: v for k, v in clean.items() if k != "records"},
        "churn": {k: v for k, v in churn.items() if k != "records"},
    }
    return result


def _check(result: dict) -> list[str]:
    """The churn contract for one executor; violations (empty = pass)."""
    tag = result["executor"]
    clean, churn = result["clean"], result["churn"]
    violations = []
    if not result["byte_identical"]:
        violations.append(
            f"{tag}: records under churn differ from the chaos-free run")
    if result["records"] != churn["messages"]:
        violations.append(
            f"{tag}: accepted-record loss: {result['records']}"
            f"/{churn['messages']} records exported")
    for phase, data in (("clean", clean), ("churn", churn)):
        if not (data["accepted"] and data["all_verdicts"]):
            violations.append(
                f"{tag}/{phase}: an honest submission ended without a verdict")
        if data["completed"] != data["messages"]:
            violations.append(
                f"{tag}/{phase}: completed {data['completed']}"
                f"/{data['messages']}")
        if data["dead_lettered"]:
            violations.append(
                f"{tag}/{phase}: {data['dead_lettered']} dead letter(s)")
        if not data["reconciled"]:
            violations.append(f"{tag}/{phase}: /stats totals do not reconcile")
    if churn["indices"] != clean["indices"]:
        violations.append(
            f"{tag}: hostile traffic shifted honest admission indices: "
            f"{churn['indices']} != {clean['indices']}")
    if churn["anomalies"]:
        violations.append(
            f"{tag}: hostile line admitted: {churn['anomalies'][:3]}")
    if churn["max_threads"] > churn["thread_bound"]:
        violations.append(
            f"{tag}: thread high-water {churn['max_threads']} exceeds "
            f"bound {churn['thread_bound']} — sessions are not releasing "
            f"their threads")
    scheduled = sum(churn["fleet_ops"].values())
    if scheduled != churn["fleet_expected_ops"]:
        violations.append(
            f"{tag}: fleet ran {scheduled}/{churn['fleet_expected_ops']} "
            f"scheduled ops")
    return violations


@pytest.mark.skipif(not CHURN_ENABLED,
                    reason="set REPRO_SERVE_CHURN=1 to run the connection-churn soak")
def bench_serve_churn(benchmark, comparison):
    executors = ("inline", "process")
    results = {
        executor: run_bench(executor, FAULT_PROFILE, FAULT_SEED,
                            MESSAGES, CHAOS_CLIENTS, OPS_PER_CLIENT)
        for executor in executors
    }
    violations = [v for r in results.values() for v in _check(r)]

    for executor, result in results.items():
        churn = result["churn"]
        comparison.row(f"{executor}: records byte-identical under churn",
                       True, result["byte_identical"])
        comparison.row(f"{executor}: accepted-record loss", 0,
                       churn["messages"] - result["records"])
        comparison.row(f"{executor}: hostile lines admitted", 0,
                       len(churn["anomalies"]))
        comparison.row(f"{executor}: dead letters", 0, churn["dead_lettered"])
        comparison.row(f"{executor}: thread high-water (bound "
                       f"{churn['thread_bound']})",
                       f"<= {churn['thread_bound']}", churn["max_threads"])
        comparison.metric(executor, result)
        ingress = churn["ingress"]
        comparison.note(
            f"{executor}: fleet ops {churn['fleet_ops']}; ingress: "
            f"busy={ingress['busy_refused']} idle={ingress['idle_reaped']} "
            f"slowloris={ingress['line_deadline_reaped']} "
            f"malformed={ingress['malformed_lines']} "
            f"oversized={ingress['oversized_lines']} "
            f"midline={ingress['mid_line_disconnects']} "
            f"strikes={ingress['strike_closes']}")
    comparison.note("")
    comparison.note(
        f"profile={FAULT_PROFILE} fault_seed={FAULT_SEED} "
        f"fleet={CHAOS_CLIENTS}x{OPS_PER_CLIENT} ops, "
        f"{MESSAGES} honest messages/run")

    assert not violations, "; ".join(violations)

    benchmark.pedantic(
        lambda: run_bench("inline", FAULT_PROFILE, FAULT_SEED,
                          max(4, MESSAGES // 4), 2, 8),
        rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--client-faults", default=FAULT_PROFILE,
                        choices=sorted(CLIENT_FAULT_PROFILES),
                        help=f"fault profile for the hostile fleet "
                             f"(default {FAULT_PROFILE})")
    parser.add_argument("--client-fault-seed", type=int, default=FAULT_SEED,
                        help=f"fleet schedule seed (default {FAULT_SEED})")
    parser.add_argument("--executor", default="both",
                        choices=("both", "inline", "process"),
                        help="analysis transport(s) to churn (default both; "
                             "inline runs one job)")
    parser.add_argument("--messages", type=int, default=MESSAGES,
                        help=f"honest submissions per run (default {MESSAGES})")
    parser.add_argument("--chaos-clients", type=int, default=CHAOS_CLIENTS,
                        help=f"hostile clients (default {CHAOS_CLIENTS})")
    parser.add_argument("--ops", type=int, default=OPS_PER_CLIENT,
                        help=f"ops per hostile client (default {OPS_PER_CLIENT})")
    parser.add_argument("--json", type=pathlib.Path, default=RESULTS_PATH,
                        help="machine-readable results path")
    args = parser.parse_args(argv)

    executors = ("inline", "process") if args.executor == "both" \
        else (args.executor,)
    print(f"serve churn: {args.messages} honest messages, "
          f"fleet {args.chaos_clients}x{args.ops} ops, "
          f"profile={args.client_faults}, fault_seed={args.client_fault_seed}, "
          f"executors={','.join(executors)}, process jobs={JOBS}, "
          f"seed={BENCH_SEED}, scale={BENCH_SCALE}")

    results, violations = {}, []
    for executor in executors:
        result = run_bench(executor, args.client_faults,
                           args.client_fault_seed, args.messages,
                           args.chaos_clients, args.ops)
        results[executor] = result
        churn = result["churn"]
        print(f"  {executor}: byte_identical={result['byte_identical']}, "
              f"records={result['records']}/{churn['messages']}, "
              f"anomalies={len(churn['anomalies'])}, "
              f"threads={churn['max_threads']}<= {churn['thread_bound']}, "
              f"churn={churn['elapsed_seconds']}s "
              f"(clean {result['clean']['elapsed_seconds']}s)")
        print(f"    fleet ops: {churn['fleet_ops']}")
        print(f"    ingress: { {k: v for k, v in churn['ingress'].items() if isinstance(v, int) and v} }")
        violations.extend(_check(result))

    for violation in violations:
        print(f"  VIOLATION: {violation}")

    args.json.parent.mkdir(exist_ok=True)
    payload = {"name": "bench_serve_churn", "seed": BENCH_SEED,
               "scale": BENCH_SCALE, "profile": args.client_faults,
               "fault_seed": args.client_fault_seed, "metrics": results}
    args.json.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"  results written to {args.json}")
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())

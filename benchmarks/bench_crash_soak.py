"""Crash soak: SIGKILL the pipeline at seeded record boundaries, repair,
resume — the final export must be byte-identical to never crashing.

Each soak iteration launches the CLI as a subprocess armed with
``REPRO_KILL_AFTER_RECORDS=N`` (a seeded N in 1..8): the process SIGKILLs
*itself* immediately after its N-th durable record append — a
reproducible crash instant at a record boundary, the exact state the
durability layer promises to survive.  After every kill the harness
asserts the checkpoint scans clean (no interior corruption; a torn tail
is tolerated by construction), salvages it with ``fsck --repair``, and
resumes the repaired copy — which gets shot again, >= 25 times per
executor.  A final uninterrupted resume exports the run; the soak passes
only if that export is byte-identical to an uninterrupted baseline on
*both* executors.

The soak is expensive (every kill restarts the CLI and regenerates the
world), so it only runs when ``REPRO_CRASH_SOAK`` is set — CI's
crash-soak job sets it; the default bench sweep skips it.  Also
runnable standalone::

    REPRO_CRASH_SOAK=1 PYTHONPATH=src python benchmarks/bench_crash_soak.py
"""

import argparse
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.cli import main as cli_main
from repro.runner import CheckpointStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "bench_crash_soak.json"

MIN_KILLS = 25
EXECUTORS = ("process", "inline")

#: The soak's subject is the storage layer, not corpus size: a slice of
#: the study keeps per-kill relaunch overhead bounded while still
#: leaving hundreds of record boundaries to shoot at.
SOAK_SCALE = float(os.environ.get("REPRO_CRASH_SOAK_SCALE", "0.1"))
SOAK_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))

SOAK_ENABLED = bool(os.environ.get("REPRO_CRASH_SOAK"))


def _launch(arguments, kill_after=None, timeout=600):
    """Run the CLI in a subprocess, optionally armed to shoot itself.

    Returns ``(returncode, output)``.  Waits on the *process*, not the
    pipe: after the parent SIGKILLs itself, orphaned process workers
    still hold the stdout pipe open, so ``communicate()`` alone would
    block until they exit.  The whole session group is reaped before
    the output is drained.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    env.pop("REPRO_KILL_AFTER_RECORDS", None)
    if kill_after is not None:
        env["REPRO_KILL_AFTER_RECORDS"] = str(kill_after)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    output = proc.communicate(timeout=60)[0]
    return proc.returncode, output


def soak_backend(executor: str, workdir: pathlib.Path, min_kills: int) -> dict:
    """Kill/repair/resume until ``min_kills`` kills, then finish clean."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{SOAK_SEED}:{executor}")
    jobs = "1" if executor == "inline" else "2"
    checkpoint = workdir / "ckpt-0"
    arguments = ["run", "--scale", str(SOAK_SCALE), "--seed", str(SOAK_SEED),
                 "--jobs", jobs, "--executor", executor,
                 "--checkpoint", str(checkpoint)]
    kills, kill_points = 0, []
    started = time.perf_counter()
    while kills < min_kills:
        kill_after = rng.randint(1, 8)
        code, output = _launch(arguments, kill_after=kill_after)
        if code == 0:
            break  # corpus exhausted before the kill budget: undersized
        assert code == -signal.SIGKILL, output
        kills += 1

        scan = CheckpointStore(checkpoint).scan()
        assert not scan.corruption, (
            f"[{executor}] kill #{kills} left interior corruption: "
            f"{scan.corruption}")
        kill_points.append(len(scan.indices))

        repaired = workdir / f"ckpt-{kills}"
        assert cli_main(
            ["fsck", str(checkpoint), "--repair", str(repaired)]) == 0, (
            f"[{executor}] fsck --repair failed after kill #{kills}")
        checkpoint = repaired
        arguments = ["resume", str(checkpoint), "--jobs", jobs,
                     "--executor", executor]

    export_path = workdir / "final.json"
    code, output = _launch(["resume", str(checkpoint), "--jobs", jobs,
                            "--executor", executor,
                            "--export", str(export_path)])
    assert code == 0, f"[{executor}] final resume failed:\n{output}"
    records = json.loads(export_path.read_text())["records"]
    return {
        "executor": executor,
        "kills": kills,
        "repairs": kills,
        "kill_points": kill_points,
        "records": len(records),
        "elapsed_seconds": round(time.perf_counter() - started, 2),
        "export": json.dumps(records),
    }


def run_soak(min_kills: int, workdir: pathlib.Path, executors=EXECUTORS) -> dict:
    baseline_path = workdir / "baseline.json"
    assert cli_main(["run", "--scale", str(SOAK_SCALE),
                     "--seed", str(SOAK_SEED),
                     "--export", str(baseline_path)]) == 0
    baseline = json.dumps(json.loads(baseline_path.read_text())["records"])

    results = {}
    for executor in executors:
        report = soak_backend(executor, workdir / executor, min_kills)
        report["byte_identical"] = report.pop("export") == baseline
        results[executor] = report
    return results


def _check(results: dict, min_kills: int) -> list[str]:
    """The crash-consistency contract; returns violations (empty = pass)."""
    violations = []
    for executor, report in results.items():
        if report["kills"] < min_kills:
            violations.append(
                f"[{executor}] only {report['kills']}/{min_kills} kill "
                f"points (corpus exhausted early — raise REPRO_CRASH_SOAK_SCALE)")
        if not report["byte_identical"]:
            violations.append(
                f"[{executor}] export after {report['kills']} kills differs "
                f"from the uninterrupted baseline")
    return violations


@pytest.mark.skipif(not SOAK_ENABLED,
                    reason="set REPRO_CRASH_SOAK=1 to run the crash soak")
def bench_crash_soak(benchmark, comparison, tmp_path):
    results = run_soak(MIN_KILLS, workdir=tmp_path)
    violations = _check(results, MIN_KILLS)

    comparison.note(f"soak corpus: seed={SOAK_SEED}, scale={SOAK_SCALE} "
                    f"(REPRO_CRASH_SOAK_SCALE); kill_after seeded in 1..8")
    for executor in EXECUTORS:
        report = results[executor]
        comparison.row(f"{executor}: seeded kill points", f">= {MIN_KILLS}",
                       report["kills"])
        comparison.row(f"{executor}: export byte-identical to baseline",
                       True, report["byte_identical"])
        comparison.metric(executor, report)
        comparison.note(
            f"{executor}: {report['kills']} kills / {report['repairs']} "
            f"repairs over {report['records']} records "
            f"in {report['elapsed_seconds']}s")

    assert not violations, "; ".join(violations)

    benchmark.pedantic(
        lambda: soak_backend("inline", tmp_path / "bench-lap", 2),
        rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-kills", type=int, default=MIN_KILLS,
                        help=f"kill points per backend (default {MIN_KILLS})")
    parser.add_argument("--executors", default=",".join(EXECUTORS),
                        help="comma-separated backends to soak")
    args = parser.parse_args(argv)
    executors = [name.strip() for name in args.executors.split(",") if name.strip()]

    print(f"crash soak: >= {args.min_kills} kills/backend, "
          f"executors={executors}, seed={SOAK_SEED}, scale={SOAK_SCALE}")
    with tempfile.TemporaryDirectory(prefix="crash-soak-") as scratch:
        results = run_soak(args.min_kills, executors=executors,
                           workdir=pathlib.Path(scratch))

    for executor, report in results.items():
        print(f"  {executor}: {report['kills']} kills / {report['repairs']} "
              f"repairs, {report['records']} records, "
              f"byte_identical={report['byte_identical']}, "
              f"{report['elapsed_seconds']}s")

    violations = _check(results, args.min_kills)
    for violation in violations:
        print(f"  VIOLATION: {violation}")

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    payload = {"name": "bench_crash_soak", "seed": SOAK_SEED,
               "scale": SOAK_SCALE, "min_kills": args.min_kills,
               "metrics": results}
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  results written to {RESULTS_PATH}")
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())

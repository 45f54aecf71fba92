"""Hardening overhead: the ingestion guard + per-line CRC must be noise.

Compares two configurations over the same corpus slice, interleaved
(A/B per round, best-of across rounds, so machine jitter cancels):

- **baseline** — guard disabled, work budget unlimited, v1 checkpoint
  lines (no CRC suffix): the pre-hardening hot path;
- **hardened** — the shipping defaults: structural guard on every
  message, the default work budget active, CRC32 on every checkpoint
  line.

The guard walk is O(parts) arithmetic, budget charges are one attribute
check per ~1024 JS steps, and the CRC is one ``zlib.crc32`` per record
— against a pipeline that crawls and screenshots every URL, the total
must stay under :data:`MAX_OVERHEAD_PCT` (3% by default; override with
``REPRO_BENCH_MAX_OVERHEAD``, 0 disables the gate).

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_guard_overhead.py
"""

import argparse
import json
import os
import sys
import time

from repro.core import CrawlerBox, PipelineConfig
from repro.core.export import export_records
from repro.runner import CheckpointStore, CorpusRunner

SAMPLE_SIZE = 60
ROUNDS = 5

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))

#: Maximum tolerated hardened-over-baseline overhead, in percent
#: (<= 0 disables the assertion and merely reports the measurement).
MAX_OVERHEAD_PCT = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "3.0"))

BASELINE_CONFIG = PipelineConfig(guard_enabled=False, budget_work_units=None)


def _run_once(corpus, sample, config, checkpoint_dir, crc: bool):
    """One checkpointed jobs=1 run; returns (elapsed, export JSON)."""
    box = CrawlerBox.for_world(corpus.world, config=config)
    store = CheckpointStore(checkpoint_dir, crc=crc)
    runner = CorpusRunner(box, checkpoint=store)
    started = time.perf_counter()
    result = runner.run(sample)
    elapsed = time.perf_counter() - started
    assert not result.dead_letters
    assert len(result.records) == len(sample)
    return elapsed, json.dumps(export_records(result.records))


def _measure(corpus, sample, scratch, rounds: int):
    """Best-of-``rounds`` seconds for baseline and hardened, interleaved."""
    import shutil

    times = {"baseline": [], "hardened": []}
    exports = {}
    for round_index in range(rounds):
        for name, config, crc in (
            ("baseline", BASELINE_CONFIG, False),
            ("hardened", None, True),  # None = PipelineConfig() defaults
        ):
            directory = scratch / f"{name}-{round_index}"
            elapsed, export = _run_once(
                corpus, sample, config or PipelineConfig(), directory, crc)
            times[name].append(elapsed)
            exports[name] = export
            shutil.rmtree(directory, ignore_errors=True)
    best = {name: min(values) for name, values in times.items()}
    overhead_pct = 100.0 * (best["hardened"] - best["baseline"]) / best["baseline"]
    return best, overhead_pct, exports


def bench_guard_overhead(benchmark, full_corpus, comparison, tmp_path):
    sample = full_corpus.messages[:SAMPLE_SIZE]
    best, overhead_pct, exports = _measure(full_corpus, sample, tmp_path, ROUNDS)

    comparison.row("baseline best (s, guard off, no CRC)", "n/a",
                   f"{best['baseline']:.3f}")
    comparison.row("hardened best (s, guard + budget + CRC)", "n/a",
                   f"{best['hardened']:.3f}")
    comparison.row("hardening overhead", f"< {MAX_OVERHEAD_PCT:.1f}%",
                   f"{overhead_pct:+.2f}%")
    # Hardening must change *nothing* about clean-corpus records.
    identical = exports["baseline"] == exports["hardened"]
    comparison.row("records byte-identical with hardening on", True, identical)
    comparison.metric("baseline_seconds", best["baseline"])
    comparison.metric("hardened_seconds", best["hardened"])
    comparison.metric("overhead_pct", overhead_pct)
    comparison.metric("max_overhead_pct", MAX_OVERHEAD_PCT)
    comparison.metric("byte_identical", identical)
    comparison.metric("messages", len(sample))
    comparison.metric("rounds", ROUNDS)

    assert identical
    if MAX_OVERHEAD_PCT > 0:
        assert overhead_pct < MAX_OVERHEAD_PCT, (
            f"hardening overhead {overhead_pct:.2f}% exceeds "
            f"{MAX_OVERHEAD_PCT:.1f}%")

    benchmark.pedantic(
        lambda: CrawlerBox.for_world(full_corpus.world).analyze_corpus(sample),
        rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, default=SAMPLE_SIZE,
                        help=f"messages to analyse (default {SAMPLE_SIZE})")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help=f"interleaved rounds, best-of (default {ROUNDS})")
    args = parser.parse_args(argv)

    import pathlib
    import tempfile

    from repro.dataset import CorpusGenerator

    print(f"Generating corpus (seed={BENCH_SEED}, scale={BENCH_SCALE}) ...")
    corpus = CorpusGenerator(seed=BENCH_SEED, scale=BENCH_SCALE).generate()
    sample = corpus.messages[:args.sample]
    print(f"  {len(sample)} messages, {args.rounds} interleaved rounds")

    with tempfile.TemporaryDirectory() as scratch:
        best, overhead_pct, exports = _measure(
            corpus, sample, pathlib.Path(scratch), args.rounds)
    print(f"  baseline (guard off, no CRC): {best['baseline']:.3f}s")
    print(f"  hardened (guard+budget+CRC):  {best['hardened']:.3f}s")
    print(f"  overhead: {overhead_pct:+.2f}% "
          f"(gate: < {MAX_OVERHEAD_PCT:.1f}%)")
    identical = exports["baseline"] == exports["hardened"]
    print(f"  records byte-identical = {identical}")
    if not identical:
        return 1
    if MAX_OVERHEAD_PCT > 0 and overhead_pct >= MAX_OVERHEAD_PCT:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Hardening overhead: the ingestion guard + per-line CRC must be noise.

Compares two configurations over the same corpus slice:

- **baseline** — guard disabled, work budget unlimited, v1 checkpoint
  lines (no CRC suffix): the pre-hardening hot path;
- **hardened** — the shipping defaults: structural guard on every
  message, the default work budget active, CRC32 on every checkpoint
  line.

Each side has its own CrawlerBox over its own copy of the world, so
both worlds see the same visits in the same order and stay in lock
step.  A round analyses every sampled message on both sides and appends
the record to that side's checkpoint, alternating which side goes first
per message, and yields one hardened/baseline ratio of the summed
times.  Interleaving per message (not per run) puts a slow spell of a
shared machine on both sides; the collector is paused inside a round
(and run between rounds) so a gen-2 pass cannot land on one side.  The
overhead is the median of the round ratios and its spread their
interquartile range; a warm-up round, which fills the process-wide
parse, document and fingerprint memos, is not counted.

The guard walk is O(parts) arithmetic, budget charges are one attribute
check per ~1024 JS steps, and the CRC is one ``zlib.crc32`` per record
— against a pipeline that crawls and screenshots every URL, the total
must stay under :data:`MAX_OVERHEAD_PCT` (3% by default; override with
``REPRO_BENCH_MAX_OVERHEAD``, 0 disables the gate).

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_guard_overhead.py
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

from repro.core import CrawlerBox, PipelineConfig
from repro.core.export import export_records
from repro.dataset import CorpusGenerator
from repro.runner import CheckpointStore

SAMPLE_SIZE = 60
ROUNDS = 41

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))

#: Maximum tolerated hardened-over-baseline overhead, in percent
#: (<= 0 disables the assertion and merely reports the measurement).
MAX_OVERHEAD_PCT = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "3.0"))

BASELINE_CONFIG = PipelineConfig(guard_enabled=False, budget_work_units=None)


def _measure(worlds, sample, scratch, rounds: int):
    """Median and IQR of the per-round overhead in percent, and the exports."""
    sides = {
        "baseline": (CrawlerBox.for_world(worlds[0], config=BASELINE_CONFIG), False),
        "hardened": (CrawlerBox.for_world(worlds[1], config=PipelineConfig()), True),
    }
    ratios = []
    exports = {}
    for round_index in range(-1, rounds):  # round -1 is the warm-up
        elapsed = dict.fromkeys(sides, 0.0)
        records = {name: [] for name in sides}
        stores = {
            name: CheckpointStore(scratch / f"{name}-{round_index}", crc=crc)
            for name, (_, crc) in sides.items()
        }
        gc.collect()
        gc.disable()
        try:
            for index, message in enumerate(sample):
                order = list(sides) if (index + round_index) % 2 == 0 else list(sides)[::-1]
                for name in order:
                    started = time.perf_counter()
                    record = sides[name][0].analyze(message, index)
                    stores[name].append(record)
                    elapsed[name] += time.perf_counter() - started
                    records[name].append(record)
        finally:
            gc.enable()
        for store in stores.values():
            store.close()
        if round_index >= 0:
            ratios.append(elapsed["hardened"] / elapsed["baseline"])
        exports = {name: json.dumps(export_records(side)) for name, side in records.items()}
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return 100.0 * (median - 1.0), 100.0 * (q3 - q1), exports


def bench_guard_overhead(benchmark, full_corpus, comparison, tmp_path):
    sample = full_corpus.messages[:SAMPLE_SIZE]
    twin = CorpusGenerator(seed=BENCH_SEED, scale=BENCH_SCALE).generate()
    overhead_pct, iqr_pct, exports = _measure(
        (full_corpus.world, twin.world), sample, tmp_path, ROUNDS)

    comparison.row("hardening overhead (median of round ratios)",
                   f"< {MAX_OVERHEAD_PCT:.1f}%", f"{overhead_pct:+.2f}%")
    comparison.row("IQR of round overheads", f"< {MAX_OVERHEAD_PCT:.1f}%",
                   f"{iqr_pct:.2f}%")
    # Hardening must change *nothing* about clean-corpus records.
    identical = exports["baseline"] == exports["hardened"]
    comparison.row("records byte-identical with hardening on", True, identical)
    comparison.metric("overhead_pct", overhead_pct)
    comparison.metric("iqr_pct", iqr_pct)
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
                        help=f"interleaved rounds (default {ROUNDS})")
    args = parser.parse_args(argv)

    import pathlib
    import tempfile

    print(f"Generating two copies of the corpus (seed={BENCH_SEED}, scale={BENCH_SCALE}) ...")
    corpora = [CorpusGenerator(seed=BENCH_SEED, scale=BENCH_SCALE).generate() for _ in range(2)]
    sample = corpora[0].messages[:args.sample]
    print(f"  {len(sample)} messages, {args.rounds} interleaved rounds")

    with tempfile.TemporaryDirectory() as scratch:
        overhead_pct, iqr_pct, exports = _measure(
            [corpus.world for corpus in corpora], sample, pathlib.Path(scratch), args.rounds)
    print(f"  overhead: {overhead_pct:+.2f}% (median of round ratios, "
          f"IQR {iqr_pct:.2f}%; gate: < {MAX_OVERHEAD_PCT:.1f}%)")
    identical = exports["baseline"] == exports["hardened"]
    print(f"  records byte-identical = {identical}")
    if not identical:
        return 1
    if MAX_OVERHEAD_PCT > 0 and overhead_pct >= MAX_OVERHEAD_PCT:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

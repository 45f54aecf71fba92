"""Seeded crash soak: SIGKILL at deterministic record boundaries.

``REPRO_KILL_AFTER_RECORDS=N`` arms the hook in
:func:`repro.storage.durable.note_durable_record`: the CLI process
SIGKILLs *itself* immediately after its N-th durable record append — a
reproducible crash instant, unlike the timing-dependent kills of
``test_shutdown``.  Each iteration then runs ``fsck`` (the checkpoint
must be clean up to a tolerated torn tail), salvages with ``--repair``,
and resumes the repaired checkpoint — which gets shot again — until a
final uninterrupted resume completes.  The export must be byte-identical
to a never-killed run, on both executors.

The full-scale soak (>= 25 kill points per backend) lives in
``benchmarks/bench_crash_soak.py``; this is the tier-1 slice.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.runner import CheckpointStore

SEED, SCALE = 31, 0.05
KILL_AFTER = 4  # records appended by each doomed launch before SIGKILL
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def baseline_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "run.json"
    assert main(["run", "--scale", str(SCALE), "--seed", str(SEED),
                 "--export", str(path)]) == 0
    return json.loads(path.read_text())["records"]


def _launch_doomed(arguments: list[str], kill_after: int) -> str:
    """Run the CLI armed to SIGKILL itself after N record appends."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO, "src"),
        REPRO_KILL_AFTER_RECORDS=str(kill_after),
    )
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
        # wait(), not communicate(): orphaned process workers inherit
        # the stdout pipe and would keep communicate() blocked long
        # after the parent shot itself.
        proc.wait(timeout=300)
    finally:
        # The parent is gone; reap any orphaned process workers.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    output = proc.communicate(timeout=60)[0]
    assert proc.returncode == -signal.SIGKILL, output
    return output


@pytest.mark.parametrize("executor", ["process", "inline"])
class TestCrashSoak:
    def test_kill_fsck_repair_resume_is_byte_identical(
        self, tmp_path, executor, baseline_export, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        _launch_doomed(
            ["run", "--scale", str(SCALE), "--seed", str(SEED),
             "--jobs", "1" if executor == "inline" else "2", "--executor", executor,
             "--checkpoint", str(checkpoint)],
            kill_after=KILL_AFTER,
        )

        # The kill landed on a record boundary (or tore at most the
        # line another thread was appending): fsck tolerates it.
        store = CheckpointStore(checkpoint)
        assert store.scan().corruption == []
        assert len(store.scan().indices) >= KILL_AFTER - 1
        repaired = tmp_path / "repaired"
        assert main(["fsck", str(checkpoint), "--repair", str(repaired)]) == 0
        capsys.readouterr()

        # Resume the repaired checkpoint — and shoot that run too.
        _launch_doomed(
            ["resume", str(repaired), "--executor", executor],
            kill_after=KILL_AFTER,
        )
        survivor = CheckpointStore(repaired)
        assert survivor.scan().corruption == []
        assert len(survivor.scan().indices) >= 2 * KILL_AFTER - 2

        # Final uninterrupted resume: byte-identical to never crashing.
        out = tmp_path / "resumed.json"
        assert main(["resume", str(repaired), "--executor", executor,
                     "--export", str(out)]) == 0
        capsys.readouterr()
        resumed = json.loads(out.read_text())["records"]
        assert json.dumps(resumed) == json.dumps(baseline_export)


def test_bare_resume_repeats_stages_and_hostile_spec(tmp_path, capsys):
    """The manifest records ``--stages`` and ``--hostile``: a bare resume
    of a killed triage run over a hostile corpus finishes the same
    study, byte for byte, instead of analysing the rest with all seven
    stages (or refusing the longer corpus)."""
    settings = ["--scale", str(SCALE), "--seed", str(SEED),
                "--stages", "auth,parse", "--hostile", "7"]
    checkpoint = tmp_path / "ckpt"
    _launch_doomed(["run", *settings, "--checkpoint", str(checkpoint)], kill_after=40)

    resumed, uninterrupted = tmp_path / "resumed.json", tmp_path / "run.json"
    assert main(["resume", str(checkpoint), "--export", str(resumed)]) == 0
    assert main(["run", *settings, "--export", str(uninterrupted)]) == 0
    capsys.readouterr()
    assert resumed.read_bytes() == uninterrupted.read_bytes()

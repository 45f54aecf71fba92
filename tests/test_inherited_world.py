"""Process workers inherit their parent's world and messages.

A process run generates its corpus once, in the parent: forked workers
inherit the world and the message list handed to ``CorpusRunner.run``
and only build their own box on it.  Under test:

- a process run over a list that is not the config's corpus (reversed,
  or a slice) analyses *that* list, byte-identically to an inline run;
- no worker ever generates a corpus, respawned ones included;
- a worker whose box build raises fails the run at initialisation;
- a SIGKILLed process run leaves no worker behind;
- a graceful pool stop lets every worker finish exiting.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.export import export_records
from repro.dataset import CorpusGenerator
from repro.runner import CorpusRunner, RunnerConfig
from repro.runner.executor import _worker_main
from repro.runner.pool import WorkerPool

SEED, SCALE = 3, 0.02
CONFIG = RunnerConfig(seed=SEED, scale=SCALE)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=SEED, scale=SCALE).generate()


def _inline(config, messages):
    """An inline run over ``messages`` on a freshly generated world."""
    world = CorpusGenerator(seed=config.seed, scale=config.scale).generate().world
    return CorpusRunner(world=world, config=config).run(messages)


def _exported(result) -> str:
    return json.dumps(export_records(result.records))


@pytest.mark.parametrize("pick", ["reversed", "slice"])
def test_process_run_analyses_the_messages_it_is_given(corpus, pick):
    messages = (
        list(reversed(corpus.messages[:20])) if pick == "reversed" else corpus.messages[30:50]
    )
    # No world: the runner generates one in the parent; the workers
    # must still analyse ``messages``, not that world's own corpus.
    process = CorpusRunner(config=CONFIG, jobs=2, executor="process").run(messages)
    assert process.executor == "process" and not process.dead_letters
    inline = _inline(CONFIG, messages)
    assert [record.sender_domain for record in process.records] == [
        message.sender_domain for message in messages
    ]
    assert _exported(process) == _exported(inline)


def test_workers_never_generate_a_corpus(corpus, monkeypatch):
    crash = 5
    config = RunnerConfig(seed=SEED, scale=SCALE, fault=f"crash:{crash}")
    messages = corpus.messages[:24]
    inline = _inline(CONFIG, messages)

    def refuse(self):
        raise RuntimeError("a worker generated a corpus")

    # Forked workers (respawned ones too) inherit the patch.
    monkeypatch.setattr(CorpusGenerator, "generate", refuse)
    result = CorpusRunner(
        config=config, world=corpus.world, jobs=2, executor="process", batch_size=3
    ).run(messages)
    # Every attempt at ``crash`` killed its worker, so each retry ran
    # on a respawned one; the index alone is dead-lettered.
    assert [letter.index for letter in result.dead_letters] == [crash]
    assert "WorkerCrash" in result.dead_letters[0].error
    expected = [record for record in inline.records if record.message_index != crash]
    assert json.dumps(export_records(result.records)) == json.dumps(
        export_records(expected)
    )


def test_a_worker_whose_box_build_raises_fails_the_run(corpus, monkeypatch):
    parent, build = os.getpid(), RunnerConfig.build

    def build_in_parent_only(config, world):
        if os.getpid() != parent:
            raise RuntimeError("injected box-build failure")
        return build(config, world)

    monkeypatch.setattr(RunnerConfig, "build", build_in_parent_only)
    runner = CorpusRunner(config=CONFIG, world=corpus.world, jobs=2, executor="process")
    with pytest.raises(RuntimeError, match="failed to initialize.*injected box-build"):
        runner.run(corpus.messages[:4])


def _processes_running(marker: str) -> list[int]:
    """Live (non-zombie) processes whose command line mentions ``marker``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
            with open(f"/proc/{entry}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if marker in cmdline and state != "Z":
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    checkpoint = str(tmp_path / "killed-run")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               REPRO_KILL_AFTER_RECORDS="150")
    with open(tmp_path / "out.txt", "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--scale", "0.05", "--seed", "1",
             "--jobs", "2", "--executor", "process", "--checkpoint", checkpoint],
            cwd=REPO, env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    try:
        assert proc.wait(timeout=300) == -signal.SIGKILL, (tmp_path / "out.txt").read_text()
        deadline = time.monotonic() + 5.0
        survivors = _processes_running(checkpoint)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = _processes_running(checkpoint)
        assert survivors == [], f"workers outlived their killed parent: {survivors}"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _main_then_mark(worker_id, marks, config, world, messages, inq, outq):
    """``_worker_main``, then a slow farewell: work a worker still does
    after its ``stopped`` message, as a trace writer does at exit."""
    try:
        _worker_main(worker_id, config, world, messages, inq, outq)
    finally:
        time.sleep(0.3)
        (marks / f"worker-{worker_id}").touch()


def test_graceful_stop_waits_for_workers_to_exit(corpus, tmp_path):
    config = RunnerConfig(seed=SEED, scale=SCALE, stages=("auth", "parse"))
    pool = WorkerPool(_main_then_mark, (tmp_path, config, corpus.world, corpus.messages), jobs=2)
    try:
        ready: set[int] = set()
        while len(ready) < 2:
            kind, worker_id, *_ = pool.get(timeout=60.0)
            assert kind in ("ready", "stall-tick", "wake"), kind
            if kind == "ready":
                ready.add(worker_id)
    finally:
        pool.stop(graceful=True)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["worker-0", "worker-1"]

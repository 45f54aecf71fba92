"""Cold-start guard: a whole ``repro run`` loads neither scipy nor networkx.

Importing ``scipy.stats`` costs about a second, ``scipy.fft`` about a
third of one and networkx 0.15–0.2 s, paid by every ``repro run``, pool
worker and ``repro serve`` before (or, for the study report, after) its
records.  The runtime is numpy only: pHash computes its DCT with
``np.fft``, the infrastructure graph is a dict adjacency, and Figure 2's
``analysis.stats.paired_t_test`` takes its p-value from the incomplete
beta function.  scipy and networkx are dev-extra references for tests.
These checks run in a fresh interpreter, because the test process itself
has long since loaded both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _loaded_after(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; return the scipy/networkx
    modules it left in ``sys.modules``."""
    probe = script + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules"
        " if name.split('.')[0] in ('scipy', 'networkx'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_entry_points_import_neither_scipy_nor_networkx():
    assert _loaded_after("import repro.cli\nimport repro.serve\nimport repro.runner") == []


def test_whole_run_loads_neither_scipy_nor_networkx(tmp_path):
    """Corpus, analysis (OCR, screenshots, pHash), study report, export."""
    export = tmp_path / "out.json"
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    status = cli.main(['run', '--scale', '0.02', '--jobs', '1',\n"
        f"                       '--export', {str(export)!r}])\n"
        "assert status in (0, None), status\n"
        "assert 'Infrastructure:' in out.getvalue(), out.getvalue()\n"
    )
    assert export.exists()
    assert loaded == []


def test_study_report_leaves_scipy_stats_unloaded():
    """The study report (timelines, infrastructure campaigns) loads no
    scipy module, ``scipy.stats`` included, and no networkx."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro import cli\n"
        "from repro.core import CrawlerBox\n"
        "from repro.dataset import CorpusGenerator\n"
        "corpus = CorpusGenerator(seed=5, scale=0.02).generate()\n"
        "records = CrawlerBox.for_world(corpus.world).analyze_corpus(corpus.messages)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    cli._print_study_report(records, corpus.world)\n"
        "assert 'Timelines:' in out.getvalue(), out.getvalue()\n"
    )
    assert loaded == []


def test_figure2_t_test_loads_no_scipy():
    loaded = _loaded_after(
        "from repro.analysis.figures import figure2\n"
        "assert 0.0 <= figure2([]).t_test.p_value <= 1.0\n"
    )
    assert loaded == []


def test_reference_portal_crawl_loads_neither_scipy_nor_networkx():
    """``CrawlerBox.for_world`` hashes the reference portals at build time."""
    loaded = _loaded_after(
        "from repro.core import CrawlerBox\n"
        "from repro.dataset import CorpusGenerator\n"
        "corpus = CorpusGenerator(seed=5, scale=0.02).generate()\n"
        "CrawlerBox.for_world(corpus.world)\n"
    )
    assert loaded == []


def test_drained_serve_daemon_loads_neither_scipy_nor_networkx(tmp_path):
    """A daemon builds its box (the reference-portal crawl), answers
    submissions and drains without either package."""
    loaded = _loaded_after(
        "from repro.runner.executor import RunnerConfig\n"
        "from repro.serve import ServeClient, ServeConfig, ServeDaemon\n"
        "raw = (b'From: <it@spammer.ru>\\nTo: victim@corp.example\\nSubject: expires\\n'\n"
        "       b'MIME-Version: 1.0\\nContent-Type: text/html\\n\\n'\n"
        "       b'<a href=\"https://phish.example/portal\">Open</a>\\n')\n"
        "config = ServeConfig(run=RunnerConfig(seed=31, scale=0.02), jobs=1,\n"
        "                     executor='inline', batch_size=2)\n"
        f"daemon = ServeDaemon(config, {str(tmp_path)!r})\n"
        "daemon.start()\n"
        "with ServeClient('127.0.0.1', daemon.port, timeout=120) as client:\n"
        "    outcomes = [client.submit_bytes(raw, reporter='company-0') for _ in range(2)]\n"
        "    client.wait_verdicts(timeout=120)\n"
        "assert all(outcome.status == 'verdict' for outcome in outcomes), outcomes\n"
        "daemon.request_shutdown()\n"
        "assert daemon.wait() == 0\n"
    )
    assert loaded == []

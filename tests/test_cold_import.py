"""Cold-start guard: the command-line entry points import no scipy.

Importing ``scipy.stats`` costs about a second and ``scipy.fft`` about a
third of one, paid by every ``repro run``, pool worker and ``repro
serve`` before its first record.  Only two places may import scipy, both
inside the function that needs it: ``imaging.phash.phash`` (``dctn``)
and ``analysis.stats.paired_t_test`` (Figure 2 only).  These checks run
in a fresh interpreter, because the test process itself has long since
loaded scipy.
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


def test_study_report_leaves_scipy_stats_unloaded():
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
    assert "scipy.stats" not in loaded

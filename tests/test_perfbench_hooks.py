"""The traced benchmark launcher still finds everything it patches.

``perfbench/launch.py`` wraps public entry points of each layer by
name (``module:Class.method``) before it runs the CLI.  Renaming or
deleting one of them does not break the untraced benchmark, only the
``--trace 1`` per-layer rows — so this test installs every hook, in a
fresh interpreter (the hooks patch modules process-wide), and fails on
the first missing target.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys, tempfile
sys.path[:0] = [{perfbench!r}, {src!r}]
import launch
from tracer import Tracer

tracer = Tracer(tempfile.mkdtemp(), "main")
launch._install_common(tracer)
launch._install_batch(tracer)
launch._install_serve(tracer)

# serve --jobs 1 runs the inline engine, --jobs N the process engine:
# both must reach the traced submit.
import repro.serve.engine as engine
for cls in (engine.InlineEngine, engine.ProcessEngine):
    assert cls.submit.__name__ == "traced_submit", cls
print("hooks installed")
"""


def test_every_launcher_hook_finds_its_target():
    script = SCRIPT.format(
        perfbench=os.path.join(REPO, "perfbench"), src=os.path.join(REPO, "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "hooks installed" in proc.stdout

"""The benchmark's tracer finds every function and method it wraps.

`perfbench/spans.py` wraps pipeline stages, selectors and backend methods
by name; a renamed or moved target is installed nowhere and fails only
the traced benchmark run. Installing patches `icl_miner` module globals,
so it runs in a child interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from conftest import repo_root

INSTALL = """
import json
from spans import Tracer
tracer = Tracer(tau=0.9)
tracer.install()
print(json.dumps(tracer.installed))
"""


def test_every_trace_wrapper_is_installed():
    root = repo_root()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]
    )}
    # -B: write no bytecode next to the benchmark's sources
    done = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL], env=env, cwd=root,
        capture_output=True, text=True, timeout=60, check=True,
    )
    installed = json.loads(done.stdout)
    assert "icl_miner.w2w.build_w2w" in installed
    assert {target: hits for target, hits in installed.items() if hits < 1} == {}

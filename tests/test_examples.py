"""Every script under ``examples/`` runs to completion.

The examples are user surface: they read the re-optimization report, the
EXPLAIN ANALYZE text and the connection API.  Each one runs in a fresh
interpreter with ``PYTHONPATH=src``, as the README tells a reader to run it,
and must exit 0.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))


def test_there_are_examples_to_run():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    completed = subprocess.run(
        [sys.executable, script],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]

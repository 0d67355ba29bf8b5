"""Every script under ``examples/`` runs to completion.

Each example is executed as ``__main__`` through :func:`runpy.run_path`,
in a fresh interpreter with its stdout captured, so an API change that
breaks one fails here instead of in a reader's terminal. The interpreter
is fresh because an example is a program: run in this process, its data
would grow the process-wide string pool the other tests key on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
RUN = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__')"


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

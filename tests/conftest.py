import os
import subprocess
import sys
from pathlib import Path

import pytest

from colorreduce import MULTISET, build_local1

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def host_7_4():
    """The 1470-vertex one-round host; immutable, so shared session-wide."""
    return build_local1(7, 4, MULTISET)


def run_python(script, *flags):
    """Run `script` in a fresh interpreter with `flags` (such as "-O"),
    importing colorreduce from this checkout's src; the finished process,
    its output captured as text."""
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))

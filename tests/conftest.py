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


def run_python(script, *flags, timeout=120):
    """Run `script` in a fresh interpreter with `flags` (such as "-O"),
    importing colorreduce from this checkout's src; the finished process,
    its output captured as text.  subprocess.TimeoutExpired after
    `timeout` seconds, the child killed."""
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=SRC))


def star_next(rule, color, neighbor_colors):
    """The next color that a color rule's next_colors gives a node of
    `color` whose neighbors hold `neighbor_colors` (iterated in their own
    order): node 0 of a star with one leaf per neighbor color."""
    held = list(neighbor_colors)
    rows = [tuple(range(1, len(held) + 1))] + [()] * len(held)
    return rule.next_colors([color, *held], rows)[0]

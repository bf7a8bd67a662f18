"""The demos run to completion and print exactly their recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "tests" / "data" / f"demo{path.stem[:2]}_stdout.txt").read_bytes()
    assert proc.stdout == expected

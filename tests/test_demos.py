"""The demos run to completion; demo 01 prints exactly its recorded output."""

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
    if path.stem == "01_color_reduction_pipeline":
        expected = (ROOT / "tests" / "data" / "demo01_stdout.txt").read_bytes()
        assert proc.stdout == expected

"""The benchmark's own tests: determinism of its counts and digests, its
result line, and its refusal to run without the library sources.

    python3 -m pytest bench -q        (about two minutes on 2 cores)
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"
          and m["name"] != "trace.spans"]
HASH_SEEDS = ("1", "2")
SEED = 0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _worker(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload",
                           workload, "--seed", str(SEED), "--traced"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


@pytest.fixture(scope="module")
def traced():
    """One traced repetition per workload under each of two hash seeds."""
    return {w: {h: _worker(w, h) for h in HASH_SEEDS} for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_repeat_across_hash_seeds(traced, workload):
    first, second = (traced[workload][h] for h in HASH_SEEDS)
    assert first["errors"] == [] and second["errors"] == []
    digests = {name: g["digest"] for name, g in first["groups"].items()}
    assert digests == {name: g["digest"] for name, g in second["groups"].items()}
    reference = json.loads((BENCH / "reference.json").read_text())["digests"][workload]
    assert digests == {**reference.get("any", {}), **reference[str(SEED)]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_hash_seeds(traced, workload):
    first, second = (traced[workload][h]["layers"] for h in HASH_SEEDS)
    counts = {name: first.get(name, 0) for name in COUNTS}
    assert counts == {name: second.get(name, 0) for name in COUNTS}


def test_known_counts(traced):
    hosts = traced["hosts-refute"][HASH_SEEDS[0]]["layers"]
    assert hosts["chromatic.expansions"] == 4750
    assert (hosts["nbhd.vertices"], hosts["nbhd.edges"]) == (45 + 1470, 147 + 148_176)


def test_every_layer_metric_is_measured_somewhere(traced):
    seen = {name for runs in traced.values() for run in runs.values()
            for name, value in run["layers"].items() if value}
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert expected <= seen


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, section):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "fullinfo",
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

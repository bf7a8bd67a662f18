"""The colorreduce benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one process, one thread, a closed loop.  Each repetition runs
in a fresh interpreter (bench/worker.py) and does a fixed amount of work
set by the seed; repetitions follow one another for about --seconds (one
more starts while at least half of it fits).  Timings are medians over
repetitions.  Set-up is timed from the spawn of each worker, so it
includes interpreter start and imports; runs with fewer than five
repetitions add set-up-only workers to take that median over five.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics, medians over the traced ones, plus the tracing overhead (traced
minus untraced wall_s).  A per-layer metric of a layer the workload does
not use reads 0.

Every item's output is checked.  Outputs are also digested by group and
compared with bench/reference.json (digests under "any" hold for every
seed), or with the first repetition of the run for groups it does not
record; every item of a group whose digest differs counts as failed.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DEADLINE_S = 170  # the whole command must end within 180 s
MIN_SETUPS = 5


class BenchError(Exception):
    pass


def spawn(workload, seed, rep, *flags, timeout):
    """Run one worker; returns (its result, seconds from spawn to set-up end)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), *flags]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {rep} of {workload} exceeded the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["setup_end"] - start


def failed_items(groups, expected):
    """Worker-reported failures, or the whole group when its digest differs."""
    return sum(g["failed"] if expected.get(name) == g["digest"] else g["items"]
               for name, g in groups.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="colorreduce benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "colorreduce" / "__init__.py").is_file():
        print(f"error: no colorreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())["digests"]
    reference = reference.get(args.workload, {})
    recorded = {**reference.get("any", {}), **reference.get(str(args.seed), {})}

    begin = time.perf_counter()
    deadline = begin + DEADLINE_S
    reps, setups = [], []
    try:
        while True:
            traced = args.trace == 1 and len(reps) % 2 == 1
            flags = ("--traced",) if traced else ()
            result, setup_s = spawn(args.workload, args.seed, len(reps), *flags,
                                    timeout=deadline - time.perf_counter())
            result["traced"] = traced
            reps.append(result)
            setups.append(setup_s)
            # stop once less than half a repetition would fit in --seconds
            elapsed = time.perf_counter() - begin
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and elapsed + elapsed / len(reps) / 2 >= args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            _, setup_s = spawn(args.workload, args.seed, len(setups), "--setup-only",
                               timeout=deadline - time.perf_counter())
            setups.append(setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # groups without a recorded digest must match the first repetition
    expected = {name: g["digest"] for name, g in reps[0]["groups"].items()}
    expected.update(recorded)
    attempted = failed = 0
    for rep in reps:
        attempted += sum(g["items"] for g in rep["groups"].values())
        failed += failed_items(rep["groups"], expected)
        for error in rep["errors"]:
            print(f"item failed: {error}")
        missing = recorded.keys() - rep["groups"].keys()
        if missing:
            print(f"error: output groups missing: {', '.join(sorted(missing))}", file=sys.stderr)
            return 1
    correct = failed == 0

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "item_ms_p50": statistics.median(r["item_ms_p50"] for r in plain),
        "item_ms_tail": statistics.median(r["item_ms_tail"] for r in plain),
    }
    metrics_spec = spec["end_to_end"]
    if args.trace:
        metrics_spec = spec["per_layer"]
        known = {m["name"] for m in metrics_spec}
        values = {}
        for name in sorted({n for r in traced for n in r["layers"]}):
            if name not in known:
                print(f"error: worker reported unknown metric {name}", file=sys.stderr)
                return 1
            values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))

    metrics = {}
    for m in metrics_spec:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:>16.6g} {m['unit']}")
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced; set-ups timed: {len(setups)}")
    print("wall_s per repetition: " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    print(f"item tail percentile: p{reps[0]['tail_pct']:g} of "
          f"{sum(g['items'] for g in reps[0]['groups'].values())} items per repetition")
    print(f"failed_ratio: {failed}/{attempted}; {len(recorded)} of {len(expected)} output "
          f"groups checked against bench/reference.json, the rest against repetition 0")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Maintenance for the benchmark's recorded files.

    python3 bench/record.py reference --seeds 0-31 [--seeds 7919]
        Runs one untraced repetition per (workload, seed) and writes the
        output digests to bench/reference.json; groups with the same digest
        under every seed (the fixed hosts) are stored once, under "any".

    python3 bench/record.py spread --seeds 0-9 [--workloads pipeline fullinfo]
                                   [--write-baseline]
        Runs bench/run.py once per (workload, seed), one after another,
        and prints each end-to-end metric's median and quartile spread
        (q3 - q1, as statistics.quantiles(n=4) gives them, over the
        median) next to a third of its bound.  --write-baseline stores the
        medians, spreads and machine in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_seeds(specs):
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def record_reference(seeds, workloads):
    """Digests per seed; groups equal under every seed are stored once, as "any"."""
    path = BENCH / "reference.json"
    data = json.loads(path.read_text())
    for workload in workloads:
        by_seed = {}
        for seed in seeds:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload",
                                   workload, "--seed", str(seed)], cwd=ROOT, check=True,
                                  capture_output=True, text=True)
            groups = last_json_line(proc.stdout)["groups"]
            bad = sorted(name for name, g in groups.items() if g["failed"])
            if bad:
                raise SystemExit(f"{workload} seed {seed}: failed items in {bad}")
            by_seed[str(seed)] = {name: g["digest"] for name, g in groups.items()}
            print(f"{workload} {seed}: {len(groups)} groups", flush=True)
        first = next(iter(by_seed.values()))
        common = {name: digest for name, digest in first.items()
                  if len(seeds) > 1 and all(d.get(name) == digest for d in by_seed.values())}
        entry = {seed: {n: d for n, d in groups.items() if n not in common}
                 for seed, groups in by_seed.items()}
        if common:
            entry["any"] = common
        data.setdefault("digests", {})[workload] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def machine():
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model, "platform": platform.platform()}


def spread(seeds, workloads, seconds, write_baseline):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                                   workload, "--seed", str(seed), "--seconds",
                                   str(seconds), "--trace", "0"],
                                  cwd=ROOT, check=True, capture_output=True, text=True)
            result = last_json_line(proc.stdout)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed items")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": share}
            flag = "ok" if share < bounds[name] / 3 else "WIDE"
            print(f"  {workload:<9} {name:<13} median {median:<12.6g} spread "
                  f"{share:7.2%}  (third of bound {bounds[name] / 3:6.2%}) {flag}")
    if write_baseline:
        path = BENCH / "baseline.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        data.update(machine=machine(), seeds=seeds, run_seconds=seconds)
        data.setdefault("workloads", {}).update(summary)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "spread"))
    parser.add_argument("--seeds", nargs="+", default=["0-9"])
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.what == "reference":
        record_reference(seeds, args.workloads)
    else:
        spread(seeds, args.workloads, args.seconds, args.write_baseline)


if __name__ == "__main__":
    main()

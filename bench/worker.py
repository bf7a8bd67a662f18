"""One benchmark repetition in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--rep K] [--traced] [--setup-only]

A fresh process per repetition means the process-global View intern pool
and the CoverFreeFamily memos start empty, as they do for every CLI call.
The worker prints one JSON object on stdout:

* ``setup_end``: perf_counter reading when set-up finished.  That clock is
  system-wide, so the parent adds interpreter start-up and imports by
  subtracting its own reading taken just before the spawn.
* ``wall_s``: the timed phase; ``item_ms_p50`` and ``item_ms_tail``: item
  latency, the tail being the highest of the 99.9th, 99th, 95th and 90th
  percentiles with at least ten items beyond it, else the maximum.
* ``groups``: per output group, the item and failure counts and a digest
  of the outputs, computed after the timed phase.
* ``peak_rss_mb`` and, when traced, ``layers``: the per-layer metrics.

A traced repetition records spans (name, start, end, parent, run id) in
memory around every library call the workload makes and writes them to
``bench/runs/`` at the end.  Engine steps are too many for spans; they are
timed and counted in aggregate by wrapping the program's step callable.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import replace
from hashlib import blake2b
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from colorreduce import (algorithms, bounds, chromatic, graphs, nbhd,  # noqa: E402
                         simulate, views)
from colorreduce.views import View, canonical_encode  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

perf_counter_ns = time.perf_counter_ns

# (module, function, span name); a span name of None means the call is
# too cheap to matter and is never wrapped.
LIBRARY = (
    (graphs, "random_colored_tree", "graphs.random_colored_tree"),
    (graphs, "validate_proper", "graphs.validate_proper"),
    (algorithms, "delta_plus_one_program", "algorithms.program_build"),
    (simulate, "full_information_program", None),
    (views, "extract_all_views", "views.extract_all_views"),
    (views, "canonical_decode", "views.canonical_decode"),
    (nbhd, "build_setlocal", "nbhd.build_setlocal"),
    (nbhd, "build_local1", "nbhd.build_local1"),
    (nbhd, "build_relaxed_levels", "nbhd.build_relaxed"),
    (nbhd, "typed_to_setlocal_hom", "nbhd.hom"),
    (nbhd, "relaxed_to_typed_hom", "nbhd.hom"),
    (nbhd, "verify_homomorphism", "nbhd.hom"),
    (chromatic, "as_adjacency", None),
    (chromatic, "greedy_clique", "chromatic.greedy_clique"),
    (chromatic, "dsatur", "chromatic.dsatur"),
    (chromatic, "chi_exact", "chromatic.chi_exact"),
    (bounds, "random_independent_sets", "bounds.class_gen"),
    (bounds, "random_defective_classes", "bounds.class_gen"),
    (bounds, "random_relaxed_class", "bounds.class_gen"),
    (bounds, "is_independent", "bounds.class_check"),
    (bounds, "class_defect", "bounds.class_check"),
    (bounds, "uncovered_local1_node", "bounds.uncovered_local1"),
    (bounds, "uncovered_defective_node", "bounds.uncovered_defective"),
    (bounds, "source_chain", "bounds.source_chain"),
    (bounds, "refute_relaxed", "bounds.refute_relaxed"),
)


class Tracer:
    """In-memory spans and counters of one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.step_ns = self.step_calls = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else None])
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index][1:3] = start, end

        return traced

    def count(self, name, value):
        self.counters[name] += value

    def wrap_run(self, run):
        """simulate.run with exact message counts and a timed step callable."""
        timed_run = self.wrap("simulate.run", run)
        counters = self.counters

        def traced_step_of(step):
            def traced_step(state, received):
                start = perf_counter_ns()
                out = step(state, received)
                self.step_ns += perf_counter_ns() - start
                self.step_calls += 1
                counters["simulate.messages_delivered"] += len(received)
                return out

            return traced_step

        def traced_run(g, prog, kind, trace=False):
            budget = prog.round_budget(g.m, g.delta_cap, g.n)
            counters["simulate.node_rounds"] += budget * g.n
            counters["simulate.messages_sent"] += budget * sum(map(len, g.adjacency))
            return timed_run(g, replace(prog, step=traced_step_of(prog.step)), kind, trace)

        return traced_run

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": self.run_id}))
                fh.write("\n")


def _no_count(name, value):
    pass


def library(tracer: Tracer | None) -> SimpleNamespace:
    """The library calls a workload may make, wrapped in spans when traced."""
    lib = SimpleNamespace(run=simulate.run, count=_no_count)
    for module, name, span in LIBRARY:
        fn = getattr(module, name)
        setattr(lib, name, tracer.wrap(span, fn) if tracer and span else fn)
    if tracer:
        lib.run = tracer.wrap_run(simulate.run)
        lib.count = tracer.count
    return lib


class Items:
    """Runs items one at a time: latency, failures and outputs by group."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.groups: dict[str, list] = {}  # name -> [items, failed, outputs]
        self.errors: list[str] = []

    def run(self, group, fn, *args):
        call = self.tracer.wrap("item", fn) if self.tracer else fn
        start = perf_counter_ns()
        try:
            out, failed = call(*args), 0
        except Exception as exc:  # noqa: BLE001 - an item that raises has failed
            out, failed = f"failed: {type(exc).__name__}", 1
            self.errors.append(f"{group}: {type(exc).__name__}: {exc}")
        self.latencies_ns.append(perf_counter_ns() - start)
        entry = self.groups.setdefault(group, [0, 0, []])
        entry[0] += 1
        entry[1] += failed
        entry[2].append(out)


def canon(obj) -> bytes:
    """Canonical bytes of an output, independent of hash seed and set order."""
    if isinstance(obj, View):
        return canonical_encode(obj)
    if isinstance(obj, (frozenset, set)):
        return b"{" + b",".join(sorted(map(canon, obj))) + b"}"
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(map(canon, obj)) + b")"
    return repr(obj).encode()


def digest(outputs) -> str:
    return blake2b(b"\n".join(map(canon, outputs)), digest_size=8).hexdigest()


def tail_percentile(n: int) -> float:
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 100.0


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer: Tracer, step_layer: str | None) -> dict:
    out: Counter = Counter()
    for name, start, end, _ in tracer.spans:
        if name != "item":
            out[f"{name}_s"] += (end - start) / 1e9
    counters = tracer.counters
    out.update(counters)
    step_s = tracer.step_ns / 1e9
    if step_layer:
        out[f"{step_layer}_s"] = step_s
    if step_layer == "algorithms.step":
        out["algorithms.step_calls"] = tracer.step_calls
    engine_self = out["simulate.run_s"] - step_s
    out["simulate.engine_self_s"] = engine_self
    if counters["simulate.node_rounds"]:
        out["simulate.ns_per_node_round"] = engine_self * 1e9 / counters["simulate.node_rounds"]
    if counters["simulate.messages_sent"]:
        out["simulate.delivered_per_sent"] = (counters["simulate.messages_delivered"]
                                              / counters["simulate.messages_sent"])
    if counters["chromatic.expansions"]:
        search = (out["chromatic.chi_exact_s"] - out["chromatic.greedy_clique_s"]
                  - out["chromatic.dsatur_s"])
        out["chromatic.search_us_per_expansion"] = search * 1e6 / counters["chromatic.expansions"]
    out["trace.spans"] = len(tracer.spans)
    return {name: value for name, value in out.items() if value}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}/seed{args.seed}/rep{args.rep}"
    tracer = Tracer(run_id) if args.traced else None
    lib = library(tracer)
    inputs = workload.setup(lib, args.seed)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    items = Items(tracer)
    start = time.perf_counter()
    workload.run(lib, inputs, items)
    wall_s = time.perf_counter() - start
    # read before digesting, which allocates for the benchmark, not the library
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = sorted(items.latencies_ns)
    tail_pct = tail_percentile(len(latencies))
    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "item_ms_p50": percentile(latencies, 50) / 1e6,
        "item_ms_tail": percentile(latencies, tail_pct) / 1e6,
        "tail_pct": tail_pct,
        "groups": {name: {"items": n, "failed": failed, "digest": digest(outputs)}
                   for name, (n, failed, outputs) in items.groups.items()},
        "errors": items.errors[:10],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, workload.step_layer)
        tracer.write(BENCH / "runs" / f"trace-{args.workload}-seed{args.seed}-rep{args.rep}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point tying the modules together.

Every run is reproducible from its flags: artifacts land in a directory
named by a content hash of the parsed configuration (override with
--out), and all randomness flows through explicit seeds.  The directory
is made only once the command's work has succeeded, so a run that stops
on an error leaves none (a refute or verify-hom whose check comes out
false still writes its artifacts, then exits 1).  Exit codes: 0 success,
1 domain failure (infeasible parameters, caps, refuter preconditions),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from hashlib import sha256
from pathlib import Path

from . import algorithms, bounds, chromatic, nbhd
from .errors import ColorReduceError, ParameterError
from .graphs import (assignment_to_json, graph_to_json, load_graph,
                     random_colored_tree, validate_proper)
from .simulate import full_information_program, run
from .views import MULTISET, SET, view_from_json, view_to_json

FAMILY_ALIASES = {
    "nh1": nbhd.LOCAL1, "local1": nbhd.LOCAL1,
    "nsl": nbhd.SETLOCAL, "setlocal": nbhd.SETLOCAL,
    "nt": nbhd.RELAXED, "relaxed": nbhd.RELAXED,
    "ntilde": nbhd.TYPED, "typed": nbhd.TYPED,
}

CAP_HELP = "bound on a build's projected vertex count and on its edge count"


def _finish(args, artifacts, summary, status=0):
    """Make the run directory, write `artifacts` (file name -> JSON data,
    or a function that writes the open file) into it, print the summary
    line and return `status`, the exit code.  The directory is --out,
    else runs/<subcommand>-<12 hex of the sha256 of the other flags>; one
    that cannot be made or written raises ParameterError."""
    if args.out:
        out = Path(args.out)
    else:
        flags = {k: v for k, v in vars(args).items() if k not in ("func", "out", "subcommand")}
        digest = sha256(json.dumps(flags, sort_keys=True).encode()).hexdigest()[:12]
        out = Path("runs") / f"{args.subcommand}-{digest}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in artifacts.items():
            with open(out / name, "w", newline="") as fh:
                if callable(data):
                    data(fh)
                else:
                    json.dump(data, fh, sort_keys=True, indent=1)
                    fh.write("\n")
    except OSError as exc:
        raise ParameterError(f"cannot write run directory {out}: {exc}") from exc
    print(json.dumps({**summary, "out": str(out)}, sort_keys=True))
    return status


def _instance(args, parser):
    if args.graph:
        return load_graph(args.graph)
    if args.n is None:
        parser.error("provide --graph FILE or --n (with --seed)")
    return random_colored_tree(args.n, args.delta, args.m, args.seed)


def _program(args, parser):
    algo = args.algo
    if algo == "linial":
        return algorithms.linial_full_program(args.m, args.delta)
    if algo == "linial1":
        return algorithms.linial_step_program(args.m, args.delta)
    if algo == "kw":
        if args.m <= args.delta + 1:
            parser.error(f"kw needs m > delta+1, got m={args.m}, delta={args.delta}")
        return algorithms.kw_step_program(args.m, args.delta)
    if algo == "delta1":
        if args.m < args.delta + 2:
            parser.error(f"delta1 needs m >= delta+2, got m={args.m}, delta={args.delta}")
        return algorithms.delta_plus_one_program(args.m, args.delta)
    # full-info, the one other choice argparse admits
    if args.rounds is None:
        parser.error("full-info needs --rounds")
    return full_information_program(args.rounds)


def _run_coloring(args, parser):
    g = _instance(args, parser)
    if g.m != args.m or g.delta_cap != args.delta:
        parser.error(
            f"instance has (m={g.m}, delta={g.delta_cap}), flags say ({args.m}, {args.delta})"
        )
    prog = _program(args, parser)
    phi, trace = run(g, prog, kind=args.semantics, trace=args.trace)
    artifacts = {"instance.json": graph_to_json(g), "assignment.json": assignment_to_json(phi)}
    palettes = (prog.meta or {}).get("palettes")
    if palettes:
        artifacts["palettes.csv"] = lambda fh: csv.writer(fh).writerows(
            [("round", "palette"), *enumerate(palettes)])
    if trace is not None:
        artifacts["trace.jsonl"] = trace.to_jsonl
    summary = {
        "program": prog.name,
        "rounds": prog.round_budget(g.m, g.delta_cap, g.n),
        "palette": phi.palette,
        "proper": None if args.algo == "full-info" else validate_proper(g, phi),
    }
    return _finish(args, artifacts, summary)


def _build_graph_from_flags(args, parser):
    family = FAMILY_ALIASES[args.family]
    if family == nbhd.LOCAL1:
        return nbhd.build_local1(args.m, args.d, variant=args.variant, cap=args.cap)
    if family == nbhd.SETLOCAL:
        return nbhd.build_setlocal(args.r, args.m, args.d, cap=args.cap)
    if family == nbhd.RELAXED:
        return nbhd.build_relaxed(args.r, args.m, args.d, cap=args.cap)
    return nbhd.build_typed(args.r, args.m, args.d, cap=args.cap)


def cmd_build(args, parser):
    graph = _build_graph_from_flags(args, parser)
    stats = {**graph.stats(), "clique_lower_bound": chromatic.clique_lower_bound(graph)}
    return _finish(args, {"graph.json": nbhd.graph_to_json(graph), "stats.json": stats}, stats)


def cmd_chi(args, parser):
    graph = _build_graph_from_flags(args, parser)
    if args.k is not None:
        status, witness = chromatic.is_k_colorable(graph, args.k, budget=args.budget)
        result = {"k": args.k, "status": status,
                  "witness": list(witness) if witness else None}
    else:
        res = chromatic.chi_exact(graph, budget=args.budget)
        result = {
            "lower": res.lower, "upper": res.upper, "exact": res.exact,
            "expansions": res.expansions_used,
            "witness": list(res.witness) if res.witness else None,
        }
    if args.export:
        chromatic.export_dimacs(graph, args.export)
    summary = {k: v for k, v in result.items() if k != "witness"}
    return _finish(args, {"chi.json": result}, summary)


def cmd_refute(args, parser):
    family = FAMILY_ALIASES[args.family]
    if family not in (nbhd.LOCAL1, nbhd.RELAXED):
        parser.error("refute supports --family nh1 or nt")
    kind = args.variant if family == nbhd.LOCAL1 else SET
    try:
        with open(args.classes) as fh:
            classes = [[view_from_json(v, kind) for v in cl] for cl in json.load(fh)]
    except OSError as exc:
        raise ParameterError(f"cannot read classes file {args.classes}: {exc}") from exc
    except (TypeError, ValueError) as exc:  # TypeError: a file that is not a list of lists
        raise ParameterError(f"malformed classes file {args.classes}: {exc!r}") from exc
    except RecursionError:  # from json.load; view_from_json raises ValueError
        raise ParameterError(f"classes file {args.classes} is nested too deeply") from None
    if family == nbhd.LOCAL1:
        if args.defect > 0:
            node = bounds.uncovered_defective_node(classes, args.m, args.d, args.defect, kind=kind)
        else:
            node = bounds.uncovered_local1_node(classes, args.m, args.d, kind=kind)
    else:
        node = bounds.refute_relaxed(classes, args.r, args.m, args.d, cap=args.cap)
    uncovered = view_to_json(node)
    absent = all(node not in set(cl) for cl in classes)
    transcript = {"classes": [len(cl) for cl in classes], "uncovered": uncovered,
                  "verified_absent_from_all_classes": absent}
    return _finish(args, {"counterexample.json": uncovered, "transcript.json": transcript},
                   {"uncovered": uncovered}, 0 if absent else 1)


def cmd_verify_hom(args, parser):
    if args.which == "h":
        hom = nbhd.typed_to_setlocal_hom(args.r, args.m, args.d, cap=args.cap)
    else:
        hom = nbhd.relaxed_to_typed_hom(args.r, args.m, args.d, cap=args.cap)
    report = nbhd.verify_homomorphism(hom)
    result = {
        "which": args.which, "name": hom.name, "verified": report.ok,
        "missing_images": len(report.missing_images),
        "broken_edges": len(report.broken_edges),
        "domain_vertices": hom.domain.n_vertices,
        "codomain_vertices": hom.codomain.n_vertices,
    }
    return _finish(args, {"report.json": result}, result, 0 if report.ok else 1)


def cmd_bound(args, parser):
    report = bounds.lower_bound_rounds(args.delta, args.C, args.eta)
    result = {
        "delta": report.delta, "C": report.C, "eta": report.eta,
        "rounds": report.rounds, "neighbor_bound": report.neighbor_bound,
        "m_threshold": report.m_threshold, "threshold_ok": report.threshold_ok,
    }
    return _finish(args, {"bound.json": result}, result)


def _add_coloring_flags(sub, algos):
    sub.add_argument("--algo", required=True, choices=algos)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--delta", type=int, required=True)
    sub.add_argument("--semantics", choices=[SET, MULTISET], default=SET)
    sub.add_argument("--n", type=int, default=None, help="nodes of a generated random tree")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--graph", default=None, help="load instance from JSON instead")
    sub.add_argument("--rounds", type=int, default=None, help="rounds for full-info")


def _add_family_flags(sub):
    sub.add_argument("--family", required=True, choices=sorted(FAMILY_ALIASES))
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--d", type=int, required=True,
                     help="max degree (nh1/nsl) or neighbor-set bound (nt/ntilde)")
    sub.add_argument("--r", type=int, default=1)
    sub.add_argument("--variant", choices=[SET, MULTISET], default=MULTISET)
    sub.add_argument("--cap", type=int, default=nbhd.DEFAULT_CAP, help=CAP_HELP)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorreduce",
        description="Distributed color reduction: simulate, build, bound, refute.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", help="run a program on an instance, with optional trace")
    _add_coloring_flags(sim, ["linial", "linial1", "kw", "delta1", "full-info"])
    sim.add_argument("--trace", action="store_true")
    sim.set_defaults(func=_run_coloring)

    col = subs.add_parser("color", help="run a color reduction algorithm")
    _add_coloring_flags(col, ["linial", "linial1", "kw", "delta1"])
    col.set_defaults(trace=False)
    col.set_defaults(func=_run_coloring)

    bld = subs.add_parser("build", help="construct a neighborhood graph")
    _add_family_flags(bld)
    bld.set_defaults(func=cmd_build)

    chi = subs.add_parser("chi", help="chromatic bounds / k-colorability")
    _add_family_flags(chi)
    chi.add_argument("--budget", type=int, default=1_000_000)
    chi.add_argument("--k", type=int, default=None)
    chi.add_argument("--export", default=None, help="write DIMACS col to this path")
    chi.set_defaults(func=cmd_chi)

    ref = subs.add_parser("refute", help="construct an uncovered vertex for a class family")
    _add_family_flags(ref)
    ref.add_argument("--classes", required=True, help="JSON list of vertex lists")
    ref.add_argument("--defect", type=int, default=0)
    ref.set_defaults(func=cmd_refute)

    hom = subs.add_parser("verify-hom", help="build and verify a homomorphism")
    hom.add_argument("--which", required=True, choices=["h", "f"])
    hom.add_argument("--r", type=int, required=True)
    hom.add_argument("--m", type=int, required=True)
    hom.add_argument("--d", type=int, required=True)
    hom.add_argument("--cap", type=int, default=nbhd.DEFAULT_CAP, help=CAP_HELP)
    hom.set_defaults(func=cmd_verify_hom)

    bnd = subs.add_parser("bound", help="round lower bound for a palette target")
    bnd.add_argument("--delta", type=int, required=True)
    bnd.add_argument("--C", type=float, default=1.0)
    bnd.add_argument("--eta", type=float, default=0.0)
    bnd.set_defaults(func=cmd_bound)

    for sub in subs.choices.values():
        sub.add_argument("--out", default=None,
                         help="run directory (default: runs/<subcommand>-<hash>)")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ColorReduceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload has a ``setup(lib, seed)`` that builds its inputs (timed as
set-up) and a ``run(lib, inputs, items)`` that is the timed phase.  The
timed phase hands every item to ``items.run(group, fn, *args)``; an item
returns its output, which is digested after the timed phase, or raises
``CheckFailed``.  ``lib`` holds the library functions, wrapped in spans
when the repetition is traced, plus ``lib.count(name, value)`` for
deterministic counters.

The work of one repetition is fixed by the seed alone, so its wall time is
comparable across commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from colorreduce import MULTISET, SET


class CheckFailed(Exception):
    """An item's output failed the benchmark's correctness check."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_absent(node, classes):
    for k, cls in enumerate(classes):
        _check(node not in cls, f"result lies in class {k}")


def _count_members(lib, classes):
    lib.count("bounds.class_members", sum(len(cls) for cls in classes))


# --- pipeline: the criterion-01 grid --------------------------------------

PIPELINE_DELTAS = range(2, 9)
PIPELINE_MS = (10**2, 10**4, 10**6)
PIPELINE_TREES = 100  # per grid point
PIPELINE_NODES = 24


def pipeline_setup(lib, seed):
    points = []
    for k, (delta, m) in enumerate(product(PIPELINE_DELTAS, PIPELINE_MS)):
        base = seed * 10**6 + k * PIPELINE_TREES
        trees = [lib.random_colored_tree(PIPELINE_NODES, delta, m, seed=base + i)
                 for i in range(PIPELINE_TREES)]
        points.append((delta, m, trees))
    return points


def _pipeline_item(lib, g, prog, delta):
    phi, _ = lib.run(g, prog, SET)
    _check(lib.validate_proper(g, phi), "improper coloring")
    _check(max(phi.colors) <= delta + 1, f"more than {delta + 1} colors")
    return phi.colors


def pipeline_run(lib, points, items):
    for delta, m, trees in points:
        prog = lib.delta_plus_one_program(m, delta)
        group = f"delta={delta},m={m}"
        for g in trees:
            items.run(group, _pipeline_item, lib, g, prog, delta)


# --- fullinfo: the criterion-11 view oracle -------------------------------

FULLINFO_TREES = 600  # an item runs one tree under both deliveries
FULLINFO_SHAPE = (10, 3, 5)  # nodes, delta, m


def fullinfo_setup(lib, seed):
    n, delta, m = FULLINFO_SHAPE
    return [lib.random_colored_tree(n, delta, m, seed=seed * 10**6 + i)
            for i in range(FULLINFO_TREES)]


def _fullinfo_item(lib, g, prog, r):
    out = []
    for kind in (SET, MULTISET):
        _, trace = lib.run(g, prog, kind, trace=True)
        final = lib.extract_all_views(g, r, kind)
        previous = lib.extract_all_views(g, r - 1, kind)
        for v in range(g.n):
            _check(trace.state_digest_at(r, v) == final[v].digest.hex(),
                   f"{kind} node {v}: state is not its {r}-view")
            _check(lib.canonical_decode(trace.sent_at(r, v)) is previous[v],
                   f"{kind} node {v}: round-{r} message does not decode to its {r - 1}-view")
        out.append(tuple(trace.state_digest_at(r, v) for v in range(g.n)))
    return tuple(out)


def fullinfo_run(lib, trees, items):
    for i, g in enumerate(trees):
        r = 1 + i % 3
        items.run(f"r={r}", _fullinfo_item, lib, g, lib.full_information_program(r), r)


# --- hosts: view-graph builds and the exact solver ------------------------

# Known facts of the seed library, checked on every repetition.
SETLOCAL_POINT, SETLOCAL_SIZE = (2, 3, 3), (45, 147)
LOCAL1_POINT, LOCAL1_SIZE = (7, 4), (1470, 148_176)
LOCAL1_CHI, LOCAL1_EXPANSIONS = 6, 4750
# criterion-09 homomorphism points, (r, m, d)
HOM_TYPED_TO_SETLOCAL = ((1, 3, 2), (1, 4, 2), (2, 3, 2))
HOM_RELAXED_TO_TYPED = ((1, 3, 1), (1, 4, 2))


def _count_host(lib, host):
    lib.count("nbhd.vertices", host.n_vertices)
    lib.count("nbhd.edges", host.n_edges)


def _setlocal_item(lib):
    host = lib.build_setlocal(*SETLOCAL_POINT)
    _count_host(lib, host)
    _check((host.n_vertices, host.n_edges) == SETLOCAL_SIZE,
           f"setlocal{SETLOCAL_POINT} has {host.n_vertices} vertices and "
           f"{host.n_edges} edges, expected {SETLOCAL_SIZE}")
    return host.vertices, host.adjacency


def _local1_item(lib):
    host = lib.build_local1(*LOCAL1_POINT, MULTISET)
    _count_host(lib, host)
    _check((host.n_vertices, host.n_edges) == LOCAL1_SIZE,
           f"local1{LOCAL1_POINT} has {host.n_vertices} vertices and "
           f"{host.n_edges} edges, expected {LOCAL1_SIZE}")
    adj = lib.as_adjacency(host)
    clique = lib.greedy_clique(adj)
    coloring = lib.dsatur(adj)
    chi = lib.chi_exact(host)
    lib.count("chromatic.expansions", chi.expansions_used)
    _check(chi.exact and chi.lower == LOCAL1_CHI,
           f"chi bracket [{chi.lower}, {chi.upper}], expected exactly {LOCAL1_CHI}")
    _check(chi.expansions_used == LOCAL1_EXPANSIONS,
           f"{chi.expansions_used} expansions, expected {LOCAL1_EXPANSIONS}")
    return (host.vertices, host.adjacency, tuple(clique), coloring,
            (chi.lower, chi.upper, chi.exact, chi.expansions_used, chi.witness))


def _hom_item(lib):
    homs = [lib.typed_to_setlocal_hom(*p) for p in HOM_TYPED_TO_SETLOCAL]
    homs += [lib.relaxed_to_typed_hom(*p) for p in HOM_RELAXED_TO_TYPED]
    out = []
    for hom in homs:
        report = lib.verify_homomorphism(hom)
        _check(report.ok, f"{hom.name}: {len(report.missing_images)} missing images, "
                          f"{len(report.broken_edges)} broken edges")
        out.append((hom.name, tuple((v, hom.mapping[v]) for v in hom.domain.vertices),
                    len(report.missing_images), len(report.broken_edges)))
    return tuple(out)


HOST_STEPS = (("setlocal", _setlocal_item), ("local1+chi", _local1_item), ("homs", _hom_item))


# --- refute: the criteria 06/07/08 refuter suites --------------------------

# Family counts per repetition: 200 items, so the p95 tail falls among the
# 20 heaviest families (local1 delta=4, defective delta=6) and the median
# inside the source chains.
LOCAL1_REFUTE = ((2, 3, 10), (3, 5, 10), (4, 7, 10))  # (delta, m, families), criterion 06
DEFECTIVE = ((4, 8), (5, 8), (6, 10))  # (delta, families) at m = 2*delta^2, criterion 07
DEFECT = 1
CHAIN_LEVELS = (2, 3, 2)  # (r, m, d) of the relaxed levels, criterion 08
CHAINS = 134
RELAXED_BOUND = 4
# (r, m, class size, classes per family, families), criterion 08
RELAXED_POINTS = ((1, 7, 25, 4, 5), (2, 5, 40, 2, 5))


@dataclass(frozen=True)
class RefuteInputs:
    seed: int
    local1_hosts: dict
    chain_levels: list
    relaxed_levels: dict


def refute_setup(lib, seed):
    return RefuteInputs(
        seed=seed,
        local1_hosts={(delta, m): lib.build_local1(m, delta, MULTISET)
                      for delta, m, _ in LOCAL1_REFUTE},
        chain_levels=lib.build_relaxed_levels(*CHAIN_LEVELS),
        relaxed_levels={r: lib.build_relaxed_levels(r - 1, m, RELAXED_BOUND)
                        for r, m, *_ in RELAXED_POINTS},
    )


def _local1_refute(lib, host, m, delta, seed):
    classes = lib.random_independent_sets(host, delta * delta // 4, seed=seed)
    _count_members(lib, classes)
    for k, cls in enumerate(classes):
        _check(lib.is_independent(cls), f"class {k} is not independent")
    node = lib.uncovered_local1_node(classes, m, delta)
    _check(node.child_size < delta, "neighbor collection reached delta")
    _check_absent(node, classes)
    lib.count("bounds.refutations", 1)
    return node, classes


def _defective_refute(lib, m, delta, seed):
    count = delta * delta // (4 * (DEFECT + 1) ** 2)
    classes = lib.random_defective_classes(m, delta, DEFECT, count=count, seed=seed)
    _count_members(lib, classes)
    for k, cls in enumerate(classes):
        _check(lib.class_defect(cls) <= DEFECT, f"class {k} exceeds defect {DEFECT}")
    node = lib.uncovered_defective_node(classes, m, delta, DEFECT)
    _check(node.child_size < delta, "neighbor collection reached delta")
    _check_absent(node, classes)
    lib.count("bounds.refutations", 1)
    return node, classes


def _chain_item(lib, levels, seed):
    (cls,) = lib.random_independent_sets(levels[-1], 1, seed=seed)
    _count_members(lib, [cls])
    _check(lib.is_independent(cls), "class is not independent")
    chain = lib.source_chain(cls, levels[:-1])
    for i, sources in enumerate(chain[1:], start=1):
        _check(lib.is_independent(sources), f"chain set {i} is not independent")
    return chain


def _relaxed_refute(lib, levels, r, m, size, count, seed):
    classes = [lib.random_relaxed_class(levels, size, seed=seed + k, bound=RELAXED_BOUND)
               for k in range(count)]
    _count_members(lib, classes)
    for k, cls in enumerate(classes):
        _check(lib.is_independent(cls), f"class {k} is not independent")
    node = lib.refute_relaxed(classes, r, m, RELAXED_BOUND, levels=levels)
    _check_absent(node, classes)
    lib.count("bounds.refutations", 1)
    return node, classes


def refute_families(lib, inputs):
    """Every refuter family as (group, fn, args), one list per kind."""
    base = inputs.seed * 10**6
    kinds = []
    for delta, m, families in LOCAL1_REFUTE:
        host = inputs.local1_hosts[(delta, m)]
        kinds.append([(f"local1(delta={delta})", _local1_refute,
                       (lib, host, m, delta, base + rep * 31 + delta))
                      for rep in range(families)])
    for delta, families in DEFECTIVE:
        kinds.append([(f"defective(delta={delta})", _defective_refute,
                       (lib, 2 * delta * delta, delta, base + rep * 13 + delta))
                      for rep in range(families)])
    kinds.append([("chain", _chain_item, (lib, inputs.chain_levels, base + rep))
                  for rep in range(CHAINS)])
    for r, m, size, count, families in RELAXED_POINTS:
        kinds.append([(f"relaxed(r={r})", _relaxed_refute,
                       (lib, inputs.relaxed_levels[r], r, m, size, count, base + rep * 17))
                      for rep in range(families)])
    return kinds


def hosts_refute_run(lib, inputs, items):
    """The refuter families spread evenly over the repetition, with a fixed
    host step after each third of them.

    Spreading each kind over the whole repetition makes its latency
    percentiles sample the machine's speed over ~20 s rather than over the
    fraction of a second one kind would take in a block.  Set-up has
    already built local1(7,4) for the refuters, so the host step rebuilds it
    with its views interned.
    """
    kinds = refute_families(lib, inputs)
    # the k-th of n families of a kind sits at (k + 0.5) / n of the repetition
    order = sorted(((k + 0.5) / len(kind), i, k)
                   for i, kind in enumerate(kinds) for k in range(len(kind)))
    families = [kinds[i][k] for _, i, k in order]
    third = -(-len(families) // 3)
    for j, (group, step) in enumerate(HOST_STEPS):
        for group_name, fn, args in families[j * third:(j + 1) * third]:
            items.run(group_name, fn, *args)
        items.run(group, step, lib)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    step_layer: str | None  # the layer a traced engine step is charged to


WORKLOADS = {
    "pipeline": Workload(pipeline_setup, pipeline_run, "algorithms.step"),
    "fullinfo": Workload(fullinfo_setup, fullinfo_run, "views.fullinfo_step"),
    "hosts-refute": Workload(refute_setup, hosts_refute_run, None),
}

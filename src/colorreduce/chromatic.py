"""Exact and heuristic chromatic numbers for desk-scale graphs.

The internal solver targets graphs of a few thousand vertices;
anything larger should go through the DIMACS export and an external
solver.  Budgets are counted in node expansions (color assignments
tried) rather than wall time, so identical calls give identical results.

Every entry point takes its graph through as_adjacency, which returns
the checked rows (graphs._Rows) an NbhdGraph or ColoredGraph holds, no
row copied, and checks plain rows once.  The search relabels vertices by
static rank (degree descending, then index) and works on int bitmasks
over ranks: one neighborhood mask per vertex, one mask per color of the
ranks it saturates, and one mask per saturation level of the uncolored
ranks (DSATUR, Brelaz 1979).  An expansion or its undo costs a few
big-int ANDs per saturation level, not a walk over the vertex's
neighbors.  The rank order and the masks belong to the checked rows:
they are built on first use and take n*n/8 bytes, every solver call on
one graph (or one as_adjacency value) shares them, and they live as long
as the graph does.  The greedy clique grows on the same masks.  The
branching order, and with it every expansion count, witness and budget
outcome, is that of the plain saturation-greedy scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConstructionError, ParameterError
from .graphs import ColoredGraph, _Rows
from .nbhd import NbhdGraph
from .views import View, canonical_encode


def as_adjacency(g) -> _Rows:
    """The one checked graph input of the solver.

    An NbhdGraph or ColoredGraph gives its own rows, checked when the
    graph was built, and a _Rows comes back unchanged, so every solver
    call on one graph shares its rank space.  Plain rows are deduplicated
    and sorted, then pass the one rows check (_Rows.checked) with
    ParameterError; so does a row that cannot be sorted."""
    if isinstance(g, (NbhdGraph, ColoredGraph, _Rows)):
        return getattr(g, "adjacency", g)
    try:
        return _Rows.checked([sorted(set(row)) for row in g], ParameterError)
    except TypeError as exc:  # a row or entry that does not hash or sort
        raise ParameterError(f"rows must list integer neighbors: {exc}") from None


@dataclass(frozen=True)
class ChiResult:
    lower: int
    upper: int
    exact: bool
    witness: tuple[int, ...] | None
    expansions_used: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ParameterError("lower bound above upper bound")


def greedy_clique(g) -> list[int]:
    """Best clique over greedy growth from every seed vertex.  Seeds go
    in rank order, and each step adds the lowest-ranked candidate, the
    largest (degree, -index); the growth runs on the rows' rank masks."""
    adj = as_adjacency(g)
    # the lowest set bit of the candidates is the lowest-ranked candidate;
    # a rank's own bit is cleared as it joins, so growth always ends
    masks, best = adj.masks, []
    for seed, mask in enumerate(masks):
        clique = [seed]
        candidates = mask & ~(1 << seed)
        while candidates:
            low = candidates & -candidates
            r = low.bit_length() - 1
            clique.append(r)
            candidates = (candidates ^ low) & masks[r]
        if len(clique) > len(best):
            best = clique
    return sorted(adj.order[r] for r in best)


def embedded_clique(graph: NbhdGraph) -> list[int] | None:
    """The canonical (degree_param+1)-clique of level-1 families:
    {(x, [delta+1] minus {x})} for the first delta+1 colors; present in
    every level-1 family whenever m >= delta+1."""
    if graph.level != 1 or graph.m < graph.degree_param + 1:
        return None
    kind = graph.variant
    members = []
    for x in range(1, graph.degree_param + 2):
        others = (View.leaf(kind, y) for y in range(1, graph.degree_param + 2) if y != x)
        v = View.make(kind, View.leaf(kind, x), others)
        if not graph.has_vertex(v):
            return None
        members.append(graph.vertex_index(v))
    return sorted(members)


def clique_lower_bound(g) -> int:
    """Size of the greedy clique, raised to the planted clique of a
    level-1 neighborhood graph when that is larger."""
    lower = len(greedy_clique(g))
    planted = embedded_clique(g) if isinstance(g, NbhdGraph) else None
    return lower if planted is None else max(lower, len(planted))


def _bipartition(adj: _Rows) -> list[int] | None:
    n = len(adj)
    colors = [0] * n
    for start in range(n):
        if colors[start]:
            continue
        colors[start] = 1
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if colors[u] == 0:
                    colors[u] = 3 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    return None
    return colors


class _Budget:
    def __init__(self, limit):
        if type(limit) is not int or limit < 0:
            raise ParameterError(f"budget must be an integer >= 0, got {limit!r}")
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def _search_k_coloring(adj: _Rows, k: int, budget: _Budget):
    """Iterative DSATUR-ordered backtracking; returns (status, colors).

    The search runs in rank space (see _Rows) on int bitmasks.
    covered[c] holds the ranks with a neighbor colored c, so a rank's
    saturation is the number of colors whose mask holds its bit, and an
    assignment or its undo costs one AND per saturation level instead of
    a walk over the neighbors.  Uncolored ranks sit in buckets[saturation], and the
    branching vertex is the lowest rank in the top non-empty bucket: the
    largest (saturation, degree, -index).
    """
    nbr = adj.masks
    n = len(nbr)
    covered = [0] * (k + 1)
    buckets = [0] * (k + 1)
    buckets[0] = (1 << n) - 1

    def pick(top):
        # no uncolored rank has a saturation above the colors in use
        for sat in range(top, -1, -1):
            bucket = buckets[sat]
            if bucket:
                return (bucket & -bucket).bit_length() - 1, sat

    def assign(r, c, sat, top):
        """Color rank r with c; returns the ranks that c newly saturates."""
        buckets[sat] ^= 1 << r
        gain = nbr[r] & ~covered[c]
        # top down, so a rank moves up one level once
        for level in range(top, -1, -1):
            moved = buckets[level] & gain
            if moved:
                buckets[level] ^= moved
                buckets[level + 1] |= moved
        covered[c] |= gain
        return gain

    def unassign(r, c, sat, gain, top):
        covered[c] ^= gain
        # bottom up, so a rank moves down one level once
        for level in range(1, top + 1):
            moved = buckets[level] & gain
            if moved:
                buckets[level] ^= moved
                buckets[level - 1] |= moved
        buckets[sat] |= 1 << r

    def first_free(r, after, upper):
        for cand in range(after + 1, upper + 1):
            if not covered[cand] >> r & 1:
                return cand
        return None

    max_used = 0
    stack = []  # (rank, color tried, its saturation, max_used before, gain)
    while True:
        if len(stack) == n:
            colors = [0] * n
            for r, c, *_ in stack:
                colors[adj.order[r]] = c
            return "yes", colors
        r, sat = pick(max_used)
        c = 0
        # the next free color after c, at most one brand-new (a symmetry
        # break); where there is none, undo the last expansion and try
        # its rank's next color instead
        while (c := first_free(r, c, min(k, max_used + 1))) is None:
            if not stack:
                return "no", None
            r, c, sat, prev_max, gain = stack.pop()
            unassign(r, c, sat, gain, max_used)
            max_used = prev_max
        if not budget.spend():
            return "unknown", None
        stack.append((r, c, sat, max_used, assign(r, c, sat, max_used)))
        max_used = max(max_used, c)


def dsatur(g) -> tuple[list[int], int]:
    """Deterministic saturation-greedy coloring; returns (colors, count).

    Branching order: highest saturation, ties by degree then index.  This
    is the first descent of the exact search: with k = n colors the
    smallest free color (at most max_used + 1) always fits, so the search
    never backtracks and spends exactly n expansions.
    """
    adj = as_adjacency(g)
    n = len(adj)
    _, colors = _search_k_coloring(adj, n, _Budget(n))
    return colors, max(colors, default=0)


def _decide_k(adj, k: int, budget: _Budget):
    """k-colorability with the closed forms for k = 1, k = 2 and k >= n,
    else the search; every "yes" witness is checked before it is returned."""
    n = len(adj)
    if k == 1:
        if any(adj):
            return "no", None
        status, witness = "yes", [1] * n
    elif k == 2:
        two = _bipartition(adj)
        status, witness = ("yes", two) if two is not None else ("no", None)
    elif k >= n:
        status, witness = "yes", list(range(1, n + 1))
    else:
        status, witness = _search_k_coloring(adj, k, budget)
    if status == "yes":
        _check_witness(adj, witness, k)
    return status, witness


def is_k_colorable(g, k: int, budget: int = 1_000_000):
    """Three-valued: ("yes", witness) with a validating coloring, ("no",
    None) after exhaustive search, or ("unknown", None) on budget
    exhaustion.  The budget (expansions) must be an int >= 0."""
    if type(k) is not int or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    return _decide_k(as_adjacency(g), k, _Budget(budget))


def _check_witness(adj, colors, k):
    if not all(1 <= c <= k for c in colors):
        raise ConstructionError(f"witness coloring uses a color outside [1, {k}]")
    for v, nbrs in enumerate(adj):
        for u in nbrs:
            if colors[u] == colors[v]:
                raise ConstructionError(f"witness coloring is improper on edge {v}-{u}")


def chi_exact(g, budget: int = 1_000_000) -> ChiResult:
    """Exact chromatic number when the expansion budget (an int >= 0)
    suffices, otherwise the best (clique, saturation-greedy) bracket
    reached."""
    tracker = _Budget(budget)
    adj = as_adjacency(g)
    if not adj:
        return ChiResult(0, 0, True, tuple(), 0)
    witness, upper = dsatur(adj)
    best_witness = tuple(witness)
    # plain rows are checked once: the bound reads their checked copy
    k = max(clique_lower_bound(g if isinstance(g, NbhdGraph) else adj), 1)
    # an "unknown" leaves the tracker overspent, which ends the loop
    while k < upper and tracker.used < budget:
        status, wit = _decide_k(adj, k, tracker)
        if status == "yes":
            return ChiResult(k, k, True, tuple(wit), tracker.used)
        if status == "no":
            k += 1
    return ChiResult(k, upper, k == upper, best_witness, tracker.used)


def export_dimacs(g, path) -> None:
    """Standard DIMACS col format: `p edge n m` then one `e u v` line per
    undirected edge, 1-based.  For neighborhood graphs a sidecar JSON at
    <path>.map.json maps DIMACS indices to canonical vertex encodings."""
    adj = as_adjacency(g)
    edges = list(adj.edges())
    with open(path, "w") as fh:
        fh.write(f"p edge {len(adj)} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"e {u + 1} {v + 1}\n")
    if isinstance(g, NbhdGraph):
        mapping = {
            str(i + 1): canonical_encode(v).decode("ascii")
            for i, v in enumerate(g.vertices)
        }
        with open(f"{path}.map.json", "w") as fh:
            json.dump(mapping, fh, sort_keys=True, indent=0)
            fh.write("\n")


def read_dimacs(path) -> tuple[int, list[tuple[int, int]]]:
    """Parse a col file back to (n, 0-based edge list).

    Raises ParameterError naming the line for a problem line without two
    counts or after the first, an edge line before the problem line or
    without two endpoints in [1, n], and for a count or endpoint that is
    not a decimal integer."""
    n = None
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            where = f"{path} line {lineno}"
            if parts[0] == "p":
                if n is not None or len(parts) != 4:
                    raise ParameterError(f"{where}: expected one 'p edge <n> <m>' line")
                n, _ = _dimacs_ints(parts[2:], where)
            elif parts[0] == "e":
                if n is None:
                    raise ParameterError(f"{where}: edge line before the problem line")
                if len(parts) != 3:
                    raise ParameterError(f"{where}: expected 'e <u> <v>'")
                u, v = _dimacs_ints(parts[1:], where)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ParameterError(f"{where}: endpoint outside [1, {n}]")
                edges.append((u - 1, v - 1))
    if n is None:
        raise ParameterError(f"{path} has no problem line")
    return n, edges


def _dimacs_ints(tokens, where) -> list[int]:
    if not all(t.isascii() and t.isdigit() for t in tokens):
        raise ParameterError(f"{where}: {' '.join(tokens)!r} are not decimal integers")
    return [int(t) for t in tokens]

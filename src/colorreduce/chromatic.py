"""Exact and heuristic chromatic numbers for desk-scale graphs.

The internal solver targets graphs of a few thousand vertices;
anything larger should go through the DIMACS export and an external
solver.  Budgets are counted in node expansions (color assignments
tried) rather than wall time, so identical calls give identical results.

The search keeps, per vertex, a count of colored neighbors per color,
and buckets the uncolored vertices by saturation (DSATUR, Brelaz 1979).
An expansion or its undo therefore costs O(deg) plus one scan of the top
bucket, with no rescan of neighborhoods.  The branching order, and with
it every expansion count, witness and budget outcome, is that of the
plain saturation-greedy scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConstructionError, ParameterError
from .graphs import ColoredGraph
from .nbhd import NbhdGraph
from .views import View, canonical_encode


def as_adjacency(g) -> list[set[int]]:
    """Adapt NbhdGraph, ColoredGraph, or a plain neighbor-list structure."""
    rows = g.adjacency if isinstance(g, (NbhdGraph, ColoredGraph)) else g
    return [set(nbrs) for nbrs in rows]


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


def greedy_clique(adj: list[set[int]]) -> list[int]:
    """Best clique over greedy growth from every seed vertex."""
    n = len(adj)
    degree = [len(s) for s in adj]
    order_key = lambda v: (-degree[v], v)
    best: list[int] = []
    for seed in sorted(range(n), key=order_key):
        clique = [seed]
        candidates = set(adj[seed])
        while candidates:
            v = min(candidates, key=order_key)
            clique.append(v)
            candidates &= adj[v]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


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


def clique_lower_bound(g, adj=None) -> int:
    """Size of the greedy clique, raised to the planted clique of a
    level-1 neighborhood graph when that is larger."""
    lower = len(greedy_clique(as_adjacency(g) if adj is None else adj))
    planted = embedded_clique(g) if isinstance(g, NbhdGraph) else None
    return lower if planted is None else max(lower, len(planted))


def _bipartition(adj: list[set[int]]) -> list[int] | None:
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
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def _search_k_coloring(adj, k: int, budget: _Budget):
    """Iterative DSATUR-ordered backtracking; returns (status, colors).

    counts[v] maps each color to the number of v's neighbors holding it,
    so v's saturation is len(counts[v]) and an assignment or its undo
    costs O(deg).  Uncolored vertices sit in buckets[saturation] by their
    static rank (degree descending, then index), and the branching vertex
    is the lowest rank in the top non-empty bucket: the largest
    (saturation, degree, -index).
    """
    n = len(adj)
    colors = [0] * n
    counts = [{} for _ in range(n)]
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    buckets = [set(range(n))]

    def pick():
        for bucket in reversed(buckets):
            if bucket:
                return order[min(bucket)]

    def assign(v, c):
        colors[v] = c
        buckets[len(counts[v])].remove(rank[v])
        for u in adj[v]:
            seen = counts[u]
            if c in seen:
                seen[c] += 1
                continue
            seen[c] = 1
            if not colors[u]:
                sat = len(seen)
                if sat == len(buckets):
                    buckets.append(set())
                buckets[sat - 1].remove(rank[u])
                buckets[sat].add(rank[u])

    def unassign(v, c):
        colors[v] = 0
        for u in adj[v]:
            seen = counts[u]
            if seen[c] > 1:
                seen[c] -= 1
                continue
            del seen[c]
            if not colors[u]:
                sat = len(seen)
                buckets[sat + 1].remove(rank[u])
                buckets[sat].add(rank[u])
        buckets[len(counts[v])].add(rank[v])

    def first_free(v, after, upper):
        seen = counts[v]
        for cand in range(after + 1, upper + 1):
            if cand not in seen:
                return cand
        return None

    max_used = 0
    stack = []  # (vertex, color tried, max_used before)
    while True:
        if len(stack) == n:
            return "yes", list(colors)
        v = pick()
        # symmetry break: allow at most one brand-new color
        c = first_free(v, 0, min(k, max_used + 1))
        if c is not None:
            if not budget.spend():
                return "unknown", None
            stack.append((v, c, max_used))
            assign(v, c)
            max_used = max(max_used, c)
            continue
        # backtrack
        while stack:
            v, c, prev_max = stack.pop()
            unassign(v, c)
            max_used = prev_max
            nxt = first_free(v, c, min(k, max_used + 1))
            if nxt is not None:
                if not budget.spend():
                    return "unknown", None
                stack.append((v, nxt, max_used))
                assign(v, nxt)
                max_used = max(max_used, nxt)
                break
        else:
            return "no", None


def dsatur(adj: list[set[int]]) -> tuple[list[int], int]:
    """Deterministic saturation-greedy coloring; returns (colors, count).

    Branching order: highest saturation, ties by degree then index.  This
    is the first descent of the exact search: with k = n colors the
    smallest free color (at most max_used + 1) always fits, so the search
    never backtracks and spends exactly n expansions.
    """
    n = len(adj)
    _, colors = _search_k_coloring(adj, n, _Budget(n))
    return colors, max(colors, default=0)


def _decide_k(adj, k: int, budget: _Budget):
    """k-colorability with the closed forms for k = 1, k = 2 and k >= n,
    else the search; a "yes" witness is checked before it is returned."""
    n = len(adj)
    if k == 1:
        if any(adj):
            return "no", None
        return "yes", [1] * n
    if k == 2:
        two = _bipartition(adj)
        return ("yes", two) if two is not None else ("no", None)
    if k >= n:
        return "yes", list(range(1, n + 1))
    status, witness = _search_k_coloring(adj, k, budget)
    if status == "yes":
        _check_witness(adj, witness, k)
    return status, witness


def is_k_colorable(g, k: int, budget: int = 1_000_000):
    """Three-valued: ("yes", witness) with a validating coloring, ("no",
    None) after exhaustive search, or ("unknown", None) on budget
    exhaustion."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    return _decide_k(as_adjacency(g), k, _Budget(budget))


def _check_witness(adj, colors, k):
    if not all(1 <= c <= k for c in colors):
        raise ConstructionError(f"witness coloring uses a color outside [1, {k}]")
    for v, nbrs in enumerate(adj):
        for u in nbrs:
            if colors[u] == colors[v]:
                raise ConstructionError(f"witness coloring is improper on edge {v}-{u}")


def chi_exact(g, budget: int = 1_000_000) -> ChiResult:
    """Exact chromatic number when the expansion budget suffices,
    otherwise the best (clique, saturation-greedy) bracket reached."""
    adj = as_adjacency(g)
    if not adj:
        return ChiResult(0, 0, True, tuple(), 0)
    witness, upper = dsatur(adj)
    best_witness = tuple(witness)
    tracker = _Budget(budget)
    k = max(clique_lower_bound(g, adj), 1)
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
    edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
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
    """Parse a col file back to (n, 0-based edge list)."""
    n = None
    edges = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n = int(parts[2])
            elif parts[0] == "e":
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    if n is None:
        raise ParameterError(f"{path} has no problem line")
    return n, edges

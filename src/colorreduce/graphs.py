"""Colored graphs, checked neighbor rows, coloring validators, and
seeded instance generators.

Graphs and assignments are immutable after construction (rows and colors
given as lists are stored as tuples) and every operation here is pure,
so values can be shared freely between concurrent callers.  The rows of
a ColoredGraph, and of every neighborhood graph, are one checked rows
value (_Rows): one check serves every graph, and the chromatic solver's
rank space is cached on the rows, so it lives as long as the graph.
Colors are 1-based; palette bounds are explicit so that "color out of
palette" and "coloring not proper" stay distinguishable failures.

The seeded generators, random_colored_tree here and the class generators
of bounds, take an int seed and draw through the helpers _seeded, _below,
_shuffle and _sample: random.Random(seed).getrandbits read by
random.Random's own algorithms, without the argument handling of
randrange, shuffle and sample.  A seed gives the draws it gives there.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import (CoverageError, GraphError, PaletteMismatchError, ParameterError,
                     _Immutable, _need_ints)


class _Rows(_Immutable, tuple):
    """Checked neighbor rows: row v is a strictly ascending tuple of v's
    neighbors, each an int in [0, n) other than v, and u is in row v
    exactly when v is in row u.

    _Rows(rows) trusts its input and is for builders whose rows are
    correct by construction; _Rows.checked converts and checks any other
    input.  The rows carry their rank space: order[r] is the vertex of
    rank r (degree descending, then index), and masks[r] holds the ranks
    of r's neighbors as the bits of one int, built once per row object,
    so ranks whose rows are one shared tuple (the false twins that
    nbhd._wire gives one row) hold one mask.  Both are built on first use
    and cached on the value; assignment and deletion raise AttributeError
    (cached_property writes the instance dict, not through __setattr__).
    """

    @classmethod
    def checked(cls, rows, error=GraphError) -> _Rows:
        """rows itself if it is a _Rows, else rows frozen row by row (a
        tuple row is kept as is) and checked; `error` names the first fault."""
        if isinstance(rows, cls):
            return rows
        rows = cls(map(tuple, rows))
        n = len(rows)
        # matched[u] counts the entries of row u below u that the rows
        # listing u have met; rows are taken in ascending order, so in a
        # symmetric, ascending row u they are met one after the other
        matched = [0] * n
        for v, row in enumerate(rows):
            last = -1
            for u in row:
                if type(u) is not int or not 0 <= u < n:
                    raise error(f"vertex {v} has neighbor {u!r} outside [0, {n})")
                if u <= last or u == v:
                    raise error(f"vertex {v} has a self-loop" if u == v
                                else f"row {v} is not strictly ascending at {u}")
                if u > v:
                    i = matched[u]
                    try:
                        if rows[u][i] == v:
                            matched[u] = i + 1
                    except IndexError:  # row u is one-sided at v
                        pass
                last = u
        # a matched entry is one mirrored pair of two: symmetric iff they cover all
        if 2 * sum(matched) != sum(map(len, rows)):
            for v, row in enumerate(rows):  # ascending rows: bisect for each mirror
                for u in row:
                    i = bisect_left(rows[u], v)
                    if rows[u][i:i + 1] != (v,):
                        raise error(f"edge {v}-{u} is listed only at {v}")
        return rows

    def edges(self):
        """Each undirected edge once, as (u, v) with u < v."""
        return ((u, v) for u, nbrs in enumerate(self) for v in nbrs if u < v)

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(sorted(range(len(self)), key=lambda v: (-len(self[v]), v)))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        rank = [0] * len(self)
        for r, v in enumerate(self.order):
            rank[v] = r
        # one byte update per edge end and one conversion per row; summing
        # powers of two would copy the growing int once per neighbor
        byte = [r >> 3 for r in rank]
        bit = [1 << (r & 7) for r in rank]
        zeros = bytes((len(self) + 7) // 8)
        # twins that share one row object share its mask; keyed by id,
        # which is stable while self holds the rows
        masks, built = [], {}
        for v in self.order:
            nbrs = self[v]
            mask = built.get(id(nbrs))
            if mask is None:
                row = bytearray(zeros)
                for u in nbrs:
                    row[byte[u]] |= bit[u]
                mask = built[id(nbrs)] = int.from_bytes(row, "little")
            masks.append(mask)
        return tuple(masks)


@dataclass(frozen=True)
class ColoredGraph:
    """Simple undirected graph with a proper initial coloring.

    Attributes
    ----------
    n : node count (nodes are 0..n-1)
    adjacency : checked rows (_Rows), one strictly ascending neighbor
        tuple per node, symmetric, irreflexive
    psi : initial color per node, each an int in [1, m], proper
    m : initial palette size
    delta_cap : declared maximum degree (actual degrees may be smaller)
    """

    n: int
    adjacency: _Rows
    psi: tuple[int, ...]
    m: int
    delta_cap: int

    def __post_init__(self):
        _need_ints(n=self.n, m=self.m, delta_cap=self.delta_cap)
        # rows and colors given as lists are frozen here (a tuple is kept as is)
        object.__setattr__(self, "adjacency", _Rows.checked(self.adjacency))
        object.__setattr__(self, "psi", tuple(self.psi))
        if self.n < 1:
            raise GraphError("graph needs at least one node")
        if len(self.adjacency) != self.n or len(self.psi) != self.n:
            raise GraphError("adjacency/psi length must equal n")
        for v, c in enumerate(self.psi):
            if type(c) is not int or not 1 <= c <= self.m:
                raise GraphError(f"initial color {c!r} of node {v} outside [1, {self.m}]")
        for v, nbrs in enumerate(self.adjacency):
            if len(nbrs) > self.delta_cap:
                raise GraphError(f"node {v} exceeds declared max degree {self.delta_cap}")
            for u in nbrs:
                if self.psi[u] == self.psi[v]:
                    raise GraphError(f"initial coloring not proper on edge {v}-{u}")

    @staticmethod
    def from_edges(n, edges, psi, m, delta_cap=None):
        """Build a graph from an edge list, sorting neighbor lists.  An
        edge that is not a pair of ints (bool is not) in [0, n) raises
        GraphError."""
        _need_ints(n=n)
        nbrs = [set() for _ in range(n)]
        for e in edges:
            try:
                u, v = e
                ok = type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise GraphError(f"edge {e!r} is not a pair of integers in [0, {n})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        if delta_cap is None:
            delta_cap = max(map(len, nbrs), default=0)
        return ColoredGraph(n, [sorted(s) for s in nbrs], psi, m, delta_cap)

    def max_degree(self):
        return max(len(nbrs) for nbrs in self.adjacency)

    def edges(self):
        return self.adjacency.edges()

    def n_edges(self):
        return sum(1 for _ in self.edges())


@dataclass(frozen=True)
class ColorAssignment:
    """Per-node positive colors with a declared palette upper bound."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))

    def __getitem__(self, v):
        return self.colors[v]


def _check_assignment(g: ColoredGraph, phi: ColorAssignment):
    """CoverageError unless phi covers every node of g, and
    PaletteMismatchError unless every color lies in [1, phi.palette]."""
    if len(phi.colors) != g.n:
        raise CoverageError(f"assignment covers {len(phi.colors)} nodes, graph has {g.n}")
    for v, c in enumerate(phi.colors):
        if not 1 <= c <= phi.palette:
            raise PaletteMismatchError(f"color {c} of node {v} outside [1, {phi.palette}]")


def validate_proper(g: ColoredGraph, phi: ColorAssignment) -> bool:
    """True iff no edge of g is monochromatic under phi.

    Raises PaletteMismatchError when a color exceeds the declared palette
    (a different failure than an improper coloring) and CoverageError when
    phi does not cover every node.
    """
    _check_assignment(g, phi)
    colors = phi.colors
    for u, nbrs in enumerate(g.adjacency):
        cu = colors[u]
        for v in nbrs:
            if v > u and colors[v] == cu:
                return False
    return True


def validate_defective(g: ColoredGraph, phi: ColorAssignment, d: int) -> bool:
    """True iff every color class induces a subgraph of maximum degree <= d.

    Raises ParameterError unless d is an int >= 0, and on a bad
    assignment what `validate_proper` raises."""
    if type(d) is not int or d < 0:
        raise ParameterError(f"need an integer d >= 0, got d={d!r}")
    _check_assignment(g, phi)
    colors = phi.colors
    for u, nbrs in enumerate(g.adjacency):
        cu = colors[u]
        defect = sum(1 for v in nbrs if colors[v] == cu)
        if defect > d:
            return False
    return True


def greedy_coloring(g: ColoredGraph) -> ColorAssignment:
    """Sequential greedy coloring; uses at most max_degree(g)+1 colors."""
    colors = [0] * g.n
    for v in range(g.n):
        used = {colors[u] for u in g.adjacency[v] if u < v}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return ColorAssignment(tuple(colors), max(colors))


# --- seeded draws (see the module docstring) ---------------------------------
# The Mersenne Twister, its seeding and the order in which bits are read
# are random.Random's; the tests pin each helper against its method.

def _seeded(seed):
    """The bit source of random.Random(seed): its getrandbits.  The seed
    must be an int (bool is not), else ParameterError: None would seed
    from the clock, and floats and strs are hashed."""
    _need_ints(seed=seed)
    return random.Random(seed).getrandbits


def _below(bits, n):
    """Random._randbelow(n): uniform over [0, n), by rejection on
    n.bit_length() bits.  ValueError for n < 1, where every draw is
    rejected (getrandbits(0) is always 0)."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        if n < 1:  # checked only on a rejection, so accepted draws pay nothing
            raise ValueError(f"need n >= 1, got n={n}")
        r = bits(k)
    return r


def _shuffle(bits, x):
    """Random.shuffle(x): x shuffled in place.  Each draw is _below's,
    written out in the loop, where a call would cost about as much as
    the draw."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        x[i], x[j] = x[j], x[i]


def _sample(bits, population, k):
    """Random.sample(population, k): k distinct items of the sequence
    population, in selection order.  Like random.Random, it tracks the
    unselected items in a pool list when that is smaller than a k-item
    set, and the selected positions in a set otherwise.  Each draw is
    _below's, written out in the loop.  ValueError unless
    0 <= k <= len(population)."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    setsize = 21  # a small set's size minus an empty list's, as in random
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for i in range(n, n - k, -1):
            width = i.bit_length()
            j = bits(width)
            while j >= i:
                j = bits(width)
            result.append(pool[j])
            pool[j] = pool[i - 1]
        return result
    # a draw is rejected when it is out of range or already selected,
    # which reads the bits that random's nested loops read
    width = n.bit_length()
    selected = set()
    for _ in range(k):
        j = bits(width)
        while j >= n or j in selected:
            j = bits(width)
        selected.add(j)
        result.append(population[j])
    return result


def random_colored_tree(n: int, delta_cap: int, m: int, seed: int) -> ColoredGraph:
    """Seeded random tree with max degree <= delta_cap and a proper m-coloring.

    Each new node attaches to a uniformly random earlier node that still
    has degree capacity, which caps the degree without rejection sampling.
    Identical arguments always produce the identical graph; the seed must
    be an int.  The earlier nodes with capacity are kept as an ascending
    list updated per node; every new node joins it, since its degree 1 is
    below delta_cap >= 2.  A node's row starts with its parent, and its
    children join it in the order they are made, so every row is sorted
    as it is built.
    """
    _need_ints(n=n, delta_cap=delta_cap, m=m)
    if m < 2:
        raise ParameterError("need m >= 2 to properly color any edge")
    if n < 1:
        raise ParameterError("need n >= 1")
    if delta_cap < 2:
        raise ParameterError("need delta_cap >= 2")
    bits = _seeded(seed)
    rows = [[] for _ in range(n)]
    candidates = [0]
    for v in range(1, n):
        i = _below(bits, len(candidates))
        p = candidates[i]
        rows[p].append(v)
        if len(rows[p]) == delta_cap:
            del candidates[i]
        rows[v].append(p)
        candidates.append(v)
    psi = [0] * n
    psi[0] = 1 + _below(bits, m)
    for v in range(1, n):
        # uniform over [m] minus the parent color
        c = 1 + _below(bits, m - 1)
        if c >= psi[rows[v][0]]:
            c += 1
        psi[v] = c
    return ColoredGraph(n, rows, psi, m, delta_cap)


def graph_to_json(g: ColoredGraph) -> dict:
    """Wire format: 0-based node indices, each edge listed once."""
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "psi": list(g.psi),
        "m": g.m,
        "delta": g.delta_cap,
    }


def graph_from_json(data: dict) -> ColoredGraph:
    """Inverse of graph_to_json.  A missing key or a value of the wrong
    type raises ParameterError, an edge that is not a pair of integers
    GraphError (from `ColoredGraph.from_edges`)."""
    try:
        n, edges, psi, m, delta = (data[key] for key in ("n", "edges", "psi", "m", "delta"))
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"graph JSON needs the keys n, edges, psi, m, delta: {exc!r}") from exc
    if not (isinstance(edges, list) and isinstance(psi, list)
            and all(type(x) is int for x in (n, m, delta, *psi))):
        raise ParameterError("graph JSON needs integers n, m, delta and lists edges, psi of integers")
    return ColoredGraph.from_edges(n, edges, psi, m, delta)


def assignment_to_json(phi: ColorAssignment) -> dict:
    return {"colors": list(phi.colors), "palette": phi.palette}


def load_graph(path) -> ColoredGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParameterError(f"{path} is not UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise ParameterError(f"{path} is nested too deeply") from None
    return graph_from_json(data)

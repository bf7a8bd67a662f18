"""Explicit neighborhood-graph families and the homomorphisms between them.

Every vertex is a recursive (center, neighbor-collection) pair represented
as a View: level 0 is a bare color, level r+1 pairs a level-r vertex with
a collection of level-r vertices.  Four families share the same edge rule
-- {(x,A),(y,B)} is an edge iff x is in B and y is in A; level 0 is the
complete graph on the m colors.  A level-0 vertex has center and only
type BOTTOM, which is None, a leaf's inner.  One expansion builds every
level of every family but typed, which is cut from setlocal: level i+1
takes each vertex x of level i and each collection A of at most the
bound of x's level-i neighbors, subsets under set delivery and
multisets under multiset delivery:

* local1:   one-round full-information graph, level 1 of that expansion:
            (x, A) for every neighbor-color collection A over [m]\\{x}
            with |A| <= delta (multiset variant) or every subset (set
            variant).
* relaxed:  level i+1 takes any subset A of a vertex's level-i neighbors
            with |A| <= D, no further restriction.
* setlocal: the views actually realizable in properly m-colored trees
            of max degree <= delta under set delivery, with edges between
            views co-realizable at adjacent tree nodes.  Level 1 keeps
            every A, the empty one included; level i+1 >= 2 keeps the
            (x, A) whose neighbor set realizes every type of the center:
            types(x) == {center(a) for a in A}.
* typed:    setlocal without the r-views of isolated nodes, the (x, A)
            with empty A at every level >= 1.

The type filter is exact for setlocal from level 2 on.  Necessity: at
a tree node u with (i+1)-view (x, A), each a in A is the i-view of a
neighbor w of u, and its center, w's (i-1)-view, is one of the children
of x, which are exactly the (i-1)-views of u's neighbors; so
types(x) == {center(a) for a in A}.  Sufficiency: for each a in A take a
tree realizing a at a node w_a; its neighbor showing x.inner exists
because a is adjacent to x.  Cut off that neighbor's branch, then join
every w_a to one new node u of x's color.  u has |A| <= delta
neighbors, and by induction on k <= i, u's k-view is x's truncation
(the centers of A are the children of x) while every other node keeps
its k-view (u shows what the cut neighbor showed), so u's (i+1)-view is
(x, A).  Level 1 needs no filter: a star realizes any (x, A).

The views of isolated nodes are m per level >= 1: a vertex over (c, {})
has no types, so its own A is empty, and (c, {}) is no one's neighbor, so
no collection contains it.  They lie in no row, and typed is the induced
subgraph on the rest, in the same canonical order.

Co-realizability is the edge rule, so setlocal is wired like the others.
Adjacent tree nodes u, v each have the other's (r-1)-view among their
children.  Conversely, let U and V be realizable r-views with U.inner a
child of V and V.inner a child of U.  Take a tree realizing U at u, where
u has a neighbor w with (r-1)-view V.inner, and one realizing V at v,
where v has a neighbor w' with (r-1)-view U.inner.  Cut off the branches
of w and w' and join u to v.  Degrees and properness are kept, and by
induction on k <= r every node keeps its k-view: set delivery sees only
the set of neighbor views, and v's (k-1)-view is w's.

The edge rule in key form: a depth >= 1 vertex (x, A) publishes the key
(x, y) for each distinct y in A, and (x, A), (y, B) are joined iff one
publishes (x, y) and the other (y, x).  Wiring indexes positions by the
keys they publish; the row of (x, A) is then the buckets of (y, x) for y
in A, with no scan over candidates.  The row is complete: a neighbor
(y, B) has center y in A and x in B, so it sits in the bucket of (y, x).
It has no repeats: every position has one center, so the buckets of
distinct y are disjoint, and each lists a position once.  (x, A) is in
its own row only through (x, x), that is when x is in A, and is dropped
there.  The rule reads x and the distinct members of A, never their
multiplicities, so multiset vertices (x, A) and (x, A') whose
collections have one support are false twins: they have one row, built
once and stored once for all of them.  Each row is sorted, and the edge
rule is symmetric, so the builders pass their rows to NbhdGraph as
checked rows (graphs._Rows) without checking them again; the cut to
typed keeps those properties.
An independence check keeps one set of the keys seen and stops at the
first key whose reverse is already in it.

The recursive families blow up exponentially; builders project each
level's vertex count first and refuse to exceed an explicit cap (an int
>= 0, checked once in `_build_levels`), which also bounds the number of
edges they wire.  The projection counts every
collection the expansion walks, so it is exact where no filter runs
(local1, relaxed, setlocal level 1) and an upper bound where one does
(setlocal from level 2); typed is refused where setlocal is, by its error.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

from .errors import (CapExceededError, ConstructionError, GraphError, ParameterError,
                     _need_ints)
from .graphs import _Rows
from .views import MULTISET, SET, View, canonical_encode

DEFAULT_CAP = 2_000_000

LOCAL1 = "local1"
SETLOCAL = "setlocal"
RELAXED = "relaxed"
TYPED = "typed"


BOTTOM = None  # the center and only type of a level-0 vertex: a leaf's inner


def center(v: View):
    """The first component of (x, A); BOTTOM for level-0 vertices."""
    return v.inner


def types(v: View) -> frozenset:
    """The set of distinct neighbor entries of (x, A); {BOTTOM} at level 0.
    A set, not the view's id-ordered `child_lookup`, because callers
    compare it with `centers_of`."""
    if v.depth == 0:
        return frozenset({BOTTOM})
    return frozenset(v.child_lookup)


def centers_of(nodes) -> frozenset:
    return frozenset(center(a) for a in nodes)


def mutual_edge(u: View, v: View) -> bool:
    """Edge rule: mutual membership at level >= 1, distinctness at level 0."""
    if u.depth != v.depth:
        return False
    if u.depth == 0:
        return u is not v
    return u.inner in v.child_lookup and v.inner in u.child_lookup


def _wire(nodes, cap) -> _Rows:
    """Row i lists, ascending, the positions j != i whose members the edge
    rule joins to position i; CapExceededError once the rows so far hold
    more than `cap` edges.

    Depth >= 1 positions are indexed by the keys they publish (see the
    module docstring), and the row of (x, A) is the concatenation of the
    buckets of the keys (y, x), y in A.  Depth-0 positions meet every
    distinct leaf, and duplicate positions pair up like any others.

    That row reads only x and the distinct members of A, never their
    multiplicities, so it is built once per key (x, child_lookup) and
    every later multiset position with that key is given the same tuple:
    false twins share their row.  A position with x in A keeps a row of
    its own, which drops itself.  Under SET a key names one view, so set
    positions build no sharing table."""
    index, leaves, twins = {}, [], {}
    for i, u in enumerate(nodes):
        if u.depth == 0:
            leaves.append(i)
            continue
        x = u.inner
        for y in u.child_lookup:
            bucket = index.get((x, y))
            if bucket is None:
                index[x, y] = [i]
            else:
                bucket.append(i)
    # every edge is listed in two rows, so more than 2*cap + 1 entries
    # means more than cap edges
    limit, wired, rows = 2 * cap + 1, 0, []
    for i, u in enumerate(nodes):
        if u.depth == 0:
            row = tuple(j for j in leaves if nodes[j] is not u)
        else:
            x, lookup = u.inner, u.child_lookup
            shared = u.kind == MULTISET and x not in lookup
            row = twins.get((x, lookup)) if shared else None
            if row is None:
                row = []
                for y in lookup:
                    row += index.get((y, x), ())
                if x in lookup:
                    row.remove(i)
                row.sort()
                row = tuple(row)
                if shared:
                    twins[x, lookup] = row
        rows.append(row)
        wired += len(row)
        if wired > limit:
            raise CapExceededError(wired // 2, cap, what="edges (at least)")
    return _Rows(rows)


@dataclass(frozen=True)
class NbhdGraph:
    """A finite neighborhood graph with a canonical vertex order.

    Vertices are sorted by canonical encoding and stored as a tuple;
    adjacency is checked rows (graphs._Rows), one per vertex.  The
    builders wire rows that are correct by construction and pass them
    as _Rows; rows given any other way are frozen and checked, and so
    are the vertices given with them: a fault in the rows, a row count
    other than the vertex count, a repeated vertex, vertices out of
    canonical order or of mixed depths is a GraphError.
    degree_param is delta for local1/setlocal and the neighbor-set
    bound D for relaxed; typed, setlocal without the views of isolated
    nodes, keeps setlocal's delta as its D.
    """

    family: str
    m: int
    degree_param: int
    level: int
    variant: str
    vertices: tuple[View, ...]
    adjacency: _Rows
    _index: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not isinstance(self.adjacency, _Rows):
            _check_vertices(self.vertices)
        object.__setattr__(self, "adjacency", _Rows.checked(self.adjacency))
        if len(self.vertices) != len(self.adjacency):
            raise GraphError(f"{len(self.vertices)} vertices but {len(self.adjacency)} rows")
        object.__setattr__(self, "_index", MappingProxyType(
            {v: i for i, v in enumerate(self.vertices)}))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def vertex_index(self, v: View) -> int:
        return self._index[v]

    def has_vertex(self, v: View) -> bool:
        return v in self._index

    def neighbor_views(self, v: View) -> tuple[View, ...]:
        return tuple(self.vertices[j] for j in self.adjacency[self._index[v]])

    def edges(self):
        return self.adjacency.edges()

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def stats(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "degree_param": self.degree_param,
            "level": self.level,
            "variant": self.variant,
            "vertices": self.n_vertices,
            "edges": self.n_edges,
            "max_degree": self.max_degree(),
        }


def _check_vertices(vertices):
    """GraphError unless the views are distinct, of one depth and in
    canonical order."""
    first = {}
    for i, v in enumerate(vertices):
        j = first.setdefault(v, i)
        if j != i:
            raise GraphError(f"vertex {i} repeats vertex {j}")
        if v.depth != vertices[0].depth:
            raise GraphError(f"vertex {i} has depth {v.depth}, vertex 0 has depth "
                             f"{vertices[0].depth}")
    encodings = list(map(canonical_encode, vertices))
    for i in range(1, len(encodings)):
        if encodings[i - 1] > encodings[i]:
            raise GraphError(f"vertex {i} is out of canonical order")


def _finish(family, m, degree_param, level, variant, vertices, cap) -> NbhdGraph:
    """Sort vertices canonically and wire edges by the edge rule, raising
    CapExceededError once more than `cap` edges are wired."""
    ordered = tuple(sorted(set(vertices), key=canonical_encode))
    return NbhdGraph(family, m, degree_param, level, variant, ordered, _wire(ordered, cap))


def _clique_vertices(m, kind):
    return [View.leaf(kind, c) for c in range(1, m + 1)]


def _multiset_count(options: int, max_size: int) -> int:
    return sum(math.comb(options + k - 1, k) for k in range(max_size + 1))


def _subset_count(options: int, max_size: int) -> int:
    return sum(math.comb(options, k) for k in range(min(options, max_size) + 1))


def build_local1(m: int, delta: int, variant=MULTISET, cap: int = DEFAULT_CAP) -> NbhdGraph:
    """One-round graph: all (x, A) with A over [m]\\{x}, |A| <= delta,
    including the empty A; multiset or plain-subset neighbor collections.
    It is level 1 over the complete graph on the m colors."""
    if not (type(m) is int and type(delta) is int and m > delta >= 2):
        raise ParameterError(f"need integers m > delta >= 2, got m={m!r}, delta={delta!r}")
    if variant not in (SET, MULTISET):
        raise ParameterError(f"unknown variant {variant!r}")
    return _build_levels(LOCAL1, 1, m, delta, cap, variant)[-1]


def _expand_level(prev: NbhdGraph, bound: int, cap: int) -> NbhdGraph:
    """Level prev.level + 1: every (x, A) with x a vertex of prev and A a
    collection of at most `bound` of x's neighbors in prev, of prev's
    kind (subsets for SET, multisets for MULTISET), kept by the type
    filter where it applies: setlocal from level 2."""
    if prev.variant == MULTISET:
        chooser, count = combinations_with_replacement, _multiset_count
    else:
        chooser, count = combinations, _subset_count
    # setlocal's level 1 keeps every A, as a star realizes it; above
    # level 1 the type filter is exact
    filtered = prev.family == SETLOCAL and prev.level >= 1
    projected = sum(count(len(row), bound) for row in prev.adjacency)
    if projected > cap:
        raise CapExceededError(
            projected, cap, what=f"level-{prev.level + 1} vertices"
            + (" (upper bound)" if filtered else ""))
    vertices = []
    for i, x in enumerate(prev.vertices):
        nbr_views = [prev.vertices[j] for j in prev.adjacency[i]]
        required = types(x) if filtered else None
        for k in range(bound + 1):
            for combo in chooser(nbr_views, k):
                if filtered and centers_of(combo) != required:
                    continue
                vertices.append(View.make(prev.variant, x, combo))
    return _finish(prev.family, prev.m, bound, prev.level + 1, prev.variant, vertices, cap)


def _build_levels(family: str, r: int, m: int, d: int, cap: int,
                  kind=SET) -> list[NbhdGraph]:
    _need_ints(r=r, m=m, d=d)
    if r < 0 or m < 2 or d < 1:
        raise ParameterError("need r >= 0, m >= 2, d >= 1")
    if type(cap) is not int or cap < 0:
        raise ParameterError(f"cap must be an integer >= 0, got {cap!r}")
    levels = [_finish(family, m, d, 0, kind, _clique_vertices(m, kind), cap)]
    for _ in range(r):
        levels.append(_expand_level(levels[-1], d, cap))
    return levels


def build_relaxed_levels(r: int, m: int, d: int, cap: int = DEFAULT_CAP) -> list[NbhdGraph]:
    """Levels 0..r of the unconstrained recursive family."""
    return _build_levels(RELAXED, r, m, d, cap)


def build_relaxed(r: int, m: int, d: int, cap: int = DEFAULT_CAP) -> NbhdGraph:
    return build_relaxed_levels(r, m, d, cap)[-1]


def _without_isolated_views(level: NbhdGraph) -> NbhdGraph:
    """The typed level cut from a setlocal level: the same graph without
    the (x, A) with empty A above level 0.  Those lie in no row (see the
    module docstring), so the other rows only shift their indices."""
    kept = [i for i, v in enumerate(level.vertices) if v.depth == 0 or v.child_size]
    new = {old: pos for pos, old in enumerate(kept)}
    return NbhdGraph(TYPED, level.m, level.degree_param, level.level, level.variant,
                     tuple(level.vertices[i] for i in kept),
                     _Rows(tuple(new[j] for j in level.adjacency[i]) for i in kept))


def build_typed_levels(r: int, m: int, d: int, cap: int = DEFAULT_CAP) -> list[NbhdGraph]:
    """Levels 0..r of the type-constrained family: setlocal's levels
    with delta = d, each without its m views of isolated nodes above
    level 0 (see the module docstring).  What is left is exactly the
    (x, A) with centers(A) == types(x).  The cap and its refusal are
    setlocal's."""
    return [_without_isolated_views(g) for g in _build_levels(SETLOCAL, r, m, d, cap)]


def build_typed(r: int, m: int, d: int, cap: int = DEFAULT_CAP) -> NbhdGraph:
    return _without_isolated_views(build_setlocal(r, m, d, cap))


def build_setlocal(r: int, m: int, delta: int, cap: int = DEFAULT_CAP) -> NbhdGraph:
    """Realizable r-views, wired by the edge rule, built level by level.

    Level 1 holds every (x, A) with |A| <= delta; level i+1 >= 2 keeps
    the (x, A) over level-i neighbors of x whose centers are exactly the
    children of x, the type filter.  A node's neighbors' i-views have its
    neighbors' (i-1)-views as centers, and conversely one realizing tree
    per a in A, cut at the neighbor showing x.inner and glued at a new
    root, realizes (x, A) (see the module docstring).  Two realizable
    views are co-realizable at adjacent tree nodes iff the edge rule
    joins them.  The cap bounds each level's projected vertices, before
    the filter, and then the wired edges.
    """
    return _build_levels(SETLOCAL, r, m, delta, cap)[-1]


# --- homomorphisms -------------------------------------------------------

@dataclass(frozen=True)
class HomMap:
    """A vertex mapping between two neighborhood graphs, immutable once
    built; whether it is a homomorphism is what verify_homomorphism
    reports."""

    domain: NbhdGraph
    codomain: NbhdGraph
    mapping: Mapping
    name: str = "hom"

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.mapping)))


@dataclass(frozen=True)
class HomReport:
    missing_images: tuple
    broken_edges: tuple

    @property
    def ok(self) -> bool:
        return not self.missing_images and not self.broken_edges


def verify_homomorphism(hom: HomMap) -> HomReport:
    """List the domain vertices without an image in the codomain (none
    mapped, or mapped outside it) and the domain edges whose images are
    not codomain edges; the map is a homomorphism iff the report is ok."""
    dom, cod, image = hom.domain, hom.codomain, hom.mapping
    # the codomain position of each domain vertex's image, None if it has none
    at = [cod._index.get(image.get(v)) for v in dom.vertices]
    missing = [v for v, p in zip(dom.vertices, at) if p is None]
    broken = [(dom.vertices[i], dom.vertices[j]) for i, j in dom.edges()
              if at[i] is None or at[j] is None or at[j] not in cod.adjacency[at[i]]]
    return HomReport(tuple(missing), tuple(broken))


def _verified(hom: HomMap, what: str) -> HomMap:
    """hom itself once verify_homomorphism passes it; a failure is a
    ConstructionError, since both builders are exact by construction."""
    report = verify_homomorphism(hom)
    if not report.ok:
        raise ConstructionError(
            f"{what} verification failed: {len(report.missing_images)} "
            f"missing images, {len(report.broken_edges)} broken edges"
        )
    return hom


def typed_to_setlocal_hom(r: int, m: int, d: int, cap: int = DEFAULT_CAP) -> HomMap:
    """Map the typed family into the realizable-view graph; verified
    before returning.

    Typed is setlocal with delta = d less the views of isolated nodes,
    so one setlocal build gives the codomain and the domain is cut from
    it; the map is the inclusion v -> v, an induced subgraph.
    """
    codomain = build_setlocal(r, m, d, cap)
    domain = _without_isolated_views(codomain)
    hom = HomMap(domain, codomain, {v: v for v in domain.vertices},
                 name=f"typed->setlocal[{r},{m},{d}]")
    return _verified(hom, "typed->setlocal")


def relaxed_to_typed_hom(r: int, m: int, d: int, cap: int = DEFAULT_CAP) -> HomMap:
    """Map the unconstrained family with bound d into the typed family
    with bound (r+1)*d by filling in missing types.

    Each level maps the center recursively and tops up the neighbor set
    with the canonically smallest codomain neighbors realizing the types
    the mapped set misses; the result stays within the (level+1)*d bound.
    Verified before returning.
    """
    domain_levels = build_relaxed_levels(r, m, d, cap)
    typed_levels = [build_typed(i, m, (i + 1) * d, cap) for i in range(r + 1)]

    maps: list[dict[View, View]] = [{v: v for v in domain_levels[0].vertices}]
    for i in range(r):
        fill_host = typed_levels[i]
        prev_map = maps[i]
        level_map: dict[View, View] = {}
        for v in domain_levels[i + 1].vertices:
            fx = prev_map[v.inner]
            mapped = [prev_map[a] for a in v.distinct_children()]
            have = centers_of(mapped)
            needed = types(fx) - have
            fill = []
            if needed:
                try:
                    nbr = fill_host.neighbor_views(fx)
                except KeyError as exc:
                    raise ConstructionError(
                        f"level-{i} image is not a typed-family vertex"
                    ) from exc
                for t in sorted(needed, key=_type_sort_key):
                    pick = next((w for w in nbr if center(w) == t), None)
                    if pick is None:
                        raise ConstructionError(
                            f"no codomain neighbor of center type {t!r} to fill up"
                        )
                    fill.append(pick)
            image = View.make(SET, fx, mapped + fill)
            if image.child_size > (i + 2) * d:
                raise ConstructionError("fill-up exceeded the (level+1)*d size bound")
            level_map[v] = image
        maps.append(level_map)

    hom = HomMap(domain_levels[r], typed_levels[r], maps[r],
                 name=f"relaxed->typed[{r},{m},{d}]")
    return _verified(hom, "relaxed->typed")


def _type_sort_key(t):
    return b"" if t is None else canonical_encode(t)


def graph_to_json(graph: NbhdGraph) -> dict:
    from .views import view_to_json

    return {
        "family": graph.family,
        "m": graph.m,
        "degree_param": graph.degree_param,
        "level": graph.level,
        "variant": graph.variant,
        "vertices": [view_to_json(v) for v in graph.vertices],
        "edges": [[i, j] for i, j in graph.edges()],
    }

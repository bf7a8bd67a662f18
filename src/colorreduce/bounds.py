"""Constructive refuters: given too few color classes on a neighborhood
graph, build an explicit vertex that no class contains.

A refuter failing is never an expected outcome; the constructions are
backed by counting arguments that always succeed when the preconditions
hold, so any failure raises ConstructionError and should be treated as a
bug of the highest severity.

Classes are arbitrary vertex collections (independent, or of bounded
induced degree in the defective variants), not necessarily partitions:
the arguments only use per-class structure, which makes the statements
testable against heuristic colorings and adversarial families alike.
All tie-breaking follows the canonical vertex order, so counterexamples
are reproducible.

Every source notion here is one predicate over one map.  The cover of a
class sends each center x to the union of the neighbor collections of
the members centered at x, and x is a source within W iff W minus x lies
inside cover(x).  `sources`, the clique step, the d = 0 part of
`defective_sources` and the orientations all ask exactly that; the
orientation of a class is its color cover completed low -> high on the
pairs the class leaves undemanded.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from types import MappingProxyType

from .errors import ConstructionError, ParameterError
from .nbhd import DEFAULT_CAP, NbhdGraph, build_relaxed_levels, mutual_edge
from .views import MULTISET, SET, View, canonical_encode


def is_independent(nodes) -> bool:
    """No two class members are joined by the edge rule: at most one
    distinct leaf, and no member publishes a key whose reverse an earlier
    one published (see nbhd).  A member publishes each key once, so its
    own (x, x) meets only another member's, or a copy's."""
    keys, leaf = set(), None
    add = keys.add
    for u in nodes:
        x = u.inner
        if x is None:
            if leaf is None:
                leaf = u
            elif u is not leaf:
                return False
            continue
        for y in u.child_lookup:
            if (y, x) in keys:
                return False
            add((x, y))
    return True


def class_defect(nodes) -> int:
    """Maximum induced degree of the class under the edge rule, counted
    over list positions; copies of a member are not its neighbors."""
    nodes = list(nodes)
    copies = Counter(nodes)
    published = Counter([(u.inner, y) for u in nodes if u.depth for y in u.child_lookup])
    get = published.get
    leaves = sum(1 for u in nodes if u.depth == 0)
    defect = 0
    for u in nodes:
        x = u.inner
        if x is None:
            degree = leaves - copies[u]
        else:
            # (x, A) meets the positions publishing (y, x), y in A; its own
            # copies are among them exactly when x is in A
            degree = 0
            for y in u.child_lookup:
                degree += get((y, x), 0)
            if x in u.child_lookup:
                degree -= copies[u]
        if degree > defect:
            defect = degree
    return defect


def _cover(class_nodes, m=None) -> dict:
    """Center -> union of the distinct children of the members centered
    there, both read as colors in [1, m] when m is given (level-1 code
    compares colors, not views, so its members must be one-round vertices)."""
    cover: dict = {}
    for node in class_nodes:
        x, children = node.inner, node.distinct_children()
        if m is not None:
            if node.depth != 1:
                raise ParameterError(f"class member {node!r} is not a one-round vertex")
            x, children = _color(x), map(_color, children)
        cover.setdefault(x, set()).update(children)
    if m is not None:
        outside = set(cover).union(*cover.values()).difference(range(1, m + 1))
        if outside:
            raise ParameterError(f"class member colors {sorted(outside)} lie outside [1, {m}]")
    return cover


def _is_source(cover, x, within) -> bool:
    """x is a source within W iff W minus x lies inside cover(x)."""
    seen = cover.get(x, ())
    for w in within:
        if w not in seen and w != x:
            return False
    return True


_color = attrgetter("base_color")


# --- orientations (one-round machinery) ----------------------------------

@dataclass(frozen=True)
class Orientation:
    """A direction for every unordered color pair {x, y} in [m].

    Built from an independent class: membership (x, A) with y in A demands
    x -> y; pairs demanded by neither side default to low -> high.
    `heads` is the class cover completed by that default: x -> y iff y is
    in heads[x], that is, y in cover(x) or (x < y and x not in cover(y)).
    """

    m: int
    heads: MappingProxyType = field(hash=False)

    def oriented(self, x: int, y: int) -> bool:
        """True iff the pair {x, y} points from x to y."""
        return y in self.heads.get(x, ())

    def is_source_within(self, x: int, within) -> bool:
        return _is_source(self.heads, x, within)


def orientation_of(class_nodes, m: int) -> Orientation:
    cover = _cover(class_nodes, m)
    for x, ys in cover.items():
        for y in ys:
            if y != x and x in cover.get(y, ()):
                raise ParameterError(
                    f"class demands both directions on pair {{{x},{y}}}: not an independent set"
                )
    heads = {
        x: frozenset(cover.get(x, ())).union(
            y for y in range(x + 1, m + 1) if x not in cover.get(y, ()))
        for x in cover.keys() | range(1, m + 1)
    }
    return Orientation(m, MappingProxyType(heads))


def _infer_kind(classes, fallback=MULTISET):
    for cl in classes:
        for member in cl:
            return member.kind
    return fallback


def uncovered_local1_node(classes, m: int, delta: int, kind=None) -> View:
    """A one-round vertex (x, A) covered by none of <= delta^2/4 classes.

    Construction: drop the <= c global sources, take the first
    floor(delta/2)+1 remaining colors as T, pick the x in T that is a
    T-source for the fewest classes (at most c/|T| by pigeonhole), start
    A as T\\{x}, and add one inward-pointing witness color per surviving
    class.  |A| stays strictly below delta.  The result uses the class
    members' view kind (multiset when the classes are empty).
    """
    classes = [list(cl) for cl in classes]
    if kind is None:
        kind = _infer_kind(classes)
    c = len(classes)
    if 4 * c > delta * delta:
        raise ParameterError(f"need c <= delta^2/4, got c={c}, delta={delta}")
    if 4 * m < delta * delta + 2 * delta + 4:
        raise ParameterError(f"need m >= delta^2/4 + delta/2 + 1, got m={m}, delta={delta}")
    orientations = [orientation_of(cl, m) for cl in classes]

    all_colors = range(1, m + 1)
    t_size = delta // 2 + 1
    T = []
    for x in all_colors:
        if any(o.is_source_within(x, all_colors) for o in orientations):
            continue
        T.append(x)
        if len(T) == t_size:
            break
    if len(T) < t_size:
        raise ConstructionError("fewer non-source colors than the counting argument allows")

    counts = []
    for x in T:
        owning = [k for k, o in enumerate(orientations) if o.is_source_within(x, T)]
        counts.append((len(owning), x, owning))
    q, x, owning = min(counts)
    if q * t_size > c:
        raise ConstructionError("pigeonhole bound on T-sources failed")

    a_set = set(T) - {x}
    for k in owning:
        o = orientations[k]
        y_k = next((y for y in all_colors if y != x and o.oriented(y, x)), None)
        if y_k is None:
            raise ConstructionError(f"class {k}: no inward edge although {x} is not a source")
        a_set.add(y_k)
    if len(a_set) >= delta:
        raise ConstructionError("constructed neighbor set reached delta; size bound failed")

    node = View.make(kind, View.leaf(kind, x),
                     (View.leaf(kind, y) for y in sorted(a_set)))
    # independent re-verification, off the construction path
    for k, o in enumerate(orientations):
        if o.is_source_within(x, a_set):
            raise ConstructionError(f"result is covered by class {k}")
        if any(node is member for member in classes[k]):
            raise ConstructionError(f"result is a member of class {k}")
    return node


# --- recursive sources and chains ----------------------------------------

def sources(class_nodes, level_graph: NbhdGraph, within=None) -> list[View]:
    """Vertices x of the level graph whose restricted neighborhood is
    fully witnessed: every neighbor w (within `within`, if given) appears
    in some class member centered at x."""
    cover = _cover(class_nodes)
    vertices = level_graph.vertices
    restrict = None if within is None else set(within)
    out = []
    for x, nbrs in zip(vertices, level_graph.adjacency):
        group = map(vertices.__getitem__, nbrs)
        if restrict is not None:
            group = filter(restrict.__contains__, group)
        if _is_source(cover, x, group):
            out.append(x)
    return out


def source_chain(class_nodes, levels) -> list[frozenset[View]]:
    """[S_r = class, S_{r-1}, ..., S_0] where each lower set consists of
    the sources of the one above; every set is verified independent.

    `levels` holds the built level graphs 0..r-1 (the top level itself is
    never needed: independence of the class uses the local edge rule).
    """
    top = frozenset(class_nodes)
    if not is_independent(top):
        raise ParameterError("class is not an independent set")
    chain = [top]
    current = top
    for level_graph in reversed(levels):
        current = frozenset(sources(current, level_graph))
        if not is_independent(current):
            raise ConstructionError(
                f"source set at level {level_graph.level} is not independent"
            )
        chain.append(current)
    return chain


def uncovered_clique_step(T, next_class_sets, level_graph: NbhdGraph,
                          p: int, d: int, bound: int, here_class_sets=None):
    """From an uncovered clique of size p+d one level down, build an
    uncovered clique of size p, provided p + d - 1 + c/d <= bound.

    Center j is picked from a fresh d-subset as the vertex that is a
    subset-source for the fewest classes (at most one per class inside a
    clique; at most c/d for the chosen vertex).  Its neighbor set is the
    rest of the clique plus one blocking witness per surviving class.
    """
    T = sorted(T, key=canonical_encode)
    c = len(next_class_sets)
    if len(T) != p + d:
        raise ParameterError(f"clique size {len(T)} != p+d = {p + d}")
    if d * (p + d - 1) + c > d * bound:
        raise ParameterError("size condition p+d-1+c/d <= bound violated")
    for i, u in enumerate(T):
        for v in T[i + 1 :]:
            if not mutual_edge(u, v):
                raise ParameterError("input vertices do not form a clique")
    if here_class_sets is not None:
        for k, s in enumerate(here_class_sets):
            if any(t in s for t in T):
                raise ParameterError(f"input clique intersects class {k}: not uncolored")

    cover_by_class = [_cover(cls) for cls in next_class_sets]
    remaining = list(T)
    centers = []
    witnesses_for = []
    for _ in range(p):
        group = remaining[:d]
        per_class_sources = []
        for k in range(c):
            found = [x for x in group if _is_source(cover_by_class[k], x, group)]
            if len(found) > 1:
                raise ConstructionError(
                    f"class {k} has {len(found)} sources in a clique; uniqueness failed"
                )
            per_class_sources.append(found)
        counts = []
        for idx, x in enumerate(group):
            owning = [k for k in range(c) if per_class_sources[k] and per_class_sources[k][0] is x]
            counts.append((len(owning), idx, owning))
        q, idx, owning = min(counts)
        if q * d > c:
            raise ConstructionError("pigeonhole bound on clique sources failed")
        t_j = group[idx]
        centers.append(t_j)
        witnesses_for.append(owning)
        remaining.remove(t_j)

    out = []
    for t_j, owning in zip(centers, witnesses_for):
        a_set = set(T) - {t_j}
        neighborhood = level_graph.neighbor_views(t_j)
        for k in owning:
            seen = cover_by_class[k].get(t_j, ())
            b = next((w for w in neighborhood if w not in seen), None)
            if b is None:
                raise ConstructionError(
                    f"class {k}: no blocking witness although center is uncolored below"
                )
            a_set.add(b)
        if len(a_set) > bound:
            raise ConstructionError("neighbor set exceeded the bound; arithmetic failed")
        node = View.make(SET, t_j, a_set)
        for k, s in enumerate(next_class_sets):
            if node in s:
                raise ConstructionError(f"constructed vertex lies in class {k}")
        out.append(node)

    for i, u in enumerate(out):
        for v in out[i + 1 :]:
            if not mutual_edge(u, v):
                raise ConstructionError("output vertices do not form a clique")
    return out


def refute_relaxed(classes, r: int, m: int, bound: int, levels=None, cap=None) -> View:
    """An uncovered vertex of the level-r relaxed family given at most
    bound^2/(4r) independent classes.

    Runs the induction: the class chains color at most c level-0 vertices,
    leaving an uncovered (r*d+1)-clique with d = bound/(2r); each step
    shrinks the uncovered clique by d while climbing one level.
    """
    classes = [frozenset(cl) for cl in classes]
    c = len(classes)
    if r < 1:
        raise ParameterError("need r >= 1")
    if bound % (2 * r) != 0 or bound < 2 * r:
        raise ParameterError(
            f"need bound divisible by 2r with d = bound/(2r) >= 1; got bound={bound}, r={r}"
        )
    d = bound // (2 * r)
    if 4 * r * c > bound * bound:
        raise ParameterError(f"need c <= bound^2/(4r), got c={c}")
    if 4 * r * m < bound * bound + 2 * r * bound + 4 * r:
        raise ParameterError("need m >= bound^2/(4r) + bound/2 + 1")
    if levels is None:
        levels = build_relaxed_levels(r - 1, m, bound, cap or DEFAULT_CAP)
    if len(levels) < r:
        raise ParameterError(f"need level graphs 0..{r - 1}")

    chains = [source_chain(cl, levels[:r]) for cl in classes]
    # chains[k][0] is the class itself at level r; chains[k][r - i] is S_i
    level_sets = [
        [chains[k][r - i] for k in range(c)] for i in range(r + 1)
    ]

    for k in range(c):
        if len(level_sets[0][k]) > 1:
            raise ConstructionError(
                "a class has several level-0 sources inside the base clique"
            )
    colored0 = set().union(*level_sets[0]) if c else set()
    base = []
    for v in levels[0].vertices:
        if v not in colored0:
            base.append(v)
        if len(base) == r * d + 1:
            break
    if len(base) < r * d + 1:
        raise ConstructionError("not enough uncovered base colors; counting failed")

    clique = base
    for i in range(r):
        p = r * d - (i + 1) * d + 1
        clique = uncovered_clique_step(
            clique, level_sets[i + 1], levels[i], p, d, bound,
            here_class_sets=level_sets[i],
        )
    result = clique[0]

    # re-verify off the construction path
    allowed = set(levels[r - 1].neighbor_views(result.inner))
    if not set(result.distinct_children()) <= allowed:
        raise ConstructionError("result neighbors are not neighbors of its center")
    if result.child_size > bound:
        raise ConstructionError("result neighbor set exceeds the bound")
    for k, cl in enumerate(classes):
        if result in cl:
            raise ConstructionError(f"result lies in class {k}")
    return result


# --- defective variant ----------------------------------------------------

def defective_sources(class_nodes, m: int, d: int, within=None) -> list[int]:
    """Colors x in `within` such that every nonempty subset B of the
    restricted neighborhood with |B| <= d+1 sits inside some class member
    centered at x.  With d = 0 this is exactly the plain source notion."""
    if within is None:
        within = range(1, m + 1)
    within = sorted(set(within))
    cover = _cover(class_nodes, m)
    out = []
    for x in within:
        if not _is_source(cover, x, within):
            continue
        neighborhood = [y for y in within if y != x]
        child_sets = _member_color_sets(class_nodes, x)
        if all(any(set(B) <= s for s in child_sets)
               for size in range(2, d + 2) for B in combinations(neighborhood, size)):
            out.append(x)
    return out


def _member_color_sets(class_nodes, x: int) -> list[set[int]]:
    """The neighbor-color sets of the class members centered at color x."""
    return [{c.base_color for c in node.distinct_children()}
            for node in class_nodes if node.inner.base_color == x]


def _blocking_set(class_nodes, x: int, m: int, d: int):
    """Smallest-by-canonical-order nonempty B (|B| <= d+1) over [m]\\{x}
    such that no class member centered at x contains B."""
    child_sets = _member_color_sets(class_nodes, x)
    universe = [y for y in range(1, m + 1) if y != x]
    for size in range(1, d + 2):
        for B in combinations(universe, size):
            b = set(B)
            if not any(b <= s for s in child_sets):
                return b
    return None


def uncovered_defective_node(classes, m: int, delta: int, d: int, kind=None) -> View:
    """A one-round vertex outside every class of a d-defective family with
    at most delta^2 / (4(d+1)^2) classes, for m >= 2*delta^2.

    Mirrors the proper-coloring construction with (d, W)-sources: each
    class has at most d+1 of them inside any clique of colors, and the
    per-class blockers grow to sets of size <= d+1.
    """
    classes = [list(cl) for cl in classes]
    if kind is None:
        kind = _infer_kind(classes)
    c = len(classes)
    if d < 0:
        raise ParameterError("need d >= 0")
    if 4 * c * (d + 1) * (d + 1) > delta * delta:
        raise ParameterError(f"need c <= delta^2/(4(d+1)^2), got c={c}")
    if m < 2 * delta * delta:
        raise ParameterError(f"need m >= 2*delta^2 = {2 * delta * delta}, got m={m}")
    for k, cl in enumerate(classes):
        defect = class_defect(cl)
        if defect > d:
            raise ParameterError(f"class {k} has induced degree {defect} > d={d}")

    global_sources = []
    for k, cl in enumerate(classes):
        s = set(defective_sources(cl, m, d))
        if len(s) > d + 1:
            raise ConstructionError(
                f"class {k} has {len(s)} global sources; the induced-degree bound failed"
            )
        global_sources.append(s)
    banned = set().union(*global_sources) if classes else set()

    t_size = delta // 2 + 1
    T = [x for x in range(1, m + 1) if x not in banned][:t_size]
    if len(T) < t_size:
        raise ConstructionError("fewer non-source colors than the counting argument allows")

    t_source_sets = []
    for k, cl in enumerate(classes):
        ts = set(defective_sources(cl, m, d, within=T))
        if len(ts) > d + 1:
            raise ConstructionError(
                f"class {k} has {len(ts)} restricted sources in a clique "
                f"of colors; the induced-degree bound failed"
            )
        t_source_sets.append(ts)
    counts = []
    for x in T:
        owning = [k for k in range(c) if x in t_source_sets[k]]
        counts.append((len(owning), x, owning))
    q, x, owning = min(counts)
    if q * t_size > c * (d + 1):
        raise ConstructionError("pigeonhole bound on restricted sources failed")

    a_set = set(T) - {x}
    for k in owning:
        block = _blocking_set(classes[k], x, m, d)
        if block is None:
            raise ConstructionError(
                f"class {k}: no blocking set although {x} is not a global source"
            )
        a_set |= block
    if len(a_set) >= delta:
        raise ConstructionError("constructed neighbor set reached delta; size bound failed")

    node = View.make(kind, View.leaf(kind, x),
                     (View.leaf(kind, y) for y in sorted(a_set)))
    for k, cl in enumerate(classes):
        if any(node is member for member in cl):
            raise ConstructionError(f"result is a member of class {k}")
    return node


# --- headline parameter arithmetic ----------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Derived lower-bound parameters for palette size C * delta^(1+eta)."""

    delta: int
    C: float
    eta: float
    neighbor_bound: float
    rounds_real: float
    rounds: int
    m_threshold: int
    threshold_ok: bool


def lower_bound_rounds(delta: int, C: float = 1.0, eta: float = 0.0) -> BoundReport:
    """Round lower bound for reducing to C*delta^(1+eta) colors.

    neighbor_bound = (2C delta^(2+eta))^(1/3) and rounds =
    floor((delta^(1-eta)/(16C))^(1/3)); reports whether the m coverage
    condition is implied by m >= 2C delta^(1+eta).
    """
    if not 0 <= eta < 1:
        raise ParameterError(f"eta must lie in [0, 1), got {eta}")
    if C <= 0:
        raise ParameterError(f"C must be positive, got {C}")
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    D = (2 * C * delta ** (2 + eta)) ** (1.0 / 3.0)
    r_real = (delta ** (1 - eta) / (16 * C)) ** (1.0 / 3.0)
    # integer floor robust to float cube roots of perfect cubes
    r = int(r_real)
    while (r + 1) ** 3 <= delta ** (1 - eta) / (16 * C) + 1e-9:
        r += 1
    while r > 0 and r**3 > delta ** (1 - eta) / (16 * C) + 1e-9:
        r -= 1
    palette = C * delta ** (1 + eta)
    m_threshold = math.ceil(2 * C * delta ** (1 + eta))
    threshold_ok = D / 2 + 1 <= palette
    return BoundReport(delta, C, eta, D, r_real, r, m_threshold, threshold_ok)


# --- seeded family generators (suite instrumentation) ----------------------

def random_independent_sets(graph: NbhdGraph, count: int, seed: int) -> list[frozenset[View]]:
    """Greedy independent sets over seeded random vertex orders."""
    rng = random.Random(seed)
    out = []
    n = graph.n_vertices
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        blocked = set()
        chosen = []
        for i in order:
            if i in blocked:
                continue
            chosen.append(i)
            blocked.add(i)
            blocked.update(graph.adjacency[i])
        out.append(frozenset(graph.vertices[i] for i in chosen))
    return out


def random_defective_classes(m: int, delta: int, d: int, count: int,
                             seed: int) -> list[list[View]]:
    """Random d-defective classes of one-round multiset vertices, sampled
    without materializing the host graph (its vertex set explodes with m).

    Draws are checked on colors: (x, A) touches a member (y, B) iff y is in
    A and x is in B, so members are indexed by center color and a View is
    built only for an accepted draw."""
    rng = random.Random(seed)
    leaves = {c: View.leaf(MULTISET, c) for c in range(1, m + 1)}
    out = []
    for _ in range(count):
        members: list[View] = []
        by_center: dict[int, list[tuple]] = {}
        degrees: dict[tuple, int] = {}
        for _ in range(4 * m):
            x = rng.randrange(1, m + 1)
            size = rng.randrange(0, delta + 1)
            # the same draws as sampling the list of the colors other than x
            a = frozenset(y + (y >= x) for y in rng.sample(range(1, m), min(size, m - 1)))
            key = (x, a)
            if key in degrees:
                continue
            touching = [u for y in a for u in by_center.get(y, ()) if x in u[1]]
            if len(touching) > d or any(degrees[u] + 1 > d for u in touching):
                continue
            members.append(View.make(MULTISET, leaves[x], (leaves[y] for y in a)))
            by_center.setdefault(x, []).append(key)
            degrees[key] = len(touching)
            for u in touching:
                degrees[u] += 1
        out.append(members)
    return out


def random_relaxed_class(levels, size: int, seed: int, bound: int) -> frozenset[View]:
    """A random independent set of the level above the last built level,
    sampled via random (center, neighbor-subset) draws; a draw is kept
    unless it meets a chosen member by the edge rule."""
    rng = random.Random(seed)
    top = levels[-1]
    chosen: set[View] = set()
    keys: set = set()
    for _ in range(size * 8):
        if len(chosen) >= size:
            break
        i = rng.randrange(top.n_vertices)
        x = top.vertices[i]
        nbrs = [top.vertices[j] for j in top.adjacency[i]]
        k = rng.randrange(0, min(bound, len(nbrs)) + 1)
        node = View.make(SET, x, rng.sample(nbrs, k))
        # node = (x, A) publishes (x, y) for y in A; a repeated draw is
        # either rejected here or adds nothing to the set
        if any((y, x) in keys for y in node.child_lookup):
            continue
        chosen.add(node)
        keys.update((x, y) for y in node.child_lookup)
    return frozenset(chosen)

"""Constructive refuters: given too few color classes on a neighborhood
graph, build an explicit vertex that no class contains.

A refuter failing is never an expected outcome; the constructions are
backed by counting arguments that always succeed when the preconditions
hold, so any failure raises ConstructionError and should be treated as a
bug of the highest severity.

Classes are arbitrary vertex collections (independent, or of bounded
center defect in the defective variant), not necessarily partitions:
the arguments only use per-class structure, which makes the statements
testable against heuristic colorings and adversarial families alike.
All tie-breaking follows the canonical vertex order, so counterexamples
are reproducible.

Every refuter runs one counting step, on each class's form (cover,
members).  `_first_uncovered` drops the classes' global sources and takes
the first remaining candidates as a clique T.  `_pick_and_block` takes
the member x of a group of T that is a group-source for the fewest
classes (`_least_owned`, pigeonhole) and blocks each class owning x with
its first blocking set for x.  Both steps read the sources of every class
through one test, `_source_sets`.  The one-round refuters run this step
in `_one_round_node`, on the color covers of `_color_cover` (the
orientation heads at d = 0), under one class condition: the center defect
(`_center_defect`), the most distinct centers among the members adjacent
to one member, is at most d; at d = 0 that is independence.  It caps the
(d, W)-sources of a class inside a clique W of colors at d + 1: with d + 2
of them, x_0..x_{d+1}, x_0 being a source puts a member (x_0, A) with
{x_1, ..., x_{d+1}} inside A, and each x_i being one puts x_0 in
cover(x_i), so that member meets d + 1 distinct centers.  One blocking set
of at most d + 1 colors then keeps x out of a class.
Every source notion is one predicate over one map.  The cover of a class
sends each center x to the union of the neighbor collections of the
members centered at x, and x is a (d, W)-source iff `_blocking_set` finds
no nonempty B inside W minus x, |B| <= d+1, that no member centered at x
contains.  Singletons are tested against cover(x), so with d = 0 (all of
`sources`, the clique step and the orientations) x is a source iff W
minus x lies inside cover(x).  The orientation of a class is its color
cover completed low -> high on the pairs the class leaves undemanded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, islice
from types import MappingProxyType

from .algorithms import _iroot
from .errors import ConstructionError, ParameterError, _need_ints
from .graphs import _below, _sample, _seeded, _shuffle
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


def _cover(class_nodes) -> dict:
    """Center -> union of the distinct children of the members centered
    there, as views."""
    cover: dict = {}
    for node in class_nodes:
        cover.setdefault(node.inner, set()).update(node.child_lookup)
    return cover


def _color_cover(class_nodes, m: int, d: int = 0):
    """A class of one-round vertices read as colors: (cover, members).

    `cover` is `_cover` with every view replaced by its color, which must
    lie in [1, m]; leaves of either kind with one color are one color.
    Each distinct leaf is read once.  `members` (None at d = 0, where only
    singletons are tested) maps a center color to the neighbor-color sets
    of the members centered there.  At d = 0 the cover is read off the
    view cover, whose distinct (center, child) pairs are far fewer than
    the children of a class of a host; at d >= 1, where every member is
    read anyway, it is the union of the member sets.  Level-1 code
    compares colors, not views, so the members must be one-round
    vertices of some host: none lists its own center."""
    class_nodes = list(class_nodes)
    if d:
        leaves = {node.inner for node in class_nodes}.union(
            *[node.child_lookup for node in class_nodes])
    else:
        views = _cover(class_nodes)
        leaves = set(views).union(*views.values())
    if None in leaves or any(v.depth for v in leaves):
        bad = next(node for node in class_nodes if node.depth != 1)
        raise ParameterError(f"class member {bad!r} is not a one-round vertex")
    color = {v: v.base_color for v in leaves}
    outside = set(color.values()).difference(range(1, m + 1))
    if outside:
        raise ParameterError(f"class member colors {sorted(outside)} lie outside [1, {m}]")
    get = color.__getitem__
    if d:
        members = {}
        for node in class_nodes:
            members.setdefault(get(node.inner), []).append(set(map(get, node.child_lookup)))
        cover = {x: set().union(*sets) for x, sets in members.items()}
    else:
        members, cover = None, {}
        for x, ys in views.items():
            cover.setdefault(get(x), set()).update(map(get, ys))
    own = sorted(x for x, ys in cover.items() if x in ys)
    if own:
        raise ParameterError(f"class members centered at {own} list their own center")
    return cover, members


def _center_defect(cover, members=None) -> int:
    """The largest number of y in a member's A with x in cover(y): the most
    distinct centers among the members adjacent to one member (x, A).
    With `members` (of `_color_cover`) None, each center counts as one
    member holding cover(x); that can overcount, but decides "<= 0" exactly."""
    worst = 0
    for x, ys in cover.items():
        # the y that some member at x lists and whose own members list x
        adjacent = {y for y in ys if x in cover.get(y, ())}
        if len(adjacent) > worst:
            worst = len(adjacent) if members is None else max(
                worst, *map(len, map(adjacent.intersection, members[x])))
    return worst


def _blocking_set(cover, x, within, d=0, members=None):
    """The first nonempty B inside `within` minus x, |B| <= d+1, that no
    class member centered at x contains, as a tuple; None iff x is a
    (d, W)-source.  Singletons come first, in the order of `within`, and
    are tested against cover(x); larger B (which need the `members` map
    of `_color_cover`) follow in combination order."""
    seen = cover.get(x, ())
    for w in within:
        if w not in seen and w != x:
            return (w,)
    if d:
        sets = members.get(x, ())
        rest = [w for w in within if w != x]
        for size in range(2, d + 2):
            for B in combinations(rest, size):
                if not any(s.issuperset(B) for s in sets):
                    return B
    return None


def _source_sets(within, forms, d=0) -> list:
    """The one source test: for each class, given as its form (cover,
    members), its (d, within)-sources in the order of `within`, the x
    there for which `_blocking_set` finds no blocking set."""
    return [[x for x in within if _blocking_set(cover, x, within, d, sets) is None]
            for cover, sets in forms]


def _check_per_class(source_sets, per_class: int, what: str):
    for k, found in enumerate(source_sets):
        if len(found) > per_class:
            raise ConstructionError(f"class {k} has {len(found)} {what}; "
                                    f"the counting bound allows {per_class}")


def _first_uncovered(candidates, source_sets, size: int, per_class: int) -> list:
    """The first `size` candidates that are no class's global source, where
    `source_sets[k]` holds class k's and may hold at most per_class."""
    _check_per_class(source_sets, per_class, "global sources")
    banned = set().union(*source_sets)
    T = list(islice((v for v in candidates if v not in banned), size))
    if len(T) < size:
        raise ConstructionError("fewer uncovered candidates than the counting argument allows")
    return T


def _least_owned(group, source_sets, per_class: int):
    """(x, owning): the earliest member x of `group` that the fewest classes
    own as a group-source, and those classes.  `source_sets[k]` holds class
    k's group-sources, at most per_class of them, so pigeonhole puts at
    most c * per_class / |group| classes on x."""
    _check_per_class(source_sets, per_class, "sources in a clique")
    counts = []
    for i, x in enumerate(group):
        owning = [k for k, found in enumerate(source_sets) if x in found]
        counts.append((len(owning), i, owning))
    q, i, owning = min(counts)
    if q * len(group) > len(source_sets) * per_class:
        raise ConstructionError("pigeonhole bound on clique sources failed")
    return group[i], owning


def _pick_and_block(group, clique, forms, d, within):
    """(x, A): x the `_least_owned` member of `group` among the classes'
    (d, group)-sources, at most d+1 per class, and A the clique minus x
    plus, for each class owning x, its first blocking set for x among
    `within(x)`, so (x, A) lies in no class."""
    x, owning = _least_owned(group, _source_sets(group, forms, d), d + 1)
    a_set = set(clique) - {x}
    around = within(x)
    for k in owning:
        cover, sets = forms[k]
        block = _blocking_set(cover, x, around, d, sets)
        if block is None:
            raise ConstructionError(f"class {k} owns {x!r} but has no blocking set for it")
        a_set.update(block)
    return x, a_set


def _is_clique(views) -> bool:
    return all(mutual_edge(u, v) for u, v in combinations(views, 2))


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


def orientation_of(class_nodes, m: int) -> Orientation:
    cover, _ = _color_cover(class_nodes, m)
    if _center_defect(cover):
        raise ParameterError("class demands both directions on a pair: not an independent set")
    heads = {
        x: frozenset(cover.get(x, ())).union(
            y for y in range(x + 1, m + 1) if x not in cover.get(y, ()))
        for x in cover.keys() | range(1, m + 1)
    }
    return Orientation(m, MappingProxyType(heads))


def _one_round_node(classes, kind, m: int, delta: int, d: int, forms) -> View:
    """The counting step on colors that both one-round refuters run.

    Class k's (d, W)-sources are the colors x for which `_blocking_set`
    finds no blocking set on its form forms[k] = (cover, members);
    inside any clique of colors there are at most d+1 of them (on the
    orientation heads, a tournament, at most one: a second source y would
    need x in heads(y) and y in heads(x)).  T is the first floor(delta/2)+1
    colors that are no class's global source; `_pick_and_block` gives x,
    the member of T owned as a T-source by the fewest classes, and A,
    T\\{x} plus the first blocking set over all colors of each owning
    class, so (x, A) lies in none of them.  |A| stays strictly below
    delta.  The result has the members' view kind unless `kind` is given
    (multiset when the classes are empty).
    """
    colors = range(1, m + 1)
    if kind is None:
        kind = next((member.kind for cl in classes for member in cl), MULTISET)
    T = _first_uncovered(colors, _source_sets(colors, forms, d), delta // 2 + 1, d + 1)
    x, a_set = _pick_and_block(T, T, forms, d, lambda _: colors)
    if len(a_set) >= delta:
        raise ConstructionError("constructed neighbor set reached delta; size bound failed")

    node = View.make(kind, View.leaf(kind, x),
                     (View.leaf(kind, y) for y in sorted(a_set)))
    # independent re-verification, off the construction path
    for k, (cover, sets) in enumerate(forms):
        if _blocking_set(cover, x, a_set, d, sets) is None:
            raise ConstructionError(f"result is covered by class {k}")
        if any(node is member for member in classes[k]):
            raise ConstructionError(f"result is a member of class {k}")
    return node


def uncovered_local1_node(classes, m: int, delta: int, kind=None) -> View:
    """A one-round vertex (x, A) covered by none of <= delta^2/4 classes.

    Runs `_one_round_node` at d = 0 on each class's orientation heads.
    They form a tournament: for x != y exactly one of y in heads(x) and
    x in heads(y) holds (a demanded pair points one way, as
    `orientation_of` rejects classes demanding both; an undemanded one
    points low -> high).  So a clique holds at most one source of a class,
    x in T is owned by at most c/|T| classes, and the blocker of an owning
    class, the first color outside heads(x), is its first color pointing
    into x.
    """
    _need_ints(m=m, delta=delta)
    if delta < 1:
        raise ParameterError(f"need delta >= 1, got delta={delta}")
    classes = [list(cl) for cl in classes]
    c = len(classes)
    if 4 * c > delta * delta:
        raise ParameterError(f"need c <= delta^2/4, got c={c}, delta={delta}")
    if 4 * m < delta * delta + 2 * delta + 4:
        raise ParameterError(f"need m >= delta^2/4 + delta/2 + 1, got m={m}, delta={delta}")
    forms = [(orientation_of(cl, m).heads, None) for cl in classes]
    return _one_round_node(classes, kind, m, delta, 0, forms)


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
        if _blocking_set(cover, x, group) is None:
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

    Center j is `_pick_and_block` on a fresh d-subset: the vertex that is
    a subset-source for the fewest classes (at most one per class inside
    a clique; at most c/d for the chosen vertex).  Its neighbor set is the
    rest of the clique plus one blocking witness (`_blocking_set` over
    its neighborhood) per class that owns it.
    """
    _need_ints(p=p, d=d, bound=bound)
    if d < 1 or p < 0:
        raise ParameterError(f"need d >= 1 and p >= 0, got d={d}, p={p}")
    T = sorted(T, key=canonical_encode)
    c = len(next_class_sets)
    if len(T) != p + d:
        raise ParameterError(f"clique size {len(T)} != p+d = {p + d}")
    if d * (p + d - 1) + c > d * bound:
        raise ParameterError("size condition p+d-1+c/d <= bound violated")
    if not _is_clique(T):
        raise ParameterError("input vertices do not form a clique")
    if here_class_sets is not None:
        for k, s in enumerate(here_class_sets):
            if any(t in s for t in T):
                raise ParameterError(f"input clique intersects class {k}: not uncolored")

    forms = [(_cover(cls), None) for cls in next_class_sets]
    remaining = list(T)
    out = []
    for _ in range(p):
        t_j, a_set = _pick_and_block(remaining[:d], T, forms, 0, level_graph.neighbor_views)
        remaining.remove(t_j)
        if len(a_set) > bound:
            raise ConstructionError("neighbor set exceeded the bound; arithmetic failed")
        node = View.make(SET, t_j, a_set)
        for k, s in enumerate(next_class_sets):
            if node in s:
                raise ConstructionError(f"constructed vertex lies in class {k}")
        out.append(node)
    if not _is_clique(out):
        raise ConstructionError("output vertices do not form a clique")
    return out


def refute_relaxed(classes, r: int, m: int, bound: int, levels=None,
                   cap: int = DEFAULT_CAP) -> View:
    """An uncovered vertex of the level-r relaxed family given at most
    bound^2/(4r) independent classes.

    Runs the induction: the class chains color at most c level-0 vertices
    (one level-0 source each), so `_first_uncovered` leaves an uncovered
    (r*d+1)-clique with d = bound/(2r); each `uncovered_clique_step`
    shrinks the uncovered clique by d while climbing one level.
    """
    _need_ints(r=r, m=m, bound=bound)
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
        levels = build_relaxed_levels(r - 1, m, bound, cap)
    if len(levels) < r:
        raise ParameterError(f"need level graphs 0..{r - 1}")

    chains = [source_chain(cl, levels[:r]) for cl in classes]
    # chains[k][0] is the class itself at level r; chains[k][r - i] is S_i
    level_sets = [
        [chains[k][r - i] for k in range(c)] for i in range(r + 1)
    ]

    clique = _first_uncovered(levels[0].vertices, level_sets[0], r * d + 1, 1)
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
    centered at x, that is, `_blocking_set` finds none.  With d = 0 this is
    exactly the plain source notion.  `within` must hold colors in [1, m]."""
    _need_ints(m=m, d=d)
    if d < 0:
        raise ParameterError("need d >= 0")
    within = range(1, m + 1) if within is None else list(within)
    outside = [w for w in within if type(w) is not int or not 1 <= w <= m]
    if outside:
        raise ParameterError(f"within colors {outside} are not integers in [1, {m}]")
    within = sorted(set(within))
    return _source_sets(within, [_color_cover(class_nodes, m, d)], d)[0]


def uncovered_defective_node(classes, m: int, delta: int, d: int, kind=None) -> View:
    """A one-round vertex outside every class of a family of at most
    delta^2 / (4(d+1)^2) classes of center defect at most d, for
    m >= 2*delta^2.

    The center defect of a class (`_center_defect`) is the most distinct
    centers among the members adjacent to one member; it is at most the
    induced degree, so every d-defective class qualifies, and so does
    {(1,{2}), (2,{1,3}), (2,{1,4})} at d = 1, of induced degree 2.  It
    is what the counting needs: d+2 (d, W)-sources x_0..x_{d+1} inside a
    clique W would put a member (x_0, A) with x_1..x_{d+1} in A, and x_0
    in every cover(x_i), so that member would meet d+1 distinct centers.
    Runs `_one_round_node` on the class covers and member sets: at most
    d+1 (d, W)-sources per class inside any clique of colors, and each
    owning class is blocked by its first blocking set, of size <= d+1.
    """
    _need_ints(m=m, delta=delta, d=d)
    if delta < 1:
        raise ParameterError(f"need delta >= 1, got delta={delta}")
    classes = [list(cl) for cl in classes]
    c = len(classes)
    if d < 0:
        raise ParameterError("need d >= 0")
    if 4 * c * (d + 1) * (d + 1) > delta * delta:
        raise ParameterError(f"need c <= delta^2/(4(d+1)^2), got c={c}")
    if m < 2 * delta * delta:
        raise ParameterError(f"need m >= 2*delta^2 = {2 * delta * delta}, got m={m}")
    # only blocking sets of two or more colors read the members; at d = 0
    # the cover alone decides the center defect
    forms = [_color_cover(cl, m, d) for cl in classes]
    for k, (cover, sets) in enumerate(forms):
        if _center_defect(cover, sets) > d:
            raise ParameterError(f"class {k} has a member meeting more than d={d} distinct centers")
    return _one_round_node(classes, kind, m, delta, d, forms)


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
    if not 0 < C < math.inf:
        raise ParameterError(f"C must be positive and finite, got {C}")
    _need_ints(delta=delta)
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    try:
        d_cubed = 2 * C * delta ** (2 + eta)
    except OverflowError:
        d_cubed = math.inf
    if d_cubed == math.inf:
        raise ParameterError(f"2C delta^(2+eta) overflows a float at C={C}, delta={delta}")
    t = delta ** (1 - eta) / (16 * C)
    if t == math.inf:
        raise ParameterError(f"delta^(1-eta)/(16C) overflows a float at C={C}, delta={delta}")
    D = d_cubed ** (1.0 / 3.0)
    r_real = t ** (1.0 / 3.0)
    # r**3 is an int, so r**3 <= t + 1e-9 exactly when r**3 <= its floor,
    # whose integer root is exact also at the cubes a float root misses
    r = _iroot(math.floor(t + 1e-9), 3)
    palette = C * delta ** (1 + eta)
    m_threshold = math.ceil(2 * C * delta ** (1 + eta))
    threshold_ok = D / 2 + 1 <= palette
    return BoundReport(delta, C, eta, D, r_real, r, m_threshold, threshold_ok)


# --- seeded family generators (suite instrumentation) ----------------------

def random_independent_sets(graph: NbhdGraph, count: int, seed: int) -> list[frozenset[View]]:
    """Greedy independent sets over seeded random vertex orders."""
    _need_ints(count=count)
    if count < 0:
        raise ParameterError(f"need count >= 0, got {count}")
    bits = _seeded(seed)
    out = []
    n, rows = graph.n_vertices, graph.adjacency
    # multiset false twins share one row object (nbhd._wire), so a row
    # met again blocks nothing new; set hosts share no rows
    twins = graph.variant == MULTISET
    for _ in range(count):
        order = list(range(n))
        _shuffle(bits, order)
        blocked = set()
        chosen = []
        met = set()
        for i in order:
            if i in blocked:
                continue
            chosen.append(i)
            row = rows[i]
            if twins:
                if id(row) in met:
                    continue
                met.add(id(row))
            blocked.update(row)
        out.append(frozenset(map(graph.vertices.__getitem__, chosen)))
    return out


def random_defective_classes(m: int, delta: int, d: int, count: int,
                             seed: int) -> list[list[View]]:
    """Random d-defective classes of one-round multiset vertices, sampled
    without materializing the host graph (its vertex set explodes with m).

    Draws are checked on colors: (x, A) touches a member (y, B) iff y is in
    A and x is in B, so members are indexed by center color and a View is
    built only for an accepted draw."""
    _need_ints(m=m, delta=delta, d=d, count=count)
    if m < 1 or min(delta, d, count) < 0:
        raise ParameterError(f"need m >= 1 and delta, d, count >= 0, got m={m}, "
                             f"delta={delta}, d={d}, count={count}")
    bits = _seeded(seed)
    leaves = {c: View.leaf(MULTISET, c) for c in range(1, m + 1)}
    others = range(1, m)
    out = []
    for _ in range(count):
        members: list[View] = []
        by_center: dict[int, list[tuple]] = {}
        degrees: dict[tuple, int] = {}
        for _ in range(4 * m):
            x = 1 + _below(bits, m)
            size = _below(bits, delta + 1)
            # the same draws as sampling the list of the colors other than x
            a = frozenset(y + (y >= x) for y in _sample(bits, others, min(size, m - 1)))
            key = (x, a)
            if key in degrees:
                continue
            touching = [u for y in a for u in by_center.get(y, ()) if x in u[1]]
            if len(touching) > d or any(degrees[u] + 1 > d for u in touching):
                continue
            members.append(View.make(MULTISET, leaves[x], map(leaves.__getitem__, a)))
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
    _need_ints(size=size, bound=bound)
    if size < 0 or bound < 0:
        raise ParameterError(f"need size, bound >= 0, got size={size}, bound={bound}")
    if not levels:
        raise ParameterError("need at least one built level")
    top = levels[-1]
    if not top.n_vertices:
        raise ParameterError("need a top level with at least one vertex")
    bits = _seeded(seed)
    vertices, rows = top.vertices, top.adjacency
    chosen: set[View] = set()
    keys: set = set()
    for _ in range(size * 8):
        if len(chosen) >= size:
            break
        i = _below(bits, top.n_vertices)
        x, row = vertices[i], rows[i]
        # sampling the row's indices draws what sampling its views would
        k = _below(bits, min(bound, len(row)) + 1)
        node = View.make(SET, x, map(vertices.__getitem__, _sample(bits, row, k)))
        # node = (x, A) publishes (x, y) for y in A; a repeated draw is
        # either rejected here or adds nothing to the set
        if any((y, x) in keys for y in node.child_lookup):
            continue
        chosen.add(node)
        keys.update((x, y) for y in node.child_lookup)
    return frozenset(chosen)

"""Neighborhood graph families, accessors, and homomorphisms."""

import math
from dataclasses import FrozenInstanceError
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorreduce import (BOTTOM, CapExceededError, ColoredGraph, GraphError, HomMap,
                         MULTISET, SET, NbhdGraph, ParameterError, View, build_local1,
                         build_relaxed, build_relaxed_levels, build_setlocal,
                         build_typed, build_typed_levels, canonical_encode,
                         center, chi_exact, class_defect, extract_all_views,
                         is_independent, mutual_edge, relaxed_to_typed_hom,
                         typed_to_setlocal_hom, types, verify_homomorphism)
from colorreduce.graphs import _Rows
from colorreduce.nbhd import (DEFAULT_CAP, SETLOCAL, TYPED, _build_levels, _finish,
                              _wire, centers_of)

from conftest import run_python


def leaf(kind, c):
    return View.leaf(kind, c)


def node(kind, x, children):
    return View.make(kind, leaf(kind, x), [leaf(kind, c) for c in children])


def oracle_local1_count(m, delta, multiset):
    """Direct enumeration, independent of the builder."""
    total = 0
    for x in range(1, m + 1):
        others = [c for c in range(1, m + 1) if c != x]
        chooser = combinations_with_replacement if multiset else combinations
        for k in range(delta + 1):
            total += sum(1 for _ in chooser(others, k))
    return total


def oracle_local1_vertices(m, delta, variant):
    """The one-round vertices (x, A) enumerated directly over the colors,
    in color order, without the level builder."""
    leaves = {c: View.leaf(variant, c) for c in range(1, m + 1)}
    vertices = []
    for x in range(1, m + 1):
        others = [leaves[c] for c in range(1, m + 1) if c != x]
        chooser = combinations_with_replacement if variant == MULTISET else combinations
        for k in range(delta + 1):
            for combo in chooser(others, k):
                vertices.append(View.make(variant, leaves[x], combo))
    return vertices


@pytest.mark.parametrize("m,delta", [(3, 2), (4, 2), (5, 3), (6, 4), (7, 4), (10, 3)])
@pytest.mark.parametrize("variant", [SET, MULTISET])
def test_local1_matches_direct_enumeration(m, delta, variant):
    # from m = 10 on, "S0(10)" sorts before "S0(2)": the builder walks
    # leaves in encoding order, the oracle in color order
    g = build_local1(m, delta, variant)
    listed = oracle_local1_vertices(m, delta, variant)
    assert len(set(listed)) == len(listed) == oracle_local1_count(m, delta, variant == MULTISET)
    ordered = tuple(sorted(listed, key=canonical_encode))
    assert g.vertices == ordered
    assert g.adjacency == _wire(ordered, g.n_edges)
    assert (g.family, g.level, g.degree_param, g.variant) == ("local1", 1, delta, variant)


def test_cap_refusal_says_upper_bound_only_where_filtered():
    # unfiltered levels walk exactly the collections they keep
    for build, built in ((lambda cap: build_local1(7, 4, MULTISET, cap=cap), 1470),
                         (lambda cap: build_local1(7, 4, SET, cap=cap), 399),
                         (lambda cap: build_relaxed(2, 3, 2, cap=cap), 60),
                         (lambda cap: build_setlocal(1, 4, 3, cap=cap), 32)):
        assert build(DEFAULT_CAP).n_vertices == built
        with pytest.raises(CapExceededError) as err:
            build(built - 1)
        assert err.value.projected == built
        assert "vertices" in str(err.value) and "upper bound" not in str(err.value)
    # the type filter drops some of what the projection counts
    assert build_setlocal(2, 3, 3).n_vertices < 72
    with pytest.raises(CapExceededError) as err:
        build_setlocal(2, 3, 3, cap=71)
    assert err.value.projected == 72
    assert "vertices (upper bound)" in str(err.value)
    # typed is cut from setlocal's levels, so setlocal's projection and
    # error refuse it: exact at level 1, "(upper bound)" above
    for r, m, d, cap in ((1, 4, 3, 31), (3, 3, 2, 248)):
        refusals = []
        for build in (build_typed, build_setlocal):
            with pytest.raises(CapExceededError) as err:
                build(r, m, d, cap=cap)
            refusals.append((err.value.projected, str(err.value)))
        assert refusals[0] == refusals[1]
        assert refusals[0][0] == cap + 1
        assert ("(upper bound)" in refusals[0][1]) == (r > 1)
    assert build_typed(3, 3, 2, cap=249).n_vertices == 108


def test_local1_counts():
    assert oracle_local1_count(3, 2, True) == 18
    assert build_local1(3, 2, MULTISET).n_vertices == 18
    assert oracle_local1_count(3, 2, False) == 12
    assert build_local1(3, 2, SET).n_vertices == 12


def test_local1_triangle_edges():
    g = build_local1(3, 2, SET)
    tri = [node(SET, 1, [2, 3]), node(SET, 2, [1, 3]), node(SET, 3, [1, 2])]
    idx = [g.vertex_index(v) for v in tri]
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            assert b in g.adjacency[a]


def test_local1_cap_exceeded_names_projection():
    with pytest.raises(CapExceededError) as err:
        build_local1(50, 10, MULTISET, cap=1000)
    assert err.value.projected > 1000


@pytest.mark.parametrize("cap", [1.5, -1, True, "9"])
@pytest.mark.parametrize("build", [
    lambda cap: build_local1(4, 2, MULTISET, cap=cap),
    lambda cap: build_setlocal(1, 3, 2, cap=cap),
    lambda cap: build_relaxed_levels(0, 3, 2, cap=cap),
    lambda cap: build_typed(1, 3, 2, cap=cap),
    lambda cap: typed_to_setlocal_hom(1, 3, 2, cap=cap),
    lambda cap: relaxed_to_typed_hom(1, 3, 2, cap=cap),
], ids=["local1", "setlocal", "relaxed", "typed", "typed->setlocal", "relaxed->typed"])
def test_caps_must_be_ints_at_least_zero(build, cap):
    with pytest.raises(ParameterError, match="cap must be an integer >= 0"):
        build(cap)


def test_relaxed_and_typed_base_cases():
    for build in (build_relaxed, build_typed):
        g = build(0, 4, 2)
        assert g.n_vertices == 4
        assert g.n_edges == 6  # complete graph


def test_relaxed_level1_equals_local1_set():
    a = build_relaxed(1, 3, 2)
    b = build_local1(3, 2, SET)
    assert a.vertices == b.vertices
    assert a.adjacency == b.adjacency


def test_typed_level1_excludes_empty_sets():
    g = build_typed(1, 3, 2)
    assert g.n_vertices == 9
    assert all(v.child_size >= 1 for v in g.vertices)


def test_typed_vertices_subset_of_relaxed_with_induced_edges():
    nt = build_relaxed(2, 3, 2)
    ntilde = build_typed(2, 3, 2)
    assert set(ntilde.vertices) <= set(nt.vertices)
    nt_edges = {frozenset((nt.vertices[i], nt.vertices[j])) for i, j in nt.edges()}
    for i, j in ntilde.edges():
        assert frozenset((ntilde.vertices[i], ntilde.vertices[j])) in nt_edges
    # restriction is induced: any relaxed edge between typed vertices survives
    typed_set = set(ntilde.vertices)
    for i, j in nt.edges():
        u, v = nt.vertices[i], nt.vertices[j]
        if u in typed_set and v in typed_set:
            assert ntilde.vertex_index(v) in ntilde.adjacency[ntilde.vertex_index(u)]


def oracle_typed_levels(r, m, d):
    """Levels 0..r of typed as its own filtered expansion: level i+1
    keeps the (x, A), A at most d of x's level-i neighbors, with
    centers_of(A) == types(x), sorted and wired by _finish."""
    levels = [_finish(TYPED, m, d, 0, SET, [leaf(SET, c) for c in range(1, m + 1)],
                      DEFAULT_CAP)]
    for level in range(1, r + 1):
        prev, vertices = levels[-1], []
        for x, row in zip(prev.vertices, prev.adjacency):
            nbrs = [prev.vertices[j] for j in row]
            for k in range(d + 1):
                vertices += [View.make(SET, x, combo) for combo in combinations(nbrs, k)
                             if centers_of(combo) == types(x)]
        levels.append(_finish(TYPED, m, d, level, SET, vertices, DEFAULT_CAP))
    return levels


@pytest.mark.parametrize("r,m,d", [(1, 3, 2), (1, 4, 2), (2, 3, 2), (2, 4, 3), (3, 3, 2),
                                   (2, 5, 2), (3, 4, 2), (2, 4, 2), (1, 4, 3), (2, 3, 3)])
def test_typed_levels_match_filtered_expansion_oracle(r, m, d):
    built = build_typed_levels(r, m, d)
    # NbhdGraph equality compares family, m, degree_param, level, variant,
    # vertices and rows
    assert built == oracle_typed_levels(r, m, d)
    # setlocal holds m more vertices per level >= 1, isolated with empty A
    for typed, setlocal in zip(built, _build_levels(SETLOCAL, r, m, d, DEFAULT_CAP)):
        isolated = [i for i, v in enumerate(setlocal.vertices) if not typed.has_vertex(v)]
        assert len(isolated) == (m if typed.level else 0)
        assert setlocal.n_vertices == typed.n_vertices + len(isolated)
        for i in isolated:
            assert setlocal.vertices[i].child_size == 0 and setlocal.adjacency[i] == ()


@pytest.mark.parametrize("build,args", [
    (build_setlocal, (1.5, 3, 2)), (build_setlocal, (1, 3, True)),
    (build_local1, (5, 2.5)), (build_local1, ("5", 2)), (build_relaxed, (1, 3.0, 2)),
    (build_relaxed_levels, (1, 3, None)), (build_typed, (True, 3, 2)),
    (build_typed_levels, (1, 3, "2")),
])
def test_builders_refuse_non_integer_parameters(build, args):
    with pytest.raises(ParameterError):
        build(*args)


def test_edge_rule_symmetry_and_same_center_non_adjacency():
    for g in (build_local1(4, 2, MULTISET), build_relaxed(2, 3, 2), build_setlocal(2, 3, 2)):
        for i, j in g.edges():
            u, v = g.vertices[i], g.vertices[j]
            assert mutual_edge(u, v) == mutual_edge(v, u)
            if g.level >= 1:
                assert center(u) is not center(v)


def test_setlocal_level_zero_is_clique():
    g = build_setlocal(0, 5, 3)
    assert g.n_vertices == 5 and g.n_edges == 10


def test_setlocal_level1_includes_empty_views():
    g = build_setlocal(1, 3, 2)
    assert g.n_vertices == 12
    empties = [v for v in g.vertices if v.child_size == 0]
    assert len(empties) == 3
    # isolated-node views are never co-realizable at an edge
    for v in empties:
        assert g.adjacency[g.vertex_index(v)] == ()


def test_setlocal_monotone_in_delta():
    small = build_setlocal(1, 4, 2)
    large = build_setlocal(1, 4, 3)
    assert set(small.vertices) <= set(large.vertices)


def oracle_setlocal_recursive(r, m, delta):
    """Level-by-level characterization: level 1 is unconstrained; level
    i+1 >= 2 keeps (x, A) iff the children of x are exactly the centers
    of A.  Edges by mutual membership.  Independent of tree enumeration."""
    vertices = [leaf(SET, c) for c in range(1, m + 1)]
    adj = {v: {u for u in vertices if u is not v} for v in vertices}
    for level in range(1, r + 1):
        nxt = []
        for x in vertices:
            nbrs = sorted(adj[x], key=lambda v: v.digest)
            for k in range(min(delta, len(nbrs)) + 1):
                for combo in combinations(nbrs, k):
                    if level >= 2 and frozenset(x.child_lookup) != frozenset(c.inner for c in combo):
                        continue
                    nxt.append(View.make(SET, x, combo))
        vertices = nxt
        adj = {
            v: {u for u in vertices if mutual_edge(u, v)}
            for v in vertices
        }
    edges = set()
    for v, nbrs in adj.items():
        for u in nbrs:
            edges.add(frozenset((u, v)))
    return set(vertices), edges


def test_setlocal_matches_recursive_oracle():
    for r, m, delta in ((1, 3, 2), (2, 3, 2), (1, 4, 2), (2, 4, 2), (2, 3, 3)):
        built = build_setlocal(r, m, delta)
        vertices, edges = oracle_setlocal_recursive(r, m, delta)
        assert set(built.vertices) == vertices
        built_edges = {
            frozenset((built.vertices[i], built.vertices[j])) for i, j in built.edges()
        }
        assert built_edges == edges


def oracle_multiset_trees(m, delta, depth, budget, forbidden):
    """Every rooted colored tree, repeated identical sibling subtrees
    included, as nested (color, (children...)) tuples."""
    colors = [c for c in range(1, m + 1) if c != forbidden]
    if depth == 0:
        return [(c, ()) for c in colors]
    out = []
    for c in colors:
        subtrees = oracle_multiset_trees(m, delta, depth - 1, delta - 1, c)
        for k in range(budget + 1):
            out.extend((c, combo) for combo in combinations_with_replacement(subtrees, k))
    return out


def oracle_tree_graph(trees, m, delta):
    """Materialize nested-tuple trees as one ColoredGraph, with an edge
    between their roots when two are given; returns (graph, roots)."""
    psi, edges = [], []

    def add(node, parent):
        idx = len(psi)
        psi.append(node[0])
        if parent is not None:
            edges.append((parent, idx))
        for child in node[1]:
            add(child, idx)
        return idx

    roots = [add(t, None) for t in trees]
    if len(roots) == 2:
        edges.append(tuple(roots))
    return ColoredGraph.from_edges(len(psi), edges, psi, m, delta), roots


def oracle_setlocal_brute_force(r, m, delta):
    """Views extracted from every materialized multiset tree and from every
    joined pair of trees; sorted canonically, edges by realizability."""
    vertex_views = set()
    for tree in oracle_multiset_trees(m, delta, r, delta, None):
        g, (root,) = oracle_tree_graph([tree], m, delta)
        vertex_views.add(extract_all_views(g, r, SET)[root])
    hangs = oracle_multiset_trees(m, delta, r, delta - 1, None)
    pairs = set()
    for tu in hangs:
        for tv in hangs:
            if tu[0] != tv[0]:
                g, (ru, rv) = oracle_tree_graph([tu, tv], m, delta)
                views = extract_all_views(g, r, SET)
                pairs.add((views[ru], views[rv]))
    vertices = sorted(vertex_views, key=canonical_encode)
    index = {v: i for i, v in enumerate(vertices)}
    nbrs = [set() for _ in vertices]
    for u, v in pairs:
        nbrs[index[u]].add(index[v])
        nbrs[index[v]].add(index[u])
    return vertices, [sorted(s) for s in nbrs]


@pytest.mark.parametrize("r,m,delta", [(1, 3, 2), (1, 5, 3), (2, 3, 2), (2, 4, 2), (2, 3, 3)])
def test_setlocal_matches_brute_force_oracle(r, m, delta):
    built = build_setlocal(r, m, delta)
    vertices, adjacency = oracle_setlocal_brute_force(r, m, delta)
    assert [canonical_encode(v) for v in built.vertices] == [canonical_encode(v) for v in vertices]
    assert [list(nbrs) for nbrs in built.adjacency] == adjacency


@pytest.mark.parametrize("r,m,delta,n_vertices,n_edges", [
    (2, 4, 3, 1196, 26934),
    (3, 3, 3, 1410, 25392),
    (4, 3, 2, 411, 768),
    (4, 4, 2, 13288, 39366),
])
def test_setlocal_reaches_2_4_3(r, m, delta, n_vertices, n_edges):
    g = build_setlocal(r, m, delta)
    assert (g.n_vertices, g.n_edges) == (n_vertices, n_edges)


def oracle_rooted_trees(m, delta, depth, budget, forbidden, memo):
    """All set-reduced rooted colored trees as nested (color, (children...))
    tuples: no node has two identical child subtrees.

    depth bounds the distance from the root, budget the root's child
    count; non-root nodes keep one degree slot for their parent.  The
    forbidden color (the parent's) keeps colorings proper.
    """
    key = (depth, budget, forbidden)
    got = memo.get(key)
    if got is not None:
        return got
    colors = [c for c in range(1, m + 1) if c != forbidden]
    out = []
    if depth == 0:
        out = [(c, ()) for c in colors]
    else:
        for c in colors:
            subtrees = oracle_rooted_trees(m, delta, depth - 1, delta - 1, c, memo)
            for k in range(budget + 1):
                for combo in combinations(subtrees, k):
                    out.append((c, combo))
    out = tuple(out)
    memo[key] = out
    return out


def oracle_setlocal_joined_trees(r, m, delta):
    """Vertices as the root r-views of set-reduced trees (root degree <=
    delta), edges as the pairing of set-reduced hang trees (root degree
    <= delta-1): join every two roots of different colors and read both
    roots' r-views off the joined tree, memoized top-down."""
    leaves = {c: leaf(SET, c) for c in range(1, m + 1)}
    memo, tree_memo = {}, {}

    def hang(t, k, p):
        if k == 0:
            return leaves[t[0]]
        if (t, k, p) not in memo:
            own = hang(t, k - 1, None if p is None else p.inner)
            nbrs = [hang(c, k - 1, own.inner) for c in t[1]]
            memo[t, k, p] = View.make(SET, own, nbrs + ([] if p is None else [p]))
        return memo[t, k, p]

    roots = oracle_rooted_trees(m, delta, r, delta, None, tree_memo)
    vertices = {hang(t, r, None) for t in roots}
    hangs = oracle_rooted_trees(m, delta, r, delta - 1, None, tree_memo)
    edges = set()
    for tu in hangs:
        for tv in hangs:
            if tu[0] != tv[0]:
                vu, vv = leaves[tu[0]], leaves[tv[0]]
                for k in range(1, r + 1):
                    vu, vv = hang(tu, k, vv), hang(tv, k, vu)
                edges.add(frozenset((vu, vv)))
    return vertices, edges


@pytest.mark.parametrize("r,m,delta", [(2, 4, 3), (2, 5, 2), (3, 3, 2), (3, 4, 2)])
def test_setlocal_edges_match_joined_tree_oracle(r, m, delta):
    built = build_setlocal(r, m, delta)
    vertices, edges = oracle_setlocal_joined_trees(r, m, delta)
    assert set(built.vertices) == vertices
    built_edges = {frozenset((built.vertices[i], built.vertices[j])) for i, j in built.edges()}
    assert built_edges == edges


@pytest.mark.parametrize("m,delta,n_edges", [(4, 3, 26934), (4, 4, 322944), (5, 3, 1436410)])
def test_setlocal_two_rounds_vertex_closed_form(m, delta, n_edges):
    """m * sum_{k<=delta} C(n1, k) realizable 2-views, where n1 =
    (m-1) * sum_{j<=delta-1} C(m-2, j) counts the 1-views a neighbor of a
    given color can show."""
    n1 = (m - 1) * sum(math.comb(m - 2, j) for j in range(delta))
    g = build_setlocal(2, m, delta)
    assert g.n_vertices == m * sum(math.comb(n1, k) for k in range(delta + 1))
    assert g.n_edges == n_edges


def test_setlocal_cap_projects_level_vertices():
    # the 12 level-1 vertices have 0, 2 or 4 neighbors (3, 6 and 3 of
    # them); the bound counts every subset of at most 3 neighbors,
    # before the type filter: 3*1 + 6*4 + 3*15
    with pytest.raises(CapExceededError) as err:
        build_setlocal(2, 3, 3, cap=50)
    assert err.value.projected == 72
    assert "level-2 vertices" in str(err.value)


def test_edge_cap_bounds_wiring():
    assert build_local1(5, 3, MULTISET).n_vertices == 175
    with pytest.raises(CapExceededError) as err:
        build_local1(5, 3, MULTISET, cap=200)
    assert err.value.projected > 200
    assert "edges" in str(err.value)


def test_edge_cap_refuses_within_one_row(host_7_4):
    # 1,470 vertices are over a cap of 1,000 before any row is wired
    with pytest.raises(CapExceededError) as err:
        build_local1(7, 4, MULTISET, cap=1000)
    assert err.value.projected == 1470 and "vertices" in str(err.value)
    # at 2,000 the vertices fit and the 148,176 edges do not; the cap is
    # checked after each row, so the count passes it by at most one row
    with pytest.raises(CapExceededError) as err:
        build_local1(7, 4, MULTISET, cap=2000)
    assert "edges" in str(err.value)
    assert 2000 < err.value.projected
    assert 2 * err.value.projected <= 2 * 2000 + 1 + host_7_4.max_degree()
    # local1(10,5): 20,020 vertices fit the default cap, 23,005,125 edges do not
    with pytest.raises(CapExceededError) as err:
        build_local1(10, 5, MULTISET)
    assert "edges" in str(err.value)


def test_nbhd_graph_is_frozen():
    g = build_setlocal(1, 3, 2)
    with pytest.raises(FrozenInstanceError):
        g.adjacency = ()
    with pytest.raises(TypeError):
        g._index[g.vertices[0]] = 1
    assert g.vertex_index(g.vertices[-1]) == g.n_vertices - 1


def test_nbhd_graph_freezes_and_checks_given_rows():
    a, b = leaf(SET, 1), leaf(SET, 2)
    g = NbhdGraph("x", 2, 1, 0, SET, [a, b], [[1], [0]])
    assert type(g.vertices) is tuple and g.adjacency == ((1,), (0,))
    assert all(type(row) is tuple for row in g.adjacency)
    for rows, problem in [([[1], []], "listed only"), ([[5], [0]], "outside"),
                          ([[0], []], "self-loop"), ([[1, 1], [0]], "ascending"),
                          ([[1], [0], []], "3 rows")]:
        with pytest.raises(GraphError, match=problem):
            NbhdGraph("x", 2, 1, 0, SET, [a, b], rows)
    with pytest.raises(GraphError, match="ascending"):
        NbhdGraph("x", 3, 1, 0, SET, [a, b, leaf(SET, 3)], [[2, 1], [0], [0]])


def test_nbhd_graph_checks_vertices_given_with_rows():
    a, b, c = leaf(SET, 1), leaf(SET, 2), leaf(SET, 3)
    deep = node(SET, 1, [2])
    for vertices, problem in [([a, a], "vertex 1 repeats vertex 0"),
                              ([a, b, a], "vertex 2 repeats vertex 0"),
                              ([b, a], "vertex 1 is out of canonical order"),
                              ([a, c, b], "vertex 2 is out of canonical order"),
                              ([a, deep], "vertex 1 has depth 1, vertex 0 has depth 0")]:
        rows = [[1], [0]] + [[]] * (len(vertices) - 2)
        with pytest.raises(GraphError, match=problem):
            NbhdGraph("x", 3, 1, 0, SET, vertices, rows)
    assert NbhdGraph("x", 3, 1, 0, SET, [a, b, c], [[1], [0], []]).vertex_index(c) == 2
    # a builder's rows (_Rows) vouch for its vertices: nothing is checked
    g = NbhdGraph("x", 2, 1, 0, SET, [b, a], _Rows(((1,), (0,))))
    assert g.vertices == (b, a)


def test_adjacency_matches_pairwise_edge_rule():
    graphs = [build_local1(4, 2, MULTISET), build_local1(4, 2, SET),
              build_local1(5, 3, MULTISET), build_local1(5, 3, SET),
              *build_relaxed_levels(2, 3, 2), *build_typed_levels(2, 3, 2),
              build_setlocal(2, 3, 3)]
    assert [g.level for g in graphs] == [1, 1, 1, 1, 0, 1, 2, 0, 1, 2, 2]
    for g in graphs:
        pairwise = tuple(
            tuple(j for j, v in enumerate(g.vertices) if mutual_edge(u, v))
            for u in g.vertices
        )
        assert g.adjacency == pairwise, (g.family, g.level)
        assert g.n_edges > 0


# --- the key-indexed rows against the candidate scan they replaced ----------

def oracle_adjacent_positions(nodes):
    """Ordered pairs (i, j), i != j, of list positions whose members are
    joined by the edge rule, found through an index of positions by
    center and a membership test per candidate.  Duplicate entries pair
    up like any other positions."""
    leaves, by_center = [], {}
    for i, u in enumerate(nodes):
        if u.depth == 0:
            leaves.append(i)
        else:
            by_center.setdefault(u.inner, []).append(i)
    for i in leaves:
        for j in leaves:
            if nodes[i] is not nodes[j]:
                yield i, j
    for i, u in enumerate(nodes):
        if u.depth == 0:
            continue
        x = u.inner
        for child in u.child_lookup:
            for j in by_center.get(child, ()):
                if j != i and x in nodes[j].child_lookup:
                    yield i, j


def oracle_class_defect(nodes):
    degree = [0] * len(nodes)
    for i, j in oracle_adjacent_positions(nodes):
        if nodes[i] is not nodes[j]:
            degree[i] += 1
    return max(degree, default=0)


# two colors' worth of depth-1 vertices per kind, among them (1, {1, 2})
# and (2, {2}), whose centers are among their own children; depth-2
# members draw on them, so they meet often enough to test the rule
_DEPTH1 = {kind: [node(kind, 1, [2]), node(kind, 2, [1]), node(kind, 1, [1, 2]),
                  node(kind, 2, [2]), node(kind, 3, [1, 2])]
           for kind in (SET, MULTISET)}


def _members(kind):
    leaves = st.integers(1, 3).map(lambda c: leaf(kind, c))
    depth1 = st.builds(lambda x, a: View.make(kind, x, a), leaves,
                       st.lists(leaves, max_size=3))
    pool = st.sampled_from(_DEPTH1[kind])
    depth2 = st.builds(lambda x, a: View.make(kind, x, a), pool,
                       st.lists(pool, max_size=3))
    return st.one_of(leaves, depth1, pool, depth2)


@st.composite
def member_lists(draw):
    nodes = draw(st.lists(st.one_of(_members(SET), _members(MULTISET)), max_size=16))
    if nodes:
        nodes += draw(st.lists(st.sampled_from(nodes), max_size=4))
    if draw(st.booleans()):
        nodes.append(node(SET, 1, [1, 2]))
    return draw(st.permutations(nodes))


@settings(max_examples=300, deadline=None)
@given(member_lists(), st.integers(0, 60))
def test_key_rows_and_class_checks_match_oracle(nodes, cap):
    expected = [[] for _ in nodes]
    for i, j in oracle_adjacent_positions(nodes):
        expected[i].append(j)
    expected = tuple(tuple(sorted(js)) for js in expected)
    edges = sum(map(len, expected)) // 2
    assert _wire(nodes, edges) == expected
    if cap < edges:
        with pytest.raises(CapExceededError):
            _wire(nodes, cap)
    else:
        assert _wire(nodes, cap) == expected
    assert is_independent(nodes) == (edges == 0)
    assert class_defect(nodes) == oracle_class_defect(nodes)


def test_multiset_twins_share_one_row(host_7_4):
    # (x, A) and (x, A') with the same support have one neighbourhood;
    # the 7 empty supports share the one empty tuple, so 399 keys give
    # 393 row objects
    rows = host_7_4.adjacency
    by_key = {}
    for v, row in zip(host_7_4.vertices, rows):
        by_key.setdefault((v.inner, frozenset(v.child_lookup)), set()).add(id(row))
    assert len(by_key) == 399 and all(len(ids) == 1 for ids in by_key.values())
    distinct = {id(row): row for row in rows}
    assert len(rows) == 1470 and sum(map(len, rows)) == 296_352
    assert len(distinct) == 393 and sum(map(len, distinct.values())) == 91_728


@pytest.mark.parametrize("m,delta", [(4, 2), (5, 3)])
@pytest.mark.parametrize("variant", [SET, MULTISET])
def test_local1_rows_match_the_candidate_scan(m, delta, variant):
    g = build_local1(m, delta, variant)
    expected = [[] for _ in g.vertices]
    for i, j in oracle_adjacent_positions(g.vertices):
        expected[i].append(j)
    assert g.adjacency == tuple(tuple(sorted(js)) for js in expected)


def test_local1_74_rows_and_masks_stay_small():
    # a child process, so that everything traced is this build's; views
    # and their encodings are left out.  Rows held per vertex and one
    # mask per vertex took about 3.05 MB
    script = (
        "import tracemalloc\n"
        "from colorreduce import MULTISET, build_local1, views\n"
        "tracemalloc.start()\n"
        "host = build_local1(7, 4, MULTISET)\n"
        "host.adjacency.masks\n"
        "snap = tracemalloc.take_snapshot().filter_traces(\n"
        "    [tracemalloc.Filter(False, views.__file__)])\n"
        "print(sum(s.size for s in snap.statistics('filename')))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1_500_000


def test_center_and_types_accessors():
    v = node(SET, 1, [2, 3])
    assert center(v) is leaf(SET, 1)
    assert types(leaf(SET, 1)) == frozenset({BOTTOM})
    assert center(leaf(SET, 5)) is BOTTOM
    a = {node(SET, 1, [2]), node(SET, 1, [3])}
    assert {center(x) for x in a} == {leaf(SET, 1)}


def test_hom_h_level_zero_identity():
    hom = typed_to_setlocal_hom(0, 3, 2)
    assert verify_homomorphism(hom).ok
    assert all(hom.mapping[v] is v for v in hom.domain.vertices)


def test_hom_h_level1_bijection_onto_nonempty():
    hom = typed_to_setlocal_hom(1, 3, 2)
    assert verify_homomorphism(hom).ok
    image = set(hom.mapping.values())
    assert len(image) == 9
    nonempty = {v for v in hom.codomain.vertices if v.child_size >= 1}
    assert image == nonempty


@pytest.mark.parametrize("r,m,d", [(1, 3, 2), (1, 4, 2), (2, 3, 2), (2, 4, 3), (3, 3, 2)])
def test_hom_h_verified(r, m, d):
    hom = typed_to_setlocal_hom(r, m, d)
    report = verify_homomorphism(hom)
    assert report.ok
    assert all(hom.mapping[v] is v for v in hom.domain.vertices)  # the inclusion


@pytest.mark.parametrize("r,m,d,chi,expansions", [(2, 4, 3, 4, 33), (3, 3, 2, 3, 0)])
def test_hom_h_chi_monotone(r, m, d, chi, expansions):
    # typed embeds in setlocal, so chi(typed) <= chi(setlocal); here the
    # two are equal and both solved exactly
    hom = typed_to_setlocal_hom(r, m, d)
    for graph in (hom.domain, hom.codomain):
        res = chi_exact(graph)
        assert (res.lower, res.upper, res.exact, res.expansions_used) == (chi, chi, True, expansions)


def test_hom_f_level_zero_identity():
    hom = relaxed_to_typed_hom(0, 3, 1)
    assert verify_homomorphism(hom).ok
    assert all(hom.mapping[v] is v for v in hom.domain.vertices)


def test_hom_f_no_fill_up_needed():
    hom = relaxed_to_typed_hom(1, 3, 1)
    v = node(SET, 1, [2])
    assert hom.mapping[v] is v  # (1,{2}) keeps its shape in the typed family


def test_hom_f_fills_empty_sets():
    hom = relaxed_to_typed_hom(1, 3, 1)
    v = View.make(SET, leaf(SET, 2), [])
    image = hom.mapping[v]
    assert image.child_size == 1  # one neighbor added to realize the bottom type
    assert image.inner is leaf(SET, 2)


@pytest.mark.parametrize("r,m,d", [(1, 3, 1), (1, 4, 2)])
def test_hom_f_verified(r, m, d):
    hom = relaxed_to_typed_hom(r, m, d)
    report = verify_homomorphism(hom)
    assert report.ok


def test_verify_reports_membership_violations():
    nt = build_relaxed(1, 3, 2)
    ntilde = build_typed(1, 3, 2)
    hom = HomMap(nt, ntilde, {v: v for v in nt.vertices}, name="identity")
    report = verify_homomorphism(hom)
    assert len(report.missing_images) == 3  # the empty-set vertices
    assert not report.ok


def test_verify_reports_vertices_left_without_image():
    g = build_relaxed(1, 3, 2)
    hom = HomMap(g, g, {g.vertices[0]: g.vertices[0]}, name="partial")
    report = verify_homomorphism(hom)
    assert report.missing_images == g.vertices[1:]
    # no edge is a loop, so every edge has an endpoint without an image
    assert len(report.broken_edges) == g.n_edges > 0
    assert not report.ok


def test_verify_reports_edge_violations():
    g = build_relaxed(1, 3, 2)
    target = build_relaxed(1, 3, 2)
    const = g.vertices[g.vertex_index(View.make(SET, leaf(SET, 1), [leaf(SET, 2)]))]
    hom = HomMap(g, target, {v: const for v in g.vertices}, name="constant")
    report = verify_homomorphism(hom)
    assert report.broken_edges  # a loop is not an edge
    assert not report.ok


def test_hom_map_is_immutable():
    hom = typed_to_setlocal_hom(1, 3, 2)
    with pytest.raises(FrozenInstanceError):
        hom.mapping = {}
    with pytest.raises(TypeError):
        hom.mapping[hom.domain.vertices[0]] = hom.domain.vertices[1]


def test_hom_report_is_immutable():
    report = verify_homomorphism(typed_to_setlocal_hom(1, 3, 2))
    assert report.ok and report.missing_images == () and report.broken_edges == ()
    with pytest.raises(FrozenInstanceError):
        report.broken_edges = ()


def test_chi_monotone_along_homomorphisms():
    pairs = [typed_to_setlocal_hom(1, 3, 2), relaxed_to_typed_hom(1, 3, 1)]
    for hom in pairs:
        lo = chi_exact(hom.domain)
        hi = chi_exact(hom.codomain)
        assert lo.exact and hi.exact
        assert lo.lower <= hi.lower

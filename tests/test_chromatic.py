"""Chromatic solver, clique bounds, DIMACS round trips."""

import random
import threading
import tracemalloc
from functools import cached_property

import pytest

from colorreduce import (MULTISET, SET, ConstructionError, ParameterError,
                         build_local1, build_relaxed, build_setlocal, chi_exact,
                         dsatur, embedded_clique, export_dimacs, greedy_clique,
                         is_k_colorable, random_colored_tree, read_dimacs)
from colorreduce.chromatic import (_Budget, _check_witness, _decide_k, _Rows,
                                   _search_k_coloring, as_adjacency,
                                   clique_lower_bound)

from conftest import run_python

TRIANGLE = [[1, 2], [0, 2], [0, 1]]


def brute_force_chi(adj):
    """Plain backtracking over vertices in index order, no heuristics."""
    n = len(adj)

    def colorable(k):
        colors = [0] * n

        def place(v):
            if v == n:
                return True
            for c in range(1, k + 1):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = 0
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def random_graph(n, p, seed):
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def seed_dsatur(adj):
    """The stand-alone saturation-greedy loop that dsatur() replaced."""
    n = len(adj)
    colors = [0] * n
    neighbor_colors = [set() for _ in range(n)]
    degree = [len(s) for s in adj]
    for _ in range(n):
        best, best_key = -1, None
        for v in range(n):
            if colors[v]:
                continue
            key = (len(neighbor_colors[v]), degree[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        c = 1
        while c in neighbor_colors[best]:
            c += 1
        colors[best] = c
        for u in adj[best]:
            neighbor_colors[u].add(c)
    return colors, max(colors, default=0)


def test_dsatur_matches_standalone_loop():
    graphs = [random_graph(seed % 41, (1 + seed % 9) / 10, seed) for seed in range(120)]
    graphs += [as_adjacency(build_local1(5, 3, MULTISET)), as_adjacency(build_local1(6, 4, MULTISET)),
               as_adjacency(build_relaxed(1, 5, 3))]
    assert any(not adj for adj in graphs)
    for adj in graphs:
        assert dsatur(adj) == seed_dsatur(adj)


def seed_search_k_coloring(adj, k, budget):
    """The search loop with neighbor-color sets, a full-neighborhood rescan
    on every undo and an O(n) pick, which the counted, bucketed search
    replaced."""
    n = len(adj)
    colors = [0] * n
    neighbor_colors = [set() for _ in range(n)]
    degree = [len(s) for s in adj]

    def pick():
        best, best_key = -1, None
        for v in range(n):
            if colors[v]:
                continue
            key = (len(neighbor_colors[v]), degree[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def assign(v, c):
        colors[v] = c
        for u in adj[v]:
            neighbor_colors[u].add(c)

    def unassign(v, c):
        colors[v] = 0
        for u in adj[v]:
            if not any(colors[w] == c for w in adj[u]):
                neighbor_colors[u].discard(c)

    def first_free(v, after, upper):
        for cand in range(after + 1, upper + 1):
            if cand not in neighbor_colors[v]:
                return cand
        return None

    max_used = 0
    stack = []
    while True:
        if len(stack) == n:
            return "yes", list(colors)
        v = pick()
        c = first_free(v, 0, min(k, max_used + 1))
        if c is not None:
            if not budget.spend():
                return "unknown", None
            stack.append((v, c, max_used))
            assign(v, c)
            max_used = max(max_used, c)
            continue
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


def test_search_matches_rescanning_oracle():
    graphs = [random_graph(seed % 41, (1 + seed % 9) / 10, seed) for seed in range(200)]
    graphs += [as_adjacency(build_local1(5, 3, MULTISET)), as_adjacency(build_local1(6, 4, MULTISET)),
               as_adjacency(build_relaxed(1, 5, 3))]
    assert any(not adj for adj in graphs)
    for i, adj in enumerate(graphs):
        rows = as_adjacency(adj)
        for k in range(1, 7):
            for limit in (0, 1, 10, 100, 10**5):
                new, old = _Budget(limit), _Budget(limit)
                got = _search_k_coloring(rows, k, new)
                assert got == seed_search_k_coloring(adj, k, old), (i, k, limit)
                assert new.used == old.used, (i, k, limit)


def oracle_bucket_search(adj, k, budget):
    """The search on per-vertex neighbor-color counts and saturation
    buckets of rank sets, which the rank-space bitmask search replaced."""
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
    stack = []
    while True:
        if len(stack) == n:
            return "yes", list(colors)
        v = pick()
        c = first_free(v, 0, min(k, max_used + 1))
        if c is not None:
            if not budget.spend():
                return "unknown", None
            stack.append((v, c, max_used))
            assign(v, c)
            max_used = max(max_used, c)
            continue
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


def oracle_greedy_clique(adj):
    """Greedy clique growth on neighbor sets, ordered by a (-degree,
    index) key, which the growth on rank-space masks replaced; it takes
    sets or tuples as rows."""
    degree = [len(s) for s in adj]
    order_key = lambda v: (-degree[v], v)
    best = []
    for seed in sorted(range(len(adj)), key=order_key):
        clique = [seed]
        candidates = set(adj[seed])
        while candidates:
            v = min(candidates, key=order_key)
            clique.append(v)
            candidates &= set(adj[v])
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def assert_search_matches_bucket_oracle(adj, ks, label):
    rows = as_adjacency(adj)
    for k in ks:
        for limit in (0, 1, 10, 100, 10**5):
            new, old = _Budget(limit), _Budget(limit)
            got = _search_k_coloring(rows, k, new)
            assert got == oracle_bucket_search(adj, k, old), (label, k, limit)
            assert new.used == old.used, (label, k, limit)


def test_search_and_clique_match_bucket_oracles_on_random_graphs():
    for seed in range(200):
        adj = random_graph(seed % 41, (1 + seed % 9) / 10, seed)
        assert greedy_clique(adj) == oracle_greedy_clique(adj), seed
        assert_search_matches_bucket_oracle(adj, range(1, 7), seed)


@pytest.mark.parametrize("label,build,ks", [
    ("local1(5,3)", lambda: build_local1(5, 3, MULTISET), (5, 6)),
    ("local1(6,4)", lambda: build_local1(6, 4, MULTISET), (5, 6)),
    ("local1(7,4)", lambda: build_local1(7, 4, MULTISET), (5, 6)),
    ("relaxed(1,5,3)", lambda: build_relaxed(1, 5, 3), (3, 4, 5, 6)),
    ("setlocal(2,4,3)", lambda: build_setlocal(2, 4, 3), (3, 4, 5, 6)),
])
def test_search_and_clique_match_bucket_oracles_on_hosts(label, build, ks):
    adj = as_adjacency(build())
    assert greedy_clique(adj) == oracle_greedy_clique(adj), label
    assert_search_matches_bucket_oracle(adj, ks, label)


def test_chi_exact_local1_74_pinned_to_oracle_path(host_7_4):
    # the oracle path of chi_exact: clique bound 5 (greedy and planted),
    # a 6-coloring from the first descent, k = 5 exhausted in between
    adj = as_adjacency(host_7_4)
    n = len(adj)
    assert len(oracle_greedy_clique(adj)) == len(embedded_clique(host_7_4)) == 5
    status, witness = oracle_bucket_search(adj, n, _Budget(n))
    assert status == "yes" and max(witness) == 6
    tracker = _Budget(1_000_000)
    assert oracle_bucket_search(adj, 5, tracker) == ("no", None)
    assert tracker.used == 4750
    res = chi_exact(host_7_4)
    assert (res.lower, res.upper, res.exact, res.expansions_used) == (6, 6, True, 4750)
    assert res.witness == tuple(witness)


@pytest.mark.parametrize("budget,expected", [
    (0, (5, 6, False, 0)), (1, (5, 6, False, 2)), (10, (5, 6, False, 11)),
])
def test_chi_bracket_pinned_on_small_budgets(budget, expected):
    res = chi_exact(build_local1(6, 4, MULTISET), budget=budget)
    assert (res.lower, res.upper, res.exact, res.expansions_used) == expected


def test_solver_matches_brute_force_on_random_graphs():
    # trust anchor for "no" answers: exhaustive search vs plain backtracking
    for seed in range(120):
        n = 4 + seed % 6
        p = (1 + seed % 8) / 9
        adj = random_graph(n, p, seed)
        expected = brute_force_chi(adj)
        res = chi_exact(adj)
        assert res.exact and res.lower == expected, f"seed {seed}"
        if expected > 1:
            assert is_k_colorable(adj, expected - 1)[0] == "no"
        assert is_k_colorable(adj, expected)[0] == "yes"


def test_triangle_k_colorability():
    assert is_k_colorable(TRIANGLE, 2)[0] == "no"
    status, witness = is_k_colorable(TRIANGLE, 3)
    assert status == "yes"
    assert len(set(witness)) == 3


def test_clique_exact_chi():
    for m in range(2, 9):
        res = chi_exact(build_relaxed(0, m, 2))
        assert res.exact and res.lower == res.upper == m


def test_local1_53_not_two_colorable():
    host = build_local1(5, 3, MULTISET)
    assert is_k_colorable(host, 2)[0] == "no"
    res = chi_exact(host, budget=500_000)
    assert res.lower >= 3  # triangle (1,{2,3}),(2,{1,3}),(3,{1,2})


def test_relaxed_level1_53_not_two_colorable():
    host = build_relaxed(1, 5, 3)
    assert is_k_colorable(host, 2)[0] == "no"


def test_embedded_clique_local1_74(host_7_4):
    host = host_7_4
    clique = embedded_clique(host)
    assert clique is not None and len(clique) == 5
    adj = as_adjacency(host)
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            assert b in adj[a]


def test_greedy_clique_finds_triangle():
    assert len(greedy_clique([set(s) for s in TRIANGLE])) == 3


def test_greedy_clique_ends_on_looped_rows():
    # both functions take their rows through as_adjacency's check; dsatur
    # used to return the improper coloring ([1, 1], 1) on the first input
    for rows in ([{0}, set()], [{0, 1}, {0, 1}]):
        for solve in (greedy_clique, dsatur):
            with pytest.raises(ParameterError, match="self-loop"):
                solve(rows)


def test_dsatur_witness_proper():
    host = build_local1(5, 3, MULTISET)
    colors, used = dsatur(as_adjacency(host))
    adj = as_adjacency(host)
    for v, nbrs in enumerate(adj):
        assert all(colors[u] != colors[v] for u in nbrs)
    assert used >= 3


def test_chi_witness_validates():
    host = build_local1(5, 3, MULTISET)
    res = chi_exact(host, budget=500_000)
    assert res.exact
    adj = as_adjacency(host)
    for v, nbrs in enumerate(adj):
        assert all(res.witness[u] != res.witness[v] for u in nbrs)
    assert max(res.witness) == res.upper


def test_chi_lower_at_least_embedded_clique():
    for m, delta in ((5, 3), (6, 4)):
        host = build_local1(m, delta, MULTISET)
        res = chi_exact(host, budget=200_000)
        assert res.lower >= delta + 1


def test_exact_chi_of_largest_in_suite_host(host_7_4):
    # the 1470-vertex one-round host: k=5 exhausts quickly under the
    # saturation ordering, pinning chi to 6 (expansions are deterministic)
    host = host_7_4
    res = chi_exact(host, budget=100_000)
    assert res.exact and res.lower == res.upper == 6
    assert res.expansions_used < 100_000


def test_budget_exhaustion_returns_bracket():
    host = build_local1(6, 4, MULTISET)
    res = chi_exact(host, budget=10)
    assert not res.exact
    assert res.lower <= res.upper


@pytest.mark.parametrize("budget", [1.5, True, -5, "x", None])
def test_budgets_must_be_ints_at_least_zero(budget):
    host = build_local1(5, 3, MULTISET)
    with pytest.raises(ParameterError, match="budget must be an integer >= 0"):
        chi_exact(host, budget=budget)
    with pytest.raises(ParameterError, match="budget must be an integer >= 0"):
        chi_exact([], budget=budget)
    with pytest.raises(ParameterError, match="budget must be an integer >= 0"):
        is_k_colorable(host, 3, budget=budget)


def test_is_k_colorable_parameter_error():
    for k in (0, 2.5, "3"):
        with pytest.raises(ParameterError):
            is_k_colorable(TRIANGLE, k)


@pytest.mark.parametrize("rows,problem", [
    ([[5], [0]], "outside"),
    ([[-1], [0]], "outside"),
    ([["1"], [0]], "outside"),
    ([[0], [], []], "self-loop"),
    ([[0], [1], [2]], "self-loop"),
    ([[1], []], "listed only"),
    ([[1, 2], [0], [1]], "listed only"),
    ([[True], [0]], "outside"),
])
def test_plain_rows_rejected_before_solving(rows, problem, monkeypatch, tmp_path):
    # the rank space is replaced by one that fails the test if it is
    # reached, so every call must reject the rows before any solving
    def no_rank_space(rows):
        raise AssertionError("rank space built on unchecked rows")

    monkeypatch.setattr(_Rows, "order", property(no_rank_space))
    monkeypatch.setattr(_Rows, "masks", property(no_rank_space))
    for call in (lambda: as_adjacency(rows), lambda: chi_exact(rows),
                 lambda: greedy_clique(rows), lambda: dsatur(rows),
                 lambda: clique_lower_bound(rows), lambda: is_k_colorable(rows, 2),
                 lambda: is_k_colorable(rows, len(rows)),
                 lambda: export_dimacs(rows, tmp_path / "g.col")):
        with pytest.raises(ParameterError, match=problem):
            call()


def test_graph_rows_taken_as_they_are(host_7_4):
    tree = random_colored_tree(200, 4, 9, seed=3)
    for g in (host_7_4, tree):
        assert type(g.adjacency) is _Rows and as_adjacency(g) is g.adjacency


def test_masks_equal_a_per_row_rebuild_and_twins_share_theirs(host_7_4):
    tree = random_colored_tree(300, 4, 9, seed=5)
    # 1,470 host rows in 393 row objects; every tree row its own
    for g, shared in ((host_7_4, 1470 - 393), (tree, 0)):
        rows = g.adjacency
        rank = {v: r for r, v in enumerate(rows.order)}
        for r, v in enumerate(rows.order):
            assert rows.masks[r] == sum(1 << rank[u] for u in rows[v])
        # ranks whose rows are one tuple hold one mask
        first = {}
        for r, v in enumerate(rows.order):
            s = first.setdefault(id(rows[v]), r)
            assert rows.masks[r] is rows.masks[s]
        assert len(rows) - len(first) == shared


def test_checked_rows_are_immutable_and_not_checked_twice():
    rows = as_adjacency(TRIANGLE)
    assert type(rows) is _Rows and as_adjacency(rows) is rows
    assert rows == ((1, 2), (0, 2), (0, 1))
    assert as_adjacency([[2, 1, 1], [0], [0]]) == ((1, 2), (0,), (0,))
    with pytest.raises(TypeError):
        rows[0] = (1,)
    with pytest.raises(AttributeError):
        rows.extra = 1


def test_one_rank_space_per_checked_rows(monkeypatch):
    builds = []
    build_masks = _Rows.masks.func

    def counted(rows):
        builds.append(len(rows))
        return build_masks(rows)

    masks = cached_property(counted)
    masks.__set_name__(_Rows, "masks")
    monkeypatch.setattr(_Rows, "masks", masks)
    # a fresh host: the session one may carry its masks already
    host = build_local1(7, 4, MULTISET)
    rows = as_adjacency(host)
    assert len(greedy_clique(rows)) == 5
    assert dsatur(rows)[1] == 6
    assert is_k_colorable(rows, 5) == ("no", None)
    res = chi_exact(rows)
    assert builds == [1470]
    assert (res.lower, res.upper, res.exact, res.expansions_used) == (6, 6, True, 4750)
    assert res == chi_exact(host)
    assert (len(greedy_clique(host)), dsatur(host)[1], clique_lower_bound(host)) == (5, 6, 5)
    assert builds == [1470]
    # plain rows are checked once per call, and their masks built once
    assert chi_exact(TRIANGLE).upper == 3 and builds == [1470, 3]
    with pytest.raises(AttributeError):
        rows.masks = ()
    with pytest.raises(AttributeError):
        del rows.order


def test_chi_exact_shares_fresh_rows_across_threads(host_7_4):
    # four threads meet the same rows before any rank space is cached;
    # the session host carries its own already
    expected = chi_exact(host_7_4)
    rows = as_adjacency(build_local1(7, 4, MULTISET))
    barrier = threading.Barrier(4)
    results = [None] * 4

    def solve(slot):
        barrier.wait(timeout=10)
        results[slot] = chi_exact(rows)

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results == [expected] * 4


def test_chi_exact_local1_74_peak_memory():
    # the rows are the host's own tuples and the masks take n*n/8 bytes
    # (270 kB here); a set copy of the rows alone took about 15 MB.  A
    # fresh host, so the masks are built under the trace
    host = build_local1(7, 4, MULTISET)
    tracemalloc.start()
    try:
        chi_exact(host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("k", [3, 4])
def test_closed_form_witness_is_checked(k):
    # rows past the input check: k >= n colors a looped vertex like any other
    with pytest.raises(ConstructionError, match="improper"):
        _decide_k([{0}, set(), set()], k, _Budget(10))
    assert _decide_k([set(), set(), set()], 1, _Budget(10)) == ("yes", [1, 1, 1])


def test_dimacs_export_roundtrip(tmp_path):
    host = build_local1(4, 2, SET)
    path = tmp_path / "graph.col"
    export_dimacs(host, path)
    n, edges = read_dimacs(path)
    assert n == host.n_vertices
    assert len(edges) == host.n_edges
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in host.edges()}
    lines = path.read_text().splitlines()
    assert lines[0] == f"p edge {host.n_vertices} {host.n_edges}"
    assert sum(1 for ln in lines if ln.startswith("e ")) == host.n_edges
    sidecar = tmp_path / "graph.col.map.json"
    assert sidecar.exists()


def test_dimacs_triangle(tmp_path):
    path = tmp_path / "tri.col"
    export_dimacs(TRIANGLE, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p edge 3 3"
    assert len([ln for ln in lines if ln.startswith("e ")]) == 3


@pytest.mark.parametrize("text,line", [
    pytest.param("p edge\n", 1, id="no-counts"),
    pytest.param("p edge 3\n", 1, id="no-edge-count"),
    pytest.param("p edge x 1\n", 1, id="count-not-integer"),
    pytest.param("p edge 3 1\ne 1\n", 2, id="one-endpoint"),
    pytest.param("p edge 3 1\ne 1 2 3\n", 2, id="three-endpoints"),
    pytest.param("p edge 3 1\ne 1 9\n", 2, id="endpoint-above-n"),
    pytest.param("p edge 3 1\ne 0 2\n", 2, id="endpoint-zero"),
    pytest.param("p edge 3 1\ne 1 -2\n", 2, id="endpoint-negative"),
    pytest.param("p edge 3 1\ne 1 two\n", 2, id="endpoint-not-integer"),
    pytest.param("c comment\ne 1 2\np edge 3 1\n", 2, id="edge-before-problem-line"),
    pytest.param("p edge 3 1\np edge 9 1\n", 2, id="second-problem-line"),
])
def test_read_dimacs_rejects_malformed_lines(tmp_path, text, line):
    path = tmp_path / "bad.col"
    path.write_text(text)
    with pytest.raises(ParameterError, match=f"line {line}:"):
        read_dimacs(path)


def test_read_dimacs_without_problem_line(tmp_path):
    path = tmp_path / "empty.col"
    path.write_text("c nothing here\n")
    with pytest.raises(ParameterError, match="no problem line"):
        read_dimacs(path)


def test_improper_witness_raises():
    adj = as_adjacency(TRIANGLE)
    _check_witness(adj, [1, 2, 3], 3)
    with pytest.raises(ConstructionError):
        _check_witness(adj, [1, 1, 2], 3)
    with pytest.raises(ConstructionError):
        _check_witness(adj, [1, 2, 4], 3)


OPTIMIZED_SCRIPT = """
import sys
from colorreduce import ConstructionError, chromatic
cycle5 = [[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]]
status, witness = chromatic.is_k_colorable(cycle5, 3)
print(sys.flags.optimize, status, witness)
chromatic._search_k_coloring = lambda adj, k, budget, *_: ("yes", [1] * len(adj))
try:
    chromatic.is_k_colorable(cycle5, 3)
except ConstructionError:
    print("improper witness rejected")
else:
    print("improper witness accepted")
"""


def test_witness_check_survives_python_optimize():
    proc = run_python(OPTIMIZED_SCRIPT, "-O")
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    optimize, status, witness = first.split(" ", 2)
    assert (optimize, status) == ("1", "yes")
    colors = [int(c) for c in witness.strip("[]").split(",")]
    _check_witness(as_adjacency([[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]]), colors, 3)
    assert second == "improper witness rejected"

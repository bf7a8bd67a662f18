"""Graph core: validators, generators, greedy coloring, JSON wire format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorreduce import (ColorAssignment, ColoredGraph, CoverageError,
                         GraphError, PaletteMismatchError, ParameterError,
                         graph_from_json, graph_to_json, greedy_coloring,
                         random_colored_tree, validate_defective,
                         validate_proper)
from colorreduce.graphs import _Rows, _below, _sample, _seeded, _shuffle
from conftest import run_python


def path3():
    return ColoredGraph.from_edges(3, [(0, 1), (1, 2)], [1, 2, 3], 3, 2)


def triangle():
    return ColoredGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, 2, 3], 3, 2)


def star4():
    return ColoredGraph.from_edges(5, [(0, i) for i in range(1, 5)], [1, 2, 2, 2, 2], 2, 4)


def test_validate_proper_examples():
    assert validate_proper(path3(), ColorAssignment((1, 2, 1), 2)) is True
    assert validate_proper(triangle(), ColorAssignment((1, 2, 1), 2)) is False
    assert validate_proper(star4(), ColorAssignment((1, 2, 2, 2, 2), 2)) is True


def test_palette_mismatch_is_distinct_from_improper():
    with pytest.raises(PaletteMismatchError):
        validate_proper(path3(), ColorAssignment((1, 2, 3), 2))
    with pytest.raises(CoverageError):
        validate_proper(path3(), ColorAssignment((1, 2), 3))


def test_validate_defective_examples():
    assert validate_defective(path3(), ColorAssignment((1, 1, 1), 3), 2) is True
    assert validate_defective(star4(), ColorAssignment((1, 1, 1, 1, 1), 1), 3) is False
    assert validate_defective(star4(), ColorAssignment((1, 1, 1, 1, 1), 1), 4) is True


@pytest.mark.parametrize("colors", [(1, 5, 1), (0, 1, 0)])
def test_validate_defective_checks_the_palette(colors):
    for d in (0, 1):
        with pytest.raises(PaletteMismatchError):
            validate_defective(path3(), ColorAssignment(colors, 2), d)
    with pytest.raises(CoverageError):
        validate_defective(path3(), ColorAssignment((1, 2), 2), 0)


@pytest.mark.parametrize("d", [1.5, -1, True, "1"])
def test_validate_defective_needs_an_int_d_at_least_zero(d):
    with pytest.raises(ParameterError, match="need an integer d >= 0"):
        validate_defective(path3(), ColorAssignment((1, 2, 1), 2), d)


def test_proper_is_zero_defective_on_random_instances():
    agree = 0
    for seed in range(1000):
        g = random_colored_tree(9, 3, 4, seed=seed)
        phi = greedy_coloring(g)
        assert validate_proper(g, phi)
        assert validate_defective(g, phi, 0)
        # scrambled assignment: both judgements must still agree at d=0
        bad = ColorAssignment(tuple(1 + (c + seed) % 3 for c in phi.colors), 3)
        assert validate_defective(g, bad, 0) == validate_proper(g, bad)
        agree += 1
    assert agree == 1000


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):  # improper psi
        ColoredGraph.from_edges(2, [(0, 1)], [1, 1], 2, 2)
    with pytest.raises(GraphError):  # color out of palette
        ColoredGraph.from_edges(2, [(0, 1)], [1, 5], 2, 2)
    with pytest.raises(GraphError):  # degree over cap
        ColoredGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 2, 2], 2, 2)
    with pytest.raises(GraphError):  # loop
        ColoredGraph.from_edges(1, [(0, 0)], [1], 2, 2)


@pytest.mark.parametrize("edge", [(0.5, 1), (0, 1, 2), 5, (True, 1), ("0", 1), (0, 2), (-1, 1)],
                         ids=repr)
def test_from_edges_names_a_malformed_edge(edge):
    with pytest.raises(GraphError, match=r"edge .* is not a pair of integers in \[0, 2\)$"):
        ColoredGraph.from_edges(2, [(0, 1), edge], [1, 2], 2, 1)


@pytest.mark.parametrize("n", [2.5, "2", None, True])
def test_from_edges_rejects_a_non_integer_node_count(n):
    with pytest.raises(ParameterError, match="need integer n"):
        ColoredGraph.from_edges(n, [], [1, 1], 2)


def test_graphs_and_assignments_built_from_lists_are_frozen():
    g = ColoredGraph(3, [[1], [0, 2], [1]], [1, 2, 1], 2, 2)
    assert g.adjacency == ((1,), (0, 2), (1,)) and g.psi == (1, 2, 1)
    with pytest.raises(AttributeError):
        g.adjacency[0].append(2)
    phi = ColorAssignment([1, 2, 1], 2)
    assert phi.colors == (1, 2, 1)
    with pytest.raises(TypeError):
        phi.colors[0] = 5
    assert validate_proper(g, phi)
    assert hash(g) == hash(ColoredGraph.from_edges(3, [(0, 1), (1, 2)], (1, 2, 1), 2, 2))
    # rows and colors given as tuples are kept as they are
    rows, psi = ((1,), (0,)), (1, 2)
    h = ColoredGraph(2, rows, psi, 2, 1)
    assert all(a is b for a, b in zip(h.adjacency, rows)) and h.psi is psi


@pytest.mark.parametrize("rows,problem", [
    ([[2, 1], [0], [0]], "not strictly ascending"),
    ([[1, 1], [0, 0]], "not strictly ascending"),
    ([[1], []], "listed only"),
    ([[3], [0]], "outside"),
    ([[True], [0]], "outside"),
    ([[0], []], "self-loop"),
])
def test_colored_graph_rows_need_one_check(rows, problem):
    psi = [1, 2, 2][:len(rows)]
    with pytest.raises(GraphError, match=problem):
        ColoredGraph(len(rows), rows, psi, 2, 2)


@pytest.mark.parametrize("n,psi,m,delta_cap,error", [
    (1, [1], 2.5, 0, ParameterError), (1.0, [1], 2, 0, ParameterError),
    (1, [1], 2, True, ParameterError), (1, [True], 1, 0, GraphError),
    (1, [1.0], 2, 0, GraphError),
])
def test_colored_graph_needs_integer_parameters_and_colors(n, psi, m, delta_cap, error):
    with pytest.raises(error, match="need integer|initial color"):
        ColoredGraph(n, [[]], psi, m, delta_cap)


def test_random_tree_single_node():
    g = random_colored_tree(1, 2, 3, seed=42)
    assert g.n == 1 and g.adjacency == ((),)
    assert 1 <= g.psi[0] <= 3


def test_random_tree_path_when_capacity_two():
    g = random_colored_tree(5, 2, 3, seed=7)
    assert g.n == 5
    assert sorted(len(nbrs) for nbrs in g.adjacency) == [1, 1, 2, 2, 2]
    assert g.n_edges() == 4
    assert validate_proper(g, ColorAssignment(g.psi, g.m))


def test_random_tree_deterministic():
    a = random_colored_tree(12, 4, 6, seed=99)
    b = random_colored_tree(12, 4, 6, seed=99)
    assert a == b
    c = random_colored_tree(12, 4, 6, seed=100)
    assert a != c


def test_random_tree_structural_postconditions():
    for seed in range(200):
        g = random_colored_tree(15, 3, 4, seed=seed)
        assert g.n_edges() == g.n - 1  # tree
        assert g.max_degree() <= 3
        assert validate_proper(g, ColorAssignment(g.psi, g.m))


def oracle_random_colored_tree(n, delta_cap, m, seed):
    """The generator as first written: the candidate list rebuilt per node,
    the graph built by ColoredGraph.from_edges over the parent edges."""
    rng = random.Random(seed)
    parents, deg = [-1] * n, [0] * n
    for v in range(1, n):
        candidates = [u for u in range(v) if deg[u] < delta_cap]
        p = candidates[rng.randrange(len(candidates))]
        parents[v] = p
        deg[p] += 1
        deg[v] += 1
    psi = [0] * n
    psi[0] = rng.randrange(1, m + 1)
    for v in range(1, n):
        c = rng.randrange(1, m)
        if c >= psi[parents[v]]:
            c += 1
        psi[v] = c
    return ColoredGraph.from_edges(n, [(parents[v], v) for v in range(1, n)], psi, m,
                                   delta_cap)


@pytest.mark.parametrize("n", [1, 2, 10, 24, 300])
def test_random_tree_matches_rebuilt_candidate_oracle(n):
    for delta_cap in (2, 3, 4, 8):
        for seed in range(5):
            g = random_colored_tree(n, delta_cap, 7, seed)
            want = oracle_random_colored_tree(n, delta_cap, 7, seed)
            assert g.psi == want.psi and g.adjacency == want.adjacency


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 300), st.integers(2, 9), st.integers(2, 10**6), st.integers())
def test_random_tree_rows_equal_edge_list_oracle(n, delta_cap, m, seed):
    assert random_colored_tree(n, delta_cap, m, seed) == oracle_random_colored_tree(
        n, delta_cap, m, seed)


@pytest.mark.parametrize("n, delta_cap, m", [
    (2.5, 3, 5), (3, 2.0, 5), (3, 3, 5.0), (True, 3, 5), (3, 3, "5"),
])
def test_random_tree_refuses_non_integer_parameters(n, delta_cap, m):
    with pytest.raises(ParameterError, match="need integer"):
        random_colored_tree(n, delta_cap, m, 0)


def parent_random_colored_tree(n, delta_cap, m, seed):
    """random_colored_tree as it drew through random.Random's randrange."""
    rng = random.Random(seed)
    rows = [[] for _ in range(n)]
    candidates = [0]
    for v in range(1, n):
        i = rng.randrange(len(candidates))
        p = candidates[i]
        rows[p].append(v)
        if len(rows[p]) == delta_cap:
            del candidates[i]
        rows[v].append(p)
        candidates.append(v)
    psi = [0] * n
    psi[0] = rng.randrange(1, m + 1)
    for v in range(1, n):
        c = rng.randrange(1, m)
        if c >= psi[rows[v][0]]:
            c += 1
        psi[v] = c
    return ColoredGraph(n, rows, psi, m, delta_cap)


@pytest.mark.parametrize("n, delta_cap, m", [
    (1, 2, 2), (2, 2, 2), (30, 2, 3), (30, 3, 2), (60, 8, 10**6), (24, 4, 100),
])
def test_random_tree_draws_what_random_random_drew(n, delta_cap, m):
    for seed in range(100):
        assert random_colored_tree(n, delta_cap, m, seed) == parent_random_colored_tree(
            n, delta_cap, m, seed), seed


# widths on both sides of bit-length boundaries, up to 2**40 + 3
_WIDTHS = sorted({1, 2, 3, 5, 6, 7, 71, 72, 73, 10**6, 2**40 + 3}
                 | {2**b + e for b in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 40) for e in (-1, 0, 1)})
_SAMPLES = [(0, 0), (1, 0), (1, 1), (5, 5), (21, 5), (22, 5), (21, 6), (22, 6), (85, 6),
            (86, 6), (71, 5), (71, 6), (71, 3), (300, 12), (1000, 12), (1000, 1), (12, 12)]


def test_seeded_draws_equal_random_random():
    for seed in [*range(200), -1, -(2**70), 2**64 + 5]:
        bits, rng = _seeded(seed), random.Random(seed)
        mine = bits.__self__  # equal random() after each draw: equal stream states
        for n in _WIDTHS:
            assert _below(bits, n) == rng.randrange(n), (seed, n)
            assert mine.random() == rng.random()
        for size in (0, 1, 2, 3, 17, 64, 65, 300, 1470):
            x, y = list(range(size)), list(range(size))
            _shuffle(bits, x)
            rng.shuffle(y)
            assert x == y, (seed, size)
            assert mine.random() == rng.random()
        for n, k in _SAMPLES:
            for population in (range(n), [f"v{i}" for i in range(n)]):
                assert _sample(bits, population, k) == rng.sample(population, k), (seed, n, k)
                assert mine.random() == rng.random()


@pytest.mark.parametrize("seed", [None, 1.0, "1", True, (1,)])
def test_seeds_must_be_ints(seed):
    with pytest.raises(ParameterError, match="need integer seed"):
        _seeded(seed)
    with pytest.raises(ParameterError, match="need integer seed"):
        random_colored_tree(6, 3, 5, seed)


def test_draw_helpers_refuse_empty_ranges_without_hanging():
    # getrandbits(0) is always 0, so an unguarded rejection loop on n = 0
    # never ends: run it where a timeout fails the test instead
    script = (
        "from colorreduce.graphs import _below, _seeded\n"
        "for n in (0, -1, -(2**40)):\n"
        "    try:\n"
        "        _below(_seeded(0), n)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = run_python(script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "need n >= 1, got n=0", "need n >= 1, got n=-1", f"need n >= 1, got n={-(2**40)}"]


@pytest.mark.parametrize("n, k", [(0, 1), (3, 4), (3, -1), (30, 31), (30, -1)])
def test_sample_refuses_sizes_outside_the_population(n, k):
    with pytest.raises(ValueError, match="need 0 <= k"):
        _sample(_seeded(0), range(n), k)


def _first_one_sided(rows):
    """Row-major first (v, u) with u in row v but v not in row u, or None."""
    return next(((v, u) for v, row in enumerate(rows) for u in row
                 if v not in rows[u]), None)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=n), min_size=n, max_size=n)))
def test_rows_check_names_the_first_one_sided_edge(raw):
    rows = [sorted(set(row) - {v}) for v, row in enumerate(raw)]
    edge = _first_one_sided(rows)
    if edge is None:
        assert _Rows.checked(rows) == tuple(map(tuple, rows))
    else:
        with pytest.raises(GraphError) as info:
            _Rows.checked(rows)
        assert str(info.value) == "edge %d-%d is listed only at %d" % (*edge, edge[0])


@pytest.mark.parametrize("rows, edge", [
    ([[2], [2], [1]], (0, 2)),        # row 2 holds 1 but not 0
    ([[], [2], [0, 1]], (2, 0)),      # the entry below 2 is the one-sided one
    ([[1, 2], [0], [1]], (0, 2)),
    ([[1], [0, 2], [0, 1]], (2, 0)),  # a full row 2 with a stray entry
])
def test_rows_check_one_sided_pins(rows, edge):
    with pytest.raises(GraphError, match="edge %d-%d is listed only at %d$" % (*edge, edge[0])):
        _Rows.checked(rows)


def test_random_tree_infeasible_parameters():
    with pytest.raises(ParameterError):
        random_colored_tree(3, 2, 1, seed=0)
    with pytest.raises(ParameterError):
        random_colored_tree(0, 2, 3, seed=0)
    with pytest.raises(ParameterError):
        random_colored_tree(3, 1, 3, seed=0)


def test_greedy_coloring_examples():
    phi = greedy_coloring(triangle())
    assert phi.palette == 3 and validate_proper(triangle(), phi)
    p4 = ColoredGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 1, 2], 2, 2)
    phi = greedy_coloring(p4)
    assert phi.palette <= 3 and validate_proper(p4, phi)


def test_greedy_coloring_palette_bound_property():
    for seed in range(300):
        g = random_colored_tree(20, 4, 8, seed=seed)
        phi = greedy_coloring(g)
        assert validate_proper(g, phi)
        assert phi.palette <= g.max_degree() + 1


def test_json_roundtrip():
    g = random_colored_tree(10, 3, 5, seed=5)
    data = graph_to_json(g)
    assert set(data) == {"n", "edges", "psi", "m", "delta"}
    assert graph_from_json(data) == g

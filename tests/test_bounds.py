"""Refuters and source machinery against the counting arguments."""

import hashlib
import math
import random
import re
from itertools import combinations

import pytest

from colorreduce import (MULTISET, SET, CapExceededError, ConstructionError,
                         ParameterError, View, build_local1,
                         build_relaxed_levels, canonical_encode, class_defect,
                         defective_sources, erase_multiplicities, is_independent,
                         lower_bound_rounds, orientation_of, refute_relaxed,
                         source_chain, sources, uncovered_clique_step,
                         uncovered_defective_node, uncovered_local1_node)
from colorreduce.bounds import (_blocking_set, _center_defect, _color_cover, _first_uncovered,
                                _least_owned, random_defective_classes,
                                random_independent_sets, random_relaxed_class)
from colorreduce.nbhd import NbhdGraph, mutual_edge
from conftest import run_python


def leaf(kind, c):
    return View.leaf(kind, c)


def node(kind, x, children):
    return View.make(kind, leaf(kind, x), [leaf(kind, c) for c in children])


# --- orientations ----------------------------------------------------------

def test_orientation_demanded_and_default():
    o = orientation_of([node(MULTISET, 1, [2])], 3)
    assert o.oriented(1, 2) and not o.oriented(2, 1)
    # untouched pairs default low -> high
    assert o.oriented(1, 3) and o.oriented(2, 3)


def test_orientation_empty_class_all_defaults():
    o = orientation_of([], 3)
    assert o.oriented(1, 2) and o.oriented(1, 3) and o.oriented(2, 3)


def seed_oriented(class_nodes, m):
    """The explicit forward-pair orientation that Orientation replaced."""
    demanded = {(node.inner.base_color, c.base_color)
                for node in class_nodes for c in node.distinct_children()}
    forward = set(demanded)
    for x in range(1, m + 1):
        for y in range(x + 1, m + 1):
            if (x, y) not in demanded and (y, x) not in demanded:
                forward.add((x, y))
    return lambda x, y: (x, y) in forward


@pytest.mark.parametrize("m,delta", [(5, 3), (6, 4), (7, 4)])
def test_orientation_matches_forward_pairs(m, delta, host_7_4):
    host = host_7_4 if (m, delta) == (7, 4) else build_local1(m, delta, MULTISET)
    for cls in random_independent_sets(host, 12, seed=m):
        o = orientation_of(cls, m)
        oracle = seed_oriented(cls, m)
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                assert o.oriented(x, y) == oracle(x, y), (x, y)


@pytest.mark.parametrize("m,delta", [(5, 3), (6, 4), (7, 4)])
def test_orientation_heads_form_a_tournament(m, delta, host_7_4):
    # the local1 refuter blocks an owning class by the first color outside
    # heads(x); that is its first color pointing into x only on a tournament
    host = host_7_4 if (m, delta) == (7, 4) else build_local1(m, delta, MULTISET)
    colors = range(1, m + 1)
    for cls in random_independent_sets(host, 12, seed=m + 1):
        o = orientation_of(cls, m)
        for x in colors:
            for y in colors:
                if x != y:
                    assert o.oriented(x, y) != o.oriented(y, x), (x, y)
            inward = next(((y,) for y in colors if y != x and o.oriented(y, x)), None)
            assert _blocking_set(o.heads, x, colors) == inward, x


def test_orientation_rejects_dependent_class():
    with pytest.raises(ParameterError):
        orientation_of([node(MULTISET, 1, [2]), node(MULTISET, 2, [1])], 3)


@pytest.mark.parametrize("member", [(50, [2]), (1, [9]), (8, [3, 2])])
def test_member_colors_outside_palette_rejected(member):
    cls = [node(MULTISET, 1, [2]), node(MULTISET, *member)]
    with pytest.raises(ParameterError, match="outside"):
        orientation_of(cls, 7)
    with pytest.raises(ParameterError, match="outside"):
        defective_sources(cls, 7, 1)


# --- sources ----------------------------------------------------------------

def test_sources_examples():
    levels = build_relaxed_levels(0, 3, 2)
    k3 = levels[0]
    I = [node(SET, 1, [2]), node(SET, 1, [3])]
    src = sources(I, k3)
    assert src == [leaf(SET, 1)]
    assert sources([node(SET, 1, [2])], k3) == []


def test_sources_vacuous_when_restricted_neighborhood_empty():
    levels = build_relaxed_levels(0, 3, 2)
    k3 = levels[0]
    x = leaf(SET, 2)
    src = sources([], k3, within={x})
    assert x in src  # no neighbors inside W: vacuously a source


def test_source_chain_single_step():
    levels = build_relaxed_levels(0, 3, 2)
    I = [node(SET, 1, [2]), node(SET, 1, [3])]
    chain = source_chain(I, levels[:1])
    assert chain[0] == frozenset(I)
    assert chain[1] == frozenset({leaf(SET, 1)})


def test_source_chain_empty_class():
    # Sources of the empty class are exactly the vacuous ones: vertices
    # with no neighbors at all.  Level 0 is a clique, so none survive
    # there; level 1 keeps its isolated empty-set vertices.
    levels = build_relaxed_levels(1, 3, 2)
    chain = source_chain([], levels[:2])
    assert chain[0] == frozenset()
    assert chain[1] == frozenset(v for v in levels[1].vertices if v.child_size == 0)
    assert chain[2] == frozenset()


def test_source_chain_rejects_dependent_class():
    levels = build_relaxed_levels(0, 3, 2)
    bad = [node(SET, 1, [2]), node(SET, 2, [1])]
    with pytest.raises(ParameterError):
        source_chain(bad, levels[:1])


def test_source_chains_on_random_maximal_sets():
    # Chains of 200 random maximal independent sets of the level-2 family
    # must pass the built-in independence verification at every level.
    levels = build_relaxed_levels(2, 3, 2)
    top = levels[2]
    for i, cls in enumerate(random_independent_sets(top, 200, seed=17)):
        chain = source_chain(cls, levels[:2])
        assert len(chain) == 3
        assert is_independent(chain[1]) and is_independent(chain[2])


# --- one-round refuter ------------------------------------------------------

def test_uncovered_node_small_example():
    cls = [node(MULTISET, 1, [2, 3])]
    out = uncovered_local1_node([cls], 3, 2)
    assert out.child_size < 2
    assert out not in set(cls)


def test_uncovered_node_respects_preconditions():
    with pytest.raises(ParameterError):
        uncovered_local1_node([[], [], [], [], []], 7, 4)  # c = 5 > 4
    with pytest.raises(ParameterError):
        uncovered_local1_node([[]], 2, 2)  # m too small


def test_uncovered_node_on_greedy_families(host_7_4):
    host = host_7_4
    for seed in range(30):
        classes = random_independent_sets(host, 4, seed=seed)
        out = uncovered_local1_node(classes, 7, 4)
        # valid vertex: center color, distinct neighbors, size < delta
        assert 1 <= out.inner.base_color <= 7
        assert out.child_size <= 3
        assert all(c.base_color != out.inner.base_color for c in out.distinct_children())
        for cls in classes:
            assert out not in cls


def test_uncovered_node_against_real_coloring_classes(host_7_4):
    # adversarial family: the largest color classes of an actual proper
    # coloring cover far more vertices than random greedy sets do
    from colorreduce import dsatur
    from colorreduce.chromatic import as_adjacency

    for m, delta in ((5, 3), (7, 4)):
        host = host_7_4 if (m, delta) == (7, 4) else build_local1(m, delta, MULTISET)
        colors, used = dsatur(as_adjacency(host))
        by_color = {}
        for i, c in enumerate(colors):
            by_color.setdefault(c, []).append(host.vertices[i])
        cap = delta * delta // 4
        classes = sorted(by_color.values(), key=len, reverse=True)[:cap]
        node = uncovered_local1_node(classes, m, delta)
        covered = sum(len(cl) for cl in classes)
        assert covered > host.n_vertices // 2  # genuinely adversarial
        for cls in classes:
            assert node not in set(cls)


# --- clique step and the recursive refuter ----------------------------------

def test_clique_step_empty_family():
    levels = build_relaxed_levels(0, 5, 3)
    T = [leaf(SET, 1), leaf(SET, 2)]
    out = uncovered_clique_step(T, [], levels[0], p=1, d=1, bound=3)
    assert len(out) == 1
    assert out[0].inner in set(T)


def test_clique_step_output_is_clique():
    levels = build_relaxed_levels(0, 7, 4)
    T = [leaf(SET, c) for c in (1, 2, 3, 4)]
    out = uncovered_clique_step(T, [], levels[0], p=2, d=2, bound=4)
    assert len(out) == 2
    from colorreduce import mutual_edge

    assert mutual_edge(out[0], out[1])


def test_clique_step_size_condition():
    levels = build_relaxed_levels(0, 7, 4)
    T = [leaf(SET, c) for c in (1, 2, 3)]
    with pytest.raises(ParameterError):
        uncovered_clique_step(T, [frozenset()] * 9, levels[0], p=2, d=1, bound=4)


def test_refute_relaxed_one_round():
    levels = build_relaxed_levels(0, 7, 4)
    for seed in range(20):
        classes = [random_relaxed_class(levels, 25, seed=seed * 10 + k, bound=4)
                   for k in range(4)]
        out = refute_relaxed(classes, 1, 7, 4, levels=levels)
        assert out.depth == 1 and out.child_size <= 4
        for cls in classes:
            assert out not in cls


def test_refute_relaxed_two_rounds():
    levels = build_relaxed_levels(1, 5, 4)
    for seed in range(10):
        classes = [random_relaxed_class(levels, 40, seed=seed * 7 + k, bound=4)
                   for k in range(2)]
        out = refute_relaxed(classes, 2, 5, 4, levels=levels)
        assert out.depth == 2
        for cls in classes:
            assert out not in cls


def test_refute_relaxed_divisibility_requirement():
    with pytest.raises(ParameterError):
        refute_relaxed([frozenset()], 2, 9, 5)  # 5 not divisible by 2r = 4


def test_refute_relaxed_class_count_precondition():
    levels = build_relaxed_levels(0, 7, 4)
    with pytest.raises(ParameterError):
        refute_relaxed([frozenset()] * 5, 1, 7, 4, levels=levels)


def test_refute_relaxed_honours_an_explicit_zero_cap():
    with pytest.raises(CapExceededError):
        refute_relaxed([], 1, 7, 4, cap=0)
    with pytest.raises(CapExceededError):
        build_relaxed_levels(0, 7, 4, cap=0)


# --- the shared counting step -------------------------------------------------

def test_counting_step_refuses_more_sources_than_the_bound():
    with pytest.raises(ConstructionError, match="global sources"):
        _first_uncovered(range(1, 9), [[1, 2]], 3, 1)
    with pytest.raises(ConstructionError, match="sources in a clique"):
        _least_owned([1, 2, 3], [[1, 2], []], 1)
    # through the clique step: a dependent "class" with two sources in the
    # group {1, 2, 3} of the clique {1, 2, 3, 4}, next to an empty one
    levels = build_relaxed_levels(0, 5, 4)
    both = frozenset([node(SET, 1, [2, 3]), node(SET, 2, [1, 3])])
    T = [leaf(SET, c) for c in (1, 2, 3, 4)]
    with pytest.raises(ConstructionError, match="sources in a clique"):
        uncovered_clique_step(T, [both, frozenset()], levels[0], p=1, d=3, bound=4)


@pytest.mark.parametrize("p,d", [(2, 0), (2, -1), (-1, 3)])
def test_clique_step_refuses_d_below_one_and_negative_p(p, d):
    levels = build_relaxed_levels(0, 5, 4)
    T = [leaf(SET, c) for c in range(1, p + d + 1)]
    with pytest.raises(ParameterError, match=r"need d >= 1 and p >= 0"):
        uncovered_clique_step(T, [], levels[0], p=p, d=d, bound=4)


@pytest.mark.parametrize("p,d,bound,named", [
    (1, 3.0, 4, "d=3.0"), (True, 3, 4, "p=True"), (1, 3, 4.0, "bound=4.0"),
    (1, "3", 4, "d='3'"),
])
def test_clique_step_refuses_non_integer_parameters(p, d, bound, named):
    levels = build_relaxed_levels(0, 5, 4)
    T = [leaf(SET, c) for c in (1, 2, 3, 4)]
    with pytest.raises(ParameterError, match="need integer p, d, bound, got .*"
                       + re.escape(named)):
        uncovered_clique_step(T, [frozenset()], levels[0], p=p, d=d, bound=bound)


_HOST_3_2 = build_local1(3, 2, MULTISET)
_LEVELS_3_2 = build_relaxed_levels(1, 3, 2)


@pytest.mark.parametrize("call,problem", [
    (lambda: random_independent_sets(_HOST_3_2, 2.5, 0), "integer count"),
    (lambda: random_independent_sets(_HOST_3_2, True, 0), "integer count"),
    (lambda: random_independent_sets(_HOST_3_2, -1, 0), "count >= 0"),
    (lambda: random_defective_classes(5, 3, 1.5, 1, 0), "integer m, delta, d, count"),
    (lambda: random_defective_classes(5, 3.0, 1, 1, 0), "integer m, delta, d, count"),
    (lambda: random_defective_classes(5, 3, 1, 2.0, 0), "integer m, delta, d, count"),
    (lambda: random_defective_classes(5, 3, 1, -1, 0), ">= 0"),
    (lambda: random_defective_classes(5, -1, 1, 1, 0), ">= 0"),
    (lambda: random_defective_classes(0, 3, 1, 1, 0), "m >= 1"),
    (lambda: random_relaxed_class(_LEVELS_3_2, 3, 0, -2), "bound >= 0"),
    (lambda: random_relaxed_class(_LEVELS_3_2, 3, 0, 2.5), "integer size, bound"),
    (lambda: random_relaxed_class(_LEVELS_3_2, -3, 0, 2), "size, bound >= 0"),
    (lambda: random_relaxed_class([], 3, 0, 2), "at least one built level"),
])
def test_class_generators_refuse_bad_parameters(call, problem):
    with pytest.raises(ParameterError, match=re.escape(problem)):
        call()


def test_class_generators_take_zero_counts_and_sizes():
    assert random_independent_sets(_HOST_3_2, 0, 0) == []
    assert random_defective_classes(5, 3, 1, 0, 0) == []
    assert random_defective_classes(1, 0, 0, 1, 0) == [[node(MULTISET, 1, [])]]
    assert random_relaxed_class(_LEVELS_3_2, 0, 0, 2) == frozenset()
    assert len(random_relaxed_class(_LEVELS_3_2, 3, 0, 0)) == 3


def test_least_owned_ties_go_by_position():
    assert _least_owned([5, 6, 7], [[5], [6], [7]], 1) == (5, [0])
    assert _least_owned([5, 6, 7], [[5], [], [7]], 1) == (6, [])
    assert _least_owned([5, 6, 7], [[5, 7], [6, 7]], 2) == (5, [0])


def test_one_round_refuters_block_every_owned_center():
    # every color of T is a T-source of some class, so the pick falls on the
    # first color of T and its owning class needs a blocker
    local1 = [[node(MULTISET, x, [y for y in (1, 2, 3) if y != x]), node(MULTISET, 7, [x])]
              for x in (1, 2, 3)]
    assert uncovered_local1_node(local1, 7, 4) is node(MULTISET, 1, [2, 3, 7])
    plain = [[node(MULTISET, x, [y for y in (1, 2, 3) if y != x])] for x in (1, 2, 3)]
    assert uncovered_defective_node(plain, 32, 4, 0) is node(MULTISET, 1, [2, 3, 4])

    def split(x):
        # cover(x) is every other color, but no member holds both 2 and 41
        return [node(MULTISET, x, [y for y in range(1, 41) if y != x]),
                node(MULTISET, x, range(41, 73))]

    pairs = [split(1) + split(2), split(3) + split(4)]
    assert [defective_sources(cl, 72, 1, within=[1, 2, 3, 4]) for cl in pairs] == [[1, 2], [3, 4]]
    assert uncovered_defective_node(pairs, 72, 6, 1) is node(MULTISET, 1, [2, 3, 4, 41])


# sha256 prefixes of the concatenated counterexample encodings of each
# seeded family; any change here is a change of counterexample.  Random
# defective classes at m = 2 delta^2 seldom own a color of T, so some of
# those families give equal vertices; the hand-built families above are
# the ones that need blockers.
REFUTER_DIGESTS = {
    "local1(5,3,multiset)": "17edf98f92eb56d4",
    "local1(5,3,set)": "23f33753e9c95744",
    "local1(7,4,multiset)": "609036275afec773",
    "local1(7,4,set)": "83ce58fc0423b40b",
    "defective(4,0)": "9ad810cffed9f081",
    "defective(4,1)": "9611358ac96bf727",
    "defective(5,1)": "9611358ac96bf727",
    "defective(6,1)": "4c6ffebf7a7ce071",
    "defective(6,2)": "4c6ffebf7a7ce071",
    "relaxed(1,7)": "3741d5de9e66dd26",
    "relaxed(2,5)": "f2f006adeae65a2c",
}


def test_refuter_outputs_are_pinned(host_7_4):
    runs = {}
    for m, delta in ((5, 3), (7, 4)):
        for kind in (MULTISET, SET):
            host = (host_7_4 if (m, delta, kind) == (7, 4, MULTISET)
                    else build_local1(m, delta, kind))
            runs[f"local1({m},{delta},{kind})"] = [
                uncovered_local1_node(random_independent_sets(host, delta * delta // 4, seed),
                                      m, delta)
                for seed in range(8)]
    for delta, d in ((4, 0), (4, 1), (5, 1), (6, 1), (6, 2)):
        m = 2 * delta * delta
        count = delta * delta // (4 * (d + 1) ** 2)
        runs[f"defective({delta},{d})"] = [
            uncovered_defective_node(random_defective_classes(m, delta, d, count, seed),
                                     m, delta, d)
            for seed in range(6)]
    for r, m, size, count in ((1, 7, 25, 4), (2, 5, 40, 2)):
        levels = build_relaxed_levels(r - 1, m, 4)
        runs[f"relaxed({r},{m})"] = [
            refute_relaxed([random_relaxed_class(levels, size, seed=seed * 7 + k, bound=4)
                            for k in range(count)], r, m, 4, levels=levels)
            for seed in range(6)]
    got = {name: hashlib.sha256(b"".join(map(canonical_encode, nodes))).hexdigest()[:16]
           for name, nodes in runs.items()}
    assert got == REFUTER_DIGESTS


# --- class checks against the pairwise scans they replaced -------------------

def seed_is_independent(nodes):
    nodes = list(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if mutual_edge(u, v):
                return False
    return True


def seed_class_defect(nodes):
    nodes = list(nodes)
    worst = 0
    for u in nodes:
        deg = sum(1 for v in nodes if v is not u and mutual_edge(u, v))
        worst = max(worst, deg)
    return worst


def random_classes(count, seed):
    """Lists drawn from hosts of depth 0, 1 and 2 (both kinds): a few
    members plus some of their neighbors, repeated entries, bare leaves
    and members that list their own center among their children."""
    hosts = [build_local1(5, 3, MULTISET), build_local1(4, 2, SET)]
    hosts += build_relaxed_levels(2, 3, 2)
    selfish = [node(SET, 1, [1, 2]), node(MULTISET, 2, [2]), node(SET, 2, [1])]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cls = []
        for host in rng.sample(hosts, rng.randrange(1, 3)):
            for _ in range(rng.randrange(0, 5)):
                i = rng.randrange(host.n_vertices)
                cls.append(host.vertices[i])
                nbrs = host.adjacency[i]
                cls += [host.vertices[j] for j in rng.sample(nbrs, min(len(nbrs), rng.randrange(0, 4)))]
        cls += [leaf(rng.choice((SET, MULTISET)), rng.randrange(1, 5)) for _ in range(rng.randrange(0, 3))]
        cls += rng.sample(selfish, rng.randrange(0, 3))
        if cls:
            cls += rng.choices(cls, k=rng.randrange(0, 3))
        rng.shuffle(cls)
        out.append(cls)
    return out


def test_class_checks_match_pairwise_scans():
    classes = random_classes(400, seed=5)
    classes += random_independent_sets(build_local1(5, 3, MULTISET), 20, seed=1)
    classes += [[], [node(SET, 1, [1, 2])], [node(SET, 1, [1, 2])] * 2, [leaf(SET, 1)] * 3]
    assert {is_independent(cls) for cls in classes} == {True, False}
    assert len({class_defect(cls) for cls in classes}) > 3
    for cls in classes:
        assert is_independent(cls) == seed_is_independent(cls), cls
        assert class_defect(cls) == seed_class_defect(cls), cls


def seed_random_relaxed_class(levels, size, seed, bound):
    """The sampler with a pairwise edge-rule scan over the chosen members."""
    rng = random.Random(seed)
    top = levels[-1]
    chosen = []
    for _ in range(size * 8):
        if len(chosen) >= size:
            break
        i = rng.randrange(top.n_vertices)
        x = top.vertices[i]
        nbrs = [top.vertices[j] for j in top.adjacency[i]]
        k = rng.randrange(0, min(bound, len(nbrs)) + 1)
        node = View.make(SET, x, rng.sample(nbrs, k))
        if any(node is u or mutual_edge(node, u) for u in chosen):
            continue
        chosen.append(node)
    return frozenset(chosen)


@pytest.mark.parametrize("r,m,size", [(1, 7, 25), (2, 5, 40), (3, 3, 30)])
def test_random_relaxed_class_matches_pairwise_sampler(r, m, size):
    levels = build_relaxed_levels(r - 1, m, 4)
    for seed in range(8):
        got = random_relaxed_class(levels, size, seed, 4)
        assert got == seed_random_relaxed_class(levels, size, seed, 4)
        assert is_independent(got) and len(got) > 1


def seed_defective_classes(m, delta, d, count, seed, kind=MULTISET):
    """random_defective_classes with the pairwise `touching` scan."""
    rng = random.Random(seed)
    leaves = {c: View.leaf(kind, c) for c in range(1, m + 1)}
    out = []
    for _ in range(count):
        members, degrees = [], {}
        for _ in range(4 * m):
            x = rng.randrange(1, m + 1)
            size = rng.randrange(0, delta + 1)
            pool = [y for y in range(1, m + 1) if y != x]
            a = rng.sample(pool, min(size, len(pool)))
            v = View.make(kind, leaves[x], (leaves[y] for y in a))
            if v in degrees:
                continue
            touching = [u for u in members if mutual_edge(v, u)]
            if len(touching) > d or any(degrees[u] + 1 > d for u in touching):
                continue
            members.append(v)
            degrees[v] = len(touching)
            for u in touching:
                degrees[u] += 1
        out.append(members)
    return out


@pytest.mark.parametrize("delta", [4, 5, 6])
def test_defective_classes_match_pairwise_touching(delta):
    m = 2 * delta * delta
    for seed in range(50):
        got = random_defective_classes(m, delta, 1, count=2, seed=seed)
        assert got == seed_defective_classes(m, delta, 1, 2, seed), seed


# --- defective machinery -----------------------------------------------------

def color_source_oracle(cls, m):
    """Definition-level check on colors: x is a source iff every other
    color appears in some member centered at x."""
    out = set()
    for x in range(1, m + 1):
        covered = set()
        for member in cls:
            if member.inner.base_color == x:
                covered.update(c.base_color for c in member.distinct_children())
        if covered >= set(range(1, m + 1)) - {x}:
            out.add(x)
    return out


def test_defective_sources_zero_defect_matches_plain_sources():
    host = build_local1(5, 3, SET)
    levels = build_relaxed_levels(0, 5, 3)
    for seed in range(20):
        (cls,) = random_independent_sets(host, 1, seed=seed)
        plain = {v.base_color for v in sources(cls, levels[0])}
        assert set(defective_sources(cls, 5, 0)) == plain == color_source_oracle(cls, 5)


def test_defective_sources_zero_defect_multiset_oracle():
    host = build_local1(5, 3, MULTISET)
    for seed in range(20):
        (cls,) = random_independent_sets(host, 1, seed=seed)
        assert set(defective_sources(cls, 5, 0)) == color_source_oracle(cls, 5)


def oracle_defective_sources(cls, m, d, within=None):
    """The cover test, then every B of size 2..d+1, each member set
    rebuilt per color: the two-pass form the blocking-set search replaced."""
    if within is None:
        within = range(1, m + 1)
    within = sorted(set(within))
    out = []
    for x in within:
        child_sets = [{c.base_color for c in u.distinct_children()}
                      for u in cls if u.inner.base_color == x]
        cover = set().union(*child_sets)
        neighborhood = [y for y in within if y != x]
        if not all(y in cover for y in neighborhood):
            continue
        if all(any(set(B) <= s for s in child_sets)
               for size in range(2, d + 2) for B in combinations(neighborhood, size)):
            out.append(x)
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_defective_sources_match_oracle_for_positive_defect(d):
    rng = random.Random(d)
    found = 0
    for delta in (3, 4):
        m = 2 * delta * delta
        for seed in range(15):
            for cls in random_defective_classes(m, delta, d, count=2, seed=seed):
                member = cls[seed % len(cls)]
                # a member's own colors make its center a source
                own = [member.inner.base_color, *(c.base_color for c in member.distinct_children())]
                drawn = rng.sample(range(1, m + 1), 5)
                for within in (None, own, drawn, own + drawn[:2]):
                    got = defective_sources(cls, m, d, within)
                    assert got == oracle_defective_sources(cls, m, d, within), (delta, seed, within)
                    found += len(got)
    assert found > 0


def test_defective_sources_rejects_negative_defect():
    (cls,) = random_defective_classes(5, 3, 1, count=1, seed=0)
    with pytest.raises(ParameterError):
        defective_sources(cls, 3, -3)


def test_defective_sources_rejects_within_outside_the_palette():
    for within in ([99], [2.5], [0], [1, True], [3, "2"]):
        with pytest.raises(ParameterError, match=r"\[.*\] are not integers in \[1, 5\]"):
            defective_sources([], 5, 0, within=within)
    assert defective_sources([], 5, 0, within=[3, 3]) == [3]
    assert defective_sources([node(MULTISET, 1, [2])], 5, 0, within=[2, 1]) == [1]


def test_defective_sources_clique_bound():
    # induced degree <= d forces at most d+1 sources inside the color clique
    for seed in range(50):
        (cls,) = random_defective_classes(5, 3, 1, count=1, seed=seed)
        assert class_defect(cls) <= 1
        assert len(defective_sources(cls, 5, 1)) <= 2


def test_uncovered_defective_single_class():
    for seed in range(20):
        (cls,) = random_defective_classes(32, 4, 1, count=1, seed=seed)
        out = uncovered_defective_node([cls], 32, 4, 1)
        assert out.child_size <= 3
        assert all(out is not member for member in cls)


def test_uncovered_defective_rejects_overdefective_class():
    bad = [node(MULTISET, 1, [2, 3]), node(MULTISET, 2, [1, 3]), node(MULTISET, 3, [1, 2])]
    with pytest.raises(ParameterError):
        uncovered_defective_node([bad], 32, 4, 0)


def test_uncovered_defective_preconditions():
    with pytest.raises(ParameterError):
        uncovered_defective_node([[]], 10, 4, 1)  # m below 2*delta^2


def center_defect_oracle(cls):
    """For each member, the distinct centers of the other members adjacent
    to it under the edge rule; the largest such count."""
    return max((len({v.inner for v in cls if v is not u and mutual_edge(u, v)}) for u in cls),
               default=0)


def random_one_round_classes(kind, count, seed):
    """Lists of one-round vertices over [5] of `kind`, none listing its own
    center, with repeated members and (multiset) repeated children."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cls = []
        for _ in range(rng.randrange(0, 9)):
            x = rng.randrange(1, 6)
            others = [y for y in range(1, 6) if y != x]
            children = rng.sample(others, rng.randrange(0, 4))
            if kind == MULTISET and children:
                children += rng.choices(children, k=rng.randrange(0, 2))
            cls.append(node(kind, x, children))
        if cls:
            cls += rng.choices(cls, k=rng.randrange(0, 2))
        out.append(cls)
    return out


@pytest.mark.parametrize("kind", [MULTISET, SET])
def test_center_defect_matches_the_pairwise_oracle(kind):
    seen = set()
    for cls in random_one_round_classes(kind, 600, seed=len(kind)):
        cover, members = _color_cover(cls, 5, 1)
        want = center_defect_oracle(cls)
        assert _center_defect(cover, members) == want, cls
        # each center as one member holding its cover decides "<= 0"
        assert (_center_defect(cover) == 0) == (want == 0), cls
        seen.add(want)
    assert len(seen) >= 4


def test_defective_refuter_takes_twin_neighbors_at_one_center():
    # induced degree 2 (the member at 1 meets both members at 2), but one
    # center: the refuter used to refuse this class at d = 1
    cls = [node(MULTISET, 1, [2]), node(MULTISET, 2, [1, 3]), node(MULTISET, 2, [1, 4])]
    assert class_defect(cls) == 2
    assert uncovered_defective_node([cls], 32, 4, 1) is node(MULTISET, 1, [2, 3])
    with pytest.raises(ParameterError, match="more than d=0 distinct centers"):
        uncovered_defective_node([cls], 32, 4, 0)


def twin_heavy_class(m, delta, d, own, rng):
    """A class of center defect <= d and induced degree > d: (x, {y})
    meets d+1 members centered at y.  Each color o of `own`, inside the
    refuter's clique T = [1, delta/2 + 1], gets the member (o, T - {o}),
    so the class owns o as a T-source.  Random members near the low
    colors follow while they keep the center defect at most d."""
    t = set(range(1, delta // 2 + 2))
    x, y = rng.sample(range(delta // 2 + 2, 2 * delta + 1), 2)
    extra = rng.sample([z for z in range(delta // 2 + 2, m + 1) if z not in (x, y)], d + 1)
    members = [(x, {y})] + [(y, {x, z}) for z in extra] + [(o, t - {o}) for o in own]
    low = range(1, min(m, 3 * delta) + 1)
    for _ in range(6 * delta):
        c = rng.choice(low)
        a = set(rng.sample([z for z in low if z != c], rng.randrange(0, delta + 1)))
        cover = {}
        for center, children in members + [(c, a)]:
            cover.setdefault(center, set()).update(children)
        if all(sum(center in cover.get(z, ()) for z in children) <= d
               for center, children in members + [(c, a)]):
            members.append((c, a))
    return [node(MULTISET, center, sorted(children)) for center, children in members]


def test_defective_refuter_takes_classes_of_low_center_defect():
    # the classes own T's colors round robin, at most d+1 each; where
    # c(d+1) >= |T| every color of T is owned and the pick needs blocking
    rng = random.Random(30)
    refuted = blocked = 0
    for delta, d in ((4, 1), (5, 1), (6, 1), (6, 2), (8, 1), (8, 2)):
        m = 2 * delta * delta
        count = delta * delta // (4 * (d + 1) ** 2)
        t = range(1, delta // 2 + 2)
        for _ in range(30 // count + 1):
            classes = [twin_heavy_class(m, delta, d, [o for o in t if (o - 1) % count == k][:d + 1],
                                        rng) for k in range(count)]
            for cls in classes:
                assert class_defect(cls) > d >= center_defect_oracle(cls)
            out = uncovered_defective_node(classes, m, delta, d)
            assert all(out is not member for cls in classes for member in cls)
            refuted += count
            if count * (d + 1) >= len(t):
                assert out.child_size > len(t) - 1
                blocked += 1
    assert refuted >= 100 and blocked >= 20


@pytest.mark.parametrize("call", [
    lambda cls: orientation_of(cls, 7),
    lambda cls: defective_sources(cls, 7, 1),
    lambda cls: uncovered_local1_node([cls], 7, 4),
    lambda cls: uncovered_defective_node([cls], 32, 4, 1),
], ids=["orientation", "defective-sources", "local1", "defective"])
def test_one_round_code_refuses_a_member_listing_its_center(call):
    cls = [node(MULTISET, 3, [2]), node(MULTISET, 1, [1, 2])]
    with pytest.raises(ParameterError, match=r"centered at \[1\] list their own center"):
        call(cls)


@pytest.mark.parametrize("delta", [0, -1, -2])
def test_one_round_refuters_refuse_delta_below_one(delta):
    with pytest.raises(ParameterError, match=f"need delta >= 1, got delta={delta}"):
        uncovered_local1_node([], 7, delta)
    with pytest.raises(ParameterError, match=f"need delta >= 1, got delta={delta}"):
        uncovered_defective_node([], 7, delta, 0)


def test_one_round_refuters_take_delta_one():
    # floor(1/2) + 1 = 1 color in T and no blocking: (1, {})
    assert uncovered_local1_node([], 7, 1) is node(MULTISET, 1, [])
    assert uncovered_defective_node([], 7, 1, 0) is node(MULTISET, 1, [])
    assert uncovered_local1_node([], 7, 1, kind=SET) is node(SET, 1, [])


def half_erased(classes):
    """Each class with every other member, from its second on, turned
    into the set vertex with the same colors: mixed SET/MULTISET classes
    whose first members keep the kind the refuters infer."""
    return [[erase_multiplicities(u) if i % 2 else u for i, u in enumerate(cls)]
            for cls in classes]


def test_one_round_code_merges_leaves_of_both_kinds_by_color(host_7_4):
    families = 0
    for delta, d, seeds in ((4, 0, 2), (4, 1, 2), (5, 1, 3), (6, 1, 3)):
        m = 2 * delta * delta
        count = delta * delta // (4 * (d + 1) ** 2)
        for seed in range(seeds):
            classes = random_defective_classes(m, delta, d, count, seed)
            mixed = half_erased(classes)
            assert {u.kind for cls in mixed for u in cls} == {SET, MULTISET}
            assert (uncovered_defective_node(mixed, m, delta, d)
                    is uncovered_defective_node(classes, m, delta, d))
            for cls, both in zip(classes, mixed):
                assert defective_sources(both, m, d) == defective_sources(cls, m, d)
                # each member's own colors, where its center is a source
                # only if no member at that center is lost
                for u in cls[:40]:
                    within = [u.inner.base_color, *(y.base_color for y in u.child_lookup)]
                    assert (defective_sources(both, m, d, within)
                            == defective_sources(cls, m, d, within))
            families += 1
    for seed in range(5):
        classes = random_independent_sets(host_7_4, 4, seed)
        mixed = half_erased(sorted(cls, key=canonical_encode) for cls in classes)
        assert uncovered_local1_node(mixed, 7, 4) is uncovered_local1_node(classes, 7, 4)
        families += 1
    assert families == 15


# --- headline arithmetic ------------------------------------------------------

def test_lower_bound_examples():
    rep = lower_bound_rounds(1024, 1, 0)
    assert rep.rounds == 4
    assert abs(rep.neighbor_bound - 128.0) < 1e-9
    assert rep.threshold_ok
    assert lower_bound_rounds(16, 1, 0).rounds == 1


def test_lower_bound_monotonicity():
    rounds = [lower_bound_rounds(d, 1, 0).rounds for d in range(16, 8000, 400)]
    assert all(a <= b for a, b in zip(rounds, rounds[1:]))
    etas = [lower_bound_rounds(4096, 1, e).rounds for e in
            [i / 20 for i in range(20)]]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_lower_bound_parameter_errors():
    with pytest.raises(ParameterError):
        lower_bound_rounds(16, 1, 1.0)
    with pytest.raises(ParameterError):
        lower_bound_rounds(16, 0, 0.5)


@pytest.mark.parametrize("C, eta", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan),
    (1.0, math.inf), (1.0, -math.inf),
    # finite, but 2C delta^(2+eta) is not a float
    (1e308, 0.0),
])
def test_lower_bound_refuses_non_finite_inputs(C, eta):
    with pytest.raises(ParameterError):
        lower_bound_rounds(64, C, eta)


@pytest.mark.parametrize("delta", [10**200, 10**400])
def test_lower_bound_refuses_a_delta_past_float_range(delta):
    with pytest.raises(ParameterError, match="overflows"):
        lower_bound_rounds(delta)


@pytest.mark.parametrize("C", [5e-324, 1e-310])
def test_lower_bound_refuses_a_rounds_quotient_past_float_range(C):
    # 2C delta^2 is a float, but delta / (16C) is not
    with pytest.raises(ParameterError, match="overflows"):
        lower_bound_rounds(64, C)


def walked_rounds(delta, C, eta):
    """The floor of the rounds bound as it was first found: one step at a
    time from the float cube root."""
    t = delta ** (1 - eta) / (16 * C)
    r = int(t ** (1.0 / 3.0))
    while (r + 1) ** 3 <= t + 1e-9:
        r += 1
    while r > 0 and r**3 > t + 1e-9:
        r -= 1
    return r


@pytest.mark.parametrize("C, eta", [(1.0, 0.0), (2.0, 0.0), (0.001, 0.25), (3.7, 0.5),
                                    (1e6, 0.1), (0.5, 0.9)])
def test_lower_bound_rounds_equal_the_walk_from_the_float_root(C, eta):
    for e in range(41):
        for delta in {10**e, 10**e + 1, max(10**e - 1, 1), 16 * 10**e}:
            assert lower_bound_rounds(delta, C, eta).rounds == walked_rounds(delta, C, eta)
    # perfect cubes, where the float root can land on either side
    for k in range(1, 200):
        assert lower_bound_rounds(16 * k**3).rounds == k


def test_lower_bound_returns_for_a_delta_of_seventy_and_more_digits():
    script = (
        "from colorreduce import lower_bound_rounds\n"
        "for delta in (10**70, 10**150):\n"
        "    r = lower_bound_rounds(delta).rounds\n"
        "    t = delta / 16 + 1e-9\n"
        "    assert r ** 3 <= t < (r + 1) ** 3, r\n"
        "    print(r)\n"
    )
    proc = run_python(script, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert [len(line) for line in proc.stdout.split()] == [23, 50]


def walked_independent_sets(graph, count, seed):
    """random_independent_sets as it was before shared rows were skipped:
    every chosen vertex blocks itself and its whole row."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(graph.n_vertices))
        rng.shuffle(order)
        blocked, chosen = set(), []
        for i in order:
            if i in blocked:
                continue
            chosen.append(i)
            blocked.add(i)
            blocked.update(graph.adjacency[i])
        out.append(frozenset(graph.vertices[i] for i in chosen))
    return out


def test_independent_sets_equal_the_row_by_row_walk(host_7_4):
    hosts = [host_7_4, build_local1(5, 3, SET), build_relaxed_levels(2, 3, 2)[-1]]
    assert len(set(map(id, host_7_4.adjacency))) < host_7_4.n_vertices
    for host in hosts:
        for seed in range(50):
            assert random_independent_sets(host, 4, seed) == walked_independent_sets(host, 4, seed)


@pytest.mark.parametrize("call,named", [
    (lambda: uncovered_local1_node([], 7, 4.0), "delta=4.0"),
    (lambda: uncovered_local1_node([], 7.5, 4), "m=7.5"),
    (lambda: uncovered_local1_node([], True, 4), "m=True"),
    (lambda: uncovered_defective_node([], 32, 4, True), "d=True"),
    (lambda: uncovered_defective_node([], 32.0, 4, 0), "m=32.0"),
    (lambda: defective_sources([], 5, 0.0), "d=0.0"),
    (lambda: defective_sources([], "5", 0), "m='5'"),
    (lambda: refute_relaxed([], 1.0, 7, 4), "r=1.0"),
    (lambda: refute_relaxed([], 1, 7, 4.0), "bound=4.0"),
    (lambda: lower_bound_rounds(True), "delta=True"),
    (lambda: lower_bound_rounds(8.5), "delta=8.5"),
], ids=["local1-delta", "local1-m", "local1-bool-m", "defective-d", "defective-m",
        "sources-d", "sources-m", "relaxed-r", "relaxed-bound", "bound-bool", "bound-float"])
def test_refuters_refuse_non_integer_parameters(call, named):
    with pytest.raises(ParameterError, match="need integer .*" + re.escape(named)):
        call()


# --- the class generators against their random.Random bodies ----------------

def parent_independent_sets(graph, count, seed):
    """random_independent_sets as it drew through random.Random.shuffle."""
    rng = random.Random(seed)
    out = []
    n, rows = graph.n_vertices, graph.adjacency
    twins = graph.variant == MULTISET
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        blocked, chosen, met = set(), [], set()
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
        out.append(frozenset(graph.vertices[i] for i in chosen))
    return out


def parent_defective_classes(m, delta, d, count, seed):
    """random_defective_classes as it drew through random.Random's
    randrange and sample."""
    rng = random.Random(seed)
    leaves = {c: View.leaf(MULTISET, c) for c in range(1, m + 1)}
    out = []
    for _ in range(count):
        members, by_center, degrees = [], {}, {}
        for _ in range(4 * m):
            x = rng.randrange(1, m + 1)
            size = rng.randrange(0, delta + 1)
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


def parent_relaxed_class(levels, size, seed, bound):
    """random_relaxed_class as it drew through random.Random's randrange
    and sample."""
    rng = random.Random(seed)
    top = levels[-1]
    chosen, keys = set(), set()
    for _ in range(size * 8):
        if len(chosen) >= size:
            break
        i = rng.randrange(top.n_vertices)
        x = top.vertices[i]
        nbrs = [top.vertices[j] for j in top.adjacency[i]]
        k = rng.randrange(0, min(bound, len(nbrs)) + 1)
        node = View.make(SET, x, rng.sample(nbrs, k))
        if any((y, x) in keys for y in node.child_lookup):
            continue
        chosen.add(node)
        keys.update((x, y) for y in node.child_lookup)
    return frozenset(chosen)


def test_independent_sets_draw_what_random_random_drew(host_7_4):
    one = NbhdGraph("relaxed", 2, 1, 0, SET, (leaf(SET, 1),), ((),))
    hosts = [host_7_4, build_local1(5, 3, SET), build_relaxed_levels(2, 3, 2)[-1],
             build_relaxed_levels(0, 2, 1)[0], one]
    for host in hosts:
        for seed in range(100):
            for count in (0, 2):
                got = random_independent_sets(host, count, seed)
                assert got == parent_independent_sets(host, count, seed), (host.m, seed)


@pytest.mark.parametrize("m, delta, d, count", [
    (1, 0, 0, 2), (1, 3, 1, 2), (2, 0, 0, 2), (2, 1, 0, 2), (2, 3, 1, 1), (5, 3, 0, 2),
    (5, 4, 1, 0), (32, 4, 1, 1), (72, 6, 1, 2), (72, 6, 0, 1),
])
def test_defective_classes_draw_what_random_random_drew(m, delta, d, count):
    for seed in range(100):
        got = random_defective_classes(m, delta, d, count, seed)
        assert got == parent_defective_classes(m, delta, d, count, seed), seed


@pytest.mark.parametrize("r, m, size, bound", [
    (1, 7, 25, 4), (1, 7, 10, 0), (1, 2, 5, 1), (2, 3, 20, 2), (2, 5, 40, 4), (1, 9, 30, 6),
    (1, 4, 0, 2),
])
def test_relaxed_class_draws_what_random_random_drew(r, m, size, bound):
    levels = build_relaxed_levels(r - 1, m, max(bound, 1))
    for seed in range(100):
        got = random_relaxed_class(levels, size, seed, bound)
        assert got == parent_relaxed_class(levels, size, seed, bound), seed


@pytest.mark.parametrize("call", [
    lambda seed: random_independent_sets(_HOST_3_2, 1, seed),
    lambda seed: random_defective_classes(5, 3, 1, 1, seed),
    lambda seed: random_relaxed_class(_LEVELS_3_2, 3, seed, 2),
], ids=["independent", "defective", "relaxed"])
@pytest.mark.parametrize("seed", [None, 2.0, "2", False])
def test_class_generators_need_integer_seeds(call, seed):
    with pytest.raises(ParameterError, match=re.escape(f"need integer seed, got seed={seed!r}")):
        call(seed)


def test_relaxed_class_refuses_a_top_level_without_vertices():
    empty = NbhdGraph("relaxed", 3, 2, 1, SET, (), ())
    for size in (0, 3):
        with pytest.raises(ParameterError, match="top level with at least one vertex"):
            random_relaxed_class([empty], size, 0, 2)

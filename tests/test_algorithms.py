"""Color reduction algorithms against brute-force oracles."""

import math
import random
from itertools import combinations

import pytest

from colorreduce import (SET, ColorAssignment, ColoredGraph,
                         ConstructionError, ParameterError,
                         build_family, delta_plus_one_program,
                         delta_plus_one_schedule, kw_palette_schedule,
                         kw_step_program, kw_target, linial_full_program,
                         linial_palette_schedule, linial_params,
                         linial_step_program, logstar2, random_colored_tree,
                         run, validate_proper)
from colorreduce.algorithms import _iroot, _linial_rule, is_prime
from conftest import run_python, star_next


def oracle_params(m, delta, max_deg=20, max_prime=10**4):
    """Exhaustive search for the best (q, deg): independent of the search
    in the implementation."""
    primes = [p for p in range(2, max_prime) if is_prime(p)]
    best = None
    for deg in range(1, max_deg + 1):
        for q in primes:
            if q > delta * deg and q ** (deg + 1) >= m:
                if best is None or (q * q, deg) < best:
                    best = (q * q, deg, q)
                break
    return best


def test_linial_params_oracle_million():
    target, deg, q = oracle_params(10**6, 4)
    assert (q, deg, target) == (17, 4, 289)
    p = linial_params(10**6, 4)
    assert (p.q, p.deg, p.target) == (17, 4, 289)


def test_linial_params_oracle_sixteen():
    target, deg, q = oracle_params(16, 2)
    assert (q, deg, target) == (5, 1, 25)
    p = linial_params(16, 2)
    assert (p.q, p.deg, p.target) == (5, 1, 25)
    assert p.target > 16  # the fixpoint case


def test_linial_params_matches_oracle_on_grid():
    for m in (2, 7, 100, 5000, 123457):
        for delta in (1, 2, 3, 5, 9):
            p = linial_params(m, delta)
            assert p.q > delta * p.deg
            assert p.q ** (p.deg + 1) >= m
            assert oracle_params(m, delta)[0] == p.target


def walked_params(m, delta):
    """(q, deg) as linial_params first searched for it: every degree in
    ascending order, its root walked by ones from the float guess, until
    delta*deg + 1 alone reaches the best prime."""
    best = None
    for deg in range(1, max(1, math.ceil(math.log2(m))) + 2):
        root = max(1, int(round(m ** (1.0 / (deg + 1)))) - 2)
        while root ** (deg + 1) < m:
            root += 1
        q = max(delta * deg + 1, root)
        while not is_prime(q):
            q += 1
        if best is not None and delta * deg + 1 >= best[0]:
            break
        if best is None or q < best[0]:
            best = (q, deg)
    return best


def test_linial_params_equal_the_walked_search():
    rng = random.Random(2024)
    pairs = [(m, delta) for m in range(2, 400) for delta in range(1, 41, 3)]
    pairs += [(10**e, delta) for e in range(1, 19) for delta in (1, 2, 3, 7, 40)]
    pairs += [(rng.randrange(2, 10**12), rng.randint(1, 40)) for _ in range(300)]
    for m, delta in pairs:
        p = linial_params(m, delta)
        assert (p.q, p.deg) == walked_params(m, delta), (m, delta)


def test_iroot_is_the_floor_of_the_real_root():
    for k in range(1, 7):
        for n in range(300):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    for k in (2, 3, 5, 41):
        for base in (10**30, 2**200 + 1, 3**300):
            for n in (base**k - 1, base**k, base**k + 1):
                r = _iroot(n, k)
                assert r**k <= n < (r + 1) ** k


HUGE_PALETTE_SCRIPT = """
from colorreduce import delta_plus_one_program, linial_params
for m in (10**40, 10**400):
    p = linial_params(m, 3)
    palettes = delta_plus_one_program(m, 3).meta["palettes"]
    print(p.q, p.deg, palettes[-1])
"""


def test_linial_params_returns_for_huge_palettes():
    # the degree-1 root of 10**40 is near 10**20; trial-dividing its
    # neighborhood for a prime would not return
    proc = run_python(HUGE_PALETTE_SCRIPT, timeout=30)
    assert proc.returncode == 0, proc.stderr
    got = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    for (q, deg, last), m in zip(got, (10**40, 10**400), strict=True):
        target, oracle_deg, oracle_q = oracle_params(m, 3, max_deg=m.bit_length() + 1)
        assert (q, deg, last) == (oracle_q, oracle_deg, 4)


def test_build_family_zero_polynomial():
    fam = build_family(linial_params(16, 2), 16)
    assert fam.params.q == 5
    # zero polynomial: points (a, 0), ground index a*q + 0 + 1
    assert fam.member(1) == frozenset({1, 6, 11, 16, 21})


def test_build_family_hand_evaluated():
    fam = build_family(linial_params(16, 2), 16)
    # color 7: digits of 6 base 5 are (1,1), so P(x) = 1 + x
    # points (0,1),(1,2),(2,3),(3,4),(4,0) -> indices 2, 8, 14, 20, 21
    assert fam.member(7) == frozenset({2, 8, 14, 20, 21})


def test_family_pairwise_intersections():
    p = linial_params(25, 2)
    assert (p.q, p.deg) == (5, 1)
    fam = build_family(p, 25)
    sets = fam.members()
    for a, b in combinations(range(25), 2):
        assert len(sets[a] & sets[b]) <= p.deg
        assert len(sets[a]) == 5


def test_cover_freeness_brute_force():
    # every member survives the union of any delta others
    for m, delta in ((25, 2), (25, 3), (49, 3)):
        p = linial_params(m, delta)
        assert p.q <= 7
        fam = build_family(p, m)
        sets = fam.members()
        for c in range(m):
            others = [i for i in range(m) if i != c]
            for group in combinations(others, delta):
                union = set()
                for i in group:
                    union |= sets[i]
                assert sets[c] - union, f"member {c} covered by {group}"


def test_linial_step_single_node():
    g = ColoredGraph.from_edges(1, [], [9], 16, 2)
    prog = linial_step_program(16, 2)
    phi, _ = run(g, prog, SET)
    fam = build_family(linial_params(16, 2), 16)
    assert phi[0] == min(fam.member(9))


def test_linial_step_path():
    g = ColoredGraph.from_edges(3, [(0, 1), (1, 2)], [1, 2, 3], 16, 2)
    phi, _ = run(g, linial_step_program(16, 2), SET)
    assert validate_proper(g, phi)
    assert max(phi.colors) <= 25


def test_linial_step_random_trees():
    prog = linial_step_program(16, 2)
    for seed in range(300):
        g = random_colored_tree(12, 2, 16, seed=seed)
        phi, _ = run(g, prog, SET)
        assert validate_proper(g, phi)


def test_linial_schedule_million():
    assert linial_palette_schedule(10**6, 4) == [10**6, 289, 121]
    prog = linial_full_program(10**6, 4)
    assert prog.round_budget(10**6, 4, 1) == 2


def test_linial_schedule_fixpoint_identity():
    # already at (or below) the fixpoint: zero rounds
    sched = linial_palette_schedule(25, 2)
    assert sched == [25]
    prog = linial_full_program(25, 2)
    g = random_colored_tree(6, 2, 25, seed=0)
    phi, _ = run(g, prog, SET)
    assert phi.colors == g.psi


def test_linial_rounds_logstar_bound():
    for m in (2, 10, 100, 10**4, 10**6, 10**9):
        for delta in (1, 2, 4, 8, 16):
            rounds = len(linial_palette_schedule(m, delta)) - 1
            assert rounds <= logstar2(m) + 3


def test_kw_targets():
    assert kw_target(10, 2) == 8
    assert kw_target(7, 5) == 6


def test_kw_step_recolors_from_private_ranges():
    # m=10, delta=2: colors 9, 10 recolor from {1,2,3} and {4,5,6}
    prog = kw_step_program(10, 2)
    g = ColoredGraph.from_edges(3, [(0, 1), (1, 2)], [9, 10, 2], 10, 2)
    phi, _ = run(g, prog, SET)
    assert validate_proper(g, phi)
    assert phi[0] in {1, 2, 3}
    assert phi[1] in {4, 5, 6}
    assert phi[2] == 2


def test_kw_step_noop_error():
    with pytest.raises(ParameterError):
        kw_step_program(6, 5)


@pytest.mark.parametrize("call, args", [
    (linial_params, (16, True)), (linial_params, (16.0, 2)), (linial_params, (16, 2.0)),
    (linial_palette_schedule, (16, 1.5)), (linial_step_program, (16, True)),
    (linial_full_program, (16.5, 2)), (kw_palette_schedule, (10, 0)),
    (kw_palette_schedule, (10.0, 2)), (kw_palette_schedule, (10, "2")),
    (kw_step_program, (12, -1)), (kw_step_program, (12, 0)), (kw_step_program, (12, 2.0)),
    (delta_plus_one_schedule, (10**4, 2.0)), (delta_plus_one_program, (10**4, 2.0)),
    (delta_plus_one_program, (10, 0)), (delta_plus_one_program, ("10", 2)),
])
def test_schedules_refuse_non_integer_or_non_positive_degrees(call, args):
    with pytest.raises(ParameterError):
        call(*args)


FRACTIONAL_DELTA_SCRIPT = """
import resource
cap = 512 * 2**20  # address space; a runaway schedule fails fast here
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from colorreduce import ParameterError, delta_plus_one_program, kw_palette_schedule
for call in (kw_palette_schedule, delta_plus_one_program):
    try:
        call(10, 1.5)
    except ParameterError as exc:
        print(exc)
"""


def test_schedules_refuse_a_fractional_delta_in_bounded_time_and_memory():
    # a merge schedule for delta = 1.5 never reaches delta + 1, so its
    # palette list grows until memory runs out; run it where that is capped
    proc = run_python(FRACTIONAL_DELTA_SCRIPT, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["need integer m, delta, got m=10, delta=1.5"] * 2


def test_kw_recurrence_strictly_decreasing():
    for delta in range(2, 9):
        sched = kw_palette_schedule(300, delta)
        assert all(a > b for a, b in zip(sched, sched[1:]))
        assert sched[-1] == delta + 1


def test_kw_random_trees_proper():
    prog = kw_step_program(12, 3)
    for seed in range(300):
        g = random_colored_tree(10, 3, 12, seed=seed)
        phi, _ = run(g, prog, SET)
        assert validate_proper(g, phi)
        assert max(phi.colors) <= kw_target(12, 3)


def test_delta1_schedule_million():
    sched = delta_plus_one_schedule(10**6, 4)
    assert sched[:3] == [10**6, 289, 121]
    assert sched[-1] == 5
    # KW tail follows the ceiling recurrence exactly
    tail = sched[2:]
    for a, b in zip(tail, tail[1:]):
        assert b == kw_target(a, 4)


def test_delta1_minimal_m_single_round():
    prog = delta_plus_one_program(6, 4)
    assert prog.round_budget(6, 4, 1) == 1
    g = random_colored_tree(8, 4, 6, seed=1)
    phi, _ = run(g, prog, SET)
    assert validate_proper(g, phi) and max(phi.colors) <= 5


def test_delta1_intermediate_rounds_stay_proper():
    # every broadcast color sequence must be proper round by round
    prog = delta_plus_one_program(100, 3)
    for seed in range(20):
        g = random_colored_tree(14, 3, 100, seed=seed)
        phi, trace = run(g, prog, SET, trace=True)
        assert validate_proper(g, phi)
        for t in range(1, len(trace.rounds) + 1):
            colors = [int(trace.sent_at(t, v)) for v in range(g.n)]
            inter = ColorAssignment(tuple(colors), max(colors))
            assert validate_proper(g, inter), f"round {t} improper"


def _member_oracle(fam, color, neighbor_colors):
    """The reduction step read off the color sets themselves."""
    banned = set()
    for c in neighbor_colors:
        banned |= fam.member(c)
    free = fam.member(color) - banned
    return min(free) if free else None


@pytest.mark.parametrize("m, delta", [(16, 2), (100, 3), (10**4, 5), (10**6, 8)])
def test_linial_rule_equals_member_oracle(m, delta):
    fam = build_family(linial_params(m, delta), m)
    q = fam.params.q
    rule = _linial_rule(fam)
    rng = random.Random(m * 31 + delta)
    collisions = 0
    for _ in range(400):
        color = rng.randint(1, m)
        # same constant coefficient as color: the polynomials meet at a = 0
        twins = [c for c in range(color % q or q, m + 1, q) if c != color]
        pool = rng.sample(twins, min(len(twins), rng.randint(0, delta)))
        while len(pool) < delta:
            c = rng.randint(1, m)
            if c != color and c not in pool:
                pool.append(c)
        neighbors = set(rng.sample(pool, rng.randint(0, delta)))
        collisions += any(c in twins for c in neighbors)
        assert star_next(rule, color, neighbors) == _member_oracle(fam, color, neighbors)
    assert collisions > 50


def test_linial_rule_exhausted_and_out_of_range():
    fam = build_family(linial_params(16, 2), 16)
    rule = _linial_rule(fam)
    assert _member_oracle(fam, 7, {7}) is None
    with pytest.raises(ConstructionError):
        star_next(rule, 7, {7})
    with pytest.raises(ParameterError):
        star_next(rule, 17, {1})
    with pytest.raises(ParameterError):
        star_next(rule, 1, {2, 17})


@pytest.mark.parametrize("color, neighbor_colors, bad", [
    (17, {1}, 17),
    (1, {2, 17}, 17),
    (17, set(), 17),
    (0, {17}, 0),
    (1, {2, -1}, -1),
    # two bad neighbors: the message names the first in the set's order,
    # which is the order of the star's leaves
    (1, {17, 40}, 40),
    (1, {33, 17}, 33),
    (1, {0, 17}, 0),
])
def test_linial_rule_names_the_first_out_of_range_color(color, neighbor_colors, bad):
    rule = _linial_rule(build_family(linial_params(16, 2), 16))
    with pytest.raises(ParameterError) as info:
        star_next(rule, color, neighbor_colors)
    assert str(info.value) == f"color {bad} outside [1, 16]"


def test_family_holds_no_state_beyond_its_fields():
    # a frozen value is shareable across threads only if nothing in it mutates
    fam = build_family(linial_params(16, 2), 16)
    fam.members()
    assert set(vars(fam)) == {"params", "m"}

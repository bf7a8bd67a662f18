"""Acceptance suite: one test per criterion, one pass/fail line each,
plus pinned facts that extend a criterion to the next host.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Frozen fit constants and parameter grids live at the top of each test.
"""

import math
import time

from colorreduce import (MULTISET, SET, build_local1, build_relaxed_levels,
                         canonical_decode, check_correspondence, chi_exact,
                         class_defect, delta_plus_one_program, dsatur,
                         embedded_clique, erase_multiplicities,
                         export_dimacs, extract_view, extract_all_views,
                         full_information_program, is_independent,
                         is_k_colorable, kw_step_program, kw_target,
                         linial_full_program, linial_palette_schedule,
                         linial_step_program, logstar2, lower_bound_rounds,
                         random_colored_tree, read_dimacs, refute_relaxed,
                         run, source_chain, relaxed_to_typed_hom,
                         typed_to_setlocal_hom, uncovered_defective_node,
                         uncovered_local1_node, validate_proper,
                         verify_homomorphism)
from colorreduce.algorithms import is_prime
from colorreduce.bounds import (random_defective_classes,
                                random_independent_sets, random_relaxed_class)
from colorreduce.chromatic import as_adjacency


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_delta1_pipeline():
    # frozen at first calibration: rounds <= A*delta*ln(delta+1) + logstar2(m) + B
    FIT_A, FIT_B = 3.0, 1.0
    TREES, NODES = 1000, 24
    deltas = range(2, 9)
    ms = (100, 10**4, 10**6)
    start = time.time()
    failures = 0
    for delta in deltas:
        for m in ms:
            prog = delta_plus_one_program(m, delta)
            rounds = prog.round_budget(m, delta, NODES)
            bound = FIT_A * delta * math.log(delta + 1) + logstar2(m) + FIT_B
            assert rounds <= bound, f"rounds {rounds} > fit {bound:.1f} at ({delta}, {m})"
            for i in range(TREES):
                g = random_colored_tree(NODES, delta, m, seed=i)
                phi, _ = run(g, prog, SET)
                if not (validate_proper(g, phi) and max(phi.colors) <= delta + 1):
                    failures += 1
    elapsed = time.time() - start
    _report(1, failures == 0 and elapsed < 120,
            f"21 grid points x {TREES} trees, {failures} improper, "
            f"rounds fit (a={FIT_A}, b={FIT_B}), {elapsed:.1f}s < 120s")


def test_criterion_02_linial_fixpoint_trace():
    # independent oracle: exhaustive (q, deg) search per palette
    def oracle_target(m, delta):
        best = None
        for deg in range(1, 21):
            q = delta * deg + 1
            while not is_prime(q) or q ** (deg + 1) < m:
                q += 1
            best = min(best or q * q, q * q)
        return best

    palettes = [10**6]
    while True:
        nxt = oracle_target(palettes[-1], 4)
        if nxt >= palettes[-1]:
            break
        palettes.append(nxt)
    got = linial_palette_schedule(10**6, 4)
    rounds = linial_full_program(10**6, 4).round_budget(10**6, 4, 1)
    _report(2, got == palettes == [10**6, 289, 121] and rounds == 2,
            f"palettes {got}, {rounds} rounds")


def test_criterion_03_kw_single_step():
    checks = [
        (10, 2, 8),
        (7, 5, 6),
    ]
    ok = True
    for m, delta, expected in checks:
        formula = math.ceil(m * (1 - 1 / (delta + 2)))
        ok = ok and kw_target(m, delta) == expected == formula
        prog = kw_step_program(m, delta)
        ok = ok and prog.meta["palettes"] == (m, expected)
    _report(3, ok, "kw targets 10->8 (delta 2) and 7->6 (delta 5) exact")


def test_criterion_04_one_round_bound_delta3():
    host = build_local1(5, 3, MULTISET)
    start = time.time()
    status, _ = is_k_colorable(host, 2)
    elapsed = time.time() - start
    _report(4, status == "no" and elapsed < 1.0,
            f"one-round graph (m=5, delta=3) 2-colorable: {status} in {elapsed:.3f}s "
            f"(so chi > 9/4)")


def test_criterion_05_one_round_bound_delta4(tmp_path, host_7_4):
    host = host_7_4
    col = tmp_path / "local1_7_4.col"
    export_dimacs(host, col)
    n, edges = read_dimacs(col)
    export_ok = n == host.n_vertices and len(edges) == host.n_edges
    sidecar_ok = (tmp_path / "local1_7_4.col.map.json").exists()
    clique = embedded_clique(host)
    adj = as_adjacency(host)
    clique_ok = clique is not None and len(clique) == 5 and all(
        b in adj[a] for i, a in enumerate(clique) for b in clique[i + 1 :]
    )
    # internal solver route, far inside the 10-minute budget: exhausting
    # k=5 pins chi to 6 (saturation greedy reaches 6 from above)
    start = time.time()
    status, _ = is_k_colorable(host, 5, budget=60_000_000)
    solver_elapsed = time.time() - start
    solver_ok = status == "no" and solver_elapsed < 600
    _report(5, export_ok and sidecar_ok and clique_ok and solver_ok,
            f"DIMACS export of {n} vertices / {len(edges)} edges with sidecar; "
            f"planted 5-clique verified; internal solver exhausted k=5 in "
            f"{solver_elapsed:.1f}s, so chi = 6 >= 5")


def test_local1_84_k5_exhausted_at_pinned_budget():
    # the next one-round host (2640 vertices, 403200 edges): the search
    # exhausts k=5 after exactly 10796 expansions, so chi(local1(8,4)) > 5;
    # saturation greedy gives 7, and k=6 stays open at budget 200000
    host = build_local1(8, 4, MULTISET)
    assert (host.n_vertices, host.n_edges) == (2640, 403_200)
    assert is_k_colorable(host, 5, budget=10_796) == ("no", None)
    assert is_k_colorable(host, 5, budget=10_795) == ("unknown", None)


def test_local1_84_k6_open_at_200k_budget():
    # saturation greedy 7-colors local1(8,4), and 200000 expansions
    # neither find a 6-coloring nor exhaust k=6, so chi is 6 or 7
    host = build_local1(8, 4, MULTISET)
    assert dsatur(as_adjacency(host))[1] == 7
    assert is_k_colorable(host, 6, budget=200_000) == ("unknown", None)


def test_criterion_06_refuter_suite(host_7_4):
    grid = [(2, 3, 167), (3, 5, 167), (4, 7, 166)]
    runs = 0
    for delta, m, reps in grid:
        c = delta * delta // 4
        host = host_7_4 if (m, delta) == (7, 4) else build_local1(m, delta, MULTISET)
        for rep in range(reps):
            classes = random_independent_sets(host, c, seed=rep * 31 + delta)
            node = uncovered_local1_node(classes, m, delta)
            # returned vertex re-verified: shape valid and in no class
            assert 1 <= node.inner.base_color <= m
            assert node.child_size < delta
            assert all(ch.base_color != node.inner.base_color
                       for ch in node.distinct_children())
            for cls in classes:
                assert node not in cls
            runs += 1
    _report(6, runs == 500, f"{runs}/500 refuter runs produced verified uncovered nodes")


def test_criterion_07_defective_refuter_suite():
    d = 1
    grid = [(4, 67), (5, 67), (6, 66)]
    runs = 0
    for delta, reps in grid:
        m = 2 * delta * delta
        c = delta * delta // (4 * (d + 1) * (d + 1))
        for rep in range(reps):
            classes = random_defective_classes(m, delta, d, count=c,
                                               seed=rep * 13 + delta)
            for cls in classes:
                assert class_defect(cls) <= d
            node = uncovered_defective_node(classes, m, delta, d)
            assert node.child_size < delta
            for cls in classes:
                assert all(node is not member for member in cls)
            runs += 1
    _report(7, runs == 200, f"{runs}/200 defective refuter runs succeeded "
            f"(induced-degree assertion never tripped)")


def test_criterion_08_source_chain_suite():
    levels = build_relaxed_levels(2, 3, 2)
    chains = 0
    for rep, cls in enumerate(random_independent_sets(levels[2], 500, seed=5)):
        chain = source_chain(cls, levels[:2])
        assert is_independent(chain[1]) and is_independent(chain[2])
        chains += 1
    # clique-source uniqueness is asserted inside every refuter run
    refutes = 0
    lv1 = build_relaxed_levels(0, 7, 4)
    for seed in range(30):
        classes = [random_relaxed_class(lv1, 25, seed=seed * 11 + k, bound=4)
                   for k in range(4)]
        refute_relaxed(classes, 1, 7, 4, levels=lv1)
        refutes += 1
    lv2 = build_relaxed_levels(1, 5, 4)
    for seed in range(20):
        classes = [random_relaxed_class(lv2, 40, seed=seed * 17 + k, bound=4)
                   for k in range(2)]
        refute_relaxed(classes, 2, 5, 4, levels=lv2)
        refutes += 1
    _report(8, chains == 500 and refutes == 50,
            f"{chains}/500 chains independent at every level; "
            f"{refutes} refuter runs with zero uniqueness violations")


def test_criterion_09_homomorphism_suite():
    h_points = [(1, 3, 2), (1, 4, 2), (2, 3, 2)]
    f_points = [(1, 3, 1), (1, 4, 2)]
    exact_pairs = 0
    for r, m, d in h_points:
        hom = typed_to_setlocal_hom(r, m, d)
        assert verify_homomorphism(hom).ok
        lo, hi = chi_exact(hom.domain), chi_exact(hom.codomain)
        if lo.exact and hi.exact:
            assert lo.lower <= hi.lower
            exact_pairs += 1
    for r, m, d in f_points:
        hom = relaxed_to_typed_hom(r, m, d)
        assert verify_homomorphism(hom).ok
        lo, hi = chi_exact(hom.domain), chi_exact(hom.codomain)
        if lo.exact and hi.exact:
            assert lo.lower <= hi.lower
            exact_pairs += 1
    _report(9, exact_pairs == 5,
            f"h verified at {h_points}, f at {f_points}; "
            f"chi monotone on {exact_pairs}/5 exactly solved pairs")


def test_criterion_10_correspondence():
    points = [
        (linial_step_program(16, 3), 16, 3),
        (linial_full_program(100, 3), 100, 3),
        (kw_step_program(10, 2), 10, 2),
        (delta_plus_one_program(60, 3), 60, 3),
        (full_information_program(2), 5, 3),
    ]
    checked = []
    for prog, m, delta in points:
        trees = [random_colored_tree(12, delta, m, seed=s) for s in range(100)]
        r = prog.round_budget(m, delta, 12)
        report = check_correspondence(prog, r, m, delta, trees)
        assert report.ok, f"{prog.name}: {report.determinism_violations[:1]} " \
                          f"{report.properness_violations[:1]}"
        checked.append(prog.name)
    _report(10, len(checked) == 5,
            f"zero violations for {', '.join(checked)} over 100 trees each")


def test_criterion_11_view_oracle():
    samples = 0
    seed = 0
    while samples < 1000:
        g = random_colored_tree(10, 3, 5, seed=seed)
        r = 1 + seed % 3
        for kind in (SET, MULTISET):
            prog = full_information_program(r)
            _, trace = run(g, prog, kind, trace=True)
            node_views = extract_all_views(g, r, kind)
            for v in range(g.n):
                assert trace.state_digest_at(r, v) == node_views[v].digest.hex()
                assert canonical_decode(trace.sent_at(r, v)) is extract_view(
                    g, v, r - 1, kind)
        multi = extract_all_views(g, r, MULTISET)
        plain = extract_all_views(g, r, SET)
        for v in range(g.n):
            assert erase_multiplicities(multi[v]) is plain[v]
            samples += 1
        seed += 1
    _report(11, samples >= 1000,
            f"{samples} (tree, node, r) samples: states match extracted views "
            f"in both semantics; multiset erasure equals set extraction")


def test_criterion_12_bound_calculator():
    base = lower_bound_rounds(1024, 1, 0)
    deltas = [lower_bound_rounds(2 ** (6 + i), 1, 0).rounds for i in range(20)]
    etas = [lower_bound_rounds(4096, 1, i / 20).rounds for i in range(20)]
    monotone = all(a <= b for a, b in zip(deltas, deltas[1:]))
    anti = all(a >= b for a, b in zip(etas, etas[1:]))
    _report(12, base.rounds == 4 and monotone and anti,
            f"rounds(1024,1,0)={base.rounds}; monotone over 20 deltas, "
            f"anti-monotone over 20 etas")

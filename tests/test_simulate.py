"""Simulator: delivery semantics, determinism, view correspondence."""

import io
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorreduce import (MULTISET, SET, ColoredGraph, ColorRounds,
                         ConstructionError, NodeProgram, ParameterError,
                         SimulationError, check_correspondence,
                         delta_plus_one_program, extract_view,
                         full_information_program, kw_step_program,
                         linial_full_program, linial_step_program,
                         random_colored_tree, run)
from colorreduce.algorithms import _kw_rule, _linial_rule
from conftest import star_next


def star3():
    return ColoredGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 2, 2], 2, 3)


def zero_round_identity():
    return NodeProgram(
        init=lambda color, m, d, n: color,
        step=lambda s, r: (s, b""),
        finalize=lambda s: s,
        round_budget=lambda m, d, n: 0,
        name="identity",
    )


def count_received_program():
    # broadcast own color; after one round output the received count + 1
    # (+1 keeps outputs positive; the set/multiset gap is what matters)
    def init(color, m, d, n):
        return ("fresh", color)

    def step(state, received):
        if state[0] == "fresh":
            return ("waiting",), b"%d" % state[1]
        return ("done", len(received)), b""

    def finalize(state):
        return state[1] + 1

    return NodeProgram(init, step, finalize, lambda m, d, n: 1, name="count")


def test_zero_round_program_outputs_psi():
    g = random_colored_tree(10, 3, 6, seed=4)
    phi, trace = run(g, zero_round_identity(), SET, trace=True)
    assert phi.colors == g.psi
    assert trace.rounds == ()  # rounds recorded == round budget == 0


def test_delivery_semantics_on_star():
    prog = count_received_program()
    g = star3()
    phi_set, _ = run(g, prog, SET)
    assert phi_set[0] == 1 + 1  # three identical messages collapse to one
    phi_multi, _ = run(g, prog, MULTISET)
    assert phi_multi[0] == 3 + 1  # multiplicities preserved
    assert all(phi_set[i] == 1 + 1 for i in (1, 2, 3))  # leaves see just the center


@pytest.mark.parametrize("r", [1.5, 2.0, True, -1, "2"])
def test_full_information_program_refuses_rounds_that_are_not_ints(r):
    with pytest.raises(ParameterError):
        full_information_program(r)


def test_trace_rounds_equal_budget_and_determinism():
    g = random_colored_tree(8, 3, 5, seed=9)
    prog = full_information_program(3)
    phi1, t1 = run(g, prog, SET, trace=True)
    phi2, t2 = run(g, prog, SET, trace=True)
    assert len(t1.rounds) == 3
    assert phi1 == phi2
    buf1, buf2 = io.StringIO(), io.StringIO()
    t1.to_jsonl(buf1)
    t2.to_jsonl(buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_trace_is_immutable():
    g = random_colored_tree(6, 3, 5, seed=2)
    _, trace = run(g, full_information_program(2), MULTISET, trace=True)
    with pytest.raises(FrozenInstanceError):
        trace.rounds = ()
    with pytest.raises(FrozenInstanceError):
        trace.kind = SET
    assert isinstance(trace.rounds, tuple)
    assert all(isinstance(row, tuple) for row in trace.rounds)


@pytest.mark.parametrize("accessor", ["sent_at", "state_digest_at"])
def test_trace_accessors_refuse_indices_out_of_range(accessor):
    g = random_colored_tree(6, 3, 5, seed=2)
    _, trace = run(g, full_information_program(2), MULTISET, trace=True)
    at = getattr(trace, accessor)
    assert at(1, 0) is not None and at(2, 5) is not None
    for round_index in (0, -1, 3):
        with pytest.raises(IndexError, match=rf"round {round_index} outside \[1, 2\]"):
            at(round_index, 0)
    for node in (-1, 6):
        with pytest.raises(IndexError, match=rf"node {node} outside \[0, 6\)"):
            at(1, node)


def test_full_information_state_decodes_to_view():
    from colorreduce import canonical_decode

    for seed in range(20):
        g = random_colored_tree(9, 3, 5, seed=seed)
        for kind in (SET, MULTISET):
            r = 2
            _, trace = run(g, full_information_program(r), kind, trace=True)
            for v in range(g.n):
                # message sent in round t encodes the (t-1)-view
                for t in range(1, r + 1):
                    sent = trace.sent_at(t, v)
                    assert canonical_decode(sent) is extract_view(g, v, t - 1, kind)
                # final state digest equals the r-view digest
                assert trace.state_digest_at(r, v) == extract_view(g, v, r, kind).digest.hex()


def test_full_information_round_zero():
    g = star3()
    phi, _ = run(g, full_information_program(0), SET)
    assert phi.colors == g.psi


def test_equal_views_give_byte_identical_states():
    # two different graphs, nodes with equal 1-views
    g1 = ColoredGraph.from_edges(3, [(0, 1), (1, 2)], [1, 2, 1], 3, 2)
    g2 = ColoredGraph.from_edges(2, [(0, 1)], [2, 1], 3, 2)
    _, t1 = run(g1, full_information_program(1), SET, trace=True)
    _, t2 = run(g2, full_information_program(1), SET, trace=True)
    # center of the path and node 0 of the edge both see (2, {1})
    assert t1.state_digest_at(1, 1) == t2.state_digest_at(1, 0)


def test_set_run_equals_multiset_run_with_erased_multiplicities():
    base = count_received_program()
    erased = NodeProgram(
        init=base.init,
        step=lambda s, r: base.step(s, frozenset(r)),
        finalize=base.finalize,
        round_budget=base.round_budget,
        name="count-erased",
    )
    for seed in range(50):
        g = random_colored_tree(10, 4, 3, seed=seed)
        phi_set, _ = run(g, base, SET)
        phi_erased, _ = run(g, erased, MULTISET)
        assert phi_set == phi_erased


def test_step_failure_carries_context():
    def bad_step(state, received):
        if isinstance(state, int):
            return (0,), b"x"
        raise RuntimeError("boom")

    prog = NodeProgram(
        init=lambda c, m, d, n: c,
        step=bad_step,
        finalize=lambda s: 1,
        round_budget=lambda m, d, n: 1,
    )
    g = star3()
    with pytest.raises(SimulationError) as err:
        run(g, prog, SET)
    assert err.value.round_index == 1


def test_correspondence_linial_step():
    trees = [random_colored_tree(12, 3, 16, seed=s) for s in range(25)]
    prog = linial_step_program(16, 3)
    report = check_correspondence(prog, 1, 16, 3, trees)
    assert report.ok
    assert report.nodes_checked == 12 * 25


def test_correspondence_one_round_multiset():
    # one-round programs are view functions under multiset delivery too
    from colorreduce import MULTISET, kw_step_program

    trees = [random_colored_tree(10, 2, 10, seed=s) for s in range(25)]
    report = check_correspondence(kw_step_program(10, 2), 1, 10, 2, trees,
                                  kind=MULTISET)
    assert report.ok


def test_correspondence_flags_non_view_program():
    # stateful init: output depends on arrival order, not on the view
    counter = {"next": 0}

    def init(color, m, d, n):
        counter["next"] += 1
        return counter["next"]

    prog = NodeProgram(
        init=init,
        step=lambda s, r: (s, b"x"),
        finalize=lambda s: s,
        round_budget=lambda m, d, n: 1,
        name="order-dependent",
    )
    # a star with identically colored leaves: equal views, different outputs
    trees = [star3()]
    report = check_correspondence(prog, 1, 2, 3, trees)
    assert report.determinism_violations


def test_correspondence_flags_constant_program():
    prog = NodeProgram(
        init=lambda c, m, d, n: c,
        step=lambda s, r: (s, b"x"),
        finalize=lambda s: 1,
        round_budget=lambda m, d, n: 1,
        name="constant",
    )
    trees = [random_colored_tree(6, 3, 4, seed=1)]
    report = check_correspondence(prog, 1, 4, 3, trees)
    assert report.determinism_violations == ()
    assert len(report.properness_violations) == 5  # every edge is monochromatic
    with pytest.raises(FrozenInstanceError):
        report.nodes_checked = 0
    with pytest.raises(TypeError):
        report.properness_violations[0]["output"] = 2


# --- the color path against the general message path --------------------

GRID = [(delta, m) for delta in range(2, 9) for m in (10**2, 10**4, 10**6)]
TREES_PER_POINT = 10


def _schedule_programs(m, delta):
    return [linial_step_program(m, delta), kw_step_program(m, delta),
            linial_full_program(m, delta), delta_plus_one_program(m, delta)]


def _outcome(g, prog, kind, trace):
    try:
        phi, _ = run(g, prog, kind, trace=trace)
    except SimulationError as exc:
        return ("error", exc.node, exc.round_index, repr(exc.cause))
    return ("ok", phi)


def test_color_path_equals_general_path_on_criterion_01_trees():
    budgets = set()
    for delta, m in GRID:
        for prog in _schedule_programs(m, delta):
            budgets.add(prog.round_budget(m, delta, 24))
            for i in range(TREES_PER_POINT):
                g = random_colored_tree(24, delta, m, seed=delta * 10**7 + m + i)
                for kind in (SET, MULTISET):
                    fast, trace = run(g, prog, kind)
                    assert trace is None
                    general, trace = run(g, prog, kind, trace=True)
                    assert fast == general, (prog.name, i, kind)
                    assert len(trace.rounds) == prog.round_budget(m, delta, g.n)
    assert 0 in budgets  # linial_full_program at (m=100, delta>=3) has no rounds


def test_color_path_equals_general_path_on_a_10k_node_tree():
    # about 1,250 of the 20,000 reduction steps here end at a >= 1
    g = random_colored_tree(10**4, 8, 10**6, seed=11)
    prog = delta_plus_one_program(10**6, 8)
    finalized = []

    def finalize(state):  # a replaced callable sends the run down the message path
        finalized.append(state)
        return prog.finalize(state)

    assert run(g, prog, SET) == run(g, replace(prog, finalize=finalize), SET)
    assert len(finalized) == g.n


def test_color_path_never_calls_the_message_step(monkeypatch):
    prog = delta_plus_one_program(10**4, 5)
    g = random_colored_tree(24, 5, 10**4, seed=3)
    expected, _ = run(g, prog, SET, trace=True)

    def no_step(self, state, received):
        raise AssertionError("the color path called the message step")

    monkeypatch.setattr(ColorRounds, "__call__", no_step)
    assert run(g, prog, SET)[0] == expected


@pytest.mark.parametrize("field", ["init", "step", "finalize", "round_budget"])
def test_replaced_callable_takes_general_path(field):
    prog = delta_plus_one_program(10**4, 4)
    calls = []
    original = getattr(prog, field)

    def wrapped(*args):
        calls.append(args)
        return original(*args)

    g = random_colored_tree(24, 4, 10**4, seed=5)
    phi, _ = run(g, replace(prog, **{field: wrapped}), SET)
    assert calls
    assert phi == run(g, prog, SET)[0]


class _PerNode:
    """A color rule from f(color, set of neighbor colors), applied to the
    nodes in list order."""

    def __init__(self, f):
        self.f = f

    def next_colors(self, colors, rows):
        return [self.f(c, {colors[u] for u in row}) for c, row in zip(colors, rows)]


def _fails_where_nothing_moved():
    """Round 1 keeps colors 1..6 and sends every higher color to 1; round
    2 fails at every color above 3, so only at a node that kept its color
    in round 1.  The cause names the colors its neighbors hold then."""
    def merge(color, neighbor_colors):
        return color if color <= 6 else 1

    def fail_above_3(color, neighbor_colors):
        if color > 3:
            raise ValueError(f"color {color} among {sorted(neighbor_colors)}")
        return color

    return ColorRounds([(_PerNode(merge), 6),
                        (_PerNode(fail_above_3), 3)]).program("fails-unmoved")


@pytest.mark.parametrize("prog, tree_m, cause", [
    # built for delta 2, run on trees of degree up to 8
    (delta_plus_one_program(10**4, 2), 10**4, ConstructionError),
    (linial_step_program(16, 2), 16, ConstructionError),
    (kw_step_program(12, 2), 12, ConstructionError),
    # built for a smaller palette than the trees' colors
    (linial_step_program(50, 8), 10**4, ParameterError),
    (_fails_where_nothing_moved(), 12, ValueError),
], ids=["delta1", "linial-step", "kw-step", "linial-palette", "unmoved"])
def test_failing_run_raises_the_same_error_on_both_paths(prog, tree_m, cause):
    failures = set()
    for seed in range(40):
        g = random_colored_tree(24, 8, tree_m, seed=seed)
        for kind in (SET, MULTISET):
            fast = _outcome(g, prog, kind, trace=False)
            assert fast == _outcome(g, prog, kind, trace=True)
            if fast[0] == "error":
                failures.add(fast[1:])
    assert failures
    assert {failure[2].partition("(")[0] for failure in failures} == {cause.__name__}


def test_failing_color_path_run_reruns_on_the_message_step(monkeypatch):
    prog = linial_step_program(50, 8)
    g = random_colored_tree(24, 8, 10**4, seed=0)  # colors above 50
    steps = []
    original = ColorRounds.__call__

    def counted(self, state, received):
        steps.append(state)
        return original(self, state, received)

    monkeypatch.setattr(ColorRounds, "__call__", counted)
    with pytest.raises(SimulationError) as err:
        run(g, prog, SET)
    assert steps
    assert (err.value.round_index, type(err.value.cause)) == (1, ParameterError)


# --- whole-round rule forms against the star form -------------------------

def _compare_with_stars(prog, g):
    """Run each round's next_colors on the whole graph and on every node's
    star (star_next) from the colors of the round before, until a round
    raises.  The forms give equal colors and keep every color <= keep;
    the whole graph raises iff some star raises, with a type that a star
    raised.  Returns {(rule type, exception type)} of the raising round."""
    colors = list(g.psi)
    for rule, keep in prog.step.rounds:
        star_colors, star_raised = [], set()
        for c, row in zip(colors, g.adjacency):
            try:
                star_colors.append(star_next(rule, c, {colors[u] for u in row}))
            except Exception as exc:  # noqa: BLE001 - any failure is compared
                star_raised.add(type(exc))
        try:
            whole = rule.next_colors(colors, g.adjacency)
        except Exception as exc:  # noqa: BLE001
            assert type(exc) in star_raised
            return {(type(rule), type(exc))}
        assert not star_raised and whole == star_colors
        assert all(b == c for b, c in zip(whole, colors) if c <= keep)
        colors = whole
    return set()


@st.composite
def _program_and_tree(draw):
    """A schedule program, possibly built for a smaller delta or palette
    than the tree it runs on, so that the a >= 1 search and the merge
    range can be exhausted and colors can fall outside the palette."""
    delta = draw(st.integers(2, 8))
    prog_delta = draw(st.integers(2, delta))
    m = draw(st.sampled_from([prog_delta + 2, 16, 100, 10**4, 10**6]))
    tree_m = draw(st.sampled_from([m, m + 1, 2 * m, 10**6]))
    kind = draw(st.sampled_from(["delta1", "linial", "kw"]))
    build = {"delta1": delta_plus_one_program, "linial": linial_step_program,
             "kw": kw_step_program}[kind]
    g = random_colored_tree(draw(st.integers(1, 60)), delta, max(tree_m, delta + 1),
                            seed=draw(st.integers(0, 10**6)))
    return build(m, prog_delta), g


@settings(max_examples=300, deadline=None)
@given(_program_and_tree())
def test_whole_round_forms_equal_the_star_forms(case):
    prog, g = case
    _compare_with_stars(prog, g)
    assert _outcome(g, prog, SET, trace=False) == _outcome(g, prog, SET, trace=True)


def test_whole_round_forms_raise_exactly_where_a_star_form_raises():
    # the fixtures of the failing-run test: exhausted a >= 1 searches,
    # exhausted merge ranges and colors above the palette
    failed = set()
    for prog, tree_m in [(delta_plus_one_program(10**4, 2), 10**4),
                         (linial_step_program(16, 2), 16),
                         (kw_step_program(12, 2), 12),
                         (linial_step_program(50, 8), 10**4)]:
        for seed in range(40):
            g = random_colored_tree(24, 8, tree_m, seed=seed)
            failed.update(_compare_with_stars(prog, g))
    assert failed == {(_linial_rule, ConstructionError), (_linial_rule, ParameterError),
                      (_kw_rule, ConstructionError)}


def test_color_path_calls_each_rule_once_per_round(monkeypatch):
    prog = delta_plus_one_program(10**6, 8)
    g = random_colored_tree(300, 8, 10**6, seed=2)
    expected, trace = run(g, prog, SET, trace=True)
    # the colors held before round t are the ones sent in round t
    held = [[int(trace.sent_at(t, v)) for v in range(g.n)]
            for t in range(1, len(prog.step.rounds) + 1)]
    per_round = [(type(rule), sum(c > keep for c in colors))
                 for (rule, keep), colors in zip(prog.step.rounds, held)]
    assert any(moving == 0 for _, moving in per_round)  # a skipped round
    calls = []
    for cls in (_linial_rule, _kw_rule):
        def counted(self, colors, rows, original=cls.next_colors):
            calls.append(type(self))
            return original(self, colors, rows)

        monkeypatch.setattr(cls, "next_colors", counted)
    assert run(g, prog, SET)[0] == expected
    assert calls == [cls for cls, moving in per_round if moving]
    calls.clear()
    assert run(g, prog, SET, trace=True)[0] == expected
    assert calls == [cls for cls, moving in per_round for _ in range(moving)]


def test_rule_objects_are_immutable():
    rounds = delta_plus_one_program(10**4, 3).step.rounds
    assert {type(rule) for rule, _ in rounds} == {_linial_rule, _kw_rule}
    for rule, _ in rounds:
        for name in ("q", "extra"):
            with pytest.raises(AttributeError):
                setattr(rule, name, 7)
            with pytest.raises(AttributeError):
                delattr(rule, name)


def test_program_meta_is_a_read_only_copy():
    prog = delta_plus_one_program(100, 3)
    assert prog.meta["palettes"] == (100, 49, 40, 32, 26, 21, 17, 14, 12, 10, 8, 7, 6, 5, 4)
    with pytest.raises(AttributeError):
        prog.meta["palettes"].append(1)
    with pytest.raises(TypeError):
        prog.meta["palettes"] = [1]
    meta = {"palettes": (5, 4)}
    custom = NodeProgram(prog.init, prog.step, prog.finalize, prog.round_budget, meta=meta)
    meta["palettes"] = (9,)
    assert custom.meta == {"palettes": (5, 4)}

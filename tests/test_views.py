"""View engine: extraction, canonical encoding, truncation, erasure."""

import random
import sys
import threading
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorreduce import (MULTISET, SET, ColoredGraph, ColorRounds, View,
                         canonical_decode, canonical_encode, erase_multiplicities,
                         extract_all_views, extract_view, random_colored_tree,
                         truncate, view_from_json, view_to_json, views)

from conftest import run_python


def path3():
    return ColoredGraph.from_edges(3, [(0, 1), (1, 2)], [1, 2, 3], 3, 2)


def star3():
    # center color 1, three leaves all color 2
    return ColoredGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 2, 2], 2, 3)


def leaf(kind, c):
    return View.leaf(kind, c)


def test_extract_path_center():
    v = extract_view(path3(), 1, 1, SET)
    expected = View.make(SET, leaf(SET, 2), [leaf(SET, 1), leaf(SET, 3)])
    assert v is expected


def test_extract_star_set_collapses_duplicates():
    v_set = extract_view(star3(), 0, 1, SET)
    assert v_set is View.make(SET, leaf(SET, 1), [leaf(SET, 2)])
    v_multi = extract_view(star3(), 0, 1, MULTISET)
    assert v_multi is View.make(MULTISET, leaf(MULTISET, 1), [(leaf(MULTISET, 2), 3)])


def test_extract_round_zero_is_own_color():
    for node in range(3):
        v = extract_view(path3(), node, 0, SET)
        assert v.depth == 0 and v.base_color == path3().psi[node]


def test_encoding_set_order_independent():
    a = View.make(SET, leaf(SET, 1), [leaf(SET, 2), leaf(SET, 3)])
    b = View.make(SET, leaf(SET, 1), [leaf(SET, 3), leaf(SET, 2)])
    assert canonical_encode(a) == canonical_encode(b)
    assert a is b


def test_encoding_multiplicity_distinguishes():
    one = View.make(MULTISET, leaf(MULTISET, 1), [leaf(MULTISET, 2)])
    two = View.make(MULTISET, leaf(MULTISET, 1), [(leaf(MULTISET, 2), 2)])
    assert canonical_encode(one) != canonical_encode(two)


def test_encoding_kind_distinguishes():
    s = View.make(SET, leaf(SET, 1), [leaf(SET, 2)])
    m = View.make(MULTISET, leaf(MULTISET, 1), [leaf(MULTISET, 2)])
    assert canonical_encode(s) != canonical_encode(m)


def test_encode_decode_roundtrip_random():
    rng = random.Random(0)
    for _ in range(200):
        g = random_colored_tree(rng.randrange(1, 12), 3, 5, seed=rng.randrange(10**6))
        kind = rng.choice([SET, MULTISET])
        v = extract_view(g, rng.randrange(g.n), rng.randrange(0, 4), kind)
        assert canonical_decode(canonical_encode(v)) is v


# non-canonical bytes -> the canonical encoding of the view they spell
NON_CANONICAL = {
    b"M1(M0(1);M0(2)*0)": b"M1(M0(1);M0(2)*1)",  # zero multiplicity
    b"S0(01)": b"S0(1)",  # leading zero
    b"S1(S0(1);S0(3),S0(2))": b"S1(S0(1);S0(2),S0(3))",  # unsorted children
    b"S1(S0(1);S0(2),)": b"S1(S0(1);S0(2))",  # trailing comma
}


@pytest.mark.parametrize("data", list(NON_CANONICAL))
def test_decode_rejects_non_canonical_encodings(data):
    with pytest.raises(ValueError):
        canonical_decode(data)


@pytest.mark.parametrize("data, canonical", list(NON_CANONICAL.items()))
def test_decode_rejects_non_canonical_after_canonical_form_is_encoded(data, canonical):
    view = canonical_decode(canonical)
    assert canonical_encode(view) == canonical
    with pytest.raises(ValueError):
        canonical_decode(data)
    assert canonical_decode(canonical) is view


def test_decode_of_in_process_encodings_skips_the_parser(monkeypatch):
    g = random_colored_tree(9, 3, 5, seed=11)
    encoded = [(v, canonical_encode(v)) for kind in (SET, MULTISET)
               for r in range(4) for v in extract_all_views(g, r, kind)]

    def no_parse(data):
        raise AssertionError(f"parsed {data!r}")

    monkeypatch.setattr(views, "_Parser", no_parse)
    for v, enc in encoded:
        assert canonical_decode(enc) is v
        assert canonical_decode(bytes(bytearray(enc))) is v  # equal, not identical
    with pytest.raises(AssertionError):
        canonical_decode(b"S0(01)")  # a miss still reaches the parser


def test_decode_accepts_canonical_bytes_in_a_bytearray():
    v = extract_view(star3(), 0, 2, MULTISET)
    enc = canonical_encode(v)
    assert canonical_decode(bytearray(enc)) is v  # parsed, not looked up
    with pytest.raises(ValueError):
        canonical_decode(bytearray(b"S0(01)"))


def test_decode_accepts_canonical_bytes_in_a_memoryview():
    v = extract_view(star3(), 0, 2, MULTISET)
    assert canonical_decode(memoryview(canonical_encode(v))) is v
    assert canonical_decode(memoryview(b"S0(1)")) is View.leaf(SET, 1)
    with pytest.raises(ValueError):
        canonical_decode(memoryview(b"S0(01)"))


def test_decode_gives_one_object_per_encoding_across_threads():
    n_threads, n_msgs = 8, 200
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            base = 2 * 10**12 + trial * 10**4  # colors no other test interns
            msgs = [b"S1(S0(%d);S0(%d))" % (base + i, base + i + 1) for i in range(n_msgs)]
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads

            def decode(slot):
                barrier.wait(timeout=10)
                results[slot] = [canonical_decode(msg) for msg in msgs]

            threads = [threading.Thread(target=decode, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            first = results[0]
            assert [canonical_encode(v) for v in first] == msgs
            for decoded in results[1:]:
                for a, b in zip(first, decoded, strict=True):
                    assert a is b
            assert all(canonical_decode(msg) is v for msg, v in zip(msgs, first))
    finally:
        sys.setswitchinterval(old_interval)


def test_decode_rejects_non_canonical_under_optimize():
    script = (
        "import sys\n"
        "from colorreduce import canonical_decode, canonical_encode, View, SET\n"
        "canonical_encode(View.leaf(SET, 1))\n"
        "for bad in (b'S0(01)', b'S1(S0(1);S0(2),)', b'S0(1)x'):\n"
        "    try:\n"
        "        canonical_decode(bad)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit(f'accepted {bad!r}')\n"
        "print(sys.flags.optimize)\n"
    )
    proc = run_python(script, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_decode_rejects_deep_nesting_with_value_error():
    with pytest.raises(ValueError):
        canonical_decode(b"S1(" * 5000)


def test_make_rejects_multiplicities_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError):
            View.make(MULTISET, leaf(MULTISET, 1), [(leaf(MULTISET, 2), count)])


def test_make_refuses_parts_that_are_not_views_with_value_error():
    a, b = leaf(SET, 1), leaf(SET, 2)
    View.make(SET, a, [b])
    for inner, children in [(None, [b]), (1, [b]),  # inner is not a view
                            (a, [3]), (a, [None]), (a, [(3, 1)]),  # child is not a view
                            (a, [(b, 1, 1)])]:  # a pair of three
        with pytest.raises(ValueError):
            View.make(SET, inner, children)


def _encodings():
    rng = random.Random(1)
    out = []
    for i in range(60):
        g = random_colored_tree(rng.randrange(1, 8), 3, 12, seed=i)
        kind = SET if i % 2 else MULTISET
        out.append(canonical_encode(extract_view(g, rng.randrange(g.n), rng.randrange(0, 3), kind)))
    return out


ENCODINGS = _encodings()
MUTATION_BYTES = [bytes([b]) for b in b"SM0123456789();,*"]
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]),
              st.floats(0, 1, exclude_max=True), st.sampled_from(MUTATION_BYTES)),
    min_size=1, max_size=3)


def _mutate(data, mutations):
    for op, where, byte in mutations:
        at = int(where * (len(data) + (op == "insert")))
        if op == "insert":
            data = data[:at] + byte + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + 1:]
        else:
            data = data[:at] + byte + data[at + 1:]
    return data


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(ENCODINGS), MUTATIONS)
def test_mutated_encodings_decode_canonically_or_raise(data, mutations):
    data = _mutate(data, mutations)
    try:
        view = canonical_decode(data)
    except ValueError:
        return
    assert canonical_encode(view) == data


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(ENCODINGS), MUTATIONS)
def test_mutated_encodings_raise_after_their_canonical_form_is_encoded(data, mutations):
    data = _mutate(data, mutations)
    try:
        spelled = views._Parser(data).parse_view()  # lenient: the view data spells
    except ValueError:
        spelled = None
    if spelled is not None and canonical_encode(spelled) == data:
        assert canonical_decode(data) is spelled
    else:
        with pytest.raises(ValueError):
            canonical_decode(data)


def test_truncate_examples():
    v = View.make(SET, leaf(SET, 2), [leaf(SET, 1), leaf(SET, 3)])
    assert truncate(v, 0) is leaf(SET, 2)
    assert truncate(v, v.depth) is v
    with pytest.raises(ValueError):
        truncate(v, 2)


@pytest.mark.parametrize("r", [1.5, 1.0, True, "1", None])
def test_round_counts_must_be_ints(r):
    g = random_colored_tree(5, 2, 4, seed=3)
    v = extract_view(g, 0, 2, SET)
    for call in (lambda: truncate(v, r), lambda: extract_all_views(g, r, SET),
                 lambda: extract_view(g, 0, r, MULTISET)):
        with pytest.raises(ValueError):
            call()


def test_truncation_commutes_with_extraction():
    rng = random.Random(1)
    checked = 0
    while checked < 1000:
        g = random_colored_tree(rng.randrange(2, 14), 3, 5, seed=rng.randrange(10**6))
        kind = rng.choice([SET, MULTISET])
        node = rng.randrange(g.n)
        r = rng.randrange(0, 4)
        rp = rng.randrange(0, r + 1)
        full = extract_view(g, node, r, kind)
        assert truncate(full, rp) is extract_view(g, node, rp, kind)
        checked += 1


def test_inner_is_truncation():
    g = random_colored_tree(10, 3, 4, seed=3)
    v = extract_view(g, 4, 3, SET)
    assert v.inner is truncate(v, 2)
    assert all(c.depth == v.depth - 1 for c in v.distinct_children())


def test_erasure_matches_set_extraction():
    rng = random.Random(2)
    for _ in range(300):
        g = random_colored_tree(rng.randrange(2, 12), 4, 4, seed=rng.randrange(10**6))
        node = rng.randrange(g.n)
        r = rng.randrange(0, 4)
        multi = extract_view(g, node, r, MULTISET)
        assert erase_multiplicities(multi) is extract_view(g, node, r, SET)


def test_empty_children_are_legal():
    g = ColoredGraph.from_edges(1, [], [2], 3, 2)
    v = extract_view(g, 0, 3, SET)
    assert v.depth == 3 and not v.children
    assert v.inner.depth == 2 and not v.inner.children


def test_json_roundtrip_both_kinds():
    g = star3()
    for kind in (SET, MULTISET):
        v = extract_view(g, 0, 2, kind)
        data = view_to_json(v)
        assert view_from_json(data, kind) is v
    # depth-0 views serialize as bare integers
    assert view_to_json(leaf(SET, 7)) == 7
    # multiset children carry [view, count] pairs
    data = view_to_json(extract_view(g, 0, 1, MULTISET))
    assert data["children"] == [[2, 3]]


@pytest.mark.parametrize("data", [
    True, 1.5, [1], "1", None,  # a color that is not an int
    {"inner": True, "children": []},
    {"inner": 1},  # no children
    {"inner": 1, "children": 5},
    {"children": []},  # no inner
    {"inner": 1, "children": [[2, True]]},  # a count that is not an int
    {"inner": 1, "children": [[2]]},  # a multiset child that is not a pair
])
def test_json_members_view_to_json_never_writes_raise_value_error(data):
    for kind in (SET, MULTISET):
        with pytest.raises(ValueError):
            view_from_json(data, kind)


@pytest.mark.parametrize("depth", [992, 100_000])
def test_json_member_nested_past_the_recursion_limit_raises_value_error(depth):
    data = 1
    for _ in range(depth):
        data = {"inner": data}
    for kind in (SET, MULTISET):
        with pytest.raises(ValueError, match="nested too deeply"):
            view_from_json(data, kind)


def test_intern_pool_gives_one_object_per_digest_across_threads():
    n_threads, n_views = 8, 300
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            base = 10**12 + trial * 10**4  # colors no other test interns
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads

            def build(slot):
                barrier.wait(timeout=10)
                results[slot] = [
                    View.make(SET, leaf(SET, base + i), [leaf(SET, base + i + 1)])
                    for i in range(n_views)
                ]

            threads = [threading.Thread(target=build, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            first = results[0]
            for views in results[1:]:
                for a, b in zip(first, views, strict=True):
                    assert a.digest == b.digest
                    assert a is b and a.inner is b.inner
    finally:
        sys.setswitchinterval(old_interval)


class OracleView:
    """The digest-keyed constructor that parts-keyed interning replaced,
    with a pool of its own: every call sorts the children by digest and
    hashes them, and the digest alone names the view."""

    __slots__ = ("kind", "depth", "base_color", "inner", "children",
                 "child_lookup", "child_size", "digest")

    _pool: dict = {}
    _kind_byte = {SET: b"S", MULTISET: b"M"}

    @classmethod
    def _intern(cls, kind, depth, base_color, inner, children, digest):
        found = cls._pool.get(digest)
        if found is not None:
            return found
        self = object.__new__(cls)
        self.kind, self.depth, self.base_color = kind, depth, base_color
        self.inner, self.children, self.digest = inner, children, digest
        self.child_lookup = frozenset(c for c, _ in children)
        self.child_size = sum(cnt for _, cnt in children)
        return cls._pool.setdefault(digest, self)

    @classmethod
    def leaf(cls, kind, color):
        if kind not in cls._kind_byte:
            raise ValueError(f"unknown kind {kind!r}")
        if not isinstance(color, int) or color < 1:
            raise ValueError("colors are positive integers")
        h = blake2b(digest_size=16)
        h.update(b"L" + cls._kind_byte[kind])
        h.update(b"%d" % color)
        return cls._intern(kind, 0, color, None, (), h.digest())

    @classmethod
    def make(cls, kind, inner, children):
        if kind not in cls._kind_byte:
            raise ValueError(f"unknown kind {kind!r}")
        if inner.kind != kind:
            raise ValueError("inner view kind mismatch")
        counts = {}
        for entry in children:
            if isinstance(entry, tuple):
                child, cnt = entry
                if not isinstance(cnt, int) or cnt < 1:
                    raise ValueError("multiplicities are positive integers")
            else:
                child, cnt = entry, 1
            if child.depth != inner.depth:
                raise ValueError("child depth must equal inner depth")
            if child.kind != kind:
                raise ValueError("child view kind mismatch")
            counts[child] = counts.get(child, 0) + cnt
        if kind == SET:
            items = tuple((c, 1) for c in sorted(counts, key=lambda v: v.digest))
        else:
            items = tuple(sorted(counts.items(), key=lambda kv: kv[0].digest))
        h = blake2b(digest_size=16)
        h.update(b"N" + cls._kind_byte[kind])
        h.update(inner.digest)
        for child, cnt in items:
            h.update(child.digest)
            h.update(b"%d," % cnt)
        return cls._intern(kind, inner.depth + 1, None, inner, items, h.digest())


class PairedViews:
    """Checks each view against its oracle twin, and that the views are
    one object exactly when their oracle digests agree."""

    def __init__(self):
        self.by_digest = {}
        self.digest_of = {}

    def check(self, view, twin):
        assert view.digest == twin.digest
        assert (view.kind, view.depth, view.base_color) == (twin.kind, twin.depth, twin.base_color)
        assert [(c.digest, n) for c, n in view.children] == [(c.digest, n) for c, n in twin.children]
        assert view.child_size == twin.child_size
        assert sorted(c.digest for c in view.child_lookup) == sorted(c.digest for c in twin.child_lookup)
        assert frozenset(view.child_lookup) == {c for c, _ in view.children}
        assert self.by_digest.setdefault(twin.digest, view) is view
        assert self.digest_of.setdefault(view, twin.digest) == twin.digest
        if view.depth:
            assert view.inner.digest == twin.inner.digest


def oracle_extract_all_views(g, r, kind):
    current = [OracleView.leaf(kind, c) for c in g.psi]
    for _ in range(r):
        current = [OracleView.make(kind, current[v], (current[u] for u in g.adjacency[v]))
                   for v in range(g.n)]
    return current


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 12), st.integers(2, 4), st.integers(0, 10**6),
       st.sampled_from([SET, MULTISET]), st.integers(0, 3))
def test_views_match_the_digest_keyed_oracle_on_random_trees(n, delta, seed, kind, r):
    g = random_colored_tree(n, delta, 3, seed=seed)
    paired = PairedViews()
    for depth in range(r + 1):
        for view, twin in zip(extract_all_views(g, depth, kind),
                              oracle_extract_all_views(g, depth, kind), strict=True):
            paired.check(view, twin)


def child_lists(spec):
    """Hand-built child lists: plain views and (view, count) pairs, with
    some entries repeated, passed as a list, a tuple or a generator."""
    entry = st.one_of(spec.map(lambda s: (s, None)),
                      st.tuples(spec, st.integers(1, 3)))
    with_repeats = st.lists(entry, max_size=4).flatmap(
        lambda es: st.lists(st.sampled_from(es), max_size=3).map(lambda extra: es + extra)
        if es else st.just(es))
    return st.tuples(with_repeats, st.sampled_from(["list", "tuple", "generator"]))


def view_specs(depth):
    if depth == 0:
        return st.integers(1, 4)
    below = view_specs(depth - 1)
    return st.tuples(below, child_lists(below))


def build_spec(cls, kind, spec):
    if isinstance(spec, int):
        return cls.leaf(kind, spec)
    inner, (entries, form) = spec
    kids = [build_spec(cls, kind, s) if n is None else (build_spec(cls, kind, s), n)
            for s, n in entries]
    if form == "tuple":
        kids = tuple(kids)
    elif form == "generator":
        kids = (k for k in kids)
    return cls.make(kind, build_spec(cls, kind, inner), kids)


def walk_twins(view, twin, paired):
    paired.check(view, twin)
    if view.depth:
        walk_twins(view.inner, twin.inner, paired)
        for (c, _), (t, _) in zip(view.children, twin.children, strict=True):
            walk_twins(c, t, paired)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.sampled_from([SET, MULTISET]), st.integers(0, 2).flatmap(
    lambda d: st.lists(view_specs(d), min_size=1, max_size=3)))
def test_views_match_the_digest_keyed_oracle_on_hand_built_child_lists(kind, specs):
    paired = PairedViews()
    for spec in specs + specs:  # each spec twice: the second build is a hit
        walk_twins(build_spec(View, kind, spec), build_spec(OracleView, kind, spec), paired)


def test_multiplicities_tell_multisets_apart():
    a, b, x = (leaf(MULTISET, c) for c in (2, 3, 1))
    aab = View.make(MULTISET, x, [a, a, b])
    abb = View.make(MULTISET, x, [a, b, b])
    ab = View.make(MULTISET, x, [a, b])
    assert len({aab, abb, ab}) == 3
    assert len({v.digest for v in (aab, abb, ab)}) == 3
    assert View.make(MULTISET, x, [(a, 2), b]) is aab
    assert View.make(MULTISET, x, [b, (b, 1), a]) is abb
    assert View.make(MULTISET, x, [(b, 1), (a, 1)]) is ab
    sx, sa, sb = (leaf(SET, c) for c in (1, 2, 3))
    assert View.make(SET, sx, [sa, sa, sb]) is View.make(SET, sx, [(sa, 2), sb, sb])


@st.composite
def spellings(draw):
    """A collection of distinct leaves with multiplicities, its canonical
    spelling (each child once per count, in color order) and another
    spelling of it: permuted, counts split into plain views and
    (view, count) pairs, and under SET extra repeats."""
    kind = draw(st.sampled_from([SET, MULTISET]))
    colors = draw(st.lists(st.integers(1, 6), max_size=5, unique=True))
    entries, canonical = [], []
    for c in sorted(colors):
        child = leaf(kind, c)
        count = 1 if kind == SET else draw(st.integers(1, 3))
        canonical += [child] * count
        parts = draw(st.integers(1, count)) if kind == MULTISET else 1 + draw(st.integers(0, 2))
        sizes = [1] * parts
        for _ in range(count - parts):
            sizes[draw(st.integers(0, parts - 1))] += 1
        entries += [child if n == 1 and draw(st.booleans()) else (child, n) for n in sizes]
    return kind, canonical, draw(st.permutations(entries))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spellings())
def test_every_spelling_of_a_collection_gives_the_canonical_view(spelled):
    kind, canonical, entries = spelled
    inner = leaf(kind, 7)
    view = View.make(kind, inner, canonical)
    assert View.make(kind, inner, entries) is view
    assert View.make(kind, inner, iter(entries)) is view
    assert View.make(kind, inner, canonical[::-1]) is view


def test_every_pooled_view_is_keyed_by_its_own_child_tuple():
    g = random_colored_tree(12, 4, 3, seed=5)
    for kind in (SET, MULTISET):
        extract_all_views(g, 3, kind)
    deep = 0
    for key, v in list(View._pool.items()):
        if v.depth == 0:
            assert key == (v.kind, v.base_color)
            continue
        deep += 1
        assert key[0] is v.inner and key[1] is v.child_lookup
        rebuilt = (v.inner, tuple(list(v.child_lookup)))  # equal, not identical
        if v.counts is not None:
            rebuilt += (v.counts,)
        assert key == rebuilt and View._pool[rebuilt] is v
        assert list(v.child_lookup) == sorted(set(v.child_lookup), key=id)
        if v.counts is not None:
            assert v.kind == MULTISET and len(v.counts) == len(v.child_lookup)
            assert max(v.counts) > 1 and min(v.counts) >= 1
        assert v.child_size == sum(n for _, n in v.children)
    assert deep


def test_interned_views_stay_small():
    # a child process, so that the views are all new and the counts are
    # its own; encodings, which build_local1 makes to order its vertices,
    # are left out
    script = (
        "import inspect, tracemalloc\n"
        "from colorreduce import MULTISET, View, build_local1, views\n"
        "pooled = len(View._pool)\n"
        "tracemalloc.start()\n"
        "build_local1(7, 4, MULTISET)\n"
        "snap = tracemalloc.take_snapshot().filter_traces(\n"
        "    [tracemalloc.Filter(True, views.__file__)])\n"
        "lines, first = inspect.getsourcelines(views.canonical_encode)\n"
        "encode = range(first, first + len(lines))\n"
        "size = sum(s.size for s in snap.statistics('lineno')\n"
        "           if s.traceback[0].lineno not in encode)\n"
        "print(len(View._pool) - pooled, size)\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    interned, size = map(int, proc.stdout.split())
    assert interned == 1477
    assert size / interned <= 400


def test_leaf_colors_intern_by_value():
    assert View.leaf(SET, True) is View.leaf(SET, 1)
    assert View.leaf(MULTISET, True) is View.leaf(MULTISET, 1)
    assert View.leaf(SET, 1) is not View.leaf(MULTISET, 1)


def test_a_leaf_first_made_from_true_carries_the_int_one():
    # in a fresh process, so that True is the first spelling of color 1
    script = (
        "from colorreduce import SET, View, view_from_json, view_to_json\n"
        "first = View.leaf(SET, True)\n"
        "v = View.leaf(SET, 1)\n"
        "assert v is first and type(v.base_color) is int, repr(v.base_color)\n"
        "assert view_from_json(view_to_json(v), SET) is v\n"
        "print(view_to_json(View.make(SET, v, [View.leaf(SET, 2)])))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{'inner': 1, 'children': [2]}"


def test_view_to_json_computes_no_digest():
    script = (
        "from colorreduce.nbhd import build_setlocal, graph_to_json\n"
        "g = build_setlocal(2, 4, 3)\n"
        "below = {c for v in g.vertices for c in v.child_lookup}\n"
        "graph_to_json(g)\n"
        "print(len(below), sum(c._digest is not None for c in below),\n"
        "      sum(v._digest is not None for v in g.vertices))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["28", "0", "0"]


def oracle_twin(view):
    """The oracle view of the same structure as view."""
    if view.depth == 0:
        return OracleView.leaf(view.kind, view.base_color)
    return OracleView.make(view.kind, oracle_twin(view.inner),
                           [(oracle_twin(c), n) for c, n in view.children])


def test_make_errors_fire_when_the_same_parts_are_interned():
    x, a, b = (leaf(MULTISET, c) for c in (1, 2, 3))
    sx, sa = leaf(SET, 1), leaf(SET, 2)
    View.make(MULTISET, x, [a, b])
    View.make(MULTISET, x, [(a, 2), b])
    View.make(MULTISET, x, [a])
    View.make(SET, sx, [sa])
    for kind, inner, children in [
        ("bogus", x, [a, b]),  # unknown kind
        (SET, x, [a, b]),  # inner kind mismatch
        (MULTISET, x, [(a, 2.0), b]),  # multiplicities
        (MULTISET, x, [(a, 2), (b, 1.0)]),
        (MULTISET, x, [(a, 0)]),
        (MULTISET, x, [(a, [2]), b]),
        (SET, sx, [(sa, 1.0)]),
        (SET, sx, [(sa, -1)]),
        (MULTISET, x, [View.make(MULTISET, a, [])]),  # child depth
        (MULTISET, x, [leaf(SET, 2)]),  # child kind mismatch
    ]:
        twins = [(oracle_twin(e[0]), e[1]) if isinstance(e, tuple) else oracle_twin(e)
                 for e in children]
        with pytest.raises(ValueError):
            OracleView.make(kind, oracle_twin(inner), twins)
        with pytest.raises(ValueError):
            View.make(kind, inner, children)


# digest.hex() of three views, recorded from the per-child blake2b updates
GOLDEN_DIGESTS = {
    "leaf": "9098a65aa8edefab49bcc777c11743a9",
    "set depth 1": "a6cd4cdf1afc2504cf647f6abf5974b6",
    "multiset depth 2": "3552b57fd8be33c14fca146d1020b8d7",
}


def test_golden_digests():
    m = lambda c: leaf(MULTISET, c)  # noqa: E731
    a = View.make(MULTISET, m(1), [(m(2), 2), m(3)])
    b = View.make(MULTISET, m(2), [m(1)])
    c = View.make(MULTISET, m(3), [m(1)])
    got = {
        "leaf": leaf(SET, 1),
        "set depth 1": View.make(SET, leaf(SET, 2), [leaf(SET, 1), leaf(SET, 3)]),
        "multiset depth 2": View.make(MULTISET, a, [(b, 2), c]),
    }
    assert {name: v.digest.hex() for name, v in got.items()} == GOLDEN_DIGESTS
    assert got["multiset depth 2"].child_size == 3


def eager_digest(view, memo):
    """The digest as View.make computed it for every new view: the kind,
    the inner digest and each child's digest and count, children sorted
    by digest.  Parts are looked up in memo, so build it bottom-up; no
    digest of the view's own is read."""
    if view.depth == 0:
        return blake2b(b"L%s%d" % (b"S" if view.kind == SET else b"M", view.base_color),
                       digest_size=16).digest()
    counts = dict(zip(view.child_lookup, view.counts or [1] * len(view.child_lookup)))
    parts = [b"N", b"S" if view.kind == SET else b"M", memo[view.inner]]
    for child in sorted(view.child_lookup, key=memo.__getitem__):
        parts += (memo[child], b"%d," % counts[child])
    return blake2b(b"".join(parts), digest_size=16).digest()


def fresh_views(rng, kind, base, depth, width):
    """Levels 0..depth of random views over colors from base up, which no
    other test interns; children are drawn with repeats and (view, count)
    pairs, so multiset views carry multiplicities."""
    levels = [[leaf(kind, base + c) for c in range(width)]]
    for _ in range(depth):
        below = levels[-1]
        level = []
        for _ in range(width):
            kids = [rng.choice(below) if rng.random() < 0.5
                    else (rng.choice(below), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
            level.append(View.make(kind, rng.choice(below), kids))
        levels.append(level)
    return levels


def eager_digests(levels):
    memo = {}
    for level in levels:
        for v in level:
            memo[v] = eager_digest(v, memo)
    return memo


@pytest.mark.parametrize("kind", [SET, MULTISET])
def test_lazy_digests_equal_the_eager_formula(kind):
    rng = random.Random(kind)
    with_counts = 0
    for trial in range(40):
        base = 4 * 10**12 + (trial + 100 * (kind == MULTISET)) * 10**4
        levels = fresh_views(rng, kind, base, rng.randint(0, 4), 6)
        memo = eager_digests(levels)
        assert all(v._digest is None for level in levels[1:] for v in level)
        # read deepest first (parts still unsealed) on even trials and
        # level by level (every part sealed) on odd ones
        order = [v for level in levels for v in level]
        for v in order[::-1] if trial % 2 == 0 else order:
            assert v.digest == memo[v]
        with_counts += sum(v.counts is not None for v in order)
    assert (with_counts > 0) == (kind == MULTISET)


def test_digest_of_a_deep_path_view_is_readable():
    base = 5 * 10**12
    g = ColoredGraph.from_edges(3, [(0, 1), (1, 2)], [base + 1, base + 2, base + 3], base + 3, 2)
    levels = [extract_all_views(g, 0, SET)]
    for _ in range(5000):
        at = levels[-1].__getitem__
        levels.append([View.make(SET, levels[-1][v], map(at, g.adjacency[v])) for v in range(3)])
    deep = levels[-1][1]
    assert deep.depth == 5000 and deep.inner._digest is None
    assert deep.digest == eager_digests(levels)[deep]


def test_first_reads_of_one_digest_across_threads_agree():
    n_threads = 8
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            levels = fresh_views(random.Random(trial), MULTISET, 6 * 10**12 + trial * 10**4, 30, 4)
            deep = levels[-1][0]
            assert deep._digest is None
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads

            def read(slot):
                barrier.wait(timeout=10)
                results[slot] = deep.digest

            threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert results == [eager_digests(levels)[deep]] * n_threads
    finally:
        sys.setswitchinterval(old_interval)


def test_building_a_host_computes_no_digest_below_its_leaves():
    # a child process: the pool is process-global, and another test may
    # already have read these views' digests
    script = (
        "from colorreduce import MULTISET, build_local1\n"
        "host = build_local1(5, 3, MULTISET)\n"
        "parts = [v.inner for v in host.vertices]\n"
        "parts += [c for v in host.vertices for c in v.child_lookup]\n"
        "print(host.n_vertices, sum(v._digest is None for v in host.vertices),\n"
        "      sum(p._digest is None for p in parts))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    n, undigested, undigested_leaves = map(int, proc.stdout.split())
    assert n > 0 and undigested == n and undigested_leaves == 0


def test_views_and_color_programs_refuse_assignment_and_deletion():
    pooled = leaf(SET, 1)
    deep = View.make(SET, View.make(SET, pooled, [leaf(SET, 2)]),
                     [View.make(SET, leaf(SET, 2), [pooled])])
    program = ColorRounds([(lambda color, seen: color, 0)])
    rounds = program.rounds
    for obj, name in ((pooled, "depth"), (pooled, "base_color"), (deep, "inner"),
                      (deep, "children"), (pooled, "digest"), (deep, "digest"),
                      (program, "rounds")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 5)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert leaf(SET, 1) is pooled
    assert (pooled.depth, pooled.base_color, pooled.inner) == (0, 1, None)
    assert deep.depth == 2 and deep.inner.inner is pooled
    assert program.rounds is rounds

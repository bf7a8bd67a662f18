"""View engine: extraction, canonical encoding, truncation, erasure."""

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorreduce import (MULTISET, SET, ColoredGraph, View, canonical_decode,
                         canonical_encode, erase_multiplicities,
                         extract_all_views, extract_view, random_colored_tree,
                         truncate, view_from_json, view_to_json, views)


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
    src = str(Path(views.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_decode_rejects_deep_nesting_with_value_error():
    with pytest.raises(ValueError):
        canonical_decode(b"S1(" * 5000)


def test_make_rejects_multiplicities_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError):
            View.make(MULTISET, leaf(MULTISET, 1), [(leaf(MULTISET, 2), count)])


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

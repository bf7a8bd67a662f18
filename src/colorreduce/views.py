"""Recursive round views of nodes in colored graphs.

A depth-0 view is a node's own color.  A depth-(r+1) view pairs the node's
depth-r view with the collection of its neighbors' depth-r views: a
duplicate-free set under set delivery, a multiset under multiset delivery.

Views are hash-consed: structurally equal views are the same object, so
equality and hashing are plain object identity, O(1) even for deep views.
The intern pool is keyed by a view's own parts, not by a digest: a leaf
by (kind, color), a deeper view by its inner view and its own tuple of
distinct children in `id` order (`child_lookup`), plus the tuple of
their counts when some count is above 1.  The parts are interned
already and the key holds them alive, so their ids are fixed and
unique: by induction equal structure means an equal key.  The key
shares the view's tuples, so each view stores its children once: about
300 B per view with its key and pool slot (`build_local1(7, 4, MULTISET)`
on 64-bit CPython 3.11, encodings left out).  Interning hashes nothing.
A view's 16-byte digest names views and orders children but decides no
identity, so it is computed the first time it is read, for the view and
for every part below it that has none yet, without recursion; only
leaves get theirs when they are interned.  Threads racing on a first
read write equal bytes.

Identity hashes and ids follow memory addresses, so the iteration order
of a set of views, and of `child_lookup`, is not stable across runs;
anything that must be reproducible orders views by digest or canonical
encoding instead (`children` gives the (child, count) pairs in digest
order).  The exact canonical byte encoding is injective and decodable;
it is materialized lazily and meant for desk-scale views (the digest
serves deep ones).  Every encoding materialized in this process is also
a key of a table back to its view, so decoding those bytes is one
lookup; other bytes are parsed and checked.  The table lives as long as
the intern pool: both are process-global and never freed.
"""

from __future__ import annotations

from hashlib import blake2b
from itertools import repeat
from operator import attrgetter, itemgetter

from .errors import _Immutable

SET = "set"
MULTISET = "multiset"

_KIND_BYTE = {SET: b"S", MULTISET: b"M"}


class View(_Immutable):
    """Immutable recursive view; construct via View.leaf / View.make.

    `child_lookup` holds the distinct children in `id` order, and `counts`
    their multiplicities in the same order, or None when every one is 1
    (always under SET).  The pool key holds that same tuple.  `_digest`
    is None until `digest` is first read, except on leaves."""

    __slots__ = ("kind", "depth", "base_color", "inner", "child_lookup",
                 "counts", "child_size", "_digest", "_enc")

    # (kind, color), (inner, child_lookup) or (inner, child_lookup, counts) -> view
    _pool: dict = {}
    _by_enc: dict = {}  # canonical encoding -> view, filled by canonical_encode

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use View.leaf(...) or View.make(...)")

    @classmethod
    def _intern(cls, key, kind, depth, base_color, inner, lookup, counts, digest):
        self = object.__new__(cls)
        self_set = object.__setattr__
        self_set(self, "kind", kind)
        self_set(self, "depth", depth)
        self_set(self, "base_color", base_color)
        self_set(self, "inner", inner)
        self_set(self, "child_lookup", lookup)
        self_set(self, "counts", counts)
        self_set(self, "child_size", len(lookup) if counts is None else sum(counts))
        self_set(self, "_digest", digest)
        self_set(self, "_enc", None)
        # setdefault is atomic, so racing threads all get the first object
        return cls._pool.setdefault(key, self)

    @classmethod
    def leaf(cls, kind, color):
        """Depth-0 view carrying only the node's own color."""
        if kind not in _KIND_BYTE:
            raise ValueError(f"unknown kind {kind!r}")
        if not isinstance(color, int) or color < 1:
            raise ValueError("colors are positive integers")
        key = (kind, color)
        found = cls._pool.get(key)
        if found is not None:
            return found
        digest = blake2b(b"L%s%d" % (_KIND_BYTE[kind], color), digest_size=16).digest()
        # True interns as 1, so the pooled leaf must carry the int 1
        return cls._intern(key, kind, 0, int(color), None, (), None, digest)

    @classmethod
    def make(cls, kind, inner, children):
        """Depth-(r+1) view from a depth-r inner view and depth-r children.

        `children` is an iterable of View or (View, count) pairs.  Under
        SET kind duplicates collapse; under MULTISET multiplicities add up.
        """
        children = sorted(children, key=id)
        try:
            # only distinct plain views in id order can spell a pooled key,
            # whose parts passed the checks below when it was interned
            found = cls._pool.get((inner, tuple(children)))
        except TypeError:  # an unhashable entry, rejected by the checks below
            found = None
        if found is not None and found.kind == kind:
            return found
        if kind not in _KIND_BYTE:
            raise ValueError(f"unknown kind {kind!r}")
        if not isinstance(inner, View):
            raise ValueError("the inner view must be a View")
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
            if not isinstance(child, View):
                raise ValueError("children must be Views or (View, count) pairs")
            if child.depth != inner.depth:
                raise ValueError("child depth must equal inner depth")
            if child.kind != kind:
                raise ValueError("child view kind mismatch")
            counts[child] = counts.get(child, 0) + cnt
        lookup = tuple(sorted(counts, key=id))
        if kind == SET or len(lookup) == sum(counts.values()):
            multiplicities, key = None, (inner, lookup)
        else:
            multiplicities = tuple(map(counts.__getitem__, lookup))
            key = (inner, lookup, multiplicities)
        found = cls._pool.get(key)
        if found is not None:
            return found
        return cls._intern(key, kind, inner.depth + 1, None, inner, lookup,
                           multiplicities, None)

    @property
    def digest(self):
        """16-byte blake2b digest of the kind, the inner view's digest and
        each child's digest and count, children in digest order."""
        digest = self._digest
        if digest is None:
            digest = _seal(self) or _seal_below(self)
        return digest

    @property
    def children(self):
        """The (child, count) pairs in digest order."""
        pairs = zip(self.child_lookup, self.counts or repeat(1))
        return tuple(sorted(pairs, key=lambda kv: kv[0].digest))

    def __repr__(self):
        if self.depth == 0:
            return f"View({self.base_color})"
        inside = ", ".join(
            repr(c) if n == 1 else f"{c!r}*{n}" for c, n in self.children
        )
        return f"View({self.inner!r}; {{{inside}}})"

    def distinct_children(self):
        return self.child_lookup


_own_digest = attrgetter("_digest")
_set_digest = View._digest.__set__  # the slot itself, past _Immutable.__setattr__
_NODE_PREFIX = {kind: b"N" + byte for kind, byte in _KIND_BYTE.items()}


def _seal(view):
    """Compute, store and return view's digest when its inner view and
    children all have theirs; None otherwise."""
    inner = view.inner._digest
    digests = list(map(_own_digest, view.child_lookup))
    if inner is None or None in digests:
        return None
    counts = view.counts
    if counts is None:
        # every count is 1, so digests that collide give the same bytes in either order
        digests.sort()
        body = b"1,".join(digests) + b"1," if digests else b""
    else:
        # keyed on the digest alone, so children whose digests collide keep id order
        pairs = sorted(zip(digests, counts), key=itemgetter(0))
        body = b"".join([d + b"%d," % n for d, n in pairs])
    digest = blake2b(_NODE_PREFIX[view.kind] + inner + body, digest_size=16).digest()
    _set_digest(view, digest)
    return digest


def _seal_below(view):
    """view's digest, sealing every view below it that has none first,
    on an explicit stack so that no depth exhausts the recursion limit."""
    stack = [view]
    while stack:
        top = stack[-1]
        if top._digest is not None or _seal(top) is not None:
            stack.pop()
            continue
        if top.inner._digest is None:
            stack.append(top.inner)
        stack += [c for c in top.child_lookup if c._digest is None]
    return view._digest


def canonical_encode(view: View) -> bytes:
    """Exact injective encoding; equal bytes iff equal views.

    Children are listed in lexicographic order of their own encodings,
    which gives a total, construction-order-independent serialization.
    """
    cached = view._enc
    if cached is not None:
        return cached
    kb = _KIND_BYTE[view.kind]
    if view.depth == 0:
        enc = kb + b"0(%d)" % view.base_color
    else:
        encs = map(canonical_encode, view.child_lookup)
        if view.kind == SET:
            body = b",".join(sorted(encs))
        else:
            # children are distinct views, so no two encodings tie
            pairs = sorted(zip(encs, view.counts or repeat(1)))
            body = b",".join(p + b"*%d" % n for p, n in pairs)
        enc = kb + b"%d(" % view.depth + canonical_encode(view.inner) + b";" + body + b")"
    object.__setattr__(view, "_enc", enc)
    View._by_enc.setdefault(enc, view)
    return enc


class _Parser:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, token: bytes):
        if not self.data.startswith(token, self.pos):
            raise ValueError(f"bad view encoding at byte {self.pos}")
        self.pos += len(token)

    def read_int(self) -> int:
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ValueError(f"expected integer at byte {start}")
        return int(self.data[start : self.pos])

    def peek(self) -> bytes:
        return self.data[self.pos : self.pos + 1]

    def parse_view(self) -> View:
        kind_byte = self.peek()
        if kind_byte == b"S":
            kind = SET
        elif kind_byte == b"M":
            kind = MULTISET
        else:
            raise ValueError(f"bad kind byte {kind_byte!r} at {self.pos}")
        self.pos += 1
        depth = self.read_int()
        self.take(b"(")
        if depth == 0:
            color = self.read_int()
            self.take(b")")
            return View.leaf(kind, color)
        inner = self.parse_view()
        self.take(b";")
        children = []
        while self.peek() != b")":
            child = self.parse_view()
            count = 1
            if kind == MULTISET:
                self.take(b"*")
                count = self.read_int()
            children.append((child, count))
            if self.peek() == b",":
                self.pos += 1
        self.take(b")")
        return View.make(kind, inner, children)


def canonical_decode(data: bytes) -> View:
    """Inverse of canonical_encode.  Any other bytes raise ValueError.

    Bytes that canonical_encode produced in this process are looked up;
    only they are keys, and by injectivity and interning the hit is the
    view the parser would build.  Other bytes are parsed.  The parser is
    lenient, so the result is re-encoded and must give the input back
    (wrong depths, leading zeros, unsorted or repeated children, stray
    commas and trailing bytes all fail that check), and input nested
    deeper than the recursive parser can follow fails too."""
    if type(data) is bytes:
        view = View._by_enc.get(data)
        if view is not None:
            return view
    else:
        # other bytes-like input is copied and parsed, so its outcome
        # never depends on the table
        data = bytes(memoryview(data))
    try:
        view = _Parser(data).parse_view()
    except RecursionError:
        raise ValueError("view encoding nested too deeply") from None
    if canonical_encode(view) != data:
        raise ValueError("not a canonical view encoding")
    return view


def extract_all_views(g, r: int, kind) -> list[View]:
    """The depth-r view of every node of g under the given delivery kind."""
    if type(r) is not int or r < 0:
        raise ValueError(f"rounds must be an int >= 0, got {r!r}")
    current = [View.leaf(kind, c) for c in g.psi]
    for _ in range(r):
        at = current.__getitem__
        current = [View.make(kind, current[v], map(at, g.adjacency[v])) for v in range(g.n)]
    return current


def extract_view(g, v: int, r: int, kind) -> View:
    """The data node v can gather in r rounds: own (r-1)-view plus the
    collection of the neighbors' (r-1)-views."""
    return extract_all_views(g, r, kind)[v]


def truncate(view: View, r: int) -> View:
    """The r-round view of the same node in the same graph, for r <= depth."""
    if type(r) is not int or not 0 <= r <= view.depth:
        raise ValueError(f"cannot truncate depth-{view.depth} view to {r!r}")
    while view.depth > r:
        view = view.inner
    return view


def erase_multiplicities(view: View) -> View:
    """Recursively forget multiplicities, turning a multiset view into the
    set view the same node would have under set delivery."""
    memo = {}

    def walk(v):
        got = memo.get(v)
        if got is not None:
            return got
        if v.depth == 0:
            out = View.leaf(SET, v.base_color)
        else:
            out = View.make(SET, walk(v.inner), map(walk, v.child_lookup))
        memo[v] = out
        return out

    return walk(view)


def view_to_json(view: View):
    """JSON form: depth-0 view as a bare integer; deeper views as
    {"inner": ..., "children": [...]} with children in canonical order.
    Multiset children are [child, count] pairs."""
    if view.depth == 0:
        return view.base_color
    # encodings are distinct, so this order needs no digest
    pairs = zip(view.child_lookup, view.counts or repeat(1))
    enc_order = sorted(pairs, key=lambda kv: canonical_encode(kv[0]))
    if view.kind == SET:
        children = [view_to_json(c) for c, _ in enc_order]
    else:
        children = [[view_to_json(c), n] for c, n in enc_order]
    return {"inner": view_to_json(view.inner), "children": children}


def view_from_json(data, kind) -> View:
    """Inverse of view_to_json.  Data that view_to_json does not produce
    raises ValueError: a color that is not an int (true included), a
    member that is neither a color nor an object with "inner" and a
    "children" list, a multiset child that is not a [view, int] pair,
    and a member nested past the recursion limit, as in canonical_decode."""
    try:
        return _view_from_json(data, kind)
    except RecursionError:
        raise ValueError("view JSON nested too deeply") from None


def _view_from_json(data, kind) -> View:
    if type(data) is int:
        return View.leaf(kind, data)
    if not (isinstance(data, dict) and "inner" in data):
        raise ValueError(f"a view is an int color or an object with an inner view, "
                         f"got {type(data).__name__}")
    inner = _view_from_json(data["inner"], kind)
    entries = data.get("children")
    if not isinstance(entries, list):
        raise ValueError("a view's children are a list")
    children = []
    for entry in entries:
        if kind == MULTISET:
            if not (isinstance(entry, list) and len(entry) == 2 and type(entry[1]) is int):
                raise ValueError("a multiset child is a [view, count] pair")
            child, count = entry
            children.append((_view_from_json(child, kind), count))
        else:
            children.append(_view_from_json(entry, kind))
    return View.make(kind, inner, children)

"""Synchronous broadcast simulator with set or multiset message delivery.

A node program is four deterministic functions.  ``init`` maps
(own initial color, m, delta, n) to an opaque state.  Before any
communication the engine calls ``step`` once with an empty received
collection; the message it returns is the node's round-1 broadcast.
In every round t each node receives the collection of byte-string
messages sent by its neighbors -- a frozenset under set delivery (equal
messages collapse), a sorted tuple under multiset delivery (counts are
kept, sender identity is not) -- and ``step(state, received)`` returns
the new state plus the broadcast for round t+1.  After ``round_budget``
rounds ``finalize(state)`` yields the node's output color.

The engine is a pure fold over rounds: identical inputs produce
byte-identical traces, and node steps of one round may be evaluated in
any order (they only read the previous round's messages).

Color-only programs.  A program whose every round is a function of
(own color, set of neighbor colors) can be written as a `ColorRounds`
object: one rule per round, whose one method gives every node's next
color at once, and `ColorRounds.program` wraps them as a NodeProgram
whose step broadcasts ``b"%d" % color`` and runs the rule on the star of
the node and the set of colors it received.  `run` executes such a
program on a plain color list instead (no messages and no per-node
states; a round is one rule call on the whole graph, and a round that
keeps every color held is skipped) when ``trace`` is false and the
program is exactly as `ColorRounds.program` built it; if that raises, it
runs the message path, which raises SimulationError with the node, round
and cause.  With ``trace=True``, or when any of init, step, finalize or
round_budget has been replaced (say, by a wrapped step), `run` takes the
message path only; it stays the semantics oracle.  Delivery does not
matter to such a program, since a set of colors reads the same from a
set or a multiset of messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import blake2b
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .errors import ParameterError, SimulationError, _Immutable
from .graphs import ColorAssignment, ColoredGraph
from .views import (MULTISET, SET, View, canonical_decode, canonical_encode,
                    extract_all_views)


@dataclass(frozen=True)
class NodeProgram:
    """Deterministic per-node state machine run by the engine."""

    init: Callable[[int, int, int, int], Any]
    step: Callable[[Any, Any], tuple[Any, bytes]]
    finalize: Callable[[Any], int]
    round_budget: Callable[[int, int, int], int]
    name: str = "program"
    meta: Mapping | None = None

    def __post_init__(self):
        if self.meta is not None:  # stored read-only, as a copy
            object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))


def _star(k: int) -> tuple[tuple[int, ...], ...]:
    """Rows of a star: node 0 joined to nodes 1..k, each leaf's row empty."""
    return (tuple(range(1, k + 1)),) + ((),) * k


class ColorRounds(_Immutable):
    """The step of a color-only program, one rule per round.

    Round t applies the t-th (rule, keep) pair.  A rule's one method,
    ``next_colors(colors, rows)``, maps the colors held after round t - 1
    and a graph's neighbor rows to every node's next color, or raises the
    cause.  A node's next color reads only its own color and the set of
    its neighbors' colors, and is its color itself when that is <= keep
    (keep is 0 when the rule may change any color).  Called as a step,
    the object is the byte-message form of the same rules: a node above
    keep takes node 0's color on its star (_star), with one leaf per
    distinct color received.  A leaf has no neighbors, so with the rules
    of colorreduce.algorithms it does not change node 0's answer, and it
    raises only on a color out of range, which node 0 rejects as well.
    """

    __slots__ = ("rounds",)

    def __init__(self, rounds):
        object.__setattr__(self, "rounds", tuple(rounds))

    def init(self, color, m, delta, n):
        return (0, color)

    def __call__(self, state, received):
        t, color = state
        if t > 0:
            rule, keep = self.rounds[t - 1]
            if color > keep:
                held = {int(msg) for msg in received}
                color = rule.next_colors([color, *held], _star(len(held)))[0]
        return (t + 1, color), b"%d" % color

    def finalize(self, state):
        return state[1]

    def round_budget(self, m, delta, n):
        return len(self.rounds)

    def program(self, name, meta=None) -> NodeProgram:
        return NodeProgram(self.init, self, self.finalize, self.round_budget,
                           name=name, meta=meta)

    def built(self, prog: NodeProgram) -> bool:
        """True iff prog is this object's own program, nothing replaced."""
        return (prog.step is self and prog.init == self.init
                and prog.finalize == self.finalize
                and prog.round_budget == self.round_budget)

    def run_colors(self, g: ColoredGraph) -> list[int]:
        """The output color of every node of g, computed on a color list:
        one next_colors call per round, skipping a round whose keep is at
        least every color held.  A rule's exception propagates as is."""
        adj, colors = g.adjacency, list(g.psi)
        top = max(colors)
        for rule, keep in self.rounds:
            if top > keep:
                colors = rule.next_colors(colors, adj)
                top = max(colors)
        return colors


def _digest_state(state) -> str:
    if isinstance(state, View):
        return state.digest.hex()
    if isinstance(state, bytes):
        raw = state
    else:
        raw = repr(state).encode()
    return blake2b(raw, digest_size=16).hexdigest()


@dataclass(frozen=True)
class SimTrace:
    """Per-round, per-node record of (state digest, sent, received)."""

    kind: str
    rounds: tuple = ()

    def _entry(self, round_index, node):
        """IndexError, naming the valid range, for a round outside
        [1, len(rounds)] or a node outside [0, n); no index wraps."""
        if not 0 < round_index <= len(self.rounds):
            raise IndexError(f"round {round_index} outside [1, {len(self.rounds)}]")
        row = self.rounds[round_index - 1]
        if not 0 <= node < len(row):
            raise IndexError(f"node {node} outside [0, {len(row)})")
        return row[node]

    def sent_at(self, round_index, node) -> bytes:
        """Message broadcast by `node` in 1-based round `round_index`."""
        return self._entry(round_index, node)[1]

    def state_digest_at(self, round_index, node) -> str:
        return self._entry(round_index, node)[0]

    def to_jsonl(self, fh):
        for t, row in enumerate(self.rounds, start=1):
            for v, (digest, sent, received) in enumerate(row):
                fh.write(json.dumps({
                    "round": t,
                    "node": v,
                    "state": digest,
                    "sent": sent.hex(),
                    "received": [r.hex() for r in received],
                }, sort_keys=True))
                fh.write("\n")


def run(g: ColoredGraph, prog: NodeProgram, kind=SET, trace: bool = False):
    """Execute prog synchronously on g; returns (ColorAssignment, SimTrace|None).

    Under set delivery each distinct byte-string reaches a node at most
    once per round no matter how many neighbors sent it.  A program that
    ColorRounds.program built runs on colors alone unless `trace` is set,
    and again on messages if that run raises (see the module docstring).
    """
    if kind not in (SET, MULTISET):
        raise ParameterError(f"unknown delivery kind {kind!r}")
    step = prog.step
    if type(step) is ColorRounds and not trace and step.built(prog):
        try:
            colors = step.run_colors(g)
            return ColorAssignment(tuple(colors), max(colors)), None
        except Exception:  # noqa: BLE001 - the message path below names node and round
            pass
    n, adj = g.n, g.adjacency
    budget = prog.round_budget(g.m, g.delta_cap, n)
    states = []
    for v in range(n):
        try:
            states.append(prog.init(g.psi[v], g.m, g.delta_cap, n))
        except Exception as exc:  # noqa: BLE001 - context-wrapped
            raise SimulationError(v, 0, exc) from exc
    rows = []
    if budget > 0:
        empty = frozenset() if kind == SET else ()
        pending = [None] * n
        for v in range(n):
            try:
                states[v], pending[v] = prog.step(states[v], empty)
            except Exception as exc:  # noqa: BLE001
                raise SimulationError(v, 0, exc) from exc
        for t in range(1, budget + 1):
            sent = pending
            if kind == SET:
                received = [frozenset(sent[u] for u in adj[v]) for v in range(n)]
            else:
                received = [tuple(sorted(sent[u] for u in adj[v])) for v in range(n)]
            pending = [None] * n
            for v in range(n):
                try:
                    states[v], pending[v] = prog.step(states[v], received[v])
                except Exception as exc:  # noqa: BLE001
                    raise SimulationError(v, t, exc) from exc
            if trace:
                rows.append(tuple(
                    (_digest_state(states[v]), sent[v], tuple(sorted(received[v])))
                    for v in range(n)
                ))
    colors = []
    for v in range(n):
        try:
            colors.append(prog.finalize(states[v]))
        except Exception as exc:  # noqa: BLE001
            raise SimulationError(v, budget, exc) from exc
    sim_trace = SimTrace(kind, tuple(rows)) if trace else None
    return ColorAssignment(tuple(colors), max(colors)), sim_trace


def full_information_program(r: int) -> NodeProgram:
    """Forward everything every round; after r rounds the state is the
    node's r-view under whichever delivery semantics the run uses.

    The output color is a deterministic token of the final view (views of
    adjacent nodes always differ, so the token coloring is proper).
    """
    if type(r) is not int or r < 0:
        raise ParameterError(f"rounds must be an int >= 0, got {r!r}")

    def init(color, m, delta, n):
        return color

    def step(state, received):
        if isinstance(state, int):
            # priming call: received is empty, its type tells the semantics
            kind = SET if isinstance(received, frozenset) else MULTISET
            state = View.leaf(kind, state)
            return state, canonical_encode(state)
        state = View.make(state.kind, state, map(canonical_decode, received))
        return state, canonical_encode(state)

    def finalize(state):
        if isinstance(state, int):
            return state
        return 1 + int.from_bytes(state.digest, "big")

    return NodeProgram(init, step, finalize, lambda m, d, n: r,
                       name=f"full-information[{r}]")


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of checking that a program is a proper function of views."""

    rounds: int
    kind: str
    nodes_checked: int
    edges_checked: int
    distinct_views: int
    determinism_violations: tuple
    properness_violations: tuple

    @property
    def ok(self) -> bool:
        return not self.determinism_violations and not self.properness_violations


def check_correspondence(prog: NodeProgram, r: int, m: int, delta: int,
                         instances, kind=SET) -> CorrespondenceReport:
    """Verify on the given instances that (i) nodes with equal r-views get
    equal outputs (otherwise prog is not expressible as a view function)
    and (ii) outputs differ across every realized edge, i.e. the induced
    labeling of observed r-views is proper.  Violations are report
    content, not errors."""
    nodes_checked = edges_checked = 0
    determinism, properness = [], []
    seen: dict[View, tuple[int, int, int]] = {}
    for g_idx, g in enumerate(instances):
        if g.m != m or g.delta_cap != delta:
            raise ParameterError(
                f"instance {g_idx} has (m={g.m}, delta={g.delta_cap}), expected ({m}, {delta})"
            )
        if prog.round_budget(m, delta, g.n) != r:
            raise ParameterError(
                f"program budget {prog.round_budget(m, delta, g.n)} != r={r}"
            )
        phi, _ = run(g, prog, kind=kind)
        node_views = extract_all_views(g, r, kind)
        for v in range(g.n):
            nodes_checked += 1
            view = node_views[v]
            out = phi[v]
            prev = seen.get(view)
            if prev is None:
                seen[view] = (out, g_idx, v)
            elif prev[0] != out:
                determinism.append(MappingProxyType({
                    "view": view.digest.hex(),
                    "first": MappingProxyType(
                        {"instance": prev[1], "node": prev[2], "output": prev[0]}),
                    "second": MappingProxyType({"instance": g_idx, "node": v, "output": out}),
                }))
        for u, v in g.edges():
            edges_checked += 1
            if phi[u] == phi[v]:
                properness.append(MappingProxyType({
                    "instance": g_idx,
                    "edge": (u, v),
                    "output": phi[u],
                    "views": (node_views[u].digest.hex(), node_views[v].digest.hex()),
                }))
    return CorrespondenceReport(r, kind, nodes_checked, edges_checked, len(seen),
                                tuple(determinism), tuple(properness))

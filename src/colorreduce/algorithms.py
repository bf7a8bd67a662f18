"""One-round color reduction steps and the composed (delta+1) pipeline.

All programs broadcast only their current color each round and read only
the set of received colors, so they run unchanged under set delivery.
Palette schedules are fixed arithmetic in (m, delta): the engine's round
budget is known before the first message is sent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstructionError, ParameterError, _Immutable, _need_ints
from .simulate import ColorRounds, NodeProgram


def logstar2(x) -> int:
    """Iterated base-2 logarithm: applications of log2 until the value is <= 1."""
    count = 0
    while x > 1:
        x = math.log2(x)
        count += 1
    return count


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    f = 3
    while f * f <= k:
        if k % f == 0:
            return False
        f += 2
    return True


def _next_prime(k: int) -> int:
    while not is_prime(k):
        k += 1
    return k


def _iroot(n: int, k: int) -> int:
    """The largest r >= 0 with r**k <= n, for ints n >= 0 and k >= 1, by
    bisection on ints: with hi = 1 << ceil(bits(n) / k), hi**k > n and
    (hi // 2)**k <= n, so no float enters."""
    hi = 1 << -(-n.bit_length() // k)
    lo = hi >> 1
    while hi - lo > 1:  # lo**k <= n < hi**k
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class LinialParams:
    """Prime q and polynomial degree for one reduction round.

    Two distinct degree-<=deg polynomials over GF(q) agree on at most deg
    points, so each of the <= delta neighbor sets knocks out at most deg
    of a node's q points; q > delta*deg keeps one point free.  q**(deg+1)
    source colors can be encoded as coefficient vectors.
    """

    q: int
    deg: int
    source_palette: int
    delta: int

    @property
    def target(self) -> int:
        return self.q * self.q

    def __post_init__(self):
        if self.q <= self.delta * self.deg:
            raise ParameterError(f"q={self.q} not above delta*deg={self.delta * self.deg}")
        if self.q ** (self.deg + 1) < self.source_palette:
            raise ParameterError(
                f"q^(deg+1)={self.q ** (self.deg + 1)} cannot encode {self.source_palette} colors"
            )


def linial_params(m: int, delta: int) -> LinialParams:
    """Feasible (q, deg) minimizing the target palette q^2; ties prefer
    the smaller degree.

    Degree deg needs a prime q >= q_min = max(delta*deg + 1, the least q
    with q**(deg+1) >= m), over deg <= ceil(log2 m) + 1.  Degrees are
    tried by ascending (q_min, deg), so the search stops at the first
    q_min above the best prime found, before a low degree's huge root."""
    _need_ints(m=m, delta=delta)
    if m < 2 or delta < 1:
        raise ParameterError("need m >= 2 and delta >= 1")
    max_deg = max(1, (m - 1).bit_length()) + 1
    best = (math.inf, 0)
    for q_min, deg in sorted((max(delta * deg + 1, _iroot(m - 1, deg + 1) + 1), deg)
                             for deg in range(1, max_deg + 1)):
        if q_min > best[0]:
            break
        best = min(best, (_next_prime(q_min), deg))
    return LinialParams(*best, m, delta)


@dataclass(frozen=True)
class CoverFreeFamily:
    """Color sets F_c over the ground set [q^2], one per source color.

    F_c consists of the q points (a, P_c(a)) of the graph of the
    polynomial whose coefficient vector is the base-q expansion of c-1;
    point (a, b) is the ground element a*q + b + 1.  Distinct members
    intersect in at most deg points, so no member is contained in the
    union of delta others.
    """

    params: LinialParams
    m: int

    def __post_init__(self):
        if not is_prime(self.params.q):
            raise ParameterError(f"{self.params.q} is not prime; need a prime field order")
        if self.m > self.params.q ** (self.params.deg + 1):
            raise ParameterError("palette larger than available polynomials")

    def member(self, color: int) -> frozenset[int]:
        if not 1 <= color <= self.m:
            raise ParameterError(f"color {color} outside [1, {self.m}]")
        q = self.params.q
        return frozenset(a * q + _evaluate(q, color, a) + 1 for a in range(q))

    def members(self):
        return [self.member(c) for c in range(1, self.m + 1)]


def _evaluate(q: int, color: int, a: int) -> int:
    """P_color(a) over GF(q); the coefficients of P_color, lowest first,
    are the base-q digits of color - 1.  No range check."""
    rest, acc, power = color - 1, 0, 1
    while rest:
        acc += rest % q * power
        rest //= q
        power *= a
    return acc % q


def build_family(params: LinialParams, m: int) -> CoverFreeFamily:
    return CoverFreeFamily(params, m)


def linial_palette_schedule(m: int, delta: int) -> list[int]:
    """Palette sizes of iterated reduction, stopping when a step would not
    shrink the palette.  The last entry is the fixpoint palette."""
    palettes = [m]
    while True:
        params = linial_params(palettes[-1], delta)
        if params.target >= palettes[-1]:
            return palettes
        palettes.append(params.target)


def kw_target(m: int, delta: int) -> int:
    """Palette reachable in one merge round: ceil(m * (1 - 1/(delta+2)))."""
    return -(-m * (delta + 1) // (delta + 2))


def _need_m_delta(m, delta):
    """ParameterError unless m and delta are ints and delta >= 1."""
    _need_ints(m=m, delta=delta)
    if delta < 1:
        raise ParameterError(f"need delta >= 1, got {delta}")


def kw_palette_schedule(m: int, delta: int) -> list[int]:
    _need_m_delta(m, delta)
    palettes = [m]
    while palettes[-1] > delta + 1:
        palettes.append(kw_target(palettes[-1], delta))
    return palettes


def delta_plus_one_schedule(m: int, delta: int) -> list[int]:
    palettes = linial_palette_schedule(m, delta)
    palettes.extend(kw_palette_schedule(palettes[-1], delta)[1:])
    return palettes


def _free_point(q: int, color: int, neighbor_colors) -> int | None:
    """a*q + P_color(a) + 1 at the first a >= 1 where no neighbor's
    polynomial takes P_color's value, or None when every a is taken."""
    for a in range(1, q):
        b = _evaluate(q, color, a)
        if all(_evaluate(q, c, a) != b for c in neighbor_colors):
            return a * q + b + 1
    return None


class _linial_rule(_Immutable):
    """min(member(color) minus the union of the neighbors' members), for
    every node of a round at once.

    A member holds one point (a, P(a)) per a, and points are numbered by
    a first, so that minimum is the point at the first a where no
    neighbor's polynomial takes the node's value.  At a = 0 that value
    is the constant coefficient, (color - 1) mod q, which settles most
    nodes without evaluating a polynomial.  next_colors checks the range
    of the color list once (ParameterError names its first bad color),
    compares the residues of each row and searches a >= 1 only at the
    nodes whose residue a neighbor holds too."""

    __slots__ = ("q", "m")

    def __init__(self, family: CoverFreeFamily):
        object.__setattr__(self, "q", family.params.q)
        object.__setattr__(self, "m", family.m)

    def next_colors(self, colors, rows):
        q, m = self.q, self.m
        if min(colors) < 1 or max(colors) > m:
            bad = next(c for c in colors if not 1 <= c <= m)
            raise ParameterError(f"color {bad} outside [1, {m}]")
        residues = [(c - 1) % q for c in colors]
        moved = [b + 1 for b in residues]
        for v, row in enumerate(rows):
            b = residues[v]
            for u in row:
                if residues[u] == b:
                    point = _free_point(q, colors[v], [colors[u] for u in row])
                    if point is None:
                        raise ConstructionError(
                            "color set exhausted by neighbors; cover-freeness violated")
                    moved[v] = point
                    break
        return moved


class _kw_rule(_Immutable):
    """Colors up to q stay; color q + 1 + i moves to the first color of
    its private range i*(delta+1) + 1 .. (i+1)*(delta+1) that no neighbor
    holds.  next_colors changes only the nodes above q."""

    __slots__ = ("q", "width")

    def __init__(self, q: int, delta: int):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "width", delta + 1)

    def next_colors(self, colors, rows):
        q, width = self.q, self.width
        moved = colors[:]
        for v, c in enumerate(colors):
            if c > q:
                low = (c - q - 1) * width + 1
                held = [colors[u] for u in rows[v]]
                for candidate in range(low, low + width):
                    if candidate not in held:
                        moved[v] = candidate
                        break
                else:
                    raise ConstructionError(
                        "all delta+1 range colors taken by <= delta neighbors")
        return moved


def _program(palettes, reductions: int, delta: int, name: str) -> NodeProgram:
    """A color-set reduction round from each of the first `reductions`
    palettes, then a merge round down to each later palette (keeping
    every color at or below its target); see ColorRounds."""
    rounds = [(_linial_rule(build_family(linial_params(p, delta), p)), 0)
              for p in palettes[:reductions]]
    rounds += [(_kw_rule(q, delta), q) for q in palettes[reductions + 1:]]
    return ColorRounds(rounds).program(name, meta={"palettes": tuple(palettes)})


def linial_step_program(m: int, delta: int) -> NodeProgram:
    """One reduction round: given a proper m-coloring, every node ends on
    the minimum element of its color set minus its neighbors' sets, a
    proper q^2-coloring."""
    target = linial_params(m, delta).target
    return _program([m, target], 1, delta, f"linial-step[{m}->{target}]")


def linial_full_program(m: int, delta: int) -> NodeProgram:
    """Iterate the reduction until the target palette stops shrinking."""
    palettes = linial_palette_schedule(m, delta)
    return _program(palettes, len(palettes) - 1, delta, f"linial[{m}->{palettes[-1]}]")


def kw_step_program(m: int, delta: int) -> NodeProgram:
    """One merge round m -> ceil(m(1-1/(delta+2))).  Nodes at or below the
    target keep their color; the i-th high color recolors into its private
    range of delta+1 low colors, dodging all neighbor colors."""
    _need_m_delta(m, delta)
    if m <= delta + 1:
        raise ParameterError(f"m={m} already at or below delta+1={delta + 1}; nothing to merge")
    q = kw_target(m, delta)
    return _program([m, q], 0, delta, f"kw-step[{m}->{q}]")


def delta_plus_one_program(m: int, delta: int) -> NodeProgram:
    """Full pipeline: iterated color-set reduction, then merge rounds down
    to a proper (delta+1)-coloring."""
    _need_m_delta(m, delta)
    if m < delta + 2:
        raise ParameterError(f"need m >= delta+2, got m={m}, delta={delta}")
    linial = linial_palette_schedule(m, delta)
    palettes = linial + kw_palette_schedule(linial[-1], delta)[1:]
    return _program(palettes, len(linial) - 1, delta, f"delta1[{m},{delta}]")

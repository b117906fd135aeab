"""Box counting and dimension estimates.

The constructed set is covered by a slab system: for each functional, the
dot product must have vanishing digits on that functional's scheduled
windows.  count_exact counts, without floating point, the level-r dyadic
cells whose image under every functional meets every window slab.

The walk over levels keeps one canonical state per surviving cell class:
which windows are already satisfied by the whole cell (a bitmask) plus the
cell image's offset modulo the coarsest unsatisfied window period.  Between
windows every surviving cell collapses onto the same state, so the state
table stays small even at depth ~100.

Stepping from a state to its children goes through transition tables.  A
child's group state depends only on its group, that group's state in the
parent and the child's corner delta, so each (group, group state) has one
row of 2**dim child states, classified once and shared by every combined
state that holds it.  Raw offsets never repeat from one level to the next,
so inside a window-free stretch a group state is held by its edge-relative
class: the mask, the nearest edge of the coarsest unsatisfied window (0,
the band roof or the period top) and the signed distance to it in level-q
cell units.  A level lies in a stretch unless some kept window's period or
band width, in those units, is at least 1 and below 2**reach, where
2**reach > 2 * (image length); the reach levels after each window start
and end keep tables of their own.  In a stretch a surviving state
straddles its edge, so its distance is at most one image length, every
other edge lies at least 2**reach cells away, and a child lands at twice
its parent's distance plus its corner increment: classify sees the same
picture at every level.  So each (group, class) row is built once per
stretch and read at every level of it, in the level walk and in the
refinement search alike, and so are each combined state's live children
and its corner test.  The tables live for one count_exact call.  The walk
counts all 2**dim children of a state against the budget, the search each
child up to the first whose cell meets every slab, so examined, and where
a budget runs out, do not depend on the tables.

There is one walk for every system and scale.  A state whose groups are
all inside every slab (all None) adds its cells whole at the next level,
or passes the corner test at level r; the root of a system with no
windowed group is the empty state, which is such a state, and at r = 0 the
root is counted by that corner test alone.

Integers are sized by the walk's depth cap (the deepest level any search
reaches), not by the deepest window: a group of precision pv counts in
units of 2^-(pv + max(cap, deepest kept window end)) and drops each window
(a, b] with a > cap + pv.  At every level q <= cap such a window is inert:
offsets and image lengths are multiples of 2^-(q + pv), at least twice its
period, so cell corners, attained tops and the start of any nonempty meet
with the other slabs all lie in its slab, and no image fits inside it.  The
interval, attained-top and corner tests all pass it, classify never marks
it inside, and a group that lost one never counts a whole cell as inside.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .errors import (BudgetExceeded, CheckedRecord, InsufficientData,
                     OutOfRange, is_int)

__all__ = ["SlabGroup", "SlabSystem", "slab_system", "ExactCount",
           "count_exact", "decoupled_count", "count_value_cells",
           "count_point_cells", "BoxCount",
           "sampled_distance_series", "sampled_point_series",
           "ComplexityProfile", "profile_ideal", "profile_c_aware",
           "dim_lower_estimate", "distance_slack",
           "FalconerReport", "falconer_check"]


class _GroupFields(NamedTuple):
    mantissas: tuple
    precision: int
    windows: tuple  # ((a, b), ...) ascending, disjoint


class SlabGroup(CheckedRecord, _GroupFields):
    """One functional's slab constraints: digits of the dot product vanish
    on each (a, b] window."""

    __slots__ = ()

    def __new__(cls, mantissas, precision, windows):
        mantissas = tuple(mantissas)
        windows = tuple((a, b) for a, b in windows)
        # the walk shifts by these, so each must be an exact int
        if not all(map(is_int, (precision, *mantissas,
                                *itertools.chain(*windows)))):
            raise OutOfRange("mantissas, precision and window ends must "
                             "be ints")
        if precision < 0 or not any(mantissas):
            raise OutOfRange("group needs a nonzero functional")
        prev_b = 0
        for a, b in windows:
            if not 0 <= a < b:
                raise OutOfRange(f"bad window ({a}, {b}]")
            if a < prev_b:
                raise OutOfRange("windows must be disjoint and ascending")
            prev_b = b
        return tuple.__new__(cls, (mantissas, precision, windows))

    @property
    def support(self) -> tuple:
        return tuple(i for i, v in enumerate(self.mantissas) if v)


class _SystemFields(NamedTuple):
    dim: int
    depth: int
    groups: tuple


class SlabSystem(CheckedRecord, _SystemFields):
    __slots__ = ()

    def __new__(cls, dim, depth, groups):
        groups = tuple(groups)
        if not (is_int(dim) and is_int(depth)) or dim < 1:
            raise OutOfRange("dim and depth must be ints, dim at least 1")
        for g in groups:
            if len(g.mantissas) != dim:
                raise OutOfRange("group dimension mismatch")
            if g.windows and max(b for _, b in g.windows) > depth:
                raise OutOfRange("window deeper than the system depth")
        return tuple.__new__(cls, (dim, depth, groups))


def slab_system(spec) -> SlabSystem:
    """Margin-aware slab constraints satisfied by every constructed point."""
    sched = spec.schedule
    groups = []
    for ell, f in enumerate(spec.norm.functionals):
        wins = tuple((w.a, w.b) for w in sched.of_functional(ell) if w.a < w.b)
        if wins:
            groups.append(SlabGroup(f.mantissas, f.precision, wins))
    return SlabSystem(spec.dim, sched.depth, tuple(groups))


class ExactCount(NamedTuple):
    r: int
    lower: int
    upper: int
    examined: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def count(self) -> int:
        if not self.exact:
            # a gap can pass the int-to-decimal digit limit (deep r = 11520
            # leaves ~2^16374 cells undecided), so give its bit length
            gap = (self.upper - self.lower).bit_length()
            raise BudgetExceeded(
                f"cells undecided at scale {self.r}: upper - lower is a "
                f"{gap}-bit number", examined=self.examined, scale=self.r)
        return self.lower


# levels below max(r, deepest window end) the undecided-cell search may
# refine to; the least of these over the groups is the walk's depth cap,
# which sizes every group's integers (see the module docstring)
_DFS_HEADROOM = 24


def _tables(odd, cap: int, lag: int) -> list:
    """One dict per level 0..cap.  A level shares the dict of the level
    before it when neither it nor any of the lag levels before it is odd."""
    tables: list = []
    for q in sorted({q for q in odd if 0 <= q <= cap} | {cap + 1}):
        run = q - len(tables)
        fresh = [{} for _ in range(min(lag, run))]
        tables += fresh + fresh[-1:] * (run - len(fresh)) + [{}]
    return tables[:cap + 1]


class _Group:
    __slots__ = ("qg", "pv", "wins", "incs", "lenbase", "negabs", "full",
                 "top_attained", "rests", "odd", "rows")

    def __init__(self, g: SlabGroup, cap: int, dim: int):
        self.pv = g.precision
        kept = [(a, b) for a, b in g.windows if a <= cap + g.precision]
        self.qg = g.precision + max([cap] + [b for _, b in kept])
        self.wins = tuple((1 << (self.qg - a), 1 << (self.qg - b))
                          for a, b in kept)
        # a dropped window is never whole-cell inside, so neither is a
        # group that lost one
        self.full = (1 << len(g.windows)) - 1
        incs = []
        for delta in range(1 << dim):
            tot = 0
            for i, v in enumerate(g.mantissas):
                bit = (delta >> i) & 1
                tot += v * bit if v >= 0 else -v * (1 - bit)
            incs.append(tot)
        self.incs = tuple(incs)
        self.lenbase = sum(abs(v) for v in g.mantissas)
        self.negabs = sum(-v for v in g.mantissas if v < 0)
        # with no positive coefficient the image of a half-open cell is
        # closed at the top (attained at the included lower corner), so the
        # interval test must not drop that endpoint
        self.top_attained = not any(v > 0 for v in g.mantissas)
        self.rests: dict = {}
        # the reach levels from each kept window start and end, where some
        # period or band width is at least one cell and below 2**reach cells
        reach = (2 * self.lenbase).bit_length()
        self.odd = {e - self.pv + i
                    for ab in kept for e in ab for i in range(reach)}
        # per child level, its row table: one per window-free stretch,
        # shared by every child level whose parent level lies in it too
        self.rows = _tables(self.odd, cap, 2)

    def rest(self, mask: int) -> tuple:
        """The kept windows mask leaves unsatisfied, coarsest first."""
        rest = self.rests.get(mask)
        if rest is None:
            rest = self.rests[mask] = tuple(
                w for wi, w in enumerate(self.wins) if not (mask >> wi) & 1)
        return rest

    def classify(self, mask: int, offset: int, length: int):
        """State of a cell whose image is [offset, offset + length).

        None when the whole cell lies inside every slab, _OUT when it meets
        none, else (mask, offset modulo the coarsest unsatisfied period).
        """
        for wi, (period, wd) in enumerate(self.wins):
            if not (mask >> wi) & 1:
                top = (offset % period) + length
                # an attained image top exactly on the band roof is outside
                # it, so such a window may not be marked fully inside
                if top < wd or (top == wd and not self.top_attained):
                    mask |= 1 << wi
        if mask == self.full:
            return None
        rest = self.rest(mask)
        offset = offset % rest[0][0] if rest else 0
        if not _intersects(offset, length, rest):
            top = offset + length
            if not (self.top_attained and
                    all(top % period < wd for period, wd in rest)):
                return _OUT
        return (mask, offset)

    def row(self, state: tuple, q: int) -> tuple:
        """classify of every level-q child of a cell in state, by delta."""
        shift = self.qg - self.pv - q
        length = self.lenbase << shift
        mask, offset = state
        return tuple(self.classify(mask, offset + (inc << shift), length)
                     for inc in self.incs)

    def form(self, state, q: int):
        """A classify result as the walk holds it at level q: in a stretch,
        (mask, edge, distance) with edge 0, 1 or 2 for 0, the band roof or
        the period top; elsewhere as it is."""
        if state is None or state is _OUT or q in self.odd:
            return state
        mask, offset = state
        rest = self.rest(mask)
        if not rest:
            return (mask, 0, 0)
        period, wd = rest[0]
        shift = self.qg - self.pv - q
        edges = (0, wd, period)
        # a band narrower than a cell has no roof to lie near
        e = min((0, 1, 2) if wd >> shift else (0, 2),
                key=lambda i: abs(offset - edges[i]))
        return (mask, e, (offset - edges[e]) >> shift)

    def raw(self, state, q: int):
        """The (mask, offset) state that form(state, q) holds."""
        if state is None or q in self.odd:
            return state
        mask, e, d = state
        rest = self.rest(mask)
        edge = (0, rest[0][1], rest[0][0])[e] if rest else 0
        return (mask, edge + (d << (self.qg - self.pv - q)))

    def corner_ok(self, state, q: int) -> bool:
        """Does the lowest corner of a level-q cell held in state, an
        attained point of the cell, lie in every unsatisfied slab?"""
        mask, offset = self.raw(state, q)
        corner = offset + (self.negabs << (self.qg - self.pv - q))
        return all(corner % period < wd for period, wd in self.rest(mask))

    def child_row(self, state, q: int) -> tuple:
        """The held states of the level-q children of a cell held in
        state at level q - 1, by delta, from the level's row table."""
        known = self.rows[q]
        row = known.get(state)
        if row is None:
            row = known[state] = tuple(
                self.form(c, q) for c in self.row(self.raw(state, q - 1), q))
        return row


def _intersects(lo: int, length: int, wins: tuple, idx: int = 0) -> bool:
    """Does [lo, lo+length) meet the slab set of wins[idx:]?

    Every interval meets an empty tail.  A full slab of one window contains
    a whole period of the next (windows are disjoint and ascending), so an
    image spanning period+slab always intersects everything finer.
    """
    if idx == len(wins):
        return True
    period, wd = wins[idx]
    lo %= period
    if lo + length >= period + wd or (lo == 0 and length >= wd):
        return True
    return ((lo < wd and _intersects(lo, min(length, wd - lo), wins, idx + 1))
            or (lo + length > period and _intersects(
                0, min(lo + length - period, wd), wins, idx + 1)))


_OUT = object()


def count_exact(system: SlabSystem, r: int, budget: int = 10**8) -> ExactCount:
    """Number of level-r cells meeting the slab system, by exact arithmetic.

    Returns a lower/upper pair; they coincide (the usual case) unless some
    boundary-touching cells resist the bounded refinement search.  Raises
    BudgetExceeded when the node budget runs out mid-count.
    """
    if not (is_int(r) and is_int(budget)):
        raise OutOfRange("scale and budget must be ints")
    if not 0 <= r <= system.depth:
        raise OutOfRange(f"scale {r} outside [0, {system.depth}]")
    dim = system.dim
    active = [g for g in system.groups if g.windows]
    cap = min((max(r, g.windows[-1][1]) for g in active),
              default=r) + _DFS_HEADROOM
    gs = [_Group(g, cap, dim) for g in active]

    examined = 0
    n = 1 << dim
    inside = (None,) * n
    whole = (None,) * len(gs)
    # the combined tables follow every group's stretches at once
    odd = set().union(*(g.odd for g in gs))
    steps, corners = _tables(odd, cap, 2), _tables(odd, cap, 1)

    def spend(nodes: int):
        nonlocal examined
        examined += nodes
        if examined > budget:
            raise BudgetExceeded("box-count budget exhausted",
                                 examined=budget + 1, scale=r)

    def live(state, q: int) -> tuple:
        """(delta, child) for each live level-q child of a cell held in
        state at level q - 1, in delta order."""
        known = steps[q]
        step = known.get(state)
        if step is None:
            rows = [inside if st is None else g.child_row(st, q)
                    for g, st in zip(gs, state)]
            step = known[state] = tuple(
                (i, child) for i, child in enumerate(zip(*rows))
                if _OUT not in child)
        return step

    # the root cell holds the origin, whose image 0 lies in every slab, so
    # no group classifies it _OUT
    root = tuple(g.form(g.classify(0, -g.negabs << (g.qg - g.pv),
                                   g.lenbase << (g.qg - g.pv)), 0)
                 for g in gs)
    states = {root: 1}
    full = 0
    for q in range(r):
        nxt: dict = {}
        for state, mult in states.items():
            if state == whole:
                full += mult << ((r - q) * dim)
                continue
            spend(n)
            for _, child in live(state, q + 1):
                nxt[child] = nxt.get(child, 0) + mult
        states = nxt
        if not states:
            break

    lower = upper = full
    memo: dict = {}

    def corner_ok(state, q: int) -> bool:
        known = corners[q]
        ok = known.get(state)
        if ok is None:
            ok = known[state] = all(g.corner_ok(st, q)
                                    for g, st in zip(gs, state)
                                    if st is not None)
        return ok

    def refine(state, q: int):
        key = (q, state)
        if key in memo:
            return memo[key]
        if corner_ok(state, q):
            memo[key] = True
            return True
        if q >= cap:
            memo[key] = None
            return None
        undecided = False
        for i, child in live(state, q + 1):
            sub = refine(child, q + 1)
            if sub:
                # the children after this one are never examined
                spend(i + 1)
                memo[key] = True
                return True
            if sub is None:
                undecided = True
        spend(n)
        memo[key] = None if undecided else False
        return memo[key]

    for state, mult in states.items():
        verdict = refine(state, r)
        if verdict:
            lower += mult
            upper += mult
        elif verdict is None:
            upper += mult
    return ExactCount(r, lower, upper, examined)


def _product_form(groups) -> bool:
    """Does every group pin its own coordinate with coefficient exactly 1?

    Interval reasoning per coordinate is then exact, so decoupled_count's
    product formula holds."""
    return (all(len(g.support) == 1 and
                g.mantissas[g.support[0]] == 1 << g.precision for g in groups)
            and len({g.support[0] for g in groups}) == len(groups))


def decoupled_count(system: SlabSystem, r: int) -> int:
    """Closed-form count for systems whose groups each pin one coordinate.

    Each coordinate is free except for the window digits forced to zero,
    so the count is a product of per-coordinate powers of two.
    """
    if not 0 <= r <= system.depth:
        raise OutOfRange(f"scale {r} outside [0, {system.depth}]")
    if not _product_form(system.groups):
        raise OutOfRange("system is not in product form")
    exponent = r * system.dim
    for g in system.groups:
        exponent -= sum(min(b, r) - a for a, b in g.windows if a < r)
    return 1 << exponent


def count_value_cells(values, r: int) -> int:
    """Distinct level-r cells of (mantissa, precision) values, r >= 0."""
    return len({m << r >> p for m, p in values})


def count_point_cells(points, r: int) -> int:
    """Distinct level-r cells: floor(2**r * x) per coordinate, r >= 0."""
    return len({tuple(m << r >> p.precision for m in p.mantissas)
                for p in points})


class BoxCount(NamedTuple):
    r: int
    count: int
    mode: str


def _sampled(counts, n_samples, scales) -> tuple:
    """One BoxCount per scale, in order; saturated below 100 samples a cell."""
    return tuple(BoxCount(r, c, "sampled" if n_samples >= 100 * c
                          else "saturated") for r, c in zip(scales, counts))


def sampled_distance_series(values, scales) -> tuple:
    return _sampled([count_value_cells(values, r) for r in scales],
                    len(values), scales)


def sampled_point_series(points, scales) -> tuple:
    return _sampled([count_point_cells(points, r) for r in scales],
                    len(points), scales)


class _ProfileFields(NamedTuple):
    segments: tuple  # ((lo, hi, slope), ...) contiguous from 0


class ComplexityProfile(CheckedRecord, _ProfileFields):
    """Piecewise-linear digit-complexity curve with integer breakpoints.

    The segments run contiguously from 0, each of positive length; the
    constructor refuses any other list.  value_at(r) and
    ratio(r) = P(r)/r evaluate one place; values() yields the whole curve
    P(0..depth) in one lazy pass, for callers that walk every place.
    """

    __slots__ = ()

    def __new__(cls, segments):
        segments = tuple((lo, hi, s) for lo, hi, s in segments)
        starts = [0] + [hi for _, hi, _ in segments]
        if not segments or any(lo != start or hi <= lo for (lo, hi, _), start
                               in zip(segments, starts)):
            raise OutOfRange(f"segments {segments} do not run contiguously "
                             "from 0 with positive lengths")
        return tuple.__new__(cls, (segments,))

    @property
    def depth(self) -> int:
        return self.segments[-1][1]

    def value_at(self, r: int) -> int:
        if not 0 <= r <= self.depth:
            raise OutOfRange(f"scale {r} outside [0, {self.depth}]")
        return sum(s * (min(r, hi) - lo) for lo, hi, s in self.segments
                   if lo < r)

    def values(self) -> Iterator:
        """P(0), ..., P(depth), lazily: the prefix sums of the slope at
        each place."""
        return itertools.accumulate(itertools.chain.from_iterable(
            itertools.repeat(s, hi - lo) for lo, hi, s in self.segments),
            initial=0)

    def ratio(self, r: int) -> Fraction:
        if r < 1:
            raise OutOfRange("ratio needs r >= 1")
        return Fraction(self.value_at(r), r)


def _profile(schedule, dim: int, ell: int | None,
             margin: int) -> ComplexityProfile:
    """Digit complexity with each block's places (n_k + margin,
    m_{k+1} - margin] constrained and the rest random.

    The set base (ell None) walks every block from m_1, free places adding
    dim digits and constrained ones dim - 1.  The distance base for
    functional ell walks ell's blocks only, from place 0, adding 1 and 0.
    """
    if ell is None:
        blocks, free, fixed = schedule.blocks, dim, dim - 1
        pos = schedule.bounds[0]
        parts = [(0, pos, 0)]
    else:
        blocks, free, fixed = schedule.of_functional(ell), 1, 0
        parts, pos = [], 0
    for w in blocks:
        a, b = w.split + margin, w.end - margin
        if a < b:
            parts += [(pos, a, free), (a, b, fixed)]
            pos = b
    parts.append((pos, schedule.depth, free))
    return ComplexityProfile(tuple(p for p in parts if p[0] < p[1]))


def profile_ideal(schedule, dim: int, ell: int | None = None) -> ComplexityProfile:
    """Profile with each block random up to its split: margin 0."""
    return _profile(schedule, dim, ell, 0)


def profile_c_aware(schedule, dim: int, ell: int | None = None) -> ComplexityProfile:
    """Profile with the schedule's margin trimmed off each window."""
    return _profile(schedule, dim, ell, schedule.margin)


def dim_lower_estimate(entries) -> float:
    """min of log2(count)/r over the BoxCount entries; the conservative
    exponent.  Saturated (sample-limited) ones count too; callers name them."""
    for e in entries:
        if e.r < 1:
            raise OutOfRange("scales must be >= 1")
        if e.count < 1:
            raise InsufficientData(f"empty count at scale {e.r}")
    if not entries:
        raise InsufficientData("no box counts given")
    return min(math.log2(e.count) / e.r for e in entries)


def distance_slack(margin: int, block_end: int) -> int:
    """Digits the margin model may add on top of the ideal distance bound."""
    return 2 * margin + (block_end - 1).bit_length() + 3


class FalconerReport(NamedTuple):
    dim_set: float
    dim_dist: float
    ambient: int
    tol: float
    threshold: float
    passed: bool


def falconer_check(dim_set: float, dim_dist: float, ambient: int,
                   tol: float = 0.05) -> FalconerReport:
    """Does the distance-set dimension clear dim(E) - (d - 1), up to tol?"""
    threshold = dim_set - (ambient - 1) - tol
    return FalconerReport(dim_set, dim_dist, ambient, tol, threshold,
                          dim_dist >= threshold)

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

Stepping from a state to its children goes through a per-level transition
table.  At a fixed level, a child's group state depends only on its group,
that group's state in the parent and the child's corner delta, so each
(level, group, group state) has one row of 2**dim child states, classified
once and reused by every combined state that shares it.  The table is
exact, not an approximation: classify is a pure function of (group, mask,
offset) at a fixed level.  It lives for one count_exact call, and a walk
level's rows are dropped once the walk has passed it (the refinement search
reads only levels past r).  Every child still passes through bump(), so
examined, and where a budget runs out, do not depend on the table.

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
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceeded, InsufficientData, OutOfRange

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


class SlabGroup(_GroupFields):
    """One functional's slab constraints: digits of the dot product vanish
    on each (a, b] window."""

    __slots__ = ()

    def __new__(cls, mantissas, precision, windows):
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


class SlabSystem(_SystemFields):
    __slots__ = ()

    def __new__(cls, dim, depth, groups):
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
            raise BudgetExceeded(
                f"{self.upper - self.lower} cells undecided at scale {self.r}",
                examined=self.examined, scale=self.r)
        return self.lower


# levels below max(r, deepest window end) the undecided-cell search may
# refine to; the least of these over the groups is the walk's depth cap,
# which sizes every group's integers (see the module docstring)
_DFS_HEADROOM = 24


class _Group:
    __slots__ = ("qg", "pv", "wins", "incs", "lenbase", "negabs", "full",
                 "top_attained", "rests")

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
    if not 0 <= r <= system.depth:
        raise OutOfRange(f"scale {r} outside [0, {system.depth}]")
    if r == 0:
        return ExactCount(0, 1, 1, 0)  # the origin always qualifies
    dim = system.dim
    active = [g for g in system.groups if g.windows]
    if not active:
        n = 1 << (r * dim)
        return ExactCount(r, n, n, 0)
    cap = min(max(r, g.windows[-1][1]) for g in active) + _DFS_HEADROOM
    gs = [_Group(g, cap, dim) for g in active]
    product_rule = _product_form(active)

    examined = 0
    # level -> per group, {group state: its row of 2**dim child states}
    tables: dict = {}
    inside = (None,) * (1 << dim)

    def bump():
        nonlocal examined
        examined += 1
        if examined > budget:
            raise BudgetExceeded("box-count budget exhausted",
                                 examined=examined, scale=r)

    def children(state, q: int):
        """Yield (child state, all_inside) for each child; prunes dead ones."""
        level = tables.get(q)
        if level is None:
            level = tables[q] = [{} for _ in gs]
        rows = []
        for g, known, st in zip(gs, level, state):
            if st is None:
                rows.append(inside)
                continue
            row = known.get(st)
            if row is None:
                row = known[st] = g.row(st, q)
            rows.append(row)
        for child in zip(*rows):
            bump()
            if _OUT not in child:
                yield child, child == inside

    root = []
    for g in gs:
        shift = g.qg - g.pv
        st = g.classify(0, -g.negabs << shift, g.lenbase << shift)
        if st is _OUT:
            return ExactCount(r, 0, 0, examined)
        root.append(st)
    states = {tuple(root): 1}
    full = 0
    for q in range(r):
        nxt: dict = {}
        for state, mult in states.items():
            if all(st is None for st in state):
                full += mult << ((r - q) * dim)
                continue
            for child, all_in in children(state, q + 1):
                if all_in:
                    full += mult << ((r - q - 1) * dim)
                else:
                    nxt[child] = nxt.get(child, 0) + mult
        # refine reads only levels past r, so no walk level is read again
        tables.pop(q + 1, None)
        states = nxt
        if not states:
            break

    lower = upper = full
    memo: dict = {}

    def corner_ok(state, q: int) -> bool:
        # the cell's lowest corner is an attained point of the cell
        for g, st in zip(gs, state):
            if st is None:
                continue
            corner = st[1] + (g.negabs << (g.qg - g.pv - q))
            for period, wd in g.rest(st[0]):
                if (corner % period) >= wd:
                    return False
        return True

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
        for child, all_in in children(state, q + 1):
            sub = True if all_in else refine(child, q + 1)
            if sub:
                memo[key] = True
                return True
            if sub is None:
                undecided = True
        memo[key] = None if undecided else False
        return memo[key]

    for state, mult in states.items():
        verdict = True if product_rule else refine(state, r)
        if verdict:
            lower += mult
            upper += mult
        elif verdict is None:
            upper += mult
    return ExactCount(r, lower, upper, examined)


def _product_form(groups) -> bool:
    """Does every group pin its own coordinate with coefficient exactly 1?

    Interval reasoning per coordinate is then exact, so count_exact leaves
    no cell undecided, and decoupled_count's product formula holds."""
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


class ComplexityProfile(NamedTuple):
    """Piecewise-linear digit-complexity curve with integer breakpoints.

    value_at(r) and ratio(r) = P(r)/r evaluate one place; values() returns
    the whole curve P(0..depth) in one pass, for callers that walk every
    place.
    """

    segments: tuple  # ((lo, hi, slope), ...) contiguous from 0

    @property
    def depth(self) -> int:
        return self.segments[-1][1]

    def value_at(self, r: int) -> int:
        if not 0 <= r <= self.depth:
            raise OutOfRange(f"scale {r} outside [0, {self.depth}]")
        total = 0
        for lo, hi, s in self.segments:
            if r <= lo:
                break
            total += s * (min(r, hi) - lo)
        return total

    def values(self) -> list:
        """[P(0), ..., P(depth)], equal to value_at at every place.

        value_at stops at the first segment that starts at or past r, so a
        segment counts only above the largest start up to its own.
        """
        depth = self.depth
        steps = [0] * (depth + 1)  # steps[r] = P(r) - P(r - 1), P(-1) = 0
        top = -1
        for lo, hi, s in self.segments:
            top = max(top, lo)
            if top < depth:
                steps[top + 1] += s * (min(top + 1, hi) - lo)
                for r in range(top + 2, min(hi, depth) + 1):
                    steps[r] += s
        return list(itertools.accumulate(steps))

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

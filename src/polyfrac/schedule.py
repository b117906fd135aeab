"""Block schedules: the digit-place bookkeeping behind the construction.

A schedule splits places 1..depth into blocks [m_k, m_{k+1}).  Within block k
the first part [m_k, n_k) is free (random) and the trimmed window
(n_k + margin, m_{k+1} - margin] carries the digit constraints.  Blocks cycle
through the norm's functionals.

Indexing: digit places and block numbers are 1-based, functional indices are
0-based.  BlockSchedule.blocks tabulates every block once; each reader of
block data goes through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import InfeasibleSchedule, OutOfRange

__all__ = ["Block", "BlockSchedule", "ScheduleReport", "free_fraction",
           "generate", "validate"]


def free_fraction(s, d: int) -> Fraction:
    """Fraction of each block that stays random for target dimension s."""
    if d < 1:
        raise OutOfRange("dimension must be >= 1")
    s = Fraction(s)
    if not d - 1 <= s <= d:
        raise OutOfRange(f"target dimension {s} outside [{d - 1}, {d}]")
    return s - (d - 1)


class _ScheduleFields(NamedTuple):
    margin: int
    bounds: tuple[int, ...]
    splits: tuple[int, ...]
    free_fraction: Fraction
    n_functionals: int


class Block(NamedTuple):
    """Block k, places [start, end): random up to split, digit constraints
    on the trimmed window (a, b], empty when a >= b.  ell is the functional
    the block serves."""

    k: int
    ell: int
    start: int
    split: int
    end: int
    a: int
    b: int


class BlockSchedule(_ScheduleFields):
    """Immutable bookkeeping for K blocks.

    bounds = (m_1, ..., m_{K+1}), splits = (n_1, ..., n_K).  margin is the
    guard width c around each window; n_functionals is the cycle length.
    No __slots__: the instance dict holds the cached block table.
    """

    def __new__(cls, margin, bounds, splits, free_fraction, n_functionals):
        if not bounds:
            raise OutOfRange("bounds must contain at least m_1")
        if len(splits) != len(bounds) - 1:
            raise OutOfRange("need one split per block")
        return tuple.__new__(cls, (margin, bounds, splits, free_fraction,
                                   n_functionals))

    @property
    def n_blocks(self) -> int:
        return len(self.bounds) - 1

    @property
    def depth(self) -> int:
        """Finest digit place touched by the construction."""
        return self.bounds[-1]

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """Every block in order, its window trimmed by the margin."""
        c, n_f = self.margin, self.n_functionals
        return tuple(Block(k, (k - 1) % n_f, start, n, end, n + c, end - c)
                     for k, (start, n, end) in enumerate(
                         zip(self.bounds, self.splits, self.bounds[1:]), 1))

    def of_functional(self, ell: int) -> tuple[Block, ...]:
        """Functional ell's blocks, in order: blocks cycle through the
        functionals, block k serving (k - 1) mod n_functionals."""
        return self.blocks[ell::self.n_functionals]


class ScheduleReport(NamedTuple):
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks
                if not passed]


def _expected_split(m_lo: int, m_hi: int, alpha: Fraction) -> int:
    return m_lo + math.ceil(alpha * (m_hi - m_lo))


def validate(schedule: BlockSchedule) -> ScheduleReport:
    """Check every structural constraint; failures are reported, not raised."""
    s = schedule
    checks = []
    checks.append(("first bound is 1", s.bounds[0] == 1, f"m_1 = {s.bounds[0]}"))
    increasing = all(a < b for a, b in zip(s.bounds, s.bounds[1:]))
    checks.append(("bounds strictly increasing", increasing, f"m = {list(s.bounds)}"))
    checks.append(("margin positive", s.margin >= 1, f"c = {s.margin}"))
    checks.append(("free fraction in [0, 1]", 0 <= s.free_fraction <= 1,
                   f"alpha = {s.free_fraction}"))
    if s.n_blocks >= 1:
        ok = 2 * s.margin < s.bounds[1]
        checks.append(("margin fits below first block end", ok,
                       f"2c = {2 * s.margin} vs m_2 = {s.bounds[1]}"))
    for k, _, start, _, end, _, _ in s.blocks:
        checks.append((f"growth at block {k}", k * start <= end,
                       f"{k}*m_{k} = {k * start} vs m_{k + 1} = {end}"))
    for k, _, start, n, end, _, _ in s.blocks:
        want = _expected_split(start, end, s.free_fraction)
        checks.append((f"split at block {k}", n == want,
                       f"n_{k} = {n}, expected {want}"))
    if s.free_fraction < 1:
        for k, _, _, _, _, a, b in s.blocks:
            checks.append((f"window at block {k} nonempty", a < b,
                           f"({a}, {b}]"))
    else:
        # alpha = 1 leaves no constrained places; windows are empty by design
        checks.append(("windows vacuous at full dimension", True, "alpha = 1"))
    return ScheduleReport(tuple(checks))


def _min_block_length(alpha: Fraction, margin: int) -> int:
    # smallest L with L - ceil(alpha*L) = floor((1 - alpha)*L) >= 2c + 1,
    # so the window is nonempty; alpha < 1
    return math.ceil((2 * margin + 1) / (1 - alpha))


def generate(alpha, margin: int, n_functionals: int, *, m=None, K=None,
             ratio=None) -> BlockSchedule:
    """Build a schedule from an explicit bound list or a geometric rule.

    An explicit list is widened: each bound is pushed up just far enough to
    restore the growth and window constraints, which is how target
    dimensions close to d-1 get workable windows.  The geometric rule grows
    each bound by max(k*m_k, ceil(ratio*m_k)) and window feasibility.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise OutOfRange(f"free fraction {alpha} outside [0, 1]")
    if margin < 1:
        raise OutOfRange("margin must be >= 1")
    if n_functionals < 1:
        raise OutOfRange("need at least one functional")

    if m is not None:
        base = list(m)
        if not base or base[0] != 1:
            raise InfeasibleSchedule("bound list must start at m_1 = 1")
        if any(a >= b for a, b in zip(base, base[1:])):
            raise InfeasibleSchedule("bound list must be strictly increasing")
        bounds = [1]
        for k in range(1, len(base)):
            bounds.append(max(base[k], k * bounds[-1],
                              _floor_for_block(bounds[-1], k, alpha, margin)))
    else:
        if K is None or K < 0:
            raise OutOfRange("geometric rule needs a block count K >= 0")
        ratio = Fraction(ratio if ratio is not None else 2)
        if ratio < 1:
            raise OutOfRange("geometric ratio must be >= 1")
        bounds = [1]
        for k in range(1, K + 1):
            nxt = max(k * bounds[-1], math.ceil(ratio * bounds[-1]))
            nxt = max(nxt, _floor_for_block(bounds[-1], k, alpha, margin))
            bounds.append(nxt)

    splits = tuple(_expected_split(a, b, alpha)
                   for a, b in zip(bounds, bounds[1:]))
    schedule = BlockSchedule(margin, tuple(bounds), splits, alpha, n_functionals)
    report = validate(schedule)
    if not report.ok:
        raise InfeasibleSchedule("; ".join(report.failures()))
    return schedule


def _floor_for_block(m_k: int, k: int, alpha: Fraction, margin: int) -> int:
    lo = m_k + 1
    if k == 1:
        lo = max(lo, 2 * margin + 1)
    if alpha < 1:
        lo = max(lo, m_k + _min_block_length(alpha, margin))
    return lo

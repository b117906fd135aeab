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

from .errors import CheckedRecord, InfeasibleSchedule, OutOfRange, is_int

__all__ = ["Block", "BlockSchedule", "free_fraction", "generate"]


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


class BlockSchedule(CheckedRecord, _ScheduleFields):
    """Immutable bookkeeping for K blocks.

    bounds = (m_1, ..., m_{K+1}).  margin is the guard width c around each
    window; n_functionals is the cycle length.  The splits follow from the
    bounds and the free fraction.  No __slots__: the instance dict holds
    the cached splits and block table.

    The constructor checks every structural constraint and raises
    InfeasibleSchedule naming each failed check, in order, joined by "; ".
    """

    def __new__(cls, margin, bounds, free_fraction, n_functionals):
        bounds = tuple(bounds)
        if not bounds:
            raise OutOfRange("bounds must contain at least m_1")
        # place arithmetic (shifts, block lengths) needs exact integers
        if (not all(is_int(v) for v in (margin, n_functionals, *bounds))
                or not (is_int(free_fraction)
                        or isinstance(free_fraction, Fraction))):
            raise OutOfRange("margin, bounds and n_functionals must be ints "
                             "and the free fraction an int or a Fraction")
        if n_functionals < 1:  # the block table cycles modulo it
            raise OutOfRange("need at least one functional")
        s = tuple.__new__(cls, (margin, bounds, free_fraction,
                                n_functionals))
        c, m, alpha = margin, bounds, free_fraction
        checks = [
            (m[0] == 1, f"first bound is 1: m_1 = {m[0]}"),
            (all(a < b for a, b in zip(m, m[1:])),
             f"bounds strictly increasing: m = {list(m)}"),
            (c >= 1, f"margin positive: c = {c}"),
            (0 <= alpha <= 1, f"free fraction in [0, 1]: alpha = {alpha}")]
        if len(m) > 1:
            checks.append((2 * c < m[1], "margin fits below first block "
                           f"end: 2c = {2 * c} vs m_2 = {m[1]}"))
        checks += [(k * start <= end, f"growth at block {k}: {k}*m_{k} = "
                    f"{k * start} vs m_{k + 1} = {end}")
                   for k, _, start, _, end, _, _ in s.blocks]
        if alpha < 1:  # alpha = 1 leaves no constrained places by design
            checks += [(a < b, f"window at block {k} nonempty: ({a}, {b}]")
                       for k, *_, a, b in s.blocks]
        failures = [text for passed, text in checks if not passed]
        if failures:
            raise InfeasibleSchedule("; ".join(failures))
        return s

    @cached_property
    def splits(self) -> tuple[int, ...]:
        """(n_1, ..., n_K): n_k = m_k + ceil(alpha * (m_{k+1} - m_k))."""
        alpha = self.free_fraction
        return tuple(a + math.ceil(alpha * (b - a))
                     for a, b in zip(self.bounds, self.bounds[1:]))

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


def _min_block_length(alpha: Fraction, margin: int) -> int:
    # smallest L with L - ceil(alpha*L) = floor((1 - alpha)*L) >= 2c + 1,
    # so the window is nonempty; alpha < 1
    return math.ceil((2 * margin + 1) / (1 - alpha))


def generate(alpha, margin: int, n_functionals: int, *, m=None, K=None,
             ratio=None) -> BlockSchedule:
    """Build a schedule from an explicit bound list or a geometric rule.

    Each block k has a target, m_{k+1} from the list or
    ceil(ratio * m_k) by the rule, and its bound is widened just far
    enough past the target to restore the growth and window constraints,
    which is how target dimensions close to d-1 get workable windows.
    Either way the result passes BlockSchedule's checks by construction.
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
        n_blocks = len(base) - 1
    else:
        if K is None or K < 0:
            raise OutOfRange("geometric rule needs a block count K >= 0")
        ratio = Fraction(ratio if ratio is not None else 2)
        if ratio < 1:
            raise OutOfRange("geometric ratio must be >= 1")
        n_blocks = K
    bounds = [1]
    for k in range(1, n_blocks + 1):
        prev = bounds[-1]
        target = base[k] if m is not None else math.ceil(ratio * prev)
        bounds.append(max(target, k * prev,
                          _floor_for_block(prev, k, alpha, margin)))
    return BlockSchedule(margin, tuple(bounds), alpha, n_functionals)


def _floor_for_block(m_k: int, k: int, alpha: Fraction, margin: int) -> int:
    lo = m_k + 1
    if k == 1:
        lo = max(lo, 2 * margin + 1)
    if alpha < 1:
        lo = max(lo, m_k + _min_block_length(alpha, margin))
    return lo

"""Distance sets of constructed point families.

Distances are exact dyadics: the norm of a coordinate difference is a max of
dot products, each computed on integer mantissas.  The collapse report
explains why pinned distances cluster: whichever functional achieves the
norm, the digits of the achieved value are constant across that functional's
scheduled windows, so each distance is determined by far fewer digits than
its precision suggests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import Dyadic
from .errors import OutOfRange, PrecisionExceeded
from .norms import PolyhedralNorm
from .streams import BitStream

__all__ = ["DistanceRecord", "delta", "pinned", "pairwise", "euclid_floor",
           "BlockCollapse", "CollapseReport", "collapse_check",
           "estimation_values"]


@dataclass(frozen=True)
class DistanceRecord:
    value: Dyadic
    achieving: int          # smallest index of a functional attaining the max
    source: tuple[int, int]  # point indices (first, second)


def delta(x, y) -> tuple:
    """Coordinate difference x - y of two points of one shape."""
    if x.dim != y.dim or x.precision != y.precision:
        raise OutOfRange("points must share dimension and precision")
    return tuple(a - b for a, b in zip(x.coords, y.coords))


def _record(x, y, norm: PolyhedralNorm) -> DistanceRecord:
    value, ties = norm.measure(delta(x, y))
    return DistanceRecord(value, ties[0], (x.index, y.index))


def pinned(x, ys, norm: PolyhedralNorm) -> list:
    """Distances from the pinned point to each sample."""
    return [_record(x, y, norm) for y in ys]


def _unrank_pair(rank: int, n: int) -> tuple[int, int]:
    # pairs (i, j), i < j < n, in lexicographic order
    rev = n * (n - 1) // 2 - 1 - rank
    k = (math.isqrt(8 * rev + 1) - 1) // 2
    return n - 2 - k, n - 1 - (rev - k * (k + 1) // 2)


def pairwise(ys, norm: PolyhedralNorm, cap: int | None = None,
             seed: int = 0) -> list:
    """All unordered pair distances, subsampled to cap when there are more.

    Subsampling draws a uniform cap-subset of pair ranks (Floyd's method) so
    reruns with the same seed pick the same pairs.
    """
    n = len(ys)
    total = n * (n - 1) // 2
    if cap is None or total <= cap:
        ranks = range(total)
    else:
        stream = BitStream(seed, "pairs")
        chosen = set()
        for t in range(total - cap, total):
            r = stream.randrange(t + 1)
            chosen.add(t if r in chosen else r)
        ranks = sorted(chosen)
    out = []
    for rank in ranks:
        i, j = _unrank_pair(rank, n)
        out.append(_record(ys[i], ys[j], norm))
    return out


def euclid_floor(delta, r: int) -> Dyadic:
    """Euclidean length of delta, rounded down to r binary places."""
    if r < 0:
        raise OutOfRange("r must be >= 0")
    prec = delta[0].precision
    sq = 0
    for v in delta:
        if v.precision != prec:
            raise OutOfRange("delta coordinates must share one precision")
        sq += v.mantissa * v.mantissa
    # floor(sqrt(floor(t))) == floor(sqrt(t)) for t >= 0
    if r >= prec:
        return Dyadic(math.isqrt(sq << (2 * (r - prec))), r)
    return Dyadic(math.isqrt(sq >> (2 * (prec - r))), r)


@dataclass(frozen=True)
class BlockCollapse:
    block: int
    window: tuple[int, int]
    trimmed: tuple[int, int]
    constant_full: bool
    constant_trimmed: bool


@dataclass(frozen=True)
class CollapseReport:
    achieving: int
    ties: tuple
    blocks: tuple

    @property
    def tie(self) -> bool:
        return len(self.ties) > 1

    @property
    def ok(self) -> bool:
        return all(b.constant_trimmed for b in self.blocks)


def _digits_constant(mantissa: int, scale: int, lo: int, hi: int) -> bool:
    # digits at places (lo, hi] all equal; empty stretch is constant
    if hi - lo <= 0:
        return True
    seg = (mantissa >> (scale - hi)) & ((1 << (hi - lo)) - 1)
    return seg == 0 or seg == (1 << (hi - lo)) - 1


def collapse_check(x, y, spec) -> CollapseReport:
    """Digit-constancy of d(x, y) across the achieving functional's windows."""
    sched = spec.schedule
    if x.precision < sched.depth or y.precision < sched.depth:
        raise PrecisionExceeded("points are shallower than the schedule")
    value, ties = spec.norm.measure(delta(x, y))
    achieving = ties[0]
    blocks = []
    for k in sched.blocks_for_functional(achieving):
        a, b = sched.window(k)
        if a >= b:
            blocks.append(BlockCollapse(k, (a, b), (a + 1, b - 1), True, True))
            continue
        blocks.append(BlockCollapse(
            k, (a, b), (a + 1, b - 1),
            _digits_constant(value.mantissa, value.precision, a, b),
            _digits_constant(value.mantissa, value.precision, a + 1, b - 1)))
    return CollapseReport(achieving, ties, tuple(blocks))


def estimation_values(records) -> dict:
    """Nonzero distance values per achieving functional.

    Zero distances (coincident points) carry no box-counting information and
    would pin a spurious cell at the origin, so they are dropped.
    """
    out: dict = {}
    for rec in records:
        if rec.value:
            out.setdefault(rec.achieving, []).append(rec.value)
    return out

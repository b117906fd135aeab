"""Distance sets of constructed point families.

Distances are exact dyadics, held as (mantissa, precision) integers: the norm
of a coordinate difference is a max of dot products.  Points of one call
share dimension and precision, so each point is projected once to its k
integer dot products x . v, and a distance is the largest |x . v - y . v|:
every functional is linear.  The Euclidean
floor is taken on the integer mantissas of x - y.  The collapse report
explains why pinned distances cluster: whichever functional achieves the
norm, the digits of the achieved value are constant across that functional's
scheduled windows, so each distance is determined by far fewer digits than
its precision suggests.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import combinations, repeat
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .errors import OutOfRange, PrecisionExceeded
from .norms import PolyhedralNorm, int_dot
from .streams import BitStream

if TYPE_CHECKING:
    from .dyadic import Dyadic

__all__ = ["DistanceRecord", "delta_mantissas", "pinned", "pairwise",
           "euclid_floor", "euclid_floor_mantissa", "BlockCollapse",
           "CollapseReport", "collapse_check", "collapse_first_failure",
           "estimation_values"]


class DistanceRecord(NamedTuple):
    mantissa: int           # the distance is mantissa * 2**-precision
    precision: int
    achieving: int          # smallest index of a functional attaining the max
    source: tuple[int, int]  # point indices (first, second)
    euclid: int | None = None  # euclid_floor_mantissa at the r places asked


def _shared_precision(points, euclid: int | None = None) -> int:
    """The one precision of points that share it and their dimension, 0 for
    no points; OutOfRange otherwise, and for euclid below 0 places."""
    if euclid is not None and euclid < 0:
        raise OutOfRange(f"euclid must be >= 0 places, not {euclid}")
    if not points:
        return 0
    dim, prec = points[0].dim, points[0].precision
    for pt in points:
        if pt.dim != dim or pt.precision != prec:
            raise OutOfRange("points must share dimension and precision")
    return prec


def delta_mantissas(x, y) -> list:
    """Mantissas of the coordinate difference x - y at the points' shared
    precision; the caller has checked that x and y share dimension and
    precision."""
    return list(map(sub, x.mantissas, y.mantissas))


def _records(pairs, prec: int, norm: PolyhedralNorm,
             euclid: int | None = None) -> Iterator:
    """Lazily, one record per (x, px, y, py): points x and y at precision
    prec and their projections px, py under norm.  ||x - y|| is measured
    from px - py alone; euclid, if given, is a number of places r >= 0 at
    which each record also takes the Euclidean floor of x - y, the only
    use of the coordinate difference."""
    measure = norm.measure_projection
    for x, px, y, py in pairs:
        mantissa, precision, ties = measure(map(sub, px, py), prec)
        yield DistanceRecord(
            mantissa, precision, ties[0], (x.index, y.index),
            None if euclid is None else
            euclid_floor_mantissa(delta_mantissas(x, y), prec, euclid))


def pinned(x, ys, norm: PolyhedralNorm, euclid: int | None = None) -> list:
    """Distances from the pinned point to each sample, each sample projected
    as it is reached; euclid as in _records."""
    prec = _shared_precision([x, *ys], euclid)
    px, project = norm.project(x.mantissas), norm.project
    return list(_records(((x, px, y, project(y.mantissas)) for y in ys),
                         prec, norm, euclid))


def _unrank_pair(rank: int, n: int) -> tuple[int, int]:
    # pairs (i, j), i < j < n, in lexicographic order
    rev = n * (n - 1) // 2 - 1 - rank
    k = (math.isqrt(8 * rev + 1) - 1) // 2
    return n - 2 - k, n - 1 - (rev - k * (k + 1) // 2)


def pairwise(ys, norm: PolyhedralNorm, cap: int | None = None,
             seed: int = 0, euclid: int | None = None) -> Iterator:
    """All unordered pair distances, subsampled to cap when there are more,
    as an iterator of records in pair order.

    Subsampling draws a uniform cap-subset of pair ranks (Floyd's method) so
    reruns with the same seed pick the same pairs.  The shape check, the
    draws and one projection per point (n lists of k ints) happen at call
    time, as do the refusals of cap < 0 and euclid < 0; each record is
    measured as it is taken.  euclid as in _records.
    """
    if cap is not None and cap < 0:
        raise OutOfRange(f"cap must be >= 0, not {cap}")
    n = len(ys)
    total = n * (n - 1) // 2
    prec = _shared_precision(ys, euclid)
    if cap is None or total <= cap:
        pairs = combinations(range(n), 2)
    else:
        stream = BitStream(seed, "pairs")
        chosen = set()
        for t in range(total - cap, total):
            r = stream.randrange(t + 1)
            chosen.add(t if r in chosen else r)
        pairs = map(_unrank_pair, sorted(chosen), repeat(n))
    proj = [norm.project(y.mantissas) for y in ys]
    return _records(((ys[i], proj[i], ys[j], proj[j]) for i, j in pairs),
                    prec, norm, euclid)


# Leading-digit Euclidean floors.  Squaring full mantissas costs more than
# linearly in prec, yet the floor keeps only ~r + 2 bits of the sum.  Per row
# (3 random signed coordinates, r = 24, best of 5, CPython 3.11 on x86-64):
# full squares 2.2 us at prec 512, 3.2 us at 768, 4.9 us at 1024 and 184 us
# at 11520; leading digits 2.1-2.9 us at every one of those precisions, and
# 2.2 us against 0.9 us at prec 96.  So the leading digits are read only
# once at least _LEADING_MIN_DISCARD places are discarded.  _GUARD_BITS
# extra bits per head make the bracket below miss (and fall back to the full
# sum) on roughly one row in 2**_GUARD_BITS.
_LEADING_MIN_DISCARD = 512
_GUARD_BITS = 32


def euclid_floor_mantissa(mants, prec: int, r: int) -> int:
    """Mantissa at precision r >= 0 of euclid_floor of mants * 2**-prec.

    The answer is isqrt(S >> 2k) for S = sum m_i**2 and k = prec - r
    discarded places (floor(sqrt(floor(t))) == floor(sqrt(t)) for t >= 0).
    When k >= _LEADING_MIN_DISCARD and mants is not empty, it is first
    bracketed from the heads h_i = |m_i| >> t, t = k - g, g = _GUARD_BITS.
    From h_i * 2**t <= |m_i| <= (h_i + 1) * 2**t - 1 follow
    L * 4**t <= S < H * 4**t with L = sum h_i**2 and H = sum (h_i + 1)**2, so

        isqrt(L >> 2g) <= isqrt(S >> 2k) <= isqrt((H - 1) >> 2g),

    using floor((H * 4**t - 1) / 4**k) == floor((H - 1) / 4**g).  When the
    two ends agree they are the answer; otherwise the full sum decides.
    """
    k = prec - r
    if k <= 0:
        return math.isqrt(int_dot(mants, mants) << (-2 * k))
    if k >= _LEADING_MIN_DISCARD and mants:
        t = k - _GUARD_BITS
        heads = [abs(m) >> t for m in mants]
        low = int_dot(heads, heads)
        lo = math.isqrt(low >> (2 * _GUARD_BITS))
        # H - 1 == L + 2 * sum h_i + d - 1
        hi = math.isqrt((low + 2 * sum(heads) + len(heads) - 1)
                        >> (2 * _GUARD_BITS))
        if lo == hi:
            return lo
    return math.isqrt(int_dot(mants, mants) >> (2 * k))


def euclid_floor(delta, r: int) -> Dyadic:
    """Euclidean length of delta, rounded down to r binary places."""
    from .dyadic import Dyadic  # a test oracle: no command calls this form
    if r < 0:
        raise OutOfRange("r must be >= 0")
    if not delta:
        raise OutOfRange("delta must have at least one coordinate")
    prec = delta[0].precision
    if any(v.precision != prec for v in delta):
        raise OutOfRange("delta coordinates must share one precision")
    mants = [v.mantissa for v in delta]
    return Dyadic(euclid_floor_mantissa(mants, prec, r), r)


class BlockCollapse(NamedTuple):
    block: int
    window: tuple[int, int]
    trimmed: tuple[int, int]
    constant_full: bool
    constant_trimmed: bool


class CollapseReport(NamedTuple):
    achieving: int
    ties: tuple
    blocks: tuple

    @property
    def tie(self) -> bool:
        return len(self.ties) > 1

    @property
    def ok(self) -> bool:
        return all(b.constant_trimmed for b in self.blocks)


def _window(scale: int, lo: int, hi: int):
    """(shift, mask) reading the digits at places (lo, hi] of a mantissa
    at scale; None for an empty stretch, which is constant."""
    if hi <= lo:
        return None
    return scale - hi, (1 << (hi - lo)) - 1


def _constant(mantissa: int, window) -> bool:
    # digits all equal across the window
    if window is None:
        return True
    shift, mask = window
    seg = (mantissa >> shift) & mask
    return seg == 0 or seg == mask


def _collapse_windows(sched, ell: int, scale: int) -> tuple:
    """(k, a, b, window, trimmed window) per block k of functional ell,
    for a value at scale: the one window table that collapse_check and
    collapse_first_failure read."""
    return tuple((k, a, b, _window(scale, a, b),
                  _window(scale, a + 1, b - 1))
                 for k, _, _, _, _, a, b in sched.of_functional(ell))


def _collapse_precision(x, y, sched) -> int:
    """The shared precision of x and y, refusing points shallower than the
    schedule (PrecisionExceeded) or of another shape (OutOfRange)."""
    if x.precision < sched.depth or y.precision < sched.depth:
        raise PrecisionExceeded("points are shallower than the schedule")
    return _shared_precision((x, y))


def collapse_check(x, y, spec) -> CollapseReport:
    """Digit-constancy of d(x, y) across the achieving functional's windows."""
    sched, norm = spec.schedule, spec.norm
    v, scale, ties = norm.measure_projection(
        norm.project(delta_mantissas(x, y)),
        _collapse_precision(x, y, sched))
    blocks = tuple(
        BlockCollapse(k, (a, b), (a + 1, b - 1), _constant(v, full),
                      _constant(v, trimmed))
        for k, a, b, full, trimmed in _collapse_windows(
            sched, ties[0], scale))
    return CollapseReport(ties[0], ties, blocks)


def collapse_first_failure(x, ys, spec):
    """The first y in ys with collapse_check(x, y, spec) not ok, None when
    every pair passes; refusals as collapse_check's, pair by pair.

    x is projected once and each y as it is reached.  Entry l of
    project(x) - project(y) is (x - y) . v^l scaled to the finest
    functional precision, so the first largest |entry| is tested as it
    stands, against its functional's trimmed windows at that scale (built
    once per call).
    """
    sched, norm, project = spec.schedule, spec.norm, spec.norm.project
    scale = x.precision + max(f.precision for f in norm.functionals)
    trimmed = [[w for *_, w in _collapse_windows(sched, ell, scale)]
               for ell in range(norm.n_functionals)]
    px, prec, dim = project(x.mantissas), x.precision, x.dim
    deep = prec >= sched.depth
    for y in ys:
        if not deep or y.precision != prec or len(y.mantissas) != dim:
            _collapse_precision(x, y, sched)  # raises: y is refused
        keys = list(map(abs, map(sub, px, project(y.mantissas))))
        v = max(keys)
        for window in trimmed[keys.index(v)]:
            if not _constant(v, window):
                return y
    return None


def estimation_values(records) -> dict:
    """Nonzero distance values per achieving functional, each as its
    record's first two fields: a (mantissa, precision) pair.

    Zero distances (coincident points) carry no box-counting information and
    would pin a spurious cell at the origin, so they are dropped.
    """
    out: dict = {}
    for rec in records:
        if rec.mantissa:
            out.setdefault(rec.achieving, []).append(rec[:2])
    return out

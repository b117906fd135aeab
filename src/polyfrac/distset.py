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

measure_projection is the reference measure.  Narrow pinned pairs are
measured a chunk at a time by its packed form, polyfrac.lanes, equal lane
for lane; wide points (one a chunk) and pairwise rows never load it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import repeat
from operator import attrgetter, sub
from typing import TYPE_CHECKING, NamedTuple

from . import construct as cn
from .construct import hex_field, mantissa_to_hex
from .errors import OutOfRange, PrecisionExceeded
from .norms import PolyhedralNorm, int_dot
from .streams import BitStream

if TYPE_CHECKING:
    from .dyadic import Dyadic

__all__ = ["DistanceRecord", "delta_mantissas", "pinned", "pairwise",
           "distance_table", "euclid_floor", "euclid_floor_mantissa",
           "BlockCollapse", "CollapseReport", "collapse_check",
           "collapse_first_failure", "pinned_measures", "estimation_values"]


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


def _records(prec: int, quads, norm: PolyhedralNorm,
             euclid: int | None = None) -> Iterator:
    """Lazily, one record per (x, px, y, py): points x and y at precision
    prec and their projections px, py under norm.  ||x - y|| is measured
    from px - py alone; euclid, if given, is a number of places r >= 0 at
    which each record also takes the Euclidean floor of x - y, the only
    use of the coordinate difference."""
    measure = norm.measure_projection
    for x, px, y, py in quads:
        mantissa, precision, ties = measure(map(sub, px, py), prec)
        yield DistanceRecord(
            mantissa, precision, ties[0], (x.index, y.index),
            None if euclid is None else
            euclid_floor_mantissa(delta_mantissas(x, y), prec, euclid))


def _pinned_quads(x, ys, norm: PolyhedralNorm, euclid: int | None):
    """(prec, quads) of pinned's pairs: the refusals and the projection of
    x happen here, each sample is projected as its quad is taken."""
    prec = _shared_precision([x, *ys], euclid)
    return prec, zip(repeat(x), repeat(norm.project(x.mantissas)), ys,
                     map(norm.project, map(attrgetter("mantissas"), ys)))


def pinned(x, ys, norm: PolyhedralNorm,
           euclid: int | None = None) -> Iterator:
    """Distances from the pinned point to each sample, lazily and with its
    refusals at call time as in pairwise; euclid as in _records."""
    return _records(*_pinned_quads(x, ys, norm, euclid), norm, euclid)


def _lane_shape(norm: PolyhedralNorm, prec: int, count: int):
    """(width, n) of the pinned lane kernel for count samples at precision
    prec: n lanes of width bits, whole bytes, in construct._LANE_BITS bits.
    None, and measure_projection measures each pair, unless two samples or
    more would share a chunk.

    |d| = |x . c - y . c| < 2**(prec + L), L = bitlen(max sum |c_i|) over
    the coefficients at the finest precision; a key is |d| << bitlen(k - 1)
    and a collapse window reads bits of |d| below prec + that precision.
    One bit more keeps every key below the lanes' bias 2**(width - 1).
    """
    top = max(f.precision for f in norm.functionals)
    sums = max(sum(map(abs, c)) for c in norm._coeffs).bit_length()
    need = prec + max(sums, top) + (norm.n_functionals - 1).bit_length() + 1
    width = (need + 7) & ~7
    n = cn._LANE_BITS // width
    return (width, n) if n >= 2 and count >= 2 else None


def _measures(px, ys, norm: PolyhedralNorm, prec: int) -> Iterator:
    """(mantissa, precision, achieving) of x - y per y in ys, lazily, for
    px = project(x) and ys of x's shape, as measure_projection gives them."""
    shape = _lane_shape(norm, prec, len(ys))
    if shape:
        from . import lanes
        yield from lanes.pinned_measures(px, ys, norm, prec, *shape)
        return
    measure, project = norm.measure_projection, norm.project
    for y in ys:
        mantissa, precision, ties = measure(
            map(sub, px, project(y.mantissas)), prec)
        yield mantissa, precision, ties[0]


def pinned_measures(x, ys, norm: PolyhedralNorm) -> Iterator:
    """The first three fields of pinned's records, lazily and with its
    refusals at call time."""
    prec = _shared_precision([x, *ys])
    return _measures(norm.project(x.mantissas), ys, norm, prec)


def _unrank_pair(rank: int, n: int) -> tuple[int, int]:
    """Pair number rank of the pairs (i, j), i < j < n, in lexicographic
    order, in closed form: the reference _walk_pairs is tested against."""
    rev = n * (n - 1) // 2 - 1 - rank
    k = (math.isqrt(8 * rev + 1) - 1) // 2
    return n - 2 - k, n - 1 - (rev - k * (k + 1) // 2)


def _walk_pairs(ranks, n: int) -> Iterator:
    """_unrank_pair(rank, n) for each of the ascending ranks, by one walk
    down the rows: row i holds the ranks [start, end) of the pairs (i, j),
    so a rank costs a subtraction instead of an isqrt, and the walk n row
    steps in all."""
    i, start, end = 0, 0, n - 1
    for rank in ranks:
        while rank >= end:
            i += 1
            start, end = end, end + n - 1 - i
        yield i, i + 1 + rank - start


def _pairwise_quads(ys, norm: PolyhedralNorm, cap: int | None, seed: int,
                    euclid: int | None):
    """(prec, quads) of pairwise's pairs: the refusals, Floyd's draws and
    one projection per point happen here."""
    if cap is not None and cap < 0:
        raise OutOfRange(f"cap must be >= 0, not {cap}")
    n = len(ys)
    total = n * (n - 1) // 2
    prec = _shared_precision(ys, euclid)
    if cap is None or total <= cap:
        ranks = range(total)
    else:
        stream = BitStream(seed, "pairs")
        chosen = set()
        for t in range(total - cap, total):
            r = stream.randrange(t + 1)
            chosen.add(t if r in chosen else r)
        ranks = sorted(chosen)
    proj = [norm.project(y.mantissas) for y in ys]
    return prec, ((ys[i], proj[i], ys[j], proj[j])
                  for i, j in _walk_pairs(ranks, n))


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
    return _records(*_pairwise_quads(ys, norm, cap, seed, euclid), norm,
                    euclid)


def distance_table(x, ys, norm: PolyhedralNorm, *, pairwise: bool = False,
                   cap: int | None = None, seed: int = 0,
                   euclid: int | None = None) -> tuple[str, str, Iterator]:
    """distances.csv as write_table takes it: (header, row template, rows)
    for the records pinned(x, ys, norm, euclid) or, with pairwise,
    pairwise(ys, norm, cap, seed, euclid) gives, in their order and with
    their refusals at call time.

    A row is the flat fields (first index, second index, achieving
    functional, w, hex, precision), plus (w, hex, euclid) with euclid:
    each (w, hex) is the arguments of its column's hex_field.  One loop
    measures, floors and lays out each row, with no record in between.
    """
    if pairwise:
        prec, quads = _pairwise_quads(ys, norm, cap, seed, euclid)
        measured = _measured_quads(prec, quads, norm)
    else:
        prec = _shared_precision([x, *ys], euclid)
        measured = zip(repeat(x), ys,
                       _measures(norm.project(x.mantissas), ys, norm, prec))
    field, wide = hex_field(prec)
    header, template = "pair_id,ell,mantissa_hex,prec", f"%d-%d,%d,{field},%d"
    ewide = False
    if euclid is not None:
        field, ewide = hex_field(euclid)
        header += ",euclid_mantissa_hex,euclid_prec"
        template += f",{field},%d"
    return header, template + "\n", _distance_rows(
        prec, measured, norm, euclid, wide, ewide)


def _measured_quads(prec: int, quads, norm: PolyhedralNorm) -> Iterator:
    """(x, y, (mantissa, precision, achieving)) per (x, px, y, py) of
    _records, measured by measure_projection."""
    measure = norm.measure_projection
    for x, px, y, py in quads:
        mantissa, precision, ties = measure(map(sub, px, py), prec)
        yield x, y, (mantissa, precision, ties[0])


def _distance_rows(prec: int, measured, norm: PolyhedralNorm,
                   euclid: int | None, wide: bool, ewide: bool) -> Iterator:
    """distance_table's rows, lazily, one per (x, y, measure) of measured;
    wide and ewide are hex_field's flags of the two columns."""
    # (w, pad) per achieving functional and of the Euclidean column; a wide
    # column's fields are mantissa_to_hex's strings
    hexes = [((p + 3) >> 2, -p & 3)
             for p in (prec + f.precision for f in norm.functionals)]
    if euclid is not None:
        we, pe = (euclid + 3) >> 2, -euclid & 3
    for x, y, (mantissa, precision, ell) in measured:
        w, pad = hexes[ell]
        v = mantissa_to_hex(mantissa, precision) if wide else mantissa << pad
        if euclid is None:
            yield x.index, y.index, ell, w, v, precision
        else:
            e = euclid_floor_mantissa(delta_mantissas(x, y), prec, euclid)
            yield (x.index, y.index, ell, w, v, precision, we,
                   mantissa_to_hex(e, euclid) if ewide else e << pe, euclid)


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
    """(y, k) for the first y in ys with collapse_check(x, y, spec) not ok,
    k the first of its blocks whose trimmed window is not constant; None
    when every pair passes.  Refusals as collapse_check's, pair by pair.

    x is projected once and each y as it is reached; each pair is measured
    and its trimmed windows read as in collapse_check, from window tables
    built once per call.  Chunks that _lane_shape allows are read in packed
    lanes first, and only one with a failing or mis-shaped sample is
    scanned pair by pair: reports, refusals and their order are the scan's.
    """
    sched, norm, project = spec.schedule, spec.norm, spec.norm.project
    px, prec, dim = project(x.mantissas), x.precision, x.dim
    trimmed = [[(k, w) for k, *_, w in _collapse_windows(sched, ell,
                                                          prec + f.precision)]
               for ell, f in enumerate(norm.functionals)]
    measure, deep = norm.measure_projection, prec >= sched.depth

    def scan(ys):
        for y in ys:
            if not deep or y.precision != prec or len(y.mantissas) != dim:
                _collapse_precision(x, y, sched)  # raises: y is refused
            v, _, ties = measure(map(sub, px, project(y.mantissas)), prec)
            for k, window in trimmed[ties[0]]:
                if not _constant(v, window):
                    return y, k
        return None

    shape = _lane_shape(norm, prec, len(ys)) if deep else None
    if shape:
        from . import lanes
        return lanes.collapse_first_failure(x, px, ys, norm, trimmed,
                                            *shape, scan)
    return scan(ys)


def estimation_values(records) -> dict:
    """Nonzero distance values per achieving functional, each as its
    record's first two fields: a (mantissa, precision) pair.  A record is
    anything whose first three fields are mantissa, precision and
    achieving: a DistanceRecord or a pinned_measures triple.

    Zero distances (coincident points) carry no box-counting information and
    would pin a spurious cell at the origin, so they are dropped.
    """
    out: dict = {}
    for rec in records:
        if rec[0]:
            out.setdefault(rec[2], []).append(rec[:2])
    return out

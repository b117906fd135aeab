"""Packed-lane kernels: the block checks and pinned distances of a whole
chunk of points in a few big-integer operations.

A chunk of points is packed one point per lane: lane j of a packed integer
holds bits [j * W, (j + 1) * W).  Every value is held biased in its lane,
so that no lane borrows from or carries into the next, and one integer
operation then acts on every lane at once (SIMD within a register:
Lamport, "Multiple byte processing with full-word instructions", CACM
18(8), 1975).  Each kernel is exact lane for lane against its scalar
reference: verify_point for the block checks, measure_projection for
pinned distances.

construct.first_failure and distset's pinned callers import this module
only when a chunk of _LANE_BITS bits holds two points or more, so wide
points (the 11520-bit deep schedule, one point a chunk) never load it.
"""

from __future__ import annotations

from .construct import _first_unverified
from .norms import int_dot


def _pack(values, nbytes: int) -> int:
    """values, each below 2**(8 * nbytes), as the lanes of one integer:
    value j in bytes [j * nbytes, (j + 1) * nbytes)."""
    return int.from_bytes(
        b"".join([v.to_bytes(nbytes, "little") for v in values]), "little")


def _every(lane: int, nbytes: int, n: int) -> int:
    """lane, below 2**(8 * nbytes), repeated in each of n lanes."""
    return int.from_bytes(lane.to_bytes(nbytes, "little") * n, "little")


def _columns(points, nbytes: int) -> list:
    """One packed integer per coordinate of points, lane j from points[j]."""
    return [_pack(col, nbytes) for col in zip(*[p.mantissas for p in points])]


def _first_hit(points, n: int, prec: int, dim: int, clean, scalar):
    """scalar's first hit over the chunks of n points, None for none.

    A chunk is skipped when its points share precision prec and dimension
    dim and clean passes its n lanes (the spare lanes of a short last
    chunk repeat its first point); any other chunk goes to scalar, so
    every report and refusal, and their order, is scalar's.
    """
    for start in range(0, len(points), n):
        chunk = points[start:start + n]
        if all(p.precision == prec and len(p.mantissas) == dim
               for p in chunk) and clean(chunk + chunk[:1] * (n - len(chunk))):
            continue
        hit = scalar(chunk)
        if hit:
            return hit
    return None


# -- block checks ----------------------------------------------------------

# construct._LANE_BITS, the bits of one chunk: first_failure on a whole
# points file, ms, best of 15 (desk) or 7 (deep) in each of two runs,
# CPython 3.11 on a shared 2-CPU x86-64 host; "all" packs the file into one
# integer, and deep at 2**12 and 2**14 (one run) packs one point a chunk:
#
#   _LANE_BITS                2**12    2**14   2**16   2**18      all  per point
#   desk, 10001 pts, W=104   10-15     6-11     6       7-11    10-15   104-123
#   deep, 501 pts, W=11528   58       63       41-45   39-53  123-132    20-28
#
# Lanes pay off while a chunk holds many narrow points; at ~11.5k bits a
# lane only adds masking passes.  At 2**14 desk packs 157 points a chunk
# and deep one, which goes to verify_point unpacked; at 2**16 deep would
# pack five, slower than verify_point.

def _lane_table(spec, prec: int, width: int, n: int) -> tuple:
    """(lane bytes, bias, rows) for n lanes of width bits at precision
    prec: one row of chunk-wide masks per block with a window, each mask
    its one-lane form repeated in every lane."""
    nbytes = width >> 3

    def every(lane: int) -> int:
        return _every(lane, nbytes, n)

    rows = []
    for k, coeffs, pv, _, m_hi, a, b, _, _, marker in spec.plan:
        if not marker:
            continue
        mask, lo, band = marker
        r = prec - m_hi   # mantissa bits below place m_hi
        t = prec + pv - b  # bit of window place b in a full sum
        rows.append((
            k, coeffs,
            every((1 << prec) - (1 << r)),       # places up to m_hi
            every((1 << prec) - (2 << r)),       # places up to m_hi - 1
            every(((1 << (b - a)) - 1) << t),    # window (a, b]
            every((1 << width) - (1 << t)),      # the floor at place b
            every((mask ^ (band - 1)) << (r + 1)),  # marker bits above band
            every(lo << (r + 1))))               # ... which must read lo
    return nbytes, every(1 << (width - 1)), tuple(rows)


def _lane_failures(points, table: tuple) -> list:
    """(k, check, word) for each check of each block with a window: lane j
    of word is nonzero exactly when verify_point reports check failing on
    block k of points[j].

    The points share their spec's dimension and one precision at or past
    its schedule depth; table is _lane_table's for them.  Each sum is held
    biased in every lane, so a floor is a mask: membership reads the
    window digits of the full sum, carry compares the full and truncated
    sums above the window's last place, and pattern reads the marker band
    of the sum truncated one place earlier, exactly as verify_point does.
    """
    nbytes, bias, rows = table
    cols = _columns(points, nbytes)
    fulls = {}  # the full dot product per functional
    words = []
    for k, coeffs, keep, keep1, window, floor, band, want in rows:
        full = fulls.get(coeffs)
        if full is None:
            full = fulls[coeffs] = int_dot(cols, coeffs) + bias
        cut = int_dot([c & keep for c in cols], coeffs) + bias
        marked = int_dot([c & keep1 for c in cols], coeffs) + bias
        words += [(k, "membership", full & window),
                  (k, "carry", (full ^ cut) & floor),
                  (k, "pattern", (marked & band) ^ want)]
    return words


def first_failure(points, spec, prec: int, width: int, n: int):
    """construct.first_failure over chunks of n lanes of width bits: a
    chunk that fails or is mis-shaped is re-run point by point, so
    verify_point alone writes every report and raises PrecisionExceeded or
    DimensionMismatch where it would."""
    table = _lane_table(spec, prec, width, n)
    return _first_hit(
        points, n, prec, spec.dim,
        lambda lanes: not any(w for _, _, w in _lane_failures(lanes, table)),
        lambda chunk: _first_unverified(chunk, spec))


# -- pinned distances ------------------------------------------------------

class _Pinned:
    """measure_projection of x - y for n samples y at once, x fixed.

    Per functional l with coefficients c (at the finest precision) and
    px = x . c, the lanes of (px + B) * ones - cols . c hold B + d for
    d = x . c - y . c and the bias B = 2**(W - 1), which distset's
    _lane_shape keeps above every key.  The sign bit of each lane folds it
    to |d|, and the lane's key |d| << a | (k - 1 - l), a = bitlen(k - 1),
    orders functionals by |d| first and by index, smallest first, among
    ties.  The lane-wise max of the k keys thus carries the measure and the
    first attaining functional, measure_projection's ties[0].
    """

    def __init__(self, norm, px, width: int, n: int):
        k = norm.n_functionals
        self.n, self.width, self.nbytes = n, width, width >> 3
        self.a = (k - 1).bit_length()
        self.ones = ones = _every(1, self.nbytes, n)
        self.lane = (1 << width) - 1
        bias = 1 << (width - 1)
        self.top = bias * ones          # the bias bit of every lane
        self.rows = tuple(((p + bias) * ones, c, (k - 1 - ell) * ones)
                          for ell, (p, c) in enumerate(zip(px, norm._coeffs)))

    def keys(self, points) -> int:
        """The packed max keys of x - y for the n points y."""
        ones, top, lane, a = self.ones, self.top, self.lane, self.a
        up = self.width - 1
        cols = _columns(points, self.nbytes)
        best = None
        for biased, coeffs, tag in self.rows:
            u = biased - int_dot(cols, coeffs)   # lanes B + d
            neg = ones ^ ((u >> up) & ones)      # 1 in lanes with d < 0
            # d >= 0: u ^ B = d; d < 0: u ^ (B - 1) = B - 1 - u = |d| - 1
            key = (((u ^ top ^ neg * lane) + neg) << a) | tag
            if best is None:
                best = key
            else:
                # both below B in every lane: B + best - key keeps its bias
                # bit exactly where best >= key
                keep = (((best | top) - key) >> up & ones) * lane
                best = key ^ ((key ^ best) & keep)
        return best


def pinned_measures(px, ys, norm, prec: int, width: int, n: int):
    """(mantissa, precision, achieving) of x - y per y in ys, lazily and in
    order, as measure_projection(px - project(y), prec) and its ties[0]
    give them; px is project(x) and the ys share x's shape.

    Each chunk of n samples is measured by one _Pinned.keys and unpacked
    by one to_bytes; the spare lanes of a short last chunk repeat its
    first sample.
    """
    kernel = _Pinned(norm, px, width, n)
    nbytes, a = kernel.nbytes, kernel.a
    tags = (1 << a) - 1
    # per key tag k - 1 - l: the key's shift to the mantissa, the
    # precision and the functional l
    by_tag = [(a + shift, prec + fp, ell)
              for ell, (shift, fp) in enumerate(norm._scales)][::-1]
    from_bytes = int.from_bytes
    for start in range(0, len(ys), n):
        chunk = ys[start:start + n]
        raw = kernel.keys(chunk + chunk[:1] * (n - len(chunk))).to_bytes(
            n * nbytes, "little")
        for at in range(0, len(chunk) * nbytes, nbytes):
            key = from_bytes(raw[at:at + nbytes], "little")
            shift, precision, ell = by_tag[key & tags]
            yield key >> shift, precision, ell


def _collapse_masks(kernel: _Pinned, trimmed, shifts) -> tuple:
    """Per functional l, (tag, mask): tag its key tag in every lane, mask
    every bit of its trimmed windows but the top one in every lane, placed
    on the key of |d| (window (shift, mask) of the value |d| >> shifts[l]
    sits shifts[l] + a bits higher)."""
    k = len(trimmed)
    out = []
    for ell, (windows, shift) in enumerate(zip(trimmed, shifts)):
        lane = 0
        for _, w in windows:
            if w is not None:
                lane |= (w[1] >> 1) << (w[0] + shift + kernel.a)
        out.append(((k - 1 - ell) * kernel.ones,
                    _every(lane, kernel.nbytes, kernel.n)))
    return tuple(out)


def collapse_word(kernel: _Pinned, masks, points) -> int:
    """Lane j is nonzero exactly when some trimmed window of the first
    functional achieving ||x - points[j]|| is not constant, that is when
    collapse_check(x, points[j], spec) is not ok.

    A window's digits are constant when no two neighbours differ: the
    masks read key ^ (key >> 1) on every window bit but the top one.
    A lane reads the masks of its own achieving functional, selected by
    comparing its key tag with each functional's.
    """
    key = kernel.keys(points)
    ones, a = kernel.ones, kernel.a
    tags = key & ((1 << a) - 1) * ones
    steps = key ^ (key >> 1)
    bad = 0
    for tag, mask in masks:
        # lanes whose tag differs from l's carry into bit a
        other = ((tags ^ tag) + ((1 << a) - 1) * ones) >> a & ones
        bad |= steps & mask & ((ones ^ other) * kernel.lane)
    return bad


def collapse_first_failure(x, px, ys, norm, trimmed, width: int, n: int,
                           scalar):
    """distset.collapse_first_failure over chunks of n lanes of width bits:
    trimmed is its per-functional window table at precision x.precision,
    and scalar its pair-by-pair scan, which a chunk with a failing lane or
    a mis-shaped sample goes to."""
    kernel = _Pinned(norm, px, width, n)
    masks = _collapse_masks(kernel, trimmed, norm._shifts)
    return _first_hit(ys, n, x.precision, x.dim,
                      lambda lanes: not collapse_word(kernel, masks, lanes),
                      scalar)

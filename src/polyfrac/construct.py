"""Two-step digit construction of sample points.

Each block k first draws random digits (all coordinates on [m_k, m_{k+1})
except the pivot, the pivot only on [m_k, n_k)), then solves for the pivot
digits on [n_k, m_{k+1}) so that the partial dot sum with the block's
functional lands on a marker residue: zero digits across the trimmed window,
then 1, then 0.  The marker keeps the window digits of the full dot product
at zero even after every later block and the floor comparisons between
truncated and full sums exact.

Digit state is kept as one integer mantissa per coordinate at the schedule
depth; place j of coordinate i is bit (depth - j) of mantissa i.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import chain, islice, repeat
from operator import or_
from typing import TYPE_CHECKING, NamedTuple

from .errors import (CheckedRecord, DimensionMismatch, FormatError,
                     NoSolution, OutOfRange, PrecisionExceeded, is_int)
from .norms import PolyhedralNorm, int_dot, min_margin
from .schedule import BlockSchedule, free_fraction, generate
from .streams import child_bits, index_states, label_path, path_state

if TYPE_CHECKING:
    from .dyadic import Dyadic

__all__ = ["FractalSpec", "SamplePoint", "PointReport", "make_spec",
           "build_point", "pinned_point", "sample_points",
           "solve_pivot_offset", "verify_point", "first_failure",
           "write_table", "write_points", "read_points"]


class _SpecFields(NamedTuple):
    norm: PolyhedralNorm
    schedule: BlockSchedule
    seed: int


class FractalSpec(CheckedRecord, _SpecFields):
    """Everything that pins down one construction run: the dimension is
    the norm's, the target the schedule's free fraction plus dim - 1.

    No __slots__: the instance dict holds the cached plan and tail paths.
    """

    def __new__(cls, norm, schedule, seed):
        if not is_int(seed) or not 0 <= seed < 1 << 64:
            raise OutOfRange("seed must be an unsigned 64-bit integer")
        if schedule.n_functionals != norm.n_functionals:
            raise OutOfRange("schedule cycle length != functional count")
        c = min_margin(norm)
        if schedule.margin < c:
            raise OutOfRange(
                f"margin {schedule.margin} below norm requirement {c}")
        return tuple.__new__(cls, (norm, schedule, seed))

    @property
    def dim(self) -> int:
        return self.norm.dim

    @cached_property
    def plan(self) -> tuple["_Block", ...]:
        """Each block resolved once for build_point and verify_point."""
        depth = self.schedule.depth
        plan = []
        for k, ell, m_lo, n, m_hi, a, b in self.schedule.blocks:
            f = self.norm.functionals[ell]
            ends = [n if i == f.pivot else m_hi for i in range(self.dim)]
            draws = tuple((i, hi - m_lo, depth - hi + 1,
                           label_path(i, "block", k))
                          for i, hi in enumerate(ends) if hi > m_lo)
            # validation leaves a < b exactly when the pivot has places to
            # solve (n < m_hi); otherwise the window is empty and unchecked
            marker = _marker(m_hi - 1 + f.precision, a, b) if a < b else None
            plan.append(_Block(k, f.mantissas, f.precision, f.pivot, m_hi, a,
                               b, draws, depth - m_hi + 1, marker))
        return tuple(plan)

    @cached_property
    def tail_paths(self) -> tuple[bytes, ...]:
        """Per coordinate, the stream path of its last digit (place depth),
        which no block constrains."""
        tail = self.schedule.n_blocks + 1
        return tuple(label_path(i, "block", tail) for i in range(self.dim))


class _Block(NamedTuple):
    """Block k of a spec, as build_point and verify_point use it.

    Both unpack it once per block: a NamedTuple field load costs several
    times a local load.
    """

    k: int
    coeffs: tuple   # mantissas of the block's functional, at precision pv
    pv: int
    pivot: int
    m_hi: int       # block end
    a: int          # constrained window (a, b]
    b: int
    draws: tuple    # (coordinate, bit count, shift, stream path) of each
                    # random digit run
    shift: int      # shift of place m_hi - 1 in a depth-place mantissa
    marker: tuple | None  # of the sum truncated there; None: empty window


def make_spec(dim: int, target, norm: PolyhedralNorm, seed: int, *, m=None,
              K=None, ratio=None, margin=None) -> FractalSpec:
    """Assemble a spec, deriving margin and schedule from the norm."""
    if norm.dim != dim:
        raise OutOfRange("norm dimension does not match spec dimension")
    alpha = free_fraction(target, dim)
    c = min_margin(norm) if margin is None else margin
    sched = generate(alpha, c, norm.n_functionals, m=m, K=K, ratio=ratio)
    return FractalSpec(norm, sched, seed)


class _PointFields(NamedTuple):
    mantissas: tuple[int, ...]
    precision: int
    index: int


class SamplePoint(CheckedRecord, _PointFields):
    """Coordinate i is mantissas[i] * 2**-precision, a point of [0, 1)**d.

    Index 0 is the pinned point; indices from 1 are samples.
    """

    __slots__ = ()

    def __new__(cls, mantissas, precision, index):
        mantissas = tuple(mantissas)
        if not mantissas:
            raise OutOfRange("point needs at least one coordinate")
        if min(mantissas) < 0 or max(mantissas) >> precision:
            raise OutOfRange("coordinates must lie in [0, 1)")
        return tuple.__new__(cls, (mantissas, precision, index))

    @property
    def dim(self) -> int:
        return len(self.mantissas)


# -- pivot digit solver ----------------------------------------------------

def _marker(scale: int, a: int, b: int) -> tuple[int, int, int]:
    """(mask, lo, width) at scale: a sum s * 2**-scale sits on the marker
    residue when s & mask, its residue mod 2**(scale - a), lies in
    [lo, lo + width): digits 0 on (a, b], 1 at place b + 1, 0 at b + 2.
    A power-of-two modulus makes each reduction a mask: on a depth-11520
    sum, s & mask is ~100x faster than s % (mask + 1).
    """
    return (1 << (scale - a)) - 1, 1 << (scale - b - 1), 1 << (scale - b - 2)


def _steer(s0: int, step: int, marker: tuple) -> int:
    """Smallest u >= 0 with s0 + u*step on the marker residue.

    For step <= width, the first offset reaching the first band that ends
    above s0 & mask lands in it, so u < (mask + 1) / step + 1.  build_point
    steers block k (pivot mantissa v_p at precision p) with step = v_p,
    mask + 1 = 2**(m_{k+1} - 1 + p - n_k - c) and width = 2**(p + c - 3).
    A spec's margin c passes margin_ok: sum |v_i| <= 2**(c - 3 + p), so
    step <= width, and v_p * 2**(c - 3) >= 2**p, so u <= 2**(m_{k+1} - n_k
    - 4), inside the pivot run [n_k, m_{k+1}): build_point cannot raise.
    """
    mask, lo, width = marker
    rho = s0 & mask
    target = lo if rho < lo + width else lo + mask + 1
    return max(0, -((rho - target) // step))


def solve_pivot_offset(partial_sum: Dyadic, pivot_coeff: Dyadic, split: int,
                       block_end: int, margin: int) -> int:
    """Offset U whose bits, written at places [split, block_end) of the pivot
    coordinate, put the block's truncated dot sum on the marker residue.

    partial_sum is the dot sum truncated at place block_end - 1 with the
    unknown pivot digits still zero.  Bit t of U is the digit at place
    (block_end - 1) - t.  Its inputs can leave _steer's bound: NoSolution
    when the step is wider than the band or no offset below
    2**(block_end - split) lands.
    """
    if pivot_coeff.mantissa <= 0:
        raise OutOfRange("pivot coefficient must be positive")
    a, b = split + margin, block_end - margin
    if a >= b:
        return 0
    t = block_end - 1
    scale = max(partial_sum.precision, t + pivot_coeff.precision, b + 2)
    marker = _marker(scale, a, b)
    step = pivot_coeff.mantissa << (scale - t - pivot_coeff.precision)
    if step > marker[2]:  # a step wider than the landing band can skip it
        raise NoSolution("pivot coefficient too large for the margin")
    s0 = partial_sum.mantissa << (scale - partial_sum.precision)
    u = _steer(s0, step, marker)
    if u >> (block_end - split):
        raise NoSolution(f"no admissible offset below 2**{block_end - split}")
    return u


# -- point construction ----------------------------------------------------

# Mantissa bits of one chunk of points built together: each draw hashes
# the chunk's points in one comprehension and each block steers them in a
# few, so the loop over the blocks runs once a chunk.  sample_points,
# CPython 3.11.7 on x86-64, best of 5: desk (d=2, depth 96) builds 10,000
# samples in 186 ms in 5-point chunks (2**10), 133 ms in 85-point ones and
# 126 ms from 341 points on; deep (d=3, depth 11520) builds 500 in 63 ms
# one point at a time, 43 ms in 7-point chunks and 40 ms from 15 points
# (2**19) on.  Past that a chunk only takes memory: 201 deep points trace
# a 1.10 MB peak in construct at 2**19 and 1.55 MB at 2**22 (121-point
# chunks), against the 1.74 MB points file it writes, and a desk chunk's
# 2730 path states (448 bytes each) add 1.2 MB to construct's peak RSS.
_BUILD_BITS = 1 << 19


def _chunk_size(spec: FractalSpec) -> int:
    return max(1, _BUILD_BITS // (spec.dim * spec.schedule.depth))


_COORD = label_path("coord")


def _build(spec: FractalSpec, indices) -> list[SamplePoint]:
    """The points at indices, built together block by block.

    Per coordinate, a column holds every point's mantissa so far; each
    draw fills its run in one column from one child_bits call over the
    points' path states, and each block steers its pivot column from the
    columns' dot sums.
    """
    states = index_states(path_state(spec.seed, "point"), indices, _COORD)
    cols = [[0] * len(states) for _ in range(spec.dim)]
    for _, coeffs, _, pivot, _, _, _, draws, shift, marker in spec.plan:
        for i, nbits, at, path in draws:
            cols[i] = [m | b << at for m, b in
                       zip(cols[i], child_bits(states, path, nbits))]
        if marker:
            # the pivot's unsolved places are still zero
            sums = map(int_dot, zip(*[[m >> shift for m in col]
                                      for col in cols]), repeat(coeffs))
            step = coeffs[pivot]
            cols[pivot] = [m | _steer(s0, step, marker) << shift
                           for m, s0 in zip(cols[pivot], sums)]
    for i, path in enumerate(spec.tail_paths):
        cols[i] = list(map(or_, cols[i], child_bits(states, path, 1)))
    depth = spec.schedule.depth
    return [SamplePoint(ms, depth, index)
            for ms, index in zip(zip(*cols), indices)]


def build_point(spec: FractalSpec, index: int = 0) -> SamplePoint:
    """Point index: the pinned point at 0, samples from 1."""
    if not is_int(index) or index < 0:
        raise OutOfRange("point index must be an int >= 0")
    return _build(spec, (index,))[0]


def pinned_point(spec: FractalSpec) -> SamplePoint:
    return build_point(spec, 0)


def sample_points(spec: FractalSpec, count: int) -> list[SamplePoint]:
    """count independent sample points with stream indices 1..count, built
    in chunks of _BUILD_BITS mantissa bits."""
    if not is_int(count) or count < 1:
        raise OutOfRange("sample count must be an int >= 1")
    size = _chunk_size(spec)
    points = []
    seen = {}
    for lo in range(1, count + 1, size):
        for pt in _build(spec, range(lo, min(lo + size, count + 1))):
            if pt.mantissas in seen:
                import logging  # only here: start-up skips it
                logging.getLogger(__name__).warning(
                    "points %d and %d are identical", seen[pt.mantissas],
                    pt.index)
            seen[pt.mantissas] = pt.index
            points.append(pt)
    return points


# -- per-block verification ------------------------------------------------

class PointReport(NamedTuple):
    failures: tuple  # (block, check, place) triples

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_point(point: SamplePoint, spec: FractalSpec) -> PointReport:
    """Every check of every block, in one pass over the blocks.

    A failure (k, check, place) names the leftmost offending place of block
    k's check: "membership" (a digit of the full dot product with the
    block's functional is nonzero on its window), "carry" (that product and
    the one truncated at the block end differ in floor there) or "pattern"
    (the marker residue the solver installed is missing).  A point of
    another dimension than the spec's is DimensionMismatch.
    """
    mants, prec = point.mantissas, point.precision
    if len(mants) != spec.dim:
        raise DimensionMismatch(
            f"point has {len(mants)} coordinates, spec dimension {spec.dim}")
    fulls = {}  # the full dot product per functional
    failures = []
    for k, coeffs, pv, _, m_hi, a, b, _, _, marker in spec.plan:
        if prec < m_hi:
            raise PrecisionExceeded(
                f"block {k} needs {m_hi} stored places, point has {prec}")
        if not marker:
            continue
        full = fulls.get(coeffs)
        if full is None:
            full = fulls[coeffs] = int_dot(mants, coeffs)
        span = b - a
        # full and truncated-at-m_hi sums, both floored at window place b
        top = full >> (prec + pv - b)
        cut = [m >> (prec - m_hi) for m in mants]
        low = int_dot(cut, coeffs) >> (m_hi + pv - b)
        digits = top & ((1 << span) - 1)
        if digits:
            failures.append((k, "membership", b + 1 - digits.bit_length()))
        if top != low:
            # floors that differ at one place differ at every finer place
            failures.append((k, "carry", b - next(
                s for s in reversed(range(span)) if top >> s != low >> s)))
        mask, lo, width = marker
        marked = int_dot([m >> 1 for m in cut], coeffs) & mask
        if not lo <= marked < lo + width:
            failures.append((k, "pattern", b + 1))  # marker place
    return PointReport(tuple(failures))


# -- packed verification ---------------------------------------------------

# Bits of one packed chunk: a chunk holds _LANE_BITS // W points of lane
# width W, and checks them in a few big-integer operations (polyfrac.lanes,
# which has the measurements behind this size).
_LANE_BITS = 1 << 14


def _lane_width(spec: FractalSpec, prec: int) -> int:
    """Lane width W for points at precision prec, in whole bytes.

    A lane holds a dot sum s plus the bias 2**(W - 1).  W covers
    prec + max pv + bitlen(max sum |v_i|) + 2 bits, so |s| < 2**(W - 1)
    (no lane borrows from or carries into the next) and every checked
    digit, which lies below place prec + pv of s, sits under the bias bit.
    """
    fs = spec.norm.functionals
    need = (prec + max(f.precision for f in fs) + 2
            + max(sum(map(abs, f.mantissas)) for f in fs).bit_length())
    return (need + 7) & ~7


def _first_unverified(points, spec: FractalSpec):
    for pt in points:
        report = verify_point(pt, spec)
        if not report.ok:
            return pt, report
    return None


def first_failure(points, spec: FractalSpec):
    """(point, verify_point report) of the first point that fails a check,
    None when every point passes.

    When a chunk of _LANE_BITS bits holds two points or more, chunks are
    checked in packed lanes (lanes.first_failure), and a chunk that fails
    or is mis-shaped is re-run point by point, so verify_point alone writes
    every report and raises PrecisionExceeded or DimensionMismatch where it
    would.  Wide points (one a chunk) go to verify_point directly and never
    load the lane module.
    """
    if not points:
        return None
    prec = points[0].precision
    width = _lane_width(spec, prec)
    n = _LANE_BITS // width
    if n < 2 or len(points) < 2 or prec < spec.schedule.depth:
        return _first_unverified(points, spec)
    from . import lanes
    return lanes.first_failure(points, spec, prec, width, n)


# -- points file -----------------------------------------------------------

_HEX_DIGITS = b"0123456789abcdef"


def _hex_width(prec: int) -> int:
    return (prec + 3) // 4


def mantissa_to_hex(m: int, prec: int) -> str:
    """The hex field of m at precision prec: format(m << pad, f"0{w}x") for
    w = _hex_width(prec) and pad = 4w - prec, so w digits, more if
    m >= 2**prec, and "0" at w = 0.  Row templates render narrow fields
    themselves (hex_field); this renders the wide ones, and is the
    reference of both."""
    v = m << (-prec & 3)  # pad 4w - prec to whole hex digits
    n = max(_hex_width(prec), (v.bit_length() + 3) >> 2, 1)
    return v.to_bytes((n + 1) >> 1, "big").hex()[n & 1:]


# Widest precision whose hex fields a row template renders itself.  Per
# field over distinct random values, CPython 3.11.7 on x86-64: "%0*x"
# takes 0.36 us at 96 bits against 0.80 us for mantissa_to_hex, the two
# are level at 512 bits, and at 11520 bits "%0*x" takes 15 us against
# 4.5 us.  (Formatting one value over and over shows 4.1 us at 11520
# bits: the digit loop's branches learn that one value.)
_TEMPLATE_HEX_BITS = 512


def hex_field(prec: int) -> tuple[str, bool]:
    """(template field, wide) of the hex fields of a table column at
    precision about prec, each field at its own precision p with
    w = _hex_width(p) and pad = 4w - p.  Up to _TEMPLATE_HEX_BITS places
    the field is "%0*x" % (w, m << pad); past them wide is true and it is
    "%*s" % (w, mantissa_to_hex(m, p)), which pads nothing.  Either way it
    reads mantissa_to_hex(m, p)."""
    wide = prec > _TEMPLATE_HEX_BITS
    return "%*s" if wide else "%0*x", wide


# Characters formatted per write, about.  A chunk's fields are held until
# it is written, and a row's fields take several times its text: a 34-byte
# profile row holds seven ints, ~300 bytes.  At 16 KiB a chunk is ~480
# profile rows, ~270 rows of 96-bit distances and one or two 11520-bit
# rows, so a deep profile's traced peak stays below each 390 KB file.
_CHUNK_BYTES = 1 << 14


def write_table(path, kind: str, manifest_hash: str, header: str,
                template: str, rows) -> int:
    """Write table ``polyfrac-<kind> v1``, its manifest line and header, then
    one line per field tuple rows yields, rendered as template % fields
    (template ends in "\n"); returns the row count.

    Rows go out in chunks, each formatted by one template * n % fields
    and written by one call: the first chunk is one row, and each next
    one holds about _CHUNK_BYTES characters at the last chunk's mean row
    length, but at most twice its rows, so rows that lengthen (profile
    places) cannot swell a chunk.  Neither the file's text nor all its
    rows are ever held.
    """
    n, size = 0, 1
    rows = iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"polyfrac-{kind} v1\n# manifest {manifest_hash}\n{header}\n")
        while chunk := list(islice(rows, size)):
            text = template * len(chunk) % tuple(chain.from_iterable(chunk))
            fh.write(text)
            n += len(chunk)
            size = max(1, min(2 * len(chunk),
                              _CHUNK_BYTES * len(chunk) // len(text)))
    return n


def write_points(path, points: list, manifest_hash: str) -> None:
    """Row 0, the pinned point, is tagged x and every later row y; each
    field is (m << pad) in exactly w = ceil(prec/4) lowercase hex digits.

    Only points read_points takes back are written: one or more, of one
    dimension and one precision >= 1, else OutOfRange before any write.
    """
    shapes = {(pt.dim, pt.precision) for pt in points}
    if len(shapes) != 1 or min(shapes)[1] < 1:
        raise OutOfRange("a points file holds one or more points of one "
                         "dimension and one precision >= 1")
    [(dim, prec)] = shapes
    field, wide = hex_field(prec)
    w, pad = _hex_width(prec), -prec & 3

    def fields(tag: str, pt: SamplePoint) -> list:
        out = [tag]
        for m in pt.mantissas:
            out += w, mantissa_to_hex(m, prec) if wide else m << pad
        return out

    write_table(path, "points", manifest_hash,
                f"d={dim} prec={prec} count={len(points)}",
                "%s" + f" {field}" * dim + "\n",
                map(fields, chain("x", repeat("y")), points))


def read_points(path) -> tuple[list, str]:
    """Points plus the manifest hash they were written under, read one row
    at a time.

    Each row is exactly as write_points writes it: its tag, then per
    coordinate one space and w = ceil(prec/4) lowercase hex digits, then
    "\n".  Row 0 must be tagged x and every later row y; point i is row i.
    """
    with open(path, "rb") as fh:
        try:
            magic, mline, header = (fh.readline().decode("ascii")
                                    for _ in range(3))
        except UnicodeDecodeError:
            raise FormatError(f"{path} is not an ASCII points file") from None
        if magic != "polyfrac-points v1\n":
            raise FormatError("not a polyfrac points file")
        mhash = mline[len("# manifest "):-1]
        # exactly "# manifest <one token>", as write_table writes it
        if mline != f"# manifest {mhash}\n" or mhash.split() != [mhash]:
            raise FormatError("missing manifest line")
        try:
            dim, prec, count = (int(field.partition("=")[2])
                                for field in header[:-1].split(" "))
        except ValueError:
            raise FormatError("malformed header line") from None
        # only the header write_points renders: keys d, prec, count in
        # order, values with no sign, leading zero or other spelling int()
        # takes
        if header != f"d={dim} prec={prec} count={count}\n":
            raise FormatError("malformed header line")
        if dim < 1 or prec < 1:
            raise FormatError("header needs d >= 1 and prec >= 1")
        if count < 1:
            raise FormatError("points file is empty")
        w = _hex_width(prec)
        pad, step, size = 4 * w - prec, w + 1, dim * (w + 1) + 2
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        # every row is size bytes, so a body of any other length is refused
        # here, before the d-sized constants below are built for it
        if left != count * size:
            raise FormatError(f"expected {count} points of {size} bytes, "
                              f"found {left} bytes")
        # row[1::step] is every separator and the newline; with those in
        # place, deleting the hex digits leaves the tag and them alone
        seps = b" " * dim + b"\n"
        tagged = (b"x" + seps, b"y" + seps)
        bases, low = (16,) * dim, (1 << pad) - 1
        points = []
        for pos in range(count):
            row = fh.readline(size)
            shaped = len(row) == size and row[1::step] == seps
            rest = row.translate(None, _HEX_DIGITS)
            if not shaped or rest != tagged[pos > 0]:
                if shaped and rest == tagged[pos == 0]:
                    tag, rule = (("y", "row 0 must be x") if pos == 0
                                 else ("x", "only row 0 may be"))
                    raise FormatError(f"points file row {pos} is tagged "
                                      f"{tag}: {rule}")
                raise FormatError(f"malformed point line {pos + 1}")
            mants = tuple(map(int, row[2:-1].split(b" "), bases))
            if pad:
                if any(m & low for m in mants):
                    raise FormatError("nonzero padding bits in mantissa field")
                mants = tuple(m >> pad for m in mants)
            points.append(SamplePoint(mants, prec, pos))
    return points, mhash

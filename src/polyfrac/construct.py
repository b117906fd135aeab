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

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import (FormatError, InfeasibleSchedule, NoSolution, OutOfRange,
                     PrecisionExceeded)
from .norms import PolyhedralNorm, int_dot, min_margin
from .schedule import BlockSchedule, free_fraction, generate, validate
from .streams import BitStream, label_path

if TYPE_CHECKING:
    from .dyadic import Dyadic

__all__ = ["FractalSpec", "SamplePoint", "PointReport", "make_spec",
           "build_point", "pinned_point", "sample_points",
           "solve_pivot_offset", "verify_point", "first_failure",
           "write_points", "read_points"]

ROLE_TAGS = {"pinned": "x", "sample": "y"}
TAG_ROLES = {v: k for k, v in ROLE_TAGS.items()}


class _SpecFields(NamedTuple):
    dim: int
    target: Fraction
    norm: PolyhedralNorm
    schedule: BlockSchedule
    seed: int


class FractalSpec(_SpecFields):
    """Everything that pins down one construction run.

    No __slots__: the instance dict holds the cached plan and tail paths.
    """

    def __new__(cls, dim, target, norm, schedule, seed):
        if norm.dim != dim:
            raise OutOfRange("norm dimension does not match spec dimension")
        if (isinstance(seed, bool) or not isinstance(seed, int)
                or not 0 <= seed < 1 << 64):
            raise OutOfRange("seed must be an unsigned 64-bit integer")
        if schedule.free_fraction != target - (dim - 1):
            raise OutOfRange("schedule free fraction inconsistent with target")
        if schedule.n_functionals != norm.n_functionals:
            raise OutOfRange("schedule cycle length != functional count")
        c = min_margin(norm)
        if schedule.margin < c:
            raise OutOfRange(
                f"margin {schedule.margin} below norm requirement {c}")
        report = validate(schedule)
        if not report.ok:
            raise InfeasibleSchedule("; ".join(report.failures()))
        return tuple.__new__(cls, (dim, target, norm, schedule, seed))

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
                               b, draws, depth - m_hi + 1, marker,
                               1 << (m_hi - n)))
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
    cap: int        # bound on the pivot offset


def make_spec(dim: int, target, norm: PolyhedralNorm, seed: int, *, m=None,
              K=None, ratio=None, margin=None) -> FractalSpec:
    """Assemble a spec, deriving margin and schedule from the norm."""
    target = Fraction(target)
    alpha = free_fraction(target, dim)
    c = min_margin(norm) if margin is None else margin
    sched = generate(alpha, c, norm.n_functionals, m=m, K=K, ratio=ratio)
    return FractalSpec(dim, target, norm, sched, seed)


class _PointFields(NamedTuple):
    mantissas: tuple[int, ...]
    precision: int
    role: str
    index: int


class SamplePoint(_PointFields):
    """Coordinate i is mantissas[i] * 2**-precision, a point of [0, 1)**d."""

    __slots__ = ()

    def __new__(cls, mantissas, precision, role, index):
        if role not in ROLE_TAGS:
            raise OutOfRange(f"unknown role {role!r}")
        if not mantissas:
            raise OutOfRange("point needs at least one coordinate")
        top = 1 << precision
        if not all(0 <= m < top for m in mantissas):
            raise OutOfRange("coordinates must lie in [0, 1)")
        return tuple.__new__(cls, (mantissas, precision, role, index))

    @property
    def dim(self) -> int:
        return len(self.mantissas)


# -- pivot digit solver ----------------------------------------------------

def _marker(scale: int, a: int, b: int) -> tuple[int, int, int, int]:
    """(e, mask, lo, width) at scale: a sum s * 2**-scale sits on the marker
    residue when s mod 2**e lies in [lo, lo + width), i.e. its digits are
    zero on (a, b], then 1 at place b + 1, then 0 at place b + 2.

    The modulus is a power of two, so every reduction by it is a mask or a
    shift: on a depth-11520 sum, s & mask (mask = 2**e - 1, built once
    here) is ~100x faster than s % 2**e.
    """
    e = scale - a
    return e, (1 << e) - 1, 1 << (scale - b - 1), 1 << (scale - b - 2)


def _steer(s0: int, step: int, marker: tuple, max_offsets: int) -> int:
    """Smallest u >= 0 with s0 + u*step on the marker residue.

    Requires step <= width; then the first offset reaching the first band
    that ends above s0 mod 2**e lands in it, so only the cap can fail.
    """
    e, mask, lo, width = marker
    rho = s0 & mask
    target = lo if rho < lo + width else lo + (1 << e)
    u = max(0, -((rho - target) // step))
    if u < max_offsets:
        return u
    raise NoSolution(
        f"no admissible offset below 2**{max_offsets.bit_length() - 1}")


def solve_pivot_offset(partial_sum: Dyadic, pivot_coeff: Dyadic, split: int,
                       block_end: int, margin: int) -> int:
    """Offset U whose bits, written at places [split, block_end) of the pivot
    coordinate, put the block's truncated dot sum on the marker residue.

    partial_sum is the dot sum truncated at place block_end - 1 with the
    unknown pivot digits still zero.  Bit t of U is the digit at place
    (block_end - 1) - t.  Raises NoSolution only when the margin or window
    preconditions are violated.
    """
    if pivot_coeff.mantissa <= 0:
        raise OutOfRange("pivot coefficient must be positive")
    a = split + margin
    b = block_end - margin
    if a >= b:
        return 0
    t = block_end - 1
    scale = max(partial_sum.precision, t + pivot_coeff.precision, b + 2)
    marker = _marker(scale, a, b)
    step = pivot_coeff.mantissa << (scale - t - pivot_coeff.precision)
    if step > marker[3]:  # a step wider than the landing band can skip it
        raise NoSolution("pivot coefficient too large for the margin")
    return _steer(partial_sum.mantissa << (scale - partial_sum.precision),
                  step, marker, 1 << (block_end - split))


# -- point construction ----------------------------------------------------

def build_point(spec: FractalSpec, index: int = 0,
                role: str = "pinned") -> SamplePoint:
    mants = [0] * spec.dim
    stream = BitStream(spec.seed, "point", index, "coord")
    for _, coeffs, _, pivot, _, _, _, draws, shift, marker, cap in spec.plan:
        for i, nbits, at, path in draws:
            mants[i] |= stream.draw(nbits, path) << at
        if marker:
            # the pivot's unsolved places are still zero
            s0 = int_dot([m >> shift for m in mants], coeffs)
            mants[pivot] |= _steer(s0, coeffs[pivot], marker, cap) << shift
    for i, path in enumerate(spec.tail_paths):
        mants[i] |= stream.draw(1, path)
    return SamplePoint(tuple(mants), spec.schedule.depth, role, index)


def pinned_point(spec: FractalSpec) -> SamplePoint:
    return build_point(spec, 0, "pinned")


def sample_points(spec: FractalSpec, count: int) -> list[SamplePoint]:
    """count independent sample points with stream indices 1..count."""
    if count < 1:
        raise OutOfRange("sample count must be >= 1")
    points = []
    seen = {}
    for index in range(1, count + 1):
        pt = build_point(spec, index, "sample")
        if pt.mantissas in seen:
            import logging  # only here: start-up skips it
            logging.getLogger(__name__).warning(
                "points %d and %d are identical", seen[pt.mantissas], pt.index)
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
    (the marker residue the solver installed is missing).
    """
    mants, prec = point.mantissas, point.precision
    fulls = {}  # the full dot product per functional
    failures = []
    for k, coeffs, pv, _, m_hi, a, b, _, _, marker, _ in spec.plan:
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
        _, mask, lo, width = marker
        marked = int_dot([m >> 1 for m in cut], coeffs) & mask
        if not lo <= marked < lo + width:
            failures.append((k, "pattern", b + 1))  # marker place
    return PointReport(tuple(failures))


# -- packed verification ---------------------------------------------------

# Bits of one packed chunk: a chunk holds _LANE_BITS // W points of lane
# width W (_lane_width), and each block's checks cost a few big-integer
# operations per chunk instead of a few per point.  first_failure on a
# whole points file, ms, best of 15 (desk) or 7 (deep) in each of two runs,
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


def _pack(values, nbytes: int) -> int:
    """values, each below 2**(8 * nbytes), as the lanes of one integer:
    value j in bytes [j * nbytes, (j + 1) * nbytes)."""
    return int.from_bytes(
        b"".join([v.to_bytes(nbytes, "little") for v in values]), "little")


def _lane_table(spec: FractalSpec, prec: int, width: int, n: int) -> tuple:
    """(lane bytes, bias, rows) for n lanes of width bits at precision
    prec: one row of chunk-wide masks per block with a window, each mask
    its one-lane form repeated in every lane."""
    nbytes = width >> 3

    def every(lane: int) -> int:
        return int.from_bytes(lane.to_bytes(nbytes, "little") * n, "little")

    rows = []
    for k, coeffs, pv, _, m_hi, a, b, _, _, marker, _ in spec.plan:
        if not marker:
            continue
        _, mask, lo, band = marker
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
    cols = [_pack(col, nbytes) for col in zip(*[p.mantissas for p in points])]
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


def _first_unverified(points, spec: FractalSpec):
    for pt in points:
        report = verify_point(pt, spec)
        if not report.ok:
            return pt, report
    return None


def first_failure(points, spec: FractalSpec):
    """(point, verify_point report) of the first point that fails a check,
    None when every point passes.

    Chunks of points are checked in packed lanes (_lane_failures).  A chunk
    that fails, or whose points do not share the spec's dimension and one
    precision at or past the schedule depth, is re-run point by point, so
    verify_point alone writes every report and raises PrecisionExceeded
    where it would.  Chunks of one point (wide points) skip the packing.
    """
    if not points:
        return None
    prec = points[0].precision
    width = _lane_width(spec, prec)
    n = _LANE_BITS // width
    if n < 2 or prec < spec.schedule.depth:
        return _first_unverified(points, spec)
    dim = spec.dim
    tables = {}  # lane table per chunk length: whole chunks and the last
    for start in range(0, len(points), n):
        chunk = points[start:start + n]
        if all(p.precision == prec and len(p.mantissas) == dim
               for p in chunk):
            size = len(chunk)
            if size not in tables:
                tables[size] = _lane_table(spec, prec, width, size)
            if not any(word for _, _, word
                       in _lane_failures(chunk, tables[size])):
                continue
        hit = _first_unverified(chunk, spec)
        if hit:
            return hit
    return None


# -- points file -----------------------------------------------------------

_HEX_DIGITS = b"0123456789abcdef"


def _hex_width(prec: int) -> int:
    return (prec + 3) // 4


def mantissa_to_hex(m: int, prec: int) -> str:
    """format(m << pad, f"0{w}x") for w = _hex_width(prec): w digits, more
    if m >= 2**prec, and "0" at w = 0.  bytes.hex() writes 11520-bit fields
    ~3.5x faster than format."""
    v = m << (-prec & 3)  # pad 4w - prec to whole hex digits
    n = max(_hex_width(prec), (v.bit_length() + 3) >> 2, 1)
    return v.to_bytes((n + 1) >> 1, "big").hex()[n & 1:]


def hex_to_mantissa(s: str, prec: int) -> int:
    w = _hex_width(prec)
    if len(s) != w:
        raise FormatError(f"expected {w} hex digits, got {len(s)}")
    # a field is w lowercase hex digits and nothing else; int(s, 16) alone
    # also takes "0x1f", "f_ff", "-fff", "FFFF" and non-ASCII digits
    if not s or s.encode("ascii", "replace").translate(None, _HEX_DIGITS):
        raise FormatError(f"bad hex field {s!r}")
    v = int(s, 16)
    pad = 4 * w - prec
    if v & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in mantissa field")
    return v >> pad


def write_points(path, points: list, manifest_hash: str) -> None:
    pt0 = points[0]
    lines = ["polyfrac-points v1", f"# manifest {manifest_hash}",
             f"d={pt0.dim} prec={pt0.precision} count={len(points)}"]
    for pt in points:
        fields = [ROLE_TAGS[pt.role]]
        fields += [mantissa_to_hex(m, pt.precision) for m in pt.mantissas]
        lines.append(" ".join(fields))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_points(path) -> tuple[list, str]:
    """Points plus the manifest hash they were written under."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not an ASCII points file") from None
    if not lines or lines[0] != "polyfrac-points v1":
        raise FormatError("not a polyfrac points file")
    if len(lines) < 3 or not lines[1].startswith("# manifest "):
        raise FormatError("missing manifest line")
    mhash = lines[1].split()[-1]
    try:
        dim, prec, count = (int(field.partition("=")[2])
                            for field in lines[2].split(" "))
    except ValueError:
        raise FormatError("malformed header line") from None
    # only the header write_points renders: keys d, prec, count in order,
    # values with no sign, leading zero or other spelling int() takes
    if lines[2] != f"d={dim} prec={prec} count={count}":
        raise FormatError("malformed header line")
    if dim < 1 or prec < 1:
        raise FormatError("header needs d >= 1 and prec >= 1")
    if count < 1:
        raise FormatError("points file is empty")
    body = lines[3:]
    if len(body) != count:
        raise FormatError(f"expected {count} points, found {len(body)}")
    points = []
    for pos, line in enumerate(body):
        fields = line.split()
        if len(fields) != dim + 1 or fields[0] not in TAG_ROLES:
            raise FormatError(f"malformed point line {pos + 1}")
        mants = tuple(hex_to_mantissa(s, prec) for s in fields[1:])
        points.append(SamplePoint(mants, prec, TAG_ROLES[fields[0]], pos))
    return points, mhash

"""Packed lanes against the point-by-point references.

construct.first_failure checks chunks of points in packed lanes, and
distset.collapse_first_failure and distset.pinned_measures measure chunks
of pinned pairs in them.  Each must name exactly the point (and, for
collapse, the block) or give exactly the measures a plain loop over
verify_point, collapse_check or measure_projection gives; the lane words
must also flag exactly the points verify_point fails, check by check, and
the pairs collapse_check fails, so that no lane check can be dropped or
narrowed without a test failing here.
"""

import random
import sys
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyfrac
from polyfrac import construct as cn
from polyfrac import distset as ds
from polyfrac import lanes
from polyfrac.construct import (SamplePoint, make_spec, pinned_point,
                                sample_points, verify_point)
from polyfrac.errors import (BadPivot, DegenerateNorm, OutOfRange,
                             PrecisionExceeded)
from polyfrac.norms import custom_norm, preset

HEX = [[[1, 0], [0, 0]], [[1, 1], [1, 0]], [[1, 1], [-1, 0]]]
# functionals 0 and 1 are both x_0, at precisions 0 and 1: they tie
# whenever |x_0| is the norm
TIED = [[[1, 0], [0, 0]], [[2, 1], [0, 0]], [[0, 0], [3, 1]]]
NORMS = {
    "linf d=2": (2, lambda: preset("linf", 2)),
    "linf d=3": (3, lambda: preset("linf", 3)),
    "l1 d=2": (2, lambda: preset("l1", 2)),
    "l1 d=3": (3, lambda: preset("l1", 3)),
    "hexagonal": (2, lambda: custom_norm(HEX)),
    "tied": (2, lambda: custom_norm(TIED)),
}
TARGET = {2: Fraction(3, 2), 3: Fraction(9, 4)}
CHUNK = 4       # points per chunk under test
CHUNKS = 4      # three whole chunks and a partial last one
COUNT = CHUNK * (CHUNKS - 1) + 2


def plain_first_failure(points, spec):
    for pt in points:
        report = verify_point(pt, spec)
        if not report.ok:
            return pt, report
    return None


def plain_collapse_failure(x, ys, spec):
    for y in ys:
        report = ds.collapse_check(x, y, spec)
        if not report.ok:
            return y, next(b.block for b in report.blocks
                           if not b.constant_trimmed)
    return None


@st.composite
def custom_tables(draw):
    """Two or three d=2 functionals with coefficients m * 2**-p, m in
    [-3, 3] and p in 0..2, at least one of them negative."""
    entry = st.tuples(st.integers(-3, 3), st.integers(0, 2)).map(list)
    rows = draw(st.lists(st.lists(entry, min_size=2, max_size=2),
                         min_size=2, max_size=3))
    assume(any(m < 0 for row in rows for m, _ in row))
    return rows


@st.composite
def cases(draw):
    if draw(st.booleans()):
        dim, make = NORMS[draw(st.sampled_from(sorted(NORMS)))]
        norm = make()
    else:
        try:
            norm = custom_norm(draw(custom_tables()))
        except (BadPivot, DegenerateNorm):
            assume(False)
        dim = 2
    spec = make_spec(dim, TARGET[dim], norm, seed=draw(st.integers(0, 99)),
                     m=[1, 16, 32, 96])
    # the chunk holding the first tampered point: first, middle or last
    where = draw(st.sampled_from([0, CHUNKS // 2, CHUNKS - 1]))
    extra = draw(st.integers(0, 3))  # places stored past the depth
    return spec, where, extra, draw(st.randoms(use_true_random=False))


def flipped(pt, spec, rng):
    """pt with bits flipped: one to three places near some block's window,
    where a flip is likely to break a check, or every place past a random
    one at random, where borrows and carries make every check fail
    somewhere."""
    prec = pt.precision
    mants = list(pt.mantissas)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            blk = rng.choice(spec.schedule.blocks)
            place = rng.randint(max(1, blk.a - 2), blk.end)
            mants[rng.randrange(spec.dim)] ^= 1 << (prec - place)
    else:
        cut = prec - rng.randrange(prec)
        mants = [m ^ rng.getrandbits(cut) for m in mants]
    return pt._replace(mantissas=tuple(mants))


def tampered(spec, where, extra, rng):
    """COUNT + 1 points, the pinned one first, with digits past the depth
    when extra > 0, and bits flipped in a point of chunk where and in up to
    three later ones."""
    points = [pinned_point(spec)] + sample_points(spec, COUNT)
    prec = spec.schedule.depth + extra
    points = [SamplePoint(tuple((m << extra) | rng.getrandbits(extra)
                                for m in p.mantissas), prec, p.index)
              for p in points]
    first = min(where * CHUNK + rng.randrange(CHUNK), len(points) - 1)
    later = range(first, len(points))
    for j in {first, *rng.sample(later, min(len(later), rng.randint(0, 3)))}:
        points[j] = flipped(points[j], spec, rng)
    return points


def lane_sets(points, spec):
    """{(k, check): indices of points whose lane flags it}, chunk by chunk
    as first_failure splits them."""
    prec = points[0].precision
    width = cn._lane_width(spec, prec)
    lane = (1 << width) - 1
    got = {}
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        table = lanes._lane_table(spec, prec, width, len(chunk))
        for k, check, word in lanes._lane_failures(chunk, table):
            got.setdefault((k, check), set()).update(
                pt.index for j, pt in enumerate(chunk)
                if (word >> (j * width)) & lane)
    return got


def reference_sets(points, spec):
    want = {(blk.k, check): set() for blk in spec.plan if blk.marker
            for check in ("membership", "carry", "pattern")}
    for pt in points:
        for k, check, _ in verify_point(pt, spec).failures:
            want[k, check].add(pt.index)
    return want


def pinned_bits(norm, prec):
    """_LANE_BITS that leaves CHUNK samples a pinned chunk: COUNT samples
    then make three whole chunks and a short last one."""
    width = ds._lane_shape(norm, prec, 2)[0]
    return CHUNK * width + width - 1


def plain_measures(x, ys, norm):
    px = norm.project(x.mantissas)
    out = []
    for y in ys:
        mantissa, precision, ties = norm.measure_projection(
            list(map(sub, px, norm.project(y.mantissas))), x.precision)
        out.append((mantissa, precision, ties[0]))
    return out


def trimmed_table(spec, prec):
    """collapse_first_failure's per-functional (k, trimmed window) lists."""
    return [[(k, w) for k, *_, w in ds._collapse_windows(
        spec.schedule, ell, prec + f.precision)]
        for ell, f in enumerate(spec.norm.functionals)]


def collapse_flags(x, ys, spec):
    """Indices of the ys whose lane collapse_word flags, chunk by chunk as
    collapse_first_failure splits them."""
    norm, prec = spec.norm, x.precision
    width, n = ds._lane_shape(norm, prec, len(ys))
    kernel = lanes._Pinned(norm, norm.project(x.mantissas), width, n)
    masks = lanes._collapse_masks(kernel, trimmed_table(spec, prec),
                                  norm._shifts)
    flagged = set()
    for start in range(0, len(ys), n):
        chunk = ys[start:start + n]
        word = lanes.collapse_word(kernel, masks,
                                   chunk + chunk[:1] * (n - len(chunk)))
        flagged.update(y.index for j, y in enumerate(chunk)
                       if (word >> (j * width)) & kernel.lane)
    return flagged


def failing_blocks(x, y, spec):
    report = ds.collapse_check(x, y, spec)
    return [b.block for b in report.blocks if not b.constant_trimmed]


def with_bit(pt, coord, place, index):
    """pt with the digit at place of coordinate coord flipped."""
    mants = list(pt.mantissas)
    mants[coord] ^= 1 << (pt.precision - place)
    return pt._replace(mantissas=tuple(mants), index=index)


@settings(deadline=None, max_examples=60)
@given(cases())
def test_packed_checks_match_verify_point(case):
    spec, where, extra, rng = case
    points = tampered(spec, where, extra, rng)
    width = cn._lane_width(spec, points[0].precision)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cn, "_LANE_BITS", CHUNK * width + width - 1)
        assert cn.first_failure(points, spec) == plain_first_failure(
            points, spec)
    assert lane_sets(points, spec) == reference_sets(points, spec)
    x, ys = points[0], points[1:]
    assert (ds.collapse_first_failure(x, ys, spec)
            == plain_collapse_failure(x, ys, spec))
    # and in pinned lanes of CHUNK samples, the last chunk short
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cn, "_LANE_BITS", pinned_bits(spec.norm, x.precision))
        assert (ds.collapse_first_failure(x, ys, spec)
                == plain_collapse_failure(x, ys, spec))


def test_lane_words_flag_every_check():
    # l1 d=2 (depth 114) with every place past 20 scrambled: borrows make
    # each check fail somewhere, so dropping any lane check changes some
    # word.  Block 3 ends at the depth, where the truncated sum is the full
    # one and carry cannot fail
    spec = make_spec(2, Fraction(3, 2), preset("l1", 2), seed=5,
                     m=[1, 16, 32, 96])
    rng = random.Random(5)
    points = [p._replace(mantissas=tuple(m ^ rng.getrandbits(94)
                                         for m in p.mantissas))
              for p in sample_points(spec, 120)]
    want = reference_sets(points, spec)
    assert {key for key, bad in want.items() if bad} >= {
        (2, "membership"), (2, "carry"), (2, "pattern"),
        (3, "membership"), (3, "pattern")}
    assert lane_sets(points, spec) == want


def test_untampered_points_pass_in_whole_chunks():
    spec = make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7,
                     m=[1, 16, 32, 96])
    points = [pinned_point(spec)] + sample_points(spec, 400)
    # 104-bit lanes: 157 points a chunk, so three chunks
    assert cn._LANE_BITS // cn._lane_width(spec, 96) == 157
    assert ds._lane_shape(spec.norm, 96, 400) == (104, 157)
    assert cn.first_failure(points, spec) is None
    assert ds.collapse_first_failure(points[0], points[1:], spec) is None
    assert cn.first_failure([], spec) is None


def test_wide_points_skip_packing(monkeypatch):
    # deep l1 d=3: 11528-bit lanes leave one point a chunk
    spec = make_spec(3, Fraction(9, 4), preset("l1", 3), seed=7, K=6,
                     ratio=2)
    depth = spec.schedule.depth
    assert cn._LANE_BITS // cn._lane_width(spec, depth) == 1
    assert ds._lane_shape(spec.norm, depth, 3) is None
    # no path of wide points loads the lane module
    monkeypatch.delattr(polyfrac, "lanes", raising=False)
    monkeypatch.setitem(sys.modules, "polyfrac.lanes", None)
    points = [pinned_point(spec)] + sample_points(spec, 3)
    assert cn.first_failure(points, spec) is None
    x, ys = points[0], points[1:]
    assert ds.collapse_first_failure(x, ys, spec) is None
    assert list(ds.pinned_measures(x, ys, spec.norm)) == plain_measures(
        x, ys, spec.norm)
    assert len(list(ds.distance_table(x, ys, spec.norm)[2])) == 3
    points[2] = tampered(spec, 0, 0, random.Random(3))[1]._replace(index=2)
    assert (cn.first_failure(points, spec)
            == plain_first_failure(points, spec))


def test_shallow_point_raises_after_earlier_failures():
    spec = make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7,
                     m=[1, 16, 32, 96])
    good = [pinned_point(spec)] + sample_points(spec, 5)
    shallow = SamplePoint(tuple(m >> 64 for m in good[3].mantissas), 32, 3)
    with pytest.raises(PrecisionExceeded, match="block 3 needs 96"):
        cn.first_failure(good[:3] + [shallow] + good[4:], spec)
    # an earlier failing point is reported first, as the plain loop does
    bad = good[1]._replace(mantissas=(good[1].mantissas[0] ^ 1 << 20,
                                      good[1].mantissas[1]))
    points = [good[0], bad, shallow]
    assert cn.first_failure(points, spec) == plain_first_failure(points,
                                                                 spec)
    with pytest.raises(PrecisionExceeded):
        ds.collapse_first_failure(good[0], [shallow], spec)


@settings(deadline=None, max_examples=60)
@given(cases())
def test_pinned_lanes_match_measure_projection(case):
    spec, where, extra, rng = case
    norm = spec.norm
    x, *ys = tampered(spec, where, extra, rng)
    prec = x.precision
    # a sample equal to x: distance 0, which every functional attains, so
    # the first is 0; and one that differs from x in one digit of one
    # coordinate, where l1 ties every functional
    same, near = rng.sample(range(len(ys)), 2)
    ys[same] = x._replace(index=ys[same].index)
    ys[near] = with_bit(x, rng.randrange(spec.dim), rng.randint(1, prec),
                        ys[near].index)
    want = plain_measures(x, ys, norm)
    assert want[same][0] == 0 and want[same][2] == 0
    assert list(ds.pinned_measures(x, ys, norm)) == want  # one chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cn, "_LANE_BITS", 1)  # no lanes: measure_projection
        assert ds._lane_shape(norm, prec, len(ys)) is None
        rows = list(ds.distance_table(x, ys, norm, euclid=3)[2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cn, "_LANE_BITS", pinned_bits(norm, prec))
        assert ds._lane_shape(norm, prec, len(ys))[1] == CHUNK
        assert list(ds.pinned_measures(x, ys, norm)) == want
        assert list(ds.distance_table(x, ys, norm, euclid=3)[2]) == rows
        assert (ds.estimation_values(ds.pinned_measures(x, ys, norm))
                == ds.estimation_values(ds.pinned(x, ys, norm)))


def test_collapse_words_flag_every_failing_pair():
    # l1 d=2 at depth 1152, with two trimmed windows per functional:
    # blocks 1 and 3 of functional 0, blocks 2 and 4 of functional 1
    spec = make_spec(2, Fraction(3, 2), preset("l1", 2), seed=5,
                     m=[1, 32, 96, 192, 384])
    x = pinned_point(spec)
    prec = x.precision
    rng = random.Random(5)
    ys = sample_points(spec, 30)
    # scrambled past place 20: every functional's windows fail somewhere
    ys += [p._replace(mantissas=tuple(m ^ rng.getrandbits(prec - 20)
                                      for m in p.mantissas))
           for p in sample_points(spec, 10)]
    blocks = [blk for blk in spec.schedule.blocks if blk.a + 1 < blk.b - 1]
    assert sorted((blk.ell, blk.k) for blk in blocks) == [
        (0, 1), (0, 3), (1, 2), (1, 4)]
    # the first, middle and last place of each trimmed window, places
    # (a + 1, b - 1]: a window read one place off misses one of them
    places = [(blk, p) for blk in blocks
              for p in (blk.a + 2, (blk.a + blk.b) // 2, blk.b - 1)]
    lone, tied = [], []
    for blk, place in places:
        # a sample achieved by the block's functional, with one digit
        # flipped at place: the block's window alone fails
        lone.append(next(
            z for y in ys[:30]
            if ds.collapse_check(x, y, spec).achieving == blk.ell
            for z in [with_bit(y, 0, place, 0)]
            if failing_blocks(x, z, spec) == [blk.k]))
        # x with that digit flipped in one coordinate: l1 ties both
        # functionals, and the first, functional 0, decides
        tied += [(blk, with_bit(x, i, place, 0)) for i in range(2)]
    for blk, y in tied:
        assert ds.collapse_check(x, y, spec).ties == (0, 1)
        assert failing_blocks(x, y, spec) == ([blk.k] if blk.ell == 0
                                              else [])
    ys = [y._replace(index=i) for i, y in
          enumerate(ys + lone + [y for _, y in tied], 1)]
    scrambled = [failing_blocks(x, y, spec) for y in ys[30:40]]
    assert {k for ks in scrambled for k in ks} == {1, 2, 3, 4}
    want = {y.index for y in ys if not ds.collapse_check(x, y, spec).ok}
    assert collapse_flags(x, ys, spec) == want
    assert ds._lane_shape(spec.norm, prec, len(ys))[1] < len(ys)


def test_collapse_refusals_keep_their_order_within_a_chunk():
    spec = make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7,
                     m=[1, 16, 32, 96])
    x, *good = [pinned_point(spec)] + sample_points(spec, 4)
    # block 3's trimmed window is (68, 92], of functional 0: x with place
    # 80 of coordinate 0 flipped fails there
    bad = with_bit(x, 0, 80, 5)
    shallow = SamplePoint(tuple(m >> 64 for m in good[2].mantissas), 32, 6)
    flat = SamplePoint(good[3].mantissas[:1], 96, 7)
    assert ds._lane_shape(spec.norm, 96, 4)[1] >= 4  # one chunk each
    ys = [good[0], bad, shallow, good[1]]
    assert ds.collapse_first_failure(x, ys, spec) == (bad, 3)
    assert plain_collapse_failure(x, ys, spec) == (bad, 3)
    with pytest.raises(PrecisionExceeded):
        ds.collapse_first_failure(x, [good[0], shallow, bad], spec)
    with pytest.raises(OutOfRange, match="share dimension"):
        ds.collapse_first_failure(x, [good[0], flat, bad], spec)

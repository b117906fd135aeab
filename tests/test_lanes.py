"""Packed verification against the point-by-point reference.

construct.first_failure checks chunks of points in packed lanes, and
distset.collapse_first_failure scans pinned pairs from projections.  Both
must name exactly the point (and, for collapse, the block) a plain loop
over verify_point, or over collapse_check, names; the lane words must also
flag exactly the points verify_point fails, check by check, so that no lane
check can be dropped or narrowed without a test failing here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyfrac import construct as cn
from polyfrac import distset as ds
from polyfrac.construct import (SamplePoint, make_spec, pinned_point,
                                sample_points, verify_point)
from polyfrac.errors import BadPivot, DegenerateNorm, PrecisionExceeded
from polyfrac.norms import custom_norm, preset

HEX = [[[1, 0], [0, 0]], [[1, 1], [1, 0]], [[1, 1], [-1, 0]]]
NORMS = {
    "linf d=2": (2, lambda: preset("linf", 2)),
    "linf d=3": (3, lambda: preset("linf", 3)),
    "l1 d=2": (2, lambda: preset("l1", 2)),
    "l1 d=3": (3, lambda: preset("l1", 3)),
    "hexagonal": (2, lambda: custom_norm(HEX)),
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
        table = cn._lane_table(spec, prec, width, len(chunk))
        for k, check, word in cn._lane_failures(chunk, table):
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
    assert cn.first_failure(points, spec) is None
    assert ds.collapse_first_failure(points[0], points[1:], spec) is None
    assert cn.first_failure([], spec) is None


def test_wide_points_skip_packing():
    # deep l1 d=3: 11528-bit lanes leave one point a chunk
    spec = make_spec(3, Fraction(9, 4), preset("l1", 3), seed=7, K=6,
                     ratio=2)
    depth = spec.schedule.depth
    assert cn._LANE_BITS // cn._lane_width(spec, depth) == 1
    points = [pinned_point(spec)] + sample_points(spec, 3)
    assert cn.first_failure(points, spec) is None
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

import math
import random
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfrac.construct import (SamplePoint, make_spec, mantissa_to_hex,
                                pinned_point, sample_points)
from polyfrac.distset import (CollapseReport, DistanceRecord, _unrank_pair,
                              _walk_pairs, collapse_check, collapse_first_failure,
                              delta_mantissas, distance_table,
                              estimation_values, euclid_floor,
                              euclid_floor_mantissa, pairwise, pinned)
from polyfrac.dyadic import Dyadic
from polyfrac.errors import DimensionMismatch, OutOfRange, PrecisionExceeded
from polyfrac.norms import PolyhedralNorm, custom_norm, preset


@pytest.fixture(scope="module")
def desk():
    return make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7,
                     m=[1, 16, 32, 96])


@pytest.fixture(scope="module")
def desk_points(desk):
    return pinned_point(desk), sample_points(desk, 12)


def test_pinned_records(desk, desk_points):
    x, ys = desk_points
    recs = list(pinned(x, ys, desk.norm))
    assert len(recs) == 12
    for rec, y in zip(recs, ys):
        assert rec.source == (0, y.index)
        d = tuple(Dyadic(a - b, x.precision)
                  for a, b in zip(x.mantissas, y.mantissas))
        value = desk.norm.evaluate(d)
        assert (rec.mantissa, rec.precision) == (value.mantissa,
                                                 value.precision)
        assert rec.achieving == desk.norm.argmax(d)


def test_l1_distance_frozen():
    l1 = preset("l1", 2)
    x = (Dyadic(1, 1), Dyadic(0, 1))
    y = (Dyadic(0, 1), Dyadic(1, 1))
    d = tuple(a - b for a, b in zip(x, y))
    assert l1.evaluate(d) == Dyadic(1, 0)
    assert l1.argmax(d) == 1  # (1, -1) . (1/2, -1/2) = 1


def test_zero_distance_convention(desk, desk_points):
    x, _ = desk_points
    recs = list(pinned(x, [x], desk.norm))
    assert (recs[0].mantissa, recs[0].precision) == (0, x.precision)
    assert recs[0].achieving == 0
    report = collapse_check(x, x, desk)
    assert report.achieving == 0
    assert report.ties == (0, 1)
    assert report.tie and report.ok


def test_mixed_precision_rejected(desk, desk_points):
    x, ys = desk_points
    shallow = SamplePoint(tuple(m >> (x.precision - 32) for m in x.mantissas),
                          32, 1)
    with pytest.raises(OutOfRange):
        pinned(x, [shallow], desk.norm)


def test_mismatched_last_point_rejected(desk, desk_points):
    # the shape check covers every point of a call, not just the first pair
    x, ys = desk_points
    y = ys[-1]
    deeper = SamplePoint(tuple(m << 4 for m in y.mantissas), y.precision + 4,
                         13)
    wider = SamplePoint(y.mantissas + y.mantissas[:1], y.precision, 13)
    for bad in (deeper, wider):
        with pytest.raises(OutOfRange):
            pinned(x, [*ys, bad], desk.norm)
        with pytest.raises(OutOfRange):
            pairwise([*ys, bad], desk.norm)
        with pytest.raises(OutOfRange):
            # a one-pair sample need not draw the bad point at all
            pairwise([*ys, bad], desk.norm, cap=1, seed=5)
        with pytest.raises(OutOfRange):
            collapse_check(x, bad, desk)


@pytest.mark.parametrize("extra", [(0,), None],
                         ids=["3-coordinates", "1-coordinate"])
def test_wrong_dimension_points_refused(desk, desk_points, extra):
    # points of one shape, but not the norm's: a dot product over
    # map(mul) stops at the shorter side, so each path must refuse them
    x, *ys = [p._replace(mantissas=p.mantissas[:1] if extra is None
                         else p.mantissas + extra)
              for p in (desk_points[0], *desk_points[1])]
    with pytest.raises(DimensionMismatch):
        pinned(x, ys, desk.norm)
    with pytest.raises(DimensionMismatch):
        pairwise(ys, desk.norm)
    with pytest.raises(DimensionMismatch):
        pairwise(ys, desk.norm, cap=3, seed=5)
    with pytest.raises(DimensionMismatch):
        distance_table(x, ys, desk.norm)
    with pytest.raises(DimensionMismatch):
        distance_table(x, ys, desk.norm, pairwise=True, cap=3, seed=5)
    with pytest.raises(DimensionMismatch):
        collapse_check(x, ys[0], desk)
    with pytest.raises(DimensionMismatch):
        collapse_first_failure(x, ys, desk)


def test_negative_places_and_cap_refused_at_call_time(desk, desk_points):
    # euclid=-3 read floor 0 on every record and cap=-1 drew no pair; both
    # are refused before any record is measured, lazy pairwise included
    x, ys = desk_points
    with pytest.raises(OutOfRange):
        pinned(x, ys, desk.norm, euclid=-3)
    with pytest.raises(OutOfRange):
        pairwise(ys, desk.norm, euclid=-1)
    with pytest.raises(OutOfRange):
        pairwise(ys, desk.norm, cap=-1)
    for kw in ({"euclid": -3}, {"pairwise": True, "euclid": -1},
               {"pairwise": True, "cap": -1}):
        with pytest.raises(OutOfRange):
            distance_table(x, ys, desk.norm, **kw)
    assert list(pairwise(ys, desk.norm, cap=0)) == []
    assert list(distance_table(x, ys, desk.norm, pairwise=True,
                               cap=0)[2]) == []
    assert [r.euclid for r in pinned(x, ys[:1], desk.norm, euclid=0)] == [0]


@given(st.integers(min_value=2, max_value=40))
def test_unrank_pair_is_lexicographic(n):
    pairs = [_unrank_pair(r, n) for r in range(n * (n - 1) // 2)]
    assert pairs == list(combinations(range(n), 2))


def test_walk_pairs_matches_unrank_pair():
    # the one row walk against the closed form, rank by rank: on every rank
    # and on seeded subsets holding the first and last rank, as Floyd's
    # sorted draws can
    for n in range(2, 41):
        total = n * (n - 1) // 2
        subsets = [range(total)]
        for seed in range(4):
            rng = random.Random(n * 100 + seed)
            picked = rng.sample(range(total), rng.randint(0, total))
            subsets.append(sorted({0, total - 1, *picked}))
        for ranks in subsets:
            assert list(_walk_pairs(ranks, n)) == list(
                map(_unrank_pair, ranks, repeat(n))), (n, ranks)


def test_pairwise_full_enumeration(desk, desk_points):
    _, ys = desk_points
    recs = list(pairwise(ys, desk.norm))
    assert len(recs) == 12 * 11 // 2
    assert [r.source for r in recs] == [
        (ys[i].index, ys[j].index) for i, j in combinations(range(12), 2)]
    assert list(pairwise([], desk.norm)) == []


def test_pairwise_cap_is_deterministic(desk, desk_points):
    _, ys = desk_points
    a = list(pairwise(ys, desk.norm, cap=10, seed=5))
    b = list(pairwise(ys, desk.norm, cap=10, seed=5))
    c = list(pairwise(ys, desk.norm, cap=10, seed=6))
    assert len(a) == 10
    assert [r.source for r in a] == [r.source for r in b]
    assert [r.source for r in a] != [r.source for r in c]
    # sampled pairs are a sub-multiset of the full enumeration, in order
    full = [r.source for r in pairwise(ys, desk.norm)]
    it = iter(full)
    assert all(src in it for src in (r.source for r in a))


def _record_line(rec, euclid) -> str:
    # a distances.csv row rendered field by field from its record
    i, j = rec.source
    line = (f"{i}-{j},{rec.achieving},"
            f"{mantissa_to_hex(rec.mantissa, rec.precision)},{rec.precision}")
    if euclid is not None:
        line += f",{mantissa_to_hex(rec.euclid, euclid)},{euclid}"
    return line + "\n"


@pytest.mark.parametrize("prec", [1, 95, 96, 600])
def test_distance_table_rows_render_the_records(prec):
    # the fused rows, through their template, against the records pinned
    # and pairwise give, rendered one by one: a norm whose functionals sit
    # at precisions 0 and 1 gives each row its own width and pad, 600 places
    # takes the wide field, and euclid covers 0, odd and wide place counts
    norm = custom_norm([[[1, 0], [0, 0]], [[1, 1], [1, 1]],
                        [[1, 1], [-1, 1]]])
    rng = random.Random(prec)
    pts = [SamplePoint((rng.getrandbits(prec), rng.getrandbits(prec)), prec,
                       i) for i in range(9)]
    pts[3] = pts[2]._replace(index=3)  # one zero distance
    x, ys = pts[0], pts[1:]
    for euclid in (None, 0, 3, 24, 600):
        cases = [(pinned(x, ys, norm, euclid), {}),
                 (pairwise(ys, norm, euclid=euclid), {"pairwise": True}),
                 (pairwise(ys, norm, cap=11, seed=4, euclid=euclid),
                  {"pairwise": True, "cap": 11, "seed": 4})]
        for recs, kw in cases:
            header, template, rows = distance_table(x, ys, norm,
                                                    euclid=euclid, **kw)
            assert header == "pair_id,ell,mantissa_hex,prec" + (
                "" if euclid is None else ",euclid_mantissa_hex,euclid_prec")
            assert [template % row for row in rows] == [
                _record_line(rec, euclid) for rec in recs], (euclid, kw)


def test_pairwise_is_lazy(desk, monkeypatch):
    # 1000 points make 499500 pairs; taking the first record measures it
    # alone (test_mismatched_last_point_rejected keeps the checks eager)
    ys = sample_points(desk, 1000)
    measured = []
    measure = PolyhedralNorm.measure_projection

    def counting(norm, proj, prec):
        measured.append(prec)
        return measure(norm, proj, prec)

    # a norm is immutable, so the count goes on its class
    monkeypatch.setattr(PolyhedralNorm, "measure_projection", counting)
    recs = pairwise(ys, desk.norm)
    assert isinstance(recs, Iterator)
    first = next(recs)
    assert first.source == (1, 2)
    assert len(measured) == 1
    assert first == next(pinned(ys[0], ys[1:2], desk.norm))


def test_pinned_is_lazy(desk, monkeypatch):
    # taking the first of 1000 pinned records measures one pair
    # (test_mismatched_last_point_rejected and
    # test_negative_places_and_cap_refused_at_call_time keep the refusals
    # eager)
    x = pinned_point(desk)
    ys = sample_points(desk, 1000)
    measured = []
    measure = PolyhedralNorm.measure_projection

    def counting(norm, proj, prec):
        measured.append(prec)
        return measure(norm, proj, prec)

    # a norm is immutable, so the count goes on its class
    monkeypatch.setattr(PolyhedralNorm, "measure_projection", counting)
    recs = pinned(x, ys, desk.norm)
    assert isinstance(recs, Iterator)
    first = next(recs)
    assert first.source == (0, 1)
    assert len(measured) == 1
    assert first == next(pairwise([x, ys[0]], desk.norm))


def test_euclid_floor_frozen():
    assert euclid_floor((Dyadic(3, 2), Dyadic(4, 2)), 8) == Dyadic(5, 2)
    assert euclid_floor((Dyadic(1, 0), Dyadic(1, 0)), 4) == Dyadic(22, 4)
    assert euclid_floor((Dyadic(0, 3), Dyadic(0, 3)), 6) == Dyadic(0, 6)
    with pytest.raises(OutOfRange):
        euclid_floor((Dyadic(1, 1),), -1)
    with pytest.raises(OutOfRange):
        euclid_floor((Dyadic(1, 1), Dyadic(1, 2)), 4)
    with pytest.raises(OutOfRange):
        euclid_floor((), 4)


@settings(deadline=None)
@given(st.lists(st.builds(Dyadic, st.integers(min_value=-(1 << 20), max_value=1 << 20),
                          st.just(12)), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=30))
def test_euclid_floor_is_floor(delta, r):
    got = euclid_floor(delta, r)
    true_sq = sum(v.as_fraction() ** 2 for v in delta)
    lo = got.as_fraction()
    assert lo * lo <= true_sq
    hi = lo + Fraction(1, 1 << r)
    assert hi * hi > true_sq
    assert got.precision == r


def _euclid_reference(mants, prec, r):
    # the floor from the full sum of squares, with no leading-digit bracket
    sq = sum(m * m for m in mants)
    if r >= prec:
        return math.isqrt(sq << 2 * (r - prec))
    return math.isqrt(sq >> 2 * (prec - r))


@st.composite
def euclid_cases(draw):
    prec = draw(st.integers(min_value=0, max_value=12000))
    r = draw(st.integers(min_value=0, max_value=prec + 8))
    d = draw(st.integers(min_value=0, max_value=4))
    bound = 1 << (prec + 2)
    mants = [draw(st.integers(min_value=-bound, max_value=bound))
             for _ in range(d)]
    k = prec - r
    if d and k > 0 and draw(st.booleans()):
        # put the sum of squares within a few units of q**2 * 4**k, where
        # the floor steps from q - 1 to q
        rest = sum(m * m for m in mants[1:])
        q = math.isqrt(rest >> 2 * k) + draw(st.integers(1, 3))
        head = math.isqrt((q * q << 2 * k) - rest)
        head = max(0, head + draw(st.integers(-2, 2)))
        mants[0] = head if draw(st.booleans()) else -head
    return mants, prec, r


K_FALLBACK = 2048 - 24


@settings(deadline=None)
@given(euclid_cases())
# sum of squares just below 25 * 4**k: the leading-digit bracket is [4, 5]
@example(([3 * (1 << K_FALLBACK) - 1, 4 << K_FALLBACK], 2048, 24))
# just above 25 * 4**k: the same bracket, but the floor is 5
@example(([3 * (1 << K_FALLBACK) - 1, (4 << K_FALLBACK) + 1], 2048, 24))
def test_euclid_floor_mantissa_matches_full_sum(case):
    mants, prec, r = case
    assert euclid_floor_mantissa(mants, prec, r) == _euclid_reference(
        mants, prec, r)


def test_euclid_floor_matches_norm_bounds(desk, desk_points):
    # ||.||_inf <= ||.||_2 <= sqrt(2)||.||_inf, checked through the floors
    x, ys = desk_points
    r = 24
    for rec, y in zip(pinned(x, ys, desk.norm), ys):
        v = Fraction(rec.mantissa, 1 << rec.precision)
        e = Fraction(euclid_floor_mantissa(delta_mantissas(x, y),
                                           x.precision, r), 1 << r)
        assert e + Fraction(1, 1 << r) > v
        assert e * e <= 2 * v * v


@pytest.mark.parametrize("sampled", [False, True])
def test_records_carry_euclid_floor(desk, desk_points, sampled):
    # each record's floor is the one of its own pair's difference, and only
    # a call given euclid takes it
    x, ys = desk_points
    by_index = {p.index: p for p in (x, *ys)}

    def run(euclid=None):
        if sampled:  # a cap below the 66 pairs, so Floyd's draws pick them
            return list(pairwise(ys, desk.norm, cap=20, seed=3,
                                 euclid=euclid))
        return list(pinned(x, ys, desk.norm, euclid=euclid))

    recs, plain = run(euclid=24), run()
    assert len(recs) == (20 if sampled else 12)
    for rec in recs:
        a, b = (by_index[i] for i in rec.source)
        assert rec.euclid == euclid_floor_mantissa(delta_mantissas(a, b),
                                                   x.precision, 24)
    assert [rec.euclid for rec in plain] == [None] * len(recs)
    assert [rec._replace(euclid=None) for rec in recs] == plain


def test_collapse_on_constructed_pairs(desk, desk_points):
    x, ys = desk_points
    for y in ys:
        report = collapse_check(x, y, desk)
        assert report.ok
        ks = [b.block for b in report.blocks]
        assert ks == [w.k for w in
                      desk.schedule.of_functional(report.achieving)]
        for b in report.blocks:
            lo, hi = b.window
            assert b.trimmed == (lo + 1, hi - 1)


def test_collapse_at_full_dimension_is_vacuous():
    # s = d leaves every window empty (a >= b): each block of the achieving
    # functional reports both stretches constant, whatever the digits
    spec = make_spec(2, Fraction(2), preset("l1", 2), seed=7,
                     m=[1, 16, 32, 96])
    assert all(w.a >= w.b for w in spec.schedule.blocks)
    x, ys = pinned_point(spec), sample_points(spec, 40)
    achieving = set()
    for y in ys + [x]:
        report = collapse_check(x, y, spec)
        achieving.add(report.achieving)
        assert [b.block for b in report.blocks] == [
            w.k for w in spec.schedule.of_functional(report.achieving)]
        assert all(b.constant_full and b.constant_trimmed
                   for b in report.blocks)
        assert report.ok
    assert achieving == {0, 1}


def test_collapse_window_digit_rule(desk):
    # hand-built differences with a single digit planted around block 3's
    # window (67, 93]; functional 0 owns blocks 1 and 3
    depth = desk.schedule.depth
    a, b = desk.schedule.blocks[2].a, desk.schedule.blocks[2].b

    def point(m0):
        return SamplePoint((m0, 0), depth, 0)

    base = 1 << (depth - 1)  # difference 0.1...: functional 0 achieves
    y = point(0)

    def block3(m0):
        rep = collapse_check(point(m0), y, desk)
        assert rep.achieving == 0
        assert [bl.block for bl in rep.blocks] == [1, 3]
        return rep.blocks[1]

    mid = block3(base | (1 << (depth - (a + 3))))  # inside the trimmed part
    assert not mid.constant_full and not mid.constant_trimmed

    edge = block3(base | (1 << (depth - (a + 1))))  # guard place only
    assert not edge.constant_full and edge.constant_trimmed

    outside = block3(base | (1 << (depth - a)))  # above the window entirely
    assert outside.constant_full and outside.constant_trimmed

    allones = (((1 << (b - a)) - 1) << (depth - b)) | base
    assert block3(allones).constant_full  # constant can mean all ones too


def test_collapse_requires_depth(desk):
    pt = pinned_point(desk)
    shallow = type(pt)(tuple(m >> (pt.precision - 40) for m in pt.mantissas),
                       40, 0)
    with pytest.raises(PrecisionExceeded):
        collapse_check(shallow, shallow, desk)


def test_grouping_and_estimation_values():
    recs = [DistanceRecord(1, 1, 0, (0, 1)), DistanceRecord(0, 4, 0, (0, 2)),
            DistanceRecord(3, 2, 1, (0, 3))]
    vals = estimation_values(recs)
    assert sorted(vals) == [0, 1]
    assert vals[0] == [(1, 1)]  # the zero distance is dropped
    assert vals[1] == [(3, 2)]

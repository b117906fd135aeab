import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfrac.construct import (FractalSpec, SamplePoint, build_point,
                                hex_to_mantissa, make_spec, mantissa_to_hex,
                                pinned_point, read_points, sample_points,
                                solve_pivot_offset, verify_point, write_points)
from polyfrac.dyadic import Dyadic
from polyfrac.errors import (FormatError, NoSolution, OutOfRange,
                             PrecisionExceeded)
from polyfrac.norms import preset
from polyfrac.schedule import generate


@pytest.fixture(scope="module")
def desk():
    return make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7,
                     m=[1, 16, 32, 96])


def _marker_ok(ps: Fraction, a: int, b: int) -> bool:
    # independent route: rational mod instead of mantissa masking
    rem = ps % Fraction(1, 1 << a)
    lo = Fraction(1, 1 << (b + 1))
    return lo <= rem < lo + Fraction(1, 1 << (b + 2))


@st.composite
def solver_instances(draw):
    c = draw(st.integers(min_value=3, max_value=5))
    w = draw(st.integers(min_value=2 * c + 1, max_value=max(2 * c + 2, 12)))
    split = draw(st.integers(min_value=1, max_value=20))
    pp = draw(st.integers(min_value=0, max_value=4))
    pm = draw(st.integers(min_value=1, max_value=1 << (pp + c - 3)))
    t = split + w - 1
    bound = 1 << (t + pp + 2)
    ps = draw(st.integers(min_value=-bound, max_value=bound))
    return c, split, split + w, Dyadic(ps, t + pp), Dyadic(pm, pp)


@settings(deadline=None, max_examples=120)
@given(solver_instances())
def test_solver_returns_smallest_offset(inst):
    c, split, block_end, ps, coeff = inst
    a, b = split + c, block_end - c
    t = block_end - 1
    expect = None
    for u in range(1 << (block_end - split)):
        s = ps.as_fraction() + u * coeff.as_fraction() / Fraction(1 << t)
        if _marker_ok(s, a, b):
            expect = u
            break
    if expect is None:
        with pytest.raises(NoSolution):
            solve_pivot_offset(ps, coeff, split, block_end, c)
    else:
        assert solve_pivot_offset(ps, coeff, split, block_end, c) == expect


def test_solver_trivial_cases():
    # empty window: nothing to steer
    assert solve_pivot_offset(Dyadic(123, 10), Dyadic(1, 0), 5, 10, 3) == 0
    with pytest.raises(OutOfRange):
        solve_pivot_offset(Dyadic(1, 4), Dyadic(-1, 0), 1, 16, 3)
    with pytest.raises(NoSolution):
        # pivot coefficient 2 exceeds the margin-3 step bound of 1
        solve_pivot_offset(Dyadic(1, 4), Dyadic(2, 0), 1, 16, 3)


def _installed_offset(point, spec, k):
    blk = spec.schedule.blocks[k - 1]
    f = spec.norm.functionals[blk.ell]
    n, m_hi = blk.split, blk.end
    w = m_hi - n
    shift = point.precision - m_hi + 1
    return (point.mantissas[f.pivot] >> shift) & ((1 << w) - 1), f, n, m_hi


def test_installed_offsets_are_minimal(desk):
    # redo blocks 1 and 2 by brute force over every candidate offset
    pt = pinned_point(desk)
    depth = pt.precision
    c = desk.schedule.margin
    for k in (1, 2):
        u_inst, f, n, m_hi = _installed_offset(pt, desk, k)
        t = m_hi - 1
        w = m_hi - n
        shift = depth - m_hi + 1
        mants = list(pt.mantissas)
        mants[f.pivot] &= ~(((1 << w) - 1) << shift)
        found = None
        for u in range(1 << w):
            trial = list(mants)
            trial[f.pivot] |= u << shift
            s = Fraction(sum((m >> (depth - t)) * v
                             for m, v in zip(trial, f.mantissas)),
                         1 << (t + f.precision))
            if _marker_ok(s, n + c, m_hi - c):
                found = u
                break
        assert found == u_inst
        # and the public solver agrees when fed the pre-solve state
        ps = Dyadic(sum((m >> (depth - t)) * v
                        for m, v in zip(mants, f.mantissas)), t + f.precision)
        assert solve_pivot_offset(
            ps, Dyadic(f.mantissas[f.pivot], f.precision), n, m_hi, c) == u_inst


def test_pinned_point_verifies(desk):
    pt = pinned_point(desk)
    assert pt.role == "pinned" and pt.index == 0
    assert pt.precision == 96
    assert verify_point(pt, desk).ok


@pytest.mark.parametrize("name,s,dim", [
    ("linf", Fraction(3, 2), 2),
    ("l1", Fraction(7, 4), 2),
    ("l1", Fraction(5, 4), 2),
    ("linf", Fraction(5, 2), 3),
])
def test_samples_verify_across_families(name, s, dim):
    spec = make_spec(dim, s, preset(name, dim), seed=11, m=[1, 16, 32, 96])
    for pt in sample_points(spec, 8):
        assert verify_point(pt, spec).ok


def test_full_dimension_needs_no_solver():
    spec = make_spec(2, 2, preset("linf", 2), seed=3, m=[1, 16, 32, 96])
    pt = pinned_point(spec)
    assert verify_point(pt, spec).ok  # all windows vacuous


def test_build_is_deterministic(desk):
    a = build_point(desk, 4, "sample")
    b = build_point(desk, 4, "sample")
    assert a.mantissas == b.mantissas


def test_role_does_not_change_coordinates(desk):
    a = build_point(desk, 5, "pinned")
    b = build_point(desk, 5, "sample")
    assert a.mantissas == b.mantissas
    assert (a.role, b.role) == ("pinned", "sample")


def test_points_differ_by_index_and_seed(desk):
    other = make_spec(2, Fraction(3, 2), preset("linf", 2), seed=8,
                      m=[1, 16, 32, 96])
    p0 = build_point(desk, 0)
    assert build_point(desk, 1).mantissas != p0.mantissas
    assert build_point(other, 0).mantissas != p0.mantissas


def test_mutation_is_detected(desk):
    pt = pinned_point(desk)
    blk = desk.schedule.blocks[2]
    a, b = blk.a, blk.b
    # set a zero digit inside the block-3 window of the pivot coordinate
    f = desk.norm.functionals[blk.ell]
    place = next(j for j in range(a + 1, b + 1)
                 if Dyadic(pt.mantissas[f.pivot], pt.precision).bit(j) == 0)
    mants = list(pt.mantissas)
    mants[f.pivot] |= 1 << (pt.precision - place)
    bad = SamplePoint(tuple(mants), pt.precision, "pinned", 0)
    report = verify_point(bad, desk)
    assert not report.ok
    assert (3, "membership", place) in report.failures


def test_failure_places_match_a_digit_scan():
    # scramble all but the first 20 places of l1 points, where borrows make
    # every check fail somewhere; each reported place must match a scan of
    # the exact sums
    spec = make_spec(2, Fraction(3, 2), preset("l1", 2), seed=5,
                     m=[1, 16, 32, 96])
    sched = spec.schedule
    rng = random.Random(5)
    seen = set()
    for index in range(200):
        pt = build_point(spec, index, "sample")
        p = pt.precision
        bad = SamplePoint(tuple(m ^ rng.getrandbits(p - 20)
                                for m in pt.mantissas), p, "sample", index)
        coords = [Dyadic(m, p) for m in bad.mantissas]
        for k, check, place in verify_point(bad, spec).failures:
            seen.add(check)
            blk = sched.blocks[k - 1]
            a, b = blk.a, blk.b
            f = spec.norm.functionals[blk.ell]
            coef = [Fraction(v, 1 << f.precision) for v in f.mantissas]
            full = sum(c * v.as_fraction() for c, v in zip(coef, coords))
            cut = sum(c * v.truncate(blk.end).as_fraction()
                      for c, v in zip(coef, coords))
            if check == "membership":
                want = next(j for j in range(a + 1, b + 1)
                            if math.floor(full * 2**j) % 2)
            elif check == "carry":
                want = next(j for j in range(a + 1, b + 1)
                            if math.floor(full * 2**j) != math.floor(cut * 2**j))
            else:
                want = b + 1
            assert place == want, (index, k, check)
    assert seen == {"membership", "carry", "pattern"}


def test_shallow_point_raises(desk):
    pt = pinned_point(desk)
    shallow = SamplePoint(tuple(m >> (pt.precision - 32) for m in pt.mantissas),
                          32, "pinned", 0)
    # blocks 1 and 2 end within 32 places; block 3 needs 96
    with pytest.raises(PrecisionExceeded, match="block 3 needs 96"):
        verify_point(shallow, desk)


def test_spec_validation():
    linf = preset("linf", 2)
    sched = generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange):
        FractalSpec(3, Fraction(3, 2), linf, sched, 0)  # dim mismatch
    with pytest.raises(OutOfRange):
        FractalSpec(2, Fraction(3, 2), linf, sched, 1 << 64)
    with pytest.raises(OutOfRange):
        FractalSpec(2, Fraction(3, 2), linf, sched, 7.5)  # would alias 7
    with pytest.raises(OutOfRange):
        FractalSpec(2, Fraction(3, 2), linf, sched, True)  # would alias 1
    with pytest.raises(OutOfRange):
        make_spec(2, Fraction(3, 2), linf, True, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange):
        FractalSpec(2, Fraction(7, 4), linf, sched, 0)  # alpha mismatch
    with pytest.raises(OutOfRange):
        make_spec(2, Fraction(3, 2), linf, 0, m=[1, 16, 32, 96], margin=2)
    bad_cycle = generate(Fraction(1, 2), 3, 3, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange):
        FractalSpec(2, Fraction(3, 2), linf, bad_cycle, 0)


def test_sample_point_validation():
    with pytest.raises(OutOfRange):
        SamplePoint((4,), 2, "pinned", 0)  # 1.0 not in [0, 1)
    with pytest.raises(OutOfRange):
        SamplePoint((1, -1), 2, "pinned", 0)  # -1/4 not in [0, 1)
    with pytest.raises(OutOfRange):
        SamplePoint((1,), 1, "probe", 0)
    with pytest.raises(OutOfRange):
        SamplePoint((), 2, "pinned", 0)


def test_sample_count_validation(desk):
    with pytest.raises(OutOfRange):
        sample_points(desk, 0)


@given(st.integers(min_value=1, max_value=400),
       st.data())
def test_hex_round_trip(prec, data):
    m = data.draw(st.integers(min_value=0, max_value=(1 << prec) - 1))
    assert hex_to_mantissa(mantissa_to_hex(m, prec), prec) == m


def test_hex_frozen():
    assert mantissa_to_hex(0b1011001, 7) == "b2"
    assert hex_to_mantissa("b2", 7) == 0b1011001
    with pytest.raises(FormatError):
        hex_to_mantissa("b3", 7)  # padding bit set
    with pytest.raises(FormatError):
        hex_to_mantissa("b", 7)
    with pytest.raises(FormatError):
        hex_to_mantissa("zz", 7)


@pytest.mark.parametrize("field", ["0x1f", "f_ff", "+fff", "-fff", "FFFF",
                                   "Ffff", " fff", "fff\n", "٣fff"])
def test_hex_rejects_noncanonical(field):
    # exactly four lowercase hex digits at precision 16; int(s, 16) takes
    # every field above
    assert hex_to_mantissa("0fff", 16) == 0xfff
    with pytest.raises(FormatError):
        hex_to_mantissa(field, 16)


def test_points_file_round_trip(tmp_path, desk):
    pts = [pinned_point(desk)] + sample_points(desk, 3)
    path = tmp_path / "points.txt"
    write_points(path, pts, "ab12")
    back, mhash = read_points(path)
    assert mhash == "ab12"
    assert [(p.mantissas, p.precision) for p in back] == \
        [(p.mantissas, p.precision) for p in pts]
    assert [p.role for p in back] == ["pinned", "sample", "sample", "sample"]
    assert [p.index for p in back] == [0, 1, 2, 3]  # positional on read


def test_points_file_rejects_malformed(tmp_path, desk):
    path = tmp_path / "points.txt"
    write_points(path, [pinned_point(desk)], "cafe")
    good = path.read_text().splitlines()

    def reject(lines):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_points(path)

    reject(["polyfrac-points v2"] + good[1:])
    reject([good[0], "# manifesto cafe"] + good[2:])
    reject(good[:2] + ["d=2 prec=96 count=2"] + good[3:])  # count mismatch
    reject(good[:2] + ["d=2 prec=96"] + good[3:])
    # headers other than the one write_points renders are not reinterpreted
    reject(good[:2] + ["d=3 prec=96 count=1 d=2"] + good[3:])
    reject(good[:2] + ["d=2 prec=96 count=1 junk=1"] + good[3:])
    reject(good[:2] + ["prec=96 d=2 count=1"] + good[3:])
    reject(good[:2] + ["d=2 prec=96 count=01"] + good[3:])
    reject(good[:2] + ["d=2 prec=96 count=0"])
    reject(good[:2] + ["d=-1 prec=96 count=1", ""])
    reject(good[:2] + ["d=0 prec=96 count=1", "x"])
    reject(good[:2] + ["d=2 prec=0 count=1"] + good[3:])
    reject(good[:2] + ["d=2 prec=-4 count=1"] + good[3:])
    reject(good[:3] + ["z " + good[3].split(" ", 1)[1]])  # unknown role tag
    reject(good[:3] + [good[3] + " ff"])  # extra column
    reject(good[:3] + [good[3][:-1] + "g"])  # invalid hex digit
    path.write_bytes(b"\xff\xfe\n")  # not ASCII, nor text in most codecs
    with pytest.raises(FormatError):
        read_points(path)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyfrac.construct import (FractalSpec, SamplePoint, _marker, _steer,
                                build_point, first_failure, hex_field,
                                make_spec, mantissa_to_hex, pinned_point,
                                read_points, sample_points, solve_pivot_offset,
                                verify_point, write_points)
from polyfrac.dyadic import Dyadic
from polyfrac.errors import (DimensionMismatch, FormatError, NoSolution,
                             OutOfRange, PrecisionExceeded)
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


def _steer_by_division(s0, step, modulus, lo, width):
    """The pivot solver written with % and // by the modulus, as an oracle
    for the mask-and-shift form: the smallest offset that lands, uncapped."""
    rho = s0 % modulus
    q0 = max(0, -((rho + 1 - lo - width) // -modulus))
    for q in range(q0, q0 + 4):
        target = lo + q * modulus
        u = max(0, -((rho - target) // step))
        val = rho + u * step
        if target <= val < target + width:
            return u
    return None


@st.composite
def steer_instances(draw):
    e = draw(st.integers(min_value=3, max_value=12000))  # modulus 2**e
    w = draw(st.integers(min_value=0, max_value=e - 3))  # band width 2**w
    step = draw(st.integers(min_value=1, max_value=1 << w))
    bits = draw(st.integers(min_value=0, max_value=e + 8))
    s0 = draw(st.integers(min_value=-(1 << bits), max_value=1 << bits))
    return e, w, step, s0


@settings(deadline=None, max_examples=150)
@given(steer_instances())
@example((3, 0, 1, -1))
@example((12000, 11997, 1 << 11997, -(1 << 12008) + 12345))
@example((12000, 11997, 1, (1 << 12000) - 1))
@example((7190, 40, 3, (1 << 11530) - 977))
def test_steer_matches_the_division_form(inst):
    # scale e + 1 and window (1, e - w - 1]: modulus 2**e, lo 2**(w + 1),
    # width 2**w, whatever layout _marker gives them; for step <= width
    # _steer always lands, and the cap is solve_pivot_offset's to check
    e, w, step, s0 = inst
    marker = _marker(e + 1, 1, e - w - 1)
    assert _steer(s0, step, marker) == _steer_by_division(
        s0, step, 1 << e, 2 << w, 1 << w)


@st.composite
def capped_solver_instances(draw):
    # small pivot coefficients at fine precision: the offset can outrun the
    # pivot run [split, block_end), which margin_ok rules out for a spec
    c = draw(st.integers(min_value=3, max_value=6))
    split = draw(st.integers(min_value=1, max_value=40))
    block_end = split + draw(st.integers(min_value=2 * c + 1, max_value=60))
    pp = draw(st.integers(min_value=0, max_value=40))
    pm = draw(st.integers(min_value=1, max_value=1 << (pp + c - 3)))
    prec = block_end - 1 + pp
    ps = draw(st.integers(min_value=-(1 << (prec + 8)),
                          max_value=1 << (prec + 8)))
    return c, split, block_end, Dyadic(ps, prec), Dyadic(pm, pp)


@settings(deadline=None, max_examples=150)
@given(capped_solver_instances())
def test_solver_caps_the_offset_at_the_pivot_run(inst):
    # at scale prec = block_end - 1 + pp the marker is modulus 2**(prec - a),
    # lo 2**(prec - b - 1) and width 2**(prec - b - 2), and the step is pm
    c, split, block_end, ps, coeff = inst
    a, b, prec = split + c, block_end - c, ps.precision
    want = _steer_by_division(ps.mantissa, coeff.mantissa, 1 << (prec - a),
                              1 << (prec - b - 1), 1 << (prec - b - 2))
    if want >> (block_end - split):
        with pytest.raises(NoSolution):
            solve_pivot_offset(ps, coeff, split, block_end, c)
    else:
        assert solve_pivot_offset(ps, coeff, split, block_end, c) == want


def test_solver_cap_boundary():
    # found by a small search over 7-place pivot runs: the first smallest
    # landing offset is 2**7 - 1, the last the run holds, and the second
    # is 2**7, the first past it
    got = solve_pivot_offset(Dyadic(207108, 18), Dyadic(3, 6), 6, 13, 3)
    assert got == (1 << 7) - 1
    with pytest.raises(NoSolution, match=r"no admissible offset below 2\*\*7"):
        solve_pivot_offset(Dyadic(-24319, 15), Dyadic(3, 6), 3, 10, 3)


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
    assert pt.index == 0
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
    a = build_point(desk, 4)
    b = build_point(desk, 4)
    assert a.mantissas == b.mantissas


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
    bad = SamplePoint(tuple(mants), pt.precision, 0)
    report = verify_point(bad, desk)
    assert not report.ok
    assert (3, "membership", place) in report.failures


def _floor(x: Fraction, j: int) -> int:
    """floor(x * 2**j), exactly."""
    return (x.numerator << j) // x.denominator


def _digit_scan(spec, pt):
    """verify_point's failures for pt, from exact rational sums: per block,
    the first odd digit of the full dot product on the window, the first
    place there where it and the sum truncated at the block end floor
    apart, and the marker residue of the sum truncated one place earlier."""
    coords = [Dyadic(m, pt.precision) for m in pt.mantissas]
    want = []
    for blk in spec.schedule.blocks:
        a, b = blk.a, blk.b
        if a >= b:
            continue
        f = spec.norm.functionals[blk.ell]
        coef = [Fraction(v, 1 << f.precision) for v in f.mantissas]

        def total(places):
            return sum(c * v.truncate(places).as_fraction()
                       for c, v in zip(coef, coords))

        full, cut = total(pt.precision), total(blk.end)
        odd = next((j for j in range(a + 1, b + 1) if _floor(full, j) % 2),
                   None)
        if odd is not None:
            want.append((blk.k, "membership", odd))
        # floors equal at place b are equal at every coarser place
        if _floor(full, b) != _floor(cut, b):
            want.append((blk.k, "carry", next(
                j for j in range(a + 1, b + 1)
                if _floor(full, j) != _floor(cut, j))))
        if not _marker_ok(total(blk.end - 1), a, b):
            want.append((blk.k, "pattern", b + 1))
    return want


def _scramble_and_scan(spec, count, keep):
    """For count sample points, each with its places past keep(rng, p)
    scrambled, verify_point's failures equal the digit scan's, in order.
    Returns {block: checks that failed there}."""
    rng = random.Random(5)
    seen = {}
    for index in range(count):
        pt = build_point(spec, index)
        p = pt.precision
        cut = p - keep(rng, p)
        mants = tuple(m ^ rng.getrandbits(cut) for m in pt.mantissas)
        bad = SamplePoint(mants, p, index)
        failures = verify_point(bad, spec).failures
        assert list(failures) == _digit_scan(spec, bad), index
        for k, check, _ in failures:
            seen.setdefault(k, set()).add(check)
    return seen


def test_failure_places_match_a_digit_scan():
    # scramble all but the first 20 places of l1 points, where borrows make
    # every check fail somewhere; each reported place must match a scan of
    # the exact sums
    spec = make_spec(2, Fraction(3, 2), preset("l1", 2), seed=5,
                     m=[1, 16, 32, 96])
    seen = _scramble_and_scan(spec, 200, lambda rng, p: 20)
    assert set().union(*seen.values()) == {"membership", "carry", "pattern"}


def test_failure_places_match_a_digit_scan_on_a_geometric_schedule():
    # l1 d=2, geometric K=5: depth 2280, marker moduli up to 2**907, so the
    # checks reduce sums far wider than a machine word.  A random number of
    # leading places survives, so some large-modulus blocks pass and some
    # fail, and each outcome must match the exact scan
    spec = make_spec(2, Fraction(3, 2), preset("l1", 2), seed=5, K=5,
                     ratio=2)
    assert spec.schedule.depth == 2280
    wide = [p.k for p in spec.plan if p.marker and p.b - p.a > 64]
    assert wide == [4, 5]
    seen = _scramble_and_scan(
        spec, 120, lambda rng, p: rng.choice([p, 100, 300, 1000, 2000]))
    assert seen[4] == {"membership", "carry", "pattern"}
    # block 5 ends at the depth, so its truncated sum is the full one
    assert seen[5] == {"membership", "pattern"}


def test_shallow_point_raises(desk):
    pt = pinned_point(desk)
    shallow = SamplePoint(tuple(m >> (pt.precision - 32) for m in pt.mantissas),
                          32, 0)
    # blocks 1 and 2 end within 32 places; block 3 needs 96
    with pytest.raises(PrecisionExceeded, match="block 3 needs 96"):
        verify_point(shallow, desk)


@pytest.mark.parametrize("extra", [(0,), (1 << 95, 0), None],
                         ids=["3-coordinates", "4-coordinates", "1-coordinate"])
def test_wrong_dimension_points_refused(desk, extra):
    # a dot product over map(mul) stops at the shorter side, so a point of
    # another dimension would be checked on its first coordinates alone
    pts = [pinned_point(desk)] + sample_points(desk, 3)
    pts = [p._replace(mantissas=p.mantissas[:1] if extra is None
                      else p.mantissas + extra) for p in pts]
    with pytest.raises(DimensionMismatch):
        verify_point(pts[1], desk)
    with pytest.raises(DimensionMismatch):
        first_failure(pts, desk)


def test_spec_validation():
    linf = preset("linf", 2)
    sched = generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange, match="norm dimension"):
        # 5/2 is a valid target in d = 3, so only the norm is at fault
        make_spec(3, Fraction(5, 2), linf, 0, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange):
        FractalSpec(linf, sched, 1 << 64)
    with pytest.raises(OutOfRange):
        FractalSpec(linf, sched, 7.5)  # would alias 7
    with pytest.raises(OutOfRange):
        FractalSpec(linf, sched, True)  # would alias 1
    with pytest.raises(OutOfRange):
        make_spec(2, Fraction(3, 2), linf, True, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange):
        make_spec(2, Fraction(3, 2), linf, 0, m=[1, 16, 32, 96], margin=2)
    bad_cycle = generate(Fraction(1, 2), 3, 3, m=[1, 16, 32, 96])
    with pytest.raises(OutOfRange):
        FractalSpec(linf, bad_cycle, 0)


def test_sample_point_validation():
    with pytest.raises(OutOfRange):
        SamplePoint((4,), 2, 0)  # 1.0 not in [0, 1)
    with pytest.raises(OutOfRange):
        SamplePoint((1, -1), 2, 0)  # -1/4 not in [0, 1)
    with pytest.raises(OutOfRange):
        SamplePoint((), 2, 0)


def test_sample_count_validation(desk):
    with pytest.raises(OutOfRange):
        sample_points(desk, 0)


@given(st.integers(min_value=1, max_value=400),
       st.data())
def test_hex_round_trip(prec, data):
    m = data.draw(st.integers(min_value=0, max_value=(1 << prec) - 1))
    w = (prec + 3) // 4
    field = mantissa_to_hex(m, prec)
    assert len(field) == w and int(field, 16) >> (4 * w - prec) == m


@settings(deadline=None)
@given(prec=st.integers(min_value=0, max_value=12000), data=st.data())
@example(prec=0, data=None)
def test_hex_matches_format(prec, data):
    # the writer's field is format's, also for m >= 2**prec (a wider field)
    # and at prec 0, where the field of m = 0 is "0", not ""
    w = (prec + 3) // 4
    pad = 4 * w - prec
    values = [0, 1, (1 << prec) - 1 if prec else 0, 1 << prec,
              (1 << (prec + 9)) - 1]
    if data is not None:
        values.append(data.draw(st.integers(min_value=0,
                                            max_value=1 << (prec + 9))))
    for m in values:
        assert mantissa_to_hex(m, prec) == format(m << pad, f"0{w}x"), m


@pytest.mark.parametrize("prec", [0, 1, 3, 4, 96, 11520])
def test_template_hex_field_matches_mantissa_to_hex(prec):
    # the row templates' two field forms against the reference renderer,
    # also for m >= 2**prec (wider fields) and at prec 0 ("0", not "")
    w, pad = (prec + 3) // 4, -prec & 3
    rng = random.Random(prec)
    values = [0, 1, (1 << prec) - 1, 1 << prec, (1 << (prec + 9)) - 1,
              rng.getrandbits(prec), rng.getrandbits(prec + 7) | 1 << prec]
    field, wide = hex_field(prec)
    assert (field, wide) == (("%*s", True) if prec > 512 else ("%0*x", False))
    for m in values:
        want = mantissa_to_hex(m, prec)
        assert "%0*x" % (w, m << pad) == want, m
        assert "%*s" % (w, want) == want, m
        assert field % (w, want if wide else m << pad) == want, m


def test_hex_frozen():
    assert mantissa_to_hex(0b1011001, 7) == "b2"
    assert mantissa_to_hex(0, 0) == "0"  # a zero-width field is one digit


@pytest.mark.parametrize("field", ["0x1f", "f_ff", "+fff", "-fff", "FFFF",
                                   "Ffff", " fff", "fff\n", "٣fff"])
def test_hex_rejects_noncanonical(tmp_path, field):
    # a points-file field at precision 16 is exactly four lowercase hex
    # digits; int(s, 16) takes every field above
    path = tmp_path / "points.txt"
    head = "polyfrac-points v1\n# manifest cafe\nd=1 prec=16 count=1\n"
    path.write_text(head + "x 0fff\n")
    assert read_points(path)[0][0].mantissas == (0xfff,)
    path.write_bytes((head + f"x {field}\n").encode())
    with pytest.raises(FormatError):
        read_points(path)


def test_points_file_round_trip(tmp_path, desk):
    pts = [pinned_point(desk)] + sample_points(desk, 3)
    path = tmp_path / "points.txt"
    write_points(path, pts, "ab12")
    back, mhash = read_points(path)
    assert mhash == "ab12"
    assert [(p.mantissas, p.precision) for p in back] == \
        [(p.mantissas, p.precision) for p in pts]
    assert [p.index for p in back] == [0, 1, 2, 3]  # positional on read
    # the pinned point 0 is tagged x, every sample y
    assert [row.split()[0] for row in path.read_text().splitlines()[3:]] == \
        ["x", "y", "y", "y"]


@st.composite
def _point_sets(draw):
    prec = draw(st.integers(min_value=1, max_value=200))
    dim = draw(st.integers(min_value=1, max_value=4))
    coord = st.integers(min_value=0, max_value=(1 << prec) - 1)
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
    return [SamplePoint(m, prec, i) for i, m in enumerate(rows)]


@settings(deadline=None)
@given(pts=_point_sets())
def test_points_file_round_trips_every_width(tmp_path_factory, pts):
    # odd widths and pad != 0, which no benchmark depth (96, 11520) has
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    write_points(path, pts, "cafe")
    assert read_points(path) == (pts, "cafe")
    prec = pts[0].precision
    w = (prec + 3) // 4
    rows = path.read_text().splitlines()[3:]
    assert rows == [" ".join(["y" if i else "x",
                              *(format(m << (4 * w - prec), f"0{w}x")
                                for m in pt.mantissas)])
                    for i, pt in enumerate(pts)]


@pytest.mark.parametrize("pts", [
    [SamplePoint((1, 2), 4, 0), SamplePoint((3,), 4, 1)],
    [SamplePoint((1, 2), 4, 0), SamplePoint((5, 6), 9, 1)],
    [SamplePoint((0,), 0, 0)],
    [],
], ids=["dimension", "precision", "prec-0", "empty"])
def test_write_points_refuses_what_read_points_refuses(tmp_path, pts):
    # written, these would go out under point 0's header (or none) in a
    # file that read_points refuses
    path = tmp_path / "points.txt"
    with pytest.raises(OutOfRange):
        write_points(path, pts, "cafe")
    assert not path.exists()


_CORRUPT_BYTES = b" \t\rXG_+-\xff"


@pytest.fixture(scope="module")
def points_files(tmp_path_factory, desk):
    # the desk depth (w = 24, pad 0) and an odd width with a padding bit
    # (w = 3, pad 1)
    root = tmp_path_factory.mktemp("corrupt")
    files = []
    for name, pts in (
            ("desk", [pinned_point(desk)] + sample_points(desk, 3)),
            ("odd", [SamplePoint((5, 0, 2047), 11, 0),
                     SamplePoint((1, 1023, 77), 11, 1)])):
        write_points(root / name, pts, "cafe")
        blob = (root / name).read_bytes()
        body = sum(len(line) for line in blob.splitlines(True)[:3])
        files.append((root / name, blob, body))
    return files


@settings(deadline=None)
@given(which=st.sampled_from([0, 1]), at=st.integers(min_value=0),
       byte=st.sampled_from(_CORRUPT_BYTES))
@example(which=0, at=1, byte=ord("\t"))  # the separator after row 0's tag
@example(which=1, at=13, byte=ord("\r"))  # row 0's newline (w = 3, d = 3)
def test_points_file_refuses_any_corrupt_body_byte(points_files, which, at,
                                                    byte):
    path, blob, body = points_files[which]
    at = body + at % (len(blob) - body)
    assume(byte != blob[at])
    bad = path.with_suffix(".bad")
    bad.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
    with pytest.raises(FormatError):
        read_points(bad)


def test_points_file_manifest_line_is_one_token(tmp_path, desk):
    # "# manifest " once read as hash "manifest", and "# manifest a b" as
    # "b"; only the line write_table writes names a hash
    path = tmp_path / "points.txt"
    write_points(path, [pinned_point(desk)], "cafe")
    good = path.read_text().splitlines()
    assert read_points(path)[1] == "cafe"
    for line in ("# manifest ", "# manifest a b", "# manifest  cafe",
                 "# manifest cafe "):
        path.write_text("\n".join([good[0], line, *good[2:]]) + "\n")
        with pytest.raises(FormatError, match="missing manifest line"):
            read_points(path)


def test_points_file_rejects_malformed(tmp_path, desk):
    path = tmp_path / "points.txt"
    write_points(path, [pinned_point(desk)], "cafe")
    good = path.read_text().splitlines()

    def reject(lines, end="\n"):
        path.write_text("\n".join(lines) + end)
        with pytest.raises(FormatError):
            read_points(path)

    reject(["polyfrac-points v2"] + good[1:])
    reject([good[0], "# manifesto cafe"] + good[2:])
    reject(good[:2] + ["d=2 prec=96 count=2"] + good[3:])  # count mismatch
    reject(good + ["y" + good[3][1:]])  # a row past count
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
    reject(good[:2] + [f"d={2**62} prec=96 count=1"] + good[3:])
    reject(good[:3] + ["z " + good[3].split(" ", 1)[1]])  # unknown tag
    reject(good[:3] + [good[3] + " ff"])  # extra column
    reject(good[:3] + [good[3][:-1] + "g"])  # invalid hex digit
    # a field is exactly w = ceil(prec/4) hex digits with zero padding bits
    head = [good[0], good[1], "d=1 prec=7 count=1"]
    path.write_text("\n".join(head + ["x b2"]) + "\n")
    assert read_points(path)[0][0].mantissas == (0b1011001,)
    reject(head + ["x b3"])  # padding bit set
    reject(head + ["x b"])
    reject(head + ["x b20"])
    reject(head + ["x zz"])
    # rows are read exactly as written: a reader built on splitlines() and
    # split() took each of these
    reject([line + "\r" for line in good])  # CRLF endings
    reject(good[:3] + [good[3] + "\r"])
    reject(good[:3] + [good[3].replace(" ", "\t", 1)])
    reject(good[:3] + [good[3].replace(" ", "  ", 1)])
    reject(good[:3] + [good[3] + " "])  # trailing space
    reject(good, end="")  # no final newline
    # ... and this ASCII separator, which str.split() takes as whitespace
    reject(good[:3] + [good[3].replace(" ", "\x1f", 1)])
    # a non-ASCII byte in a row, refused as it was by a whole-file decode
    path.write_bytes("\n".join(good[:3]).encode() + b"\n"
                     + good[3].encode().replace(b" ", b"\xa0", 1) + b"\n")
    with pytest.raises(FormatError, match="^malformed point line 1$"):
        read_points(path)
    path.write_bytes(b"\xff\xfe\n")  # not ASCII, nor text in most codecs
    with pytest.raises(FormatError):
        read_points(path)


def test_points_file_tags_row_zero_alone_as_pinned(tmp_path, desk):
    # read_points alone knows the rule: row 0 is x, every later row y
    path = tmp_path / "points.txt"
    write_points(path, [pinned_point(desk)] + sample_points(desk, 5), "cafe")
    good = path.read_text().splitlines()

    def retag(row, tag):
        lines = list(good)
        lines[3 + row] = tag + lines[3 + row][1:]
        path.write_text("\n".join(lines) + "\n")

    retag(0, "y")
    with pytest.raises(FormatError, match="^points file row 0 is tagged y: "
                                          "row 0 must be x$"):
        read_points(path)
    retag(5, "x")
    with pytest.raises(FormatError, match="^points file row 5 is tagged x: "
                                          "only row 0 may be$"):
        read_points(path)

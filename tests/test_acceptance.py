"""End-to-end acceptance checks, one test per claim.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
check; each test prints a short measurement summary as well (visible with
-s or -rP).  Every tolerance and expected value is a pinned constant in
this file, computed once from an independent route and frozen.
"""
import math
import random
from fractions import Fraction

from polyfrac import dimension as dm
from polyfrac import distset as ds
from polyfrac import schedule as sch
from polyfrac.construct import (SamplePoint, build_point, make_spec,
                                mantissa_to_hex, pinned_point, read_points,
                                solve_pivot_offset, verify_point,
                                write_points)
from polyfrac.dyadic import Dyadic
from polyfrac.errors import NoSolution
from polyfrac.norms import margin_ok, min_margin, preset

FALCONER_TOL = 0.15
STREAM_SAMPLES = 100_000
SOLVER_TRIALS = 100_000
AXIOM_VECTORS = 10_000
CHECKPOINT_CUTOFF = 32  # distance checkpoints used for the streamed bound
ENUM_DEPTH = 12         # direct cell enumeration depth
DECOUPLED_DEPTH = 16    # closed-form product comparison depth
EXHAUSTIVE_WIDTH = 16   # widest block for exhaustive offset search

# desk spec, r -> (c-aware floor, exact log2 count, ideal ceiling + headroom)
SANDWICH_ROWS = ((8, 14, 16, 38), (12, 22, 24, 43), (16, 29, 31, 47))
# exact log2 counts at the block ends; ratios must fall toward 3/2
RATIO_EXPONENTS = {16: 31, 32: 61, 96: 163}
# (functional, scale) -> checkpoint bound + slack, desk spec
CELL_LIMITS = {(0, 13): 22, (1, 29): 38}
# (norm, target) -> (set estimate, weakest per-functional distance estimate)
ESTIMATES = {
    ("linf", "1"): (0.9375, 0.0769),
    ("linf", "5/4"): (1.1875, 0.3846),
    ("linf", "3/2"): (1.4375, 0.6882),
    ("linf", "7/4"): (1.6897, 0.8462),
    ("linf", "2"): (1.8750, 1.0323),
    ("l1", "1"): (0.9375, 0.0833),
    ("l1", "5/4"): (1.1875, 0.4167),
    ("l1", "3/2"): (1.4211, 0.6667),
    ("l1", "7/4"): (1.7027, 0.8485),
    ("l1", "2"): (1.8750, 1.0435),
}


def test_01_construction_validity(ensemble):
    total, bad = 0, []
    for name, s, seed, spec, pts in ensemble:
        for p in pts:
            total += 1
            rep = verify_point(p, spec)
            if not rep.ok:
                bad.append((name, str(s), seed, p.index, rep.failures))
    assert total == 100 * 1001
    assert bad == []
    print(f"OK construction validity: {total} points across "
          f"{len(ensemble)} runs, 0 failures")


def test_02_carry_equality_and_solver_totality(ensemble):
    windows = 0
    for name, s, seed, spec, pts in ensemble:
        for p in pts:
            failures = verify_point(p, spec).failures
            assert [f for f in failures if f[1] == "carry"] == []
            windows += spec.schedule.n_blocks

    rng = random.Random(0xACCE55)
    no_solution = 0
    for _ in range(SOLVER_TRIALS):
        c = rng.randint(3, 6)
        split = rng.randint(1, 60)
        block_end = split + rng.randint(2 * c + 1, 2 * c + 40)
        pp = rng.randint(0, 5)
        # margin-valid pivot: 2^-(c-3) <= v <= 2^(c-3)
        lo = 1 << (pp - c + 3) if pp > c - 3 else 1
        pm = rng.randint(lo, 1 << (pp + c - 3))
        ps_prec = block_end - 1 + pp + rng.randint(0, 3)
        ps = Dyadic(rng.getrandbits(ps_prec + 2) - (1 << (ps_prec + 1)),
                    ps_prec)
        try:
            u = solve_pivot_offset(ps, Dyadic(pm, pp), split, block_end, c)
            assert 0 <= u < 1 << (block_end - split)
        except NoSolution:
            no_solution += 1
    assert no_solution == 0
    print(f"OK carry equality on {windows} windows; solver totality on "
          f"{SOLVER_TRIALS} feasible blocks, 0 NoSolution")


def test_03_distance_digit_collapse(ensemble):
    pairs, bad = 0, 0
    for name, s, seed, spec, pts in ensemble:
        x = pts[0]
        for y in pts[1:]:
            pairs += 1
            if not ds.collapse_check(x, y, spec).ok:
                bad += 1
    assert pairs == 100 * 1000
    assert bad == 0
    print(f"OK distance-digit collapse: {pairs} pinned pairs, all windows "
          f"constant after margin trim")


def test_04_set_box_counts_match_profile_sandwich(desk_spec):
    sched = desk_spec.schedule
    system = dm.slab_system(desk_spec)
    ideal = dm.profile_ideal(sched, desk_spec.dim)
    aware = dm.profile_c_aware(sched, desk_spec.dim)
    headroom = desk_spec.norm.n_functionals * 2 * sched.margin * desk_spec.dim
    assert headroom == 24

    rows = []
    for r, want_lo, want_lg, want_hi in SANDWICH_ROWS:
        n = dm.count_exact(system, r).count
        assert n == dm.decoupled_count(system, r)
        lg = n.bit_length() - 1
        assert n == 1 << lg  # decoupled desk counts are powers of two
        assert aware.value_at(r) <= lg <= ideal.value_at(r) + headroom
        rows.append((r, aware.value_at(r), lg, ideal.value_at(r) + headroom))
    assert tuple(rows) == SANDWICH_ROWS

    ratios = []
    for r, want_exp in RATIO_EXPONENTS.items():
        n = dm.count_exact(system, r).count
        assert n == 1 << want_exp
        ratios.append(Fraction(want_exp, r))
    assert ratios[0] > ratios[1] > ratios[2] >= Fraction(3, 2)
    print(f"OK set box counts: sandwich rows {rows}, block-end ratios "
          f"{[str(q) for q in ratios]} falling toward 3/2")


def test_05_distance_cells_below_checkpoint_budget(desk_spec):
    spec = desk_spec
    sched = spec.schedule
    limits = {}
    for ell in range(spec.norm.n_functionals):
        for w in sched.of_functional(ell):
            if w.b <= CHECKPOINT_CUTOFF:
                slack = dm.distance_slack(sched.margin, w.end)
                limits[(ell, w.b)] = w.split + slack
    assert limits == CELL_LIMITS

    x = pinned_point(spec)
    prec = sched.depth
    cells = {key: set() for key in limits}
    for i in range(1, STREAM_SAMPLES + 1):
        rec = next(ds.pinned(x, [build_point(spec, i)], spec.norm))
        if rec.mantissa:
            for (ell, r) in limits:
                if ell == rec.achieving:
                    cells[(ell, r)].add(rec.mantissa >> (prec - r))

    measured = {}
    for key, limit in limits.items():
        lg = math.log2(len(cells[key]))
        measured[key] = round(lg, 2)
        assert lg <= limit
    print(f"OK distance cells from {STREAM_SAMPLES} samples: log2 counts "
          f"{measured} vs budgets {limits}")


def test_06_distance_dimension_inequality(ensemble):
    families = {}
    for name, s, seed, spec, _ in ensemble:
        families.setdefault((name, str(s)), spec)
    assert len(families) == len(ESTIMATES)

    summary = {}
    for key, spec in families.items():
        sched = spec.schedule
        scales = list(sched.bounds[1:])
        prof = dm.profile_ideal(sched, spec.dim)
        est_set = dm.dim_lower_estimate(tuple(
            dm.BoxCount(r, 1 << prof.value_at(r), "exact") for r in scales))

        per_functional = []
        for ell in range(spec.norm.n_functionals):
            est = dm.dim_lower_estimate(tuple(
                dm.BoxCount(w.b, 1 << w.split, "exact")
                for w in sched.of_functional(ell)))
            rep = dm.falconer_check(est_set, est, spec.dim, FALCONER_TOL)
            assert rep.passed, (key, ell, rep)
            per_functional.append(est)
        summary[key] = (est_set, min(per_functional))

    for key, (want_set, want_dist) in ESTIMATES.items():
        got_set, got_dist = summary[key]
        assert abs(got_set - want_set) < 1e-4, key
        assert abs(got_dist - want_dist) < 1e-4, key
    # at full dimension the checkpoint bounds must show no thinning at all
    assert summary[("linf", "2")][1] >= 1.0
    print(f"OK dimension inequality at tol {FALCONER_TOL}: "
          f"{len(summary)} families x per-functional checks; "
          f"full-dimension bound side >= 1")


def test_07_property_suites(desk_spec, tmp_path):
    rng = random.Random(7)

    vectors = 0
    plans = [(preset("linf", 2), max, 2000), (preset("l1", 2), sum, 2000),
             (preset("l1", 3), sum, 1000)]
    for norm, combine, rounds in plans:
        d = norm.dim
        for _ in range(rounds):
            prec = rng.randint(0, 12)
            x = tuple(Dyadic(rng.getrandbits(prec + 4) - (1 << (prec + 3)),
                             prec) for _ in range(d))
            y = tuple(Dyadic(rng.getrandbits(prec + 4) - (1 << (prec + 3)),
                             prec) for _ in range(d))
            vectors += 2
            vx, vy = norm.evaluate(x), norm.evaluate(y)
            want = combine(abs(c.as_fraction()) for c in x)
            assert vx.as_fraction() == want
            assert norm.evaluate(tuple(-c for c in x)) == vx
            s = norm.evaluate(tuple(a + b for a, b in zip(x, y)))
            assert s.as_fraction() <= vx.as_fraction() + vy.as_fraction()
            if any(c.mantissa for c in x):
                assert vx.mantissa > 0
    assert vectors >= AXIOM_VECTORS
    zero = (Dyadic(0, 3), Dyadic(0, 3))
    assert preset("linf", 2).evaluate(zero).mantissa == 0

    for _ in range(2000):
        prec = rng.randint(0, 40)
        d = Dyadic(rng.getrandbits(prec + 5) - (1 << (prec + 4)), prec)
        assert Dyadic.from_fraction(d.as_fraction()) == d
        if d.mantissa >= 0:
            pad = -(prec + 5) & 3
            assert int(mantissa_to_hex(d.mantissa, prec + 5), 16) >> pad \
                == d.mantissa

    for norm in (preset("linf", 2), preset("linf", 5), preset("l1", 2),
                 preset("l1", 3)):
        c = min_margin(norm)
        assert margin_ok(norm, c) and not margin_ok(norm, c - 1)

    # generate's output passes BlockSchedule's checks, run again here
    for alpha in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        for margin in (3, 4):
            sched = sch.generate(alpha, margin, 2, m=[1, 16, 32, 96])
            assert sch.BlockSchedule(*sched) == sched
    sched = sch.generate(Fraction(1, 2), 3, 2, K=4)
    assert sch.BlockSchedule(*sched) == sched

    spec = desk_spec
    point = build_point(spec, 5)
    a, b = spec.schedule.blocks[2].a, spec.schedule.blocks[2].b
    coord = Dyadic(point.mantissas[0], point.precision)
    place = next(j for j in range(a + 1, b + 1) if not coord.bit(j))
    mutated = SamplePoint((coord.mantissa | 1 << (coord.precision - place),
                           point.mantissas[1]), point.precision,
                          point.index)
    assert verify_point(point, spec).ok
    assert (3, "membership", place) in verify_point(mutated, spec).failures

    pts = [build_point(spec, i) for i in range(20)]
    again = [build_point(spec, i) for i in range(20)]
    assert [p.mantissas for p in pts] == [p.mantissas for p in again]
    write_points(tmp_path / "a.txt", pts, "f" * 64)
    write_points(tmp_path / "b.txt", pts, "f" * 64)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    back, mhash = read_points(tmp_path / "a.txt")
    assert mhash == "f" * 64
    assert [(p.mantissas, p.precision, p.index) for p in back] == \
        [(p.mantissas, p.precision, p.index) for p in pts]
    print(f"OK property suites: {vectors} norm vectors, 2000 round-trips, "
          f"margin minimality, schedule validation, mutation kill, "
          f"deterministic rerun, file round-trip")


def _meet(a, b):
    """Intersection of two closure-flagged segments (lo, hi, lo_in, hi_in)."""
    if a[0] > b[0]:
        lo, lo_in = a[0], a[2]
    elif b[0] > a[0]:
        lo, lo_in = b[0], b[2]
    else:
        lo, lo_in = a[0], a[2] and b[2]
    if a[1] < b[1]:
        hi, hi_in = a[1], a[3]
    elif b[1] < a[1]:
        hi, hi_in = b[1], b[3]
    else:
        hi, hi_in = a[1], a[3] and b[3]
    if lo < hi or (lo == hi and lo_in and hi_in):
        return (lo, hi, lo_in, hi_in)
    return None


def _cell_meets(system, i, r):
    """Does level-r cell i meet the slab set?  Exact rational sweep over the
    admissible sub-segments; all groups and windows must hold at one x."""
    segs = [(Fraction(i, 1 << r), Fraction(i + 1, 1 << r), True, False)]
    for g in system.groups:
        v = Fraction(g.mantissas[0], 1 << g.precision)
        for a, b in g.windows:
            q, wd = Fraction(1, 1 << a), Fraction(1, 1 << b)
            refined = []
            for seg in segs:
                img = sorted((v * seg[0], v * seg[1]))
                k = img[0] // q - 1
                while k * q <= img[1]:
                    band_lo, band_hi = k * q, k * q + wd
                    k += 1
                    if v > 0:
                        pre = (band_lo / v, band_hi / v, True, False)
                    else:
                        pre = (band_hi / v, band_lo / v, False, True)
                    cut = _meet(seg, pre)
                    if cut:
                        refined.append(cut)
            segs = refined
            if not segs:
                return False
    return True


def test_08_independent_oracle_equivalences(desk_spec):
    checked = 0
    for spec in (desk_spec,
                 make_spec(2, Fraction(5, 4), preset("linf", 2), seed=3,
                           m=[1, 16, 32, 96])):
        system = dm.slab_system(spec)
        for r in range(1, DECOUPLED_DEPTH + 1):
            assert dm.count_exact(system, r).count == \
                dm.decoupled_count(system, r)
            checked += 1

    lines = [
        dm.SlabSystem(1, 12, (dm.SlabGroup((1,), 0, ((2, 4),)),)),
        dm.SlabSystem(1, 12, (dm.SlabGroup((3,), 1, ((1, 3), (5, 7))),)),
        dm.SlabSystem(1, 12, (dm.SlabGroup((-2,), 0, ((0, 2),)),)),
        dm.SlabSystem(1, 12, (dm.SlabGroup((5,), 2, ((3, 6),)),)),
        dm.SlabSystem(1, 12, (dm.SlabGroup((1,), 0, ((1, 2),)),
                              dm.SlabGroup((3,), 1, ((4, 6),)))),
    ]
    enumerated = 0
    for system in lines:
        for r in range(1, ENUM_DEPTH + 1):
            direct = sum(_cell_meets(system, i, r) for i in range(1 << r))
            assert dm.count_exact(system, r).count == direct
            enumerated += 1

    rng = random.Random(0x0FFE)
    exhaustive = 0
    for _ in range(200):
        c = 3
        split = rng.randint(1, 20)
        width = rng.randint(2 * c + 1, EXHAUSTIVE_WIDTH)
        block_end = split + width
        pp = rng.randint(0, 3)
        pm = rng.randint(max(1, 1 << (pp - c + 3)), 1 << (pp + c - 3))
        ps_prec = block_end + pp + 2
        ps = Dyadic(rng.getrandbits(ps_prec + 1), ps_prec)
        got = solve_pivot_offset(ps, Dyadic(pm, pp), split, block_end, c)
        a, b = split + c, block_end - c
        t = block_end - 1
        vpiv = Fraction(pm, 1 << pp)
        base = ps.as_fraction()
        lo, wd = Fraction(1, 1 << (b + 1)), Fraction(1, 1 << (b + 2))
        first = None
        for u in range(1 << width):
            val = (base + u * vpiv / (1 << t)) % Fraction(1, 1 << a)
            if lo <= val < lo + wd:
                first = u
                break
        assert first == got
        exhaustive += 1
    print(f"OK oracle equivalences: {checked} decoupled-product scales, "
          f"{enumerated} enumerated slab scales, {exhaustive} exhaustive "
          f"offset searches")

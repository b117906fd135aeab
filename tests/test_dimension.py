import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyfrac.cli import _ratio_text
from polyfrac.construct import SamplePoint, make_spec
from polyfrac.dimension import (BoxCount, ComplexityProfile,
                                ExactCount,
                                SlabGroup, SlabSystem, count_exact,
                                count_point_cells, count_value_cells,
                                decoupled_count, dim_lower_estimate,
                                distance_slack,
                                falconer_check, profile_c_aware, profile_ideal,
                                sampled_distance_series, sampled_point_series,
                                slab_system)
from polyfrac.dyadic import Dyadic
from polyfrac.errors import BudgetExceeded, InsufficientData, OutOfRange
from polyfrac.norms import preset


def spec_for(name, s, m=(1, 16, 32, 96)):
    return make_spec(2, Fraction(s), preset(name, 2), seed=0, m=list(m))


@pytest.fixture(scope="module")
def desk_system():
    return slab_system(spec_for("linf", "3/2"))


@pytest.fixture(scope="module")
def l1_system():
    return slab_system(spec_for("l1", "3/2"))


def lattice_cells(system: SlabSystem, r: int) -> int:
    """Cells certified by a depth-precision lattice point (a lower bound:
    a cell can also meet a slab strictly between lattice points)."""
    dim, depth = system.dim, system.depth
    mask = (1 << depth) - 1
    cells = set()
    for packed in range(1 << (dim * depth)):
        coords = [(packed >> (i * depth)) & mask for i in range(dim)]
        ok = True
        for g in system.groups:
            s = sum(v * Fraction(c, 1 << depth)
                    for v, c in zip(g.mantissas, coords)) / (1 << g.precision)
            for a, b in g.windows:
                if not s % Fraction(1, 1 << a) < Fraction(1, 1 << b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cells.add(tuple(c >> (depth - r) for c in coords))
    return len(cells)


def _clip(seg, lo, hi):
    # intersect (s_lo, s_hi] style segment with the half-open band [lo, hi)
    s_lo, s_hi, lo_in, hi_in = seg
    if lo > s_lo:
        s_lo, lo_in = lo, True
    if hi < s_hi or (hi == s_hi and hi_in):
        s_hi, hi_in = hi, False
    if s_lo < s_hi or (s_lo == s_hi and lo_in and hi_in):
        return (s_lo, s_hi, lo_in, hi_in)
    return None


def strip_cells(system: SlabSystem, r: int) -> int:
    """Exact oracle for single-group systems: the slab conditions constrain
    only the scalar image v . x, so per-cell interval reasoning is exact."""
    (g,) = system.groups
    scale = Fraction(1, 1 << (r + g.precision))
    neg = sum(v for v in g.mantissas if v < 0)
    pos = sum(v for v in g.mantissas if v > 0)
    count = 0
    for packed in range(1 << (r * system.dim)):
        coords = [(packed >> (i * r)) & ((1 << r) - 1)
                  for i in range(system.dim)]
        base = sum(v * c for v, c in zip(g.mantissas, coords)) * scale
        # the image of the half-open cell is an interval, open at any end
        # reached only through an excluded upper face
        segs = [(base + neg * scale, base + pos * scale, neg == 0, pos == 0)]
        for a, b in g.windows:
            q, w = Fraction(1, 1 << a), Fraction(1, 1 << b)
            nxt = []
            for seg in segs:
                k = math.floor(seg[0] / q)
                while k * q < seg[1] or (k * q == seg[1] and seg[3]):
                    piece = _clip(seg, k * q, k * q + w)
                    if piece:
                        nxt.append(piece)
                    k += 1
            segs = nxt
            if not segs:
                break
        if segs:
            count += 1
    return count


# -- slab systems ----------------------------------------------------------

def test_slab_system_from_spec(desk_system, l1_system):
    g0, g1 = desk_system.groups
    assert (g0.mantissas, g0.windows) == ((1, 0), ((12, 13), (67, 93)))
    assert (g1.mantissas, g1.windows) == ((0, 1), ((27, 29),))
    assert desk_system.depth == 96
    h0, h1 = l1_system.groups
    assert (h0.mantissas, h0.windows) == ((1, 1), ((14, 15), (80, 110)))
    assert (h1.mantissas, h1.windows) == ((1, -1), ((33, 34),))


def test_slab_system_vacuous_at_full_dimension():
    assert slab_system(spec_for("linf", 2)).groups == ()


def test_slab_group_validation():
    with pytest.raises(OutOfRange):
        SlabGroup((0, 0), 0, ((1, 2),))
    with pytest.raises(OutOfRange):
        SlabGroup((1,), 0, ((3, 2),))
    with pytest.raises(OutOfRange):
        SlabGroup((1,), 0, ((1, 4), (3, 6)))  # overlap
    with pytest.raises(OutOfRange):
        SlabSystem(2, 8, (SlabGroup((1,), 0, ((1, 2),)),))  # dim mismatch
    with pytest.raises(OutOfRange):
        SlabSystem(1, 4, (SlabGroup((1,), 0, ((2, 6),)),))  # too deep


# -- exact counting vs oracles ---------------------------------------------

def test_single_window_frozen():
    sys1 = SlabSystem(1, 6, (SlabGroup((1,), 0, ((2, 4),)),))
    got = count_exact(sys1, 4)
    assert got.exact and got.count == 4
    assert got.count == strip_cells(sys1, 4) == lattice_cells(sys1, 4)


def test_scale_zero_and_no_groups():
    sys1 = SlabSystem(2, 4, ())
    assert count_exact(sys1, 0).count == 1
    assert count_exact(sys1, 3).count == 1 << 6


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_one_dimensional_systems_match_enumeration(data):
    depth = data.draw(st.integers(min_value=4, max_value=10))
    v = data.draw(st.integers(min_value=-5, max_value=5).filter(bool))
    pv = data.draw(st.integers(min_value=0, max_value=2))
    edges = data.draw(st.lists(st.integers(min_value=0, max_value=depth),
                               min_size=2, max_size=4, unique=True))
    edges.sort()
    wins = tuple((edges[i], edges[i + 1]) for i in range(0, len(edges) - 1, 2))
    system = SlabSystem(1, depth, (SlabGroup((v,), pv, wins),))
    r = data.draw(st.integers(min_value=1, max_value=depth))
    got = count_exact(system, r)
    assert got.exact
    assert got.count == strip_cells(system, r)
    assert lattice_cells(system, r) <= got.count


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_coupled_planar_systems_match_enumeration(data):
    depth = 6
    m1 = data.draw(st.integers(min_value=-3, max_value=3))
    m2 = data.draw(st.integers(min_value=-3, max_value=3))
    if not (m1 or m2):
        m1 = 1
    pv = data.draw(st.integers(min_value=0, max_value=1))
    a = data.draw(st.integers(min_value=0, max_value=4))
    b = data.draw(st.integers(min_value=a + 1, max_value=6))
    system = SlabSystem(2, depth, (SlabGroup((m1, m2), pv, ((a, b),)),))
    r = data.draw(st.integers(min_value=1, max_value=depth))
    got = count_exact(system, r)
    oracle = strip_cells(system, r)
    assert got.lower <= oracle <= got.upper
    assert got.exact and got.count == oracle


def test_two_group_coupled_frozen():
    system = SlabSystem(2, 6, (SlabGroup((1, 1), 0, ((1, 3),)),
                               SlabGroup((1, -1), 0, ((4, 6),))))
    got = [count_exact(system, r).count for r in range(1, 7)]
    assert got == [4, 16, 32, 96, 320, 576]
    # lattice points only certify cells from below; slabs this thin meet
    # many cells strictly between depth-6 lattice points
    assert lattice_cells(system, 6) <= got[-1]
    with pytest.raises(OutOfRange):
        decoupled_count(system, 4)  # not in product form


def test_desk_counts_equal_product_formula(desk_system):
    for r in range(1, 97):
        assert count_exact(desk_system, r).count == \
            decoupled_count(desk_system, r)
    assert count_exact(desk_system, 96).count == 1 << 163


def test_l1_counts_frozen(l1_system):
    assert count_exact(l1_system, 19).count == 146028888064
    assert count_exact(l1_system, 38).count == 20070059803995805843456
    deep = count_exact(l1_system, 114)
    assert deep.exact
    assert round(math.log2(deep.count), 4) == 196.0875


def _triples(system, scales):
    return {r: (e.lower, e.upper, e.examined)
            for r, e in ((r, count_exact(system, r)) for r in scales)}


def _deep_system():
    # l1 d=3 geometric K=6 ratio 2: windows end at places 1915 and 11515,
    # far below any level the walk reaches
    spec = make_spec(3, Fraction(9, 4), preset("l1", 3), seed=0, K=6, ratio=2)
    return slab_system(spec)


def _spatial_system():
    # a group that keeps a window but loses its tail, and a top-attained
    # group all of whose windows lie past the cap; r >= 8 stays undecided
    return SlabSystem(3, 64, (
        SlabGroup((1, 1, 1), 0, ((2, 5),)),
        SlabGroup((1, -1, 1), 0, ((6, 9), (50, 53))),
        SlabGroup((-1, -1, -1), 1, ((60, 64),))))


def test_deep_geometric_counts_frozen():
    # r >= 32 stays undecided
    system = _deep_system()
    assert system.depth == 11520
    assert _triples(system, (8, 12, 16, 32, 96, 192, 384)) == {
        8: (16777216, 16777216, 64),
        12: (68719476736, 68719476736, 1597),
        16: (149533581377536, 149533581377536, 1733),
        32: (10522499778658698075932983296,
             10522500368954508434638635008, 5442),
        96: (240291200809860268824094719563482961228940329118137994626611970184348434432,
             240291200809860268824142610779885838921215486606668819482444494956453167104,
             17400),
        192: (429049853758163107186368799942587076079339706258956588087153966199096448962353503257659977541340909686081019461967553627320124249982290238285876768194691072,
              643574780637244660779553199914388305103040470312457475490644137473710507570310897224121453335893247263147171508857217104720590296445696567791599608576081920,
              66417),
        384: (287392224937801894015672842994585033946252945363650108037610625710510602990858323554083021195717050487797188852760305815413279542918134076158584748354559219120433347665356336325431948210887274718491334919976275137726138346138319855832556967831784239355763755425909838970880,
              287392224937801894015672842994585033946252945363650108037610625710510602990858323554083023320269021754865583726287082553794609697327426147651977969858979224700575284638474934484034573373069230392840281377774921497434777942003626651842495135298924354729465787563563823398912,
              166752),
    }


def test_coupled_fine_windows_frozen():
    # the (40, 44] window starts past the walk's depth cap below r=16
    planar = SlabSystem(2, 44, (SlabGroup((1, 1), 0, ((1, 3),)),
                                SlabGroup((1, -1), 0, ((4, 6), (40, 44)))))
    counts = [4, 16, 32, 96, 320, 576, 1600, 5248, 18688, 70144, 271360,
              1067008, 4231168, 16850944, 67256320, 268730368]
    examined = [4, 62, 68, 76, 120, 130, 144, 164, 184, 204, 224, 244, 264,
                284, 304, 324]
    assert _triples(planar, range(1, 17)) == {
        r: (c, c, n) for r, (c, n) in enumerate(zip(counts, examined), 1)}
    assert _triples(_spatial_system(), range(1, 17)) == {
        1: (8, 8, 8), 2: (64, 64, 16), 3: (512, 512, 145),
        4: (3072, 3072, 161), 5: (12288, 12288, 181),
        6: (65536, 65536, 205), 7: (393216, 393216, 554),
        8: (1835008, 1966080, 880), 9: (6815744, 7077888, 956),
        10: (34603008, 35651584, 1036), 11: (205520896, 207618048, 1137),
        12: (1358954496, 1363148800, 1273),
        13: (9730785280, 9739173888, 1409),
        14: (73282879488, 73299656704, 1545),
        15: (568009424896, 568042979328, 1681),
        16: (4471060955136, 4471128064000, 1817),
    }


def test_decoupled_formula_by_hand(desk_system):
    # r=20 sees only the (12, 13] window: 2*20 - 1 free digits
    assert decoupled_count(desk_system, 20) == 1 << 39
    assert decoupled_count(desk_system, 96) == 1 << 163
    with pytest.raises(OutOfRange):
        decoupled_count(desk_system, 97)


def test_count_scale_range(desk_system):
    with pytest.raises(OutOfRange):
        count_exact(desk_system, -1)
    with pytest.raises(OutOfRange):
        count_exact(desk_system, 97)


def test_budget_exhaustion(l1_system):
    with pytest.raises(BudgetExceeded) as err:
        count_exact(l1_system, 114, budget=100)
    assert err.value.scale == 114
    assert err.value.examined == 101


# a walk that runs out raises at the first node past the budget, wherever
# that node falls: level walk, refinement search or a top-attained group;
# each case is (system, r, examined at r)
_BUDGET_CASES = {"spatial": (_spatial_system(), 8, 880),
                 "deep": (_deep_system(), 12, 1597)}


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(_BUDGET_CASES)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.integers(min_value=0, max_value=_BUDGET_CASES[name][2] - 1))))
@example(("spatial", 0))
@example(("spatial", 879))
@example(("deep", 1596))
def test_budget_counts_every_node(case):
    name, budget = case
    system, r, examined = _BUDGET_CASES[name]
    with pytest.raises(BudgetExceeded) as err:
        count_exact(system, r, budget=budget)
    assert err.value.examined == budget + 1
    assert err.value.scale == r


def test_budget_equal_to_examined_suffices():
    for system, r, examined in _BUDGET_CASES.values():
        assert count_exact(system, r, budget=examined).examined == examined


def test_exact_count_gap_raises():
    gap = ExactCount(5, 10, 12, 999)
    assert not gap.exact
    with pytest.raises(BudgetExceeded) as err:
        gap.count
    assert err.value.examined == 999 and err.value.scale == 5
    assert ExactCount(5, 10, 10, 1).count == 10


# -- sampled counting ------------------------------------------------------

def test_count_value_cells():
    vals = [(1, 2), (5, 4), (3, 2)]  # (mantissa, precision) pairs
    assert count_value_cells(vals, 2) == 2  # 1/4 and 5/16 share a cell
    assert count_value_cells(vals, 4) == 3


def test_count_point_cells():
    pts = [SamplePoint((4, 12), 4, "sample", 0),
           SamplePoint((5, 12), 4, "sample", 1)]
    assert count_point_cells(pts, 0) == 1  # all of [0, 1)**2
    assert count_point_cells(pts, 2) == 1
    assert count_point_cells(pts, 4) == 2
    assert count_point_cells(pts, 7) == 2  # finer than the points: no split
    # the same point (1/4, 3/4) at precision 2 shares pts[0]'s cell
    mixed = pts + [SamplePoint((1, 3), 2, "sample", 2)]
    for r in range(10):
        want = len({tuple(Dyadic(m, p.precision).floor_scaled(r)
                          for m in p.mantissas) for p in mixed})
        assert count_point_cells(mixed, r) == want


def test_sampled_series_mode_rule():
    vals = [(1, 3)] * 100 + [(5, 3)] * 100
    # one entry per scale, in the order the scales are given
    assert sampled_distance_series(vals, [3, 0]) == (
        BoxCount(3, 2, "sampled"),  # exactly 100x the 2 cells
        BoxCount(0, 1, "sampled"))  # 200 samples vs 1 cell
    assert sampled_distance_series(vals[:199], [3]) == (
        BoxCount(3, 2, "saturated"),)
    assert sampled_distance_series(vals, []) == ()


def test_sampled_point_series_modes():
    pts = [SamplePoint((i % 2,), 1, "sample", i) for i in range(300)]
    assert sampled_point_series(pts, [1]) == (BoxCount(1, 2, "sampled"),)


# -- profiles --------------------------------------------------------------

def test_desk_set_profiles():
    sched = spec_for("linf", "3/2").schedule
    ideal = profile_ideal(sched, 2)
    assert [ideal.value_at(r) for r in (16, 32, 96)] == [23, 47, 143]
    ratios = [ideal.ratio(r) for r in (16, 32, 96)]
    assert ratios == sorted(ratios)
    assert all(q < Fraction(3, 2) for q in ratios)
    aware = profile_c_aware(sched, 2)
    assert aware.value_at(16) == 29
    assert ideal.value_at(0) == 0
    with pytest.raises(OutOfRange):
        ideal.value_at(97)
    with pytest.raises(OutOfRange):
        ideal.ratio(0)


@pytest.mark.parametrize("name,s,values", [
    ("linf", "1", (15, 31, 95)),
    ("linf", "5/4", (19, 39, 119)),
    ("linf", "3/2", (23, 47, 143)),
    ("linf", "2", (30, 62, 190)),
])
def test_set_profile_family_frozen(name, s, values):
    sched = spec_for(name, s).schedule
    ideal = profile_ideal(sched, 2)
    got = tuple(ideal.value_at(r) for r in sched.bounds[1:])
    assert got == values


def test_widened_set_profiles_frozen():
    sched = spec_for("linf", "7/4").schedule
    assert sched.bounds == (1, 29, 58, 174)
    ideal = profile_ideal(sched, 2)
    assert [ideal.value_at(r) for r in (29, 58, 174)] == [49, 100, 303]
    l1s = spec_for("l1", "3/2").schedule
    assert profile_ideal(l1s, 2).value_at(19) == 27
    l17 = spec_for("l1", "7/4").schedule
    assert profile_ideal(l17, 2).value_at(37) == 63


@pytest.mark.parametrize("name,s,ell,points", [
    ("linf", "3/2", 0, [(13, 9), (93, 57)]),
    ("linf", "3/2", 1, [(29, 24)]),
    ("linf", "7/4", 0, [(26, 22), (171, 138)]),
    ("linf", "7/4", 1, [(55, 51)]),
    ("linf", "5/4", 0, [(13, 5), (93, 37)]),
    ("linf", "5/4", 1, [(29, 20)]),
    ("l1", "3/2", 0, [(15, 10), (110, 67)]),
    ("l1", "3/2", 1, [(34, 29)]),
    ("l1", "7/4", 0, [(33, 28), (218, 176)]),
    ("l1", "7/4", 1, [(70, 65)]),
])
def test_distance_profile_frozen(name, s, ell, points):
    sched = spec_for(name, s).schedule
    prof = profile_ideal(sched, 2, ell=ell)
    for r, expect in points:
        assert prof.value_at(r) == expect


def test_distance_checkpoints_frozen():
    # each checkpoint tops its block's window, with n_k digits as its bound
    sched = spec_for("linf", "3/2").schedule
    assert [(w.b, w.split) for w in sched.of_functional(0)] == [(13, 9),
                                                                (93, 64)]
    assert [(w.b, w.split) for w in sched.of_functional(1)] == [(29, 24)]


def test_checkpoint_scales_match_profile_plateaus():
    # at each checkpoint the ideal distance profile has finished the plateau
    for name, s in (("linf", "3/2"), ("l1", "7/4")):
        spec = spec_for(name, s)
        for ell in range(2):
            prof = profile_ideal(spec.schedule, 2, ell=ell)
            for w in spec.schedule.of_functional(ell):
                assert prof.value_at(w.b) == prof.value_at(w.b - 1)  # slope 0


def test_distance_c_aware_profile():
    sched = spec_for("linf", "3/2").schedule
    prof = profile_c_aware(sched, 2, ell=0)
    assert prof.value_at(13) == 12
    assert prof.value_at(93) == 66


@settings(deadline=None, max_examples=20)
@given(dim=st.sampled_from([2, 3]), name=st.sampled_from(["linf", "l1"]),
       alpha=st.fractions(0, 1, max_denominator=8), K=st.integers(0, 6),
       ratio=st.sampled_from([1, Fraction(3, 2), 2, 3]))
@example(dim=3, name="l1", alpha=Fraction(0), K=0, ratio=2)
@example(dim=2, name="linf", alpha=Fraction(0), K=6, ratio=1)
def test_profile_values_match_value_at(dim, name, alpha, K, ratio):
    # the one-pass curve and the CLI's reduced ratio text against the
    # per-place reference, on every base of geometric schedules; depths past
    # 6000 cost seconds here, and the CLI's profile pins cover the
    # 11520-place deep schedule byte for byte
    spec = make_spec(dim, dim - 1 + alpha, preset(name, dim), seed=0, K=K,
                     ratio=ratio)
    sched = spec.schedule
    assume(sched.depth <= 6000)
    for ell in [None, *range(sched.n_functionals)]:
        for kind in (profile_ideal, profile_c_aware):
            prof = kind(sched, dim, ell)
            got = prof.values()
            assert got == [prof.value_at(r) for r in range(prof.depth + 1)]
            for r in range(1, prof.depth + 1):
                q = prof.ratio(r)
                assert _ratio_text(got[r], r) == \
                    f"{q.numerator}/{q.denominator}"


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12),
                          st.integers(-3, 3)), min_size=1, max_size=5))
def test_profile_values_any_segment_list(segments):
    # unsorted, overlapping, gapped and reversed segments included, and
    # negative values for the ratio text
    prof = ComplexityProfile(tuple(segments))
    got = prof.values()
    assert got == [prof.value_at(r) for r in range(prof.depth + 1)]
    for r in range(1, prof.depth + 1):
        q = prof.ratio(r)
        assert _ratio_text(got[r], r) == f"{q.numerator}/{q.denominator}"


def _curve_digest(prof) -> str:
    text = ",".join(map(str, prof.values()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (ideal, c-aware) digests of P(0..depth) per base (None for the set) on
# geometric K=6 ratio 2 schedules; alpha = 1 leaves every window empty, so
# the two builders agree
@pytest.mark.parametrize("name,dim,alpha,pins", [
    ("linf", 2, Fraction(0), {
        None: ("db2de3c399e2834d", "77fbd5fa0700efc9"),
        0: ("e4517ad90c4800f8", "d84891fa032b765c"),
        1: ("1be9cf9ac65e3d55", "8c471ca6afe5c4b5")}),
    ("linf", 2, Fraction(1, 2), {
        None: ("564077ac909ea7df", "fc3e3a7478fd1867"),
        0: ("80966cd466ddc6b7", "f93e1e7043d6fd3b"),
        1: ("f21e86aed557c05b", "e277baf07df17195")}),
    ("linf", 2, Fraction(1), {
        None: ("eb7b84aa670a630f", "eb7b84aa670a630f"),
        0: ("f76925dc6c0d39c5", "f76925dc6c0d39c5"),
        1: ("f76925dc6c0d39c5", "f76925dc6c0d39c5")}),
    ("l1", 3, Fraction(0), {
        None: ("8aa6968c801667f5", "e7e761ea8c3cb345"),
        0: ("a8159c4e661e01db", "c8aae97bc08dee21"),
        1: ("eed362c890b831fd", "cca9a43e0999571f"),
        2: ("752ddc5e281a6e45", "834590535e2ad342"),
        3: ("17081147c0c21eb6", "02d40eac6892ff51")}),
    ("l1", 3, Fraction(1, 2), {
        None: ("b131703d8fc743a1", "272b57dc5a9df019"),
        0: ("500c369697fc7f0d", "e061be30fd03d649"),
        1: ("6ede6186070ab535", "6bbc87d8237bf382"),
        2: ("938be88ba3a3d517", "449212760da10957"),
        3: ("45f179447ac03e7e", "f06dbfc36d16ac4b")}),
    ("l1", 3, Fraction(1), {
        None: ("7d1188837112186a", "7d1188837112186a"),
        0: ("0feb958f8d540548", "0feb958f8d540548"),
        1: ("0feb958f8d540548", "0feb958f8d540548"),
        2: ("0feb958f8d540548", "0feb958f8d540548"),
        3: ("0feb958f8d540548", "0feb958f8d540548")}),
])
def test_profile_curves_frozen(name, dim, alpha, pins):
    sched = make_spec(dim, dim - 1 + alpha, preset(name, dim), seed=0, K=6,
                      ratio=2).schedule
    assert len(pins) == 1 + sched.n_functionals
    for ell, want in pins.items():
        got = tuple(_curve_digest(kind(sched, dim, ell))
                    for kind in (profile_ideal, profile_c_aware))
        assert got == want, ell


def test_distance_slack_frozen():
    assert distance_slack(3, 16) == 13
    assert distance_slack(4, 114) == 18


# -- estimators ------------------------------------------------------------

def counts_of(*pairs):
    return tuple(BoxCount(r, c, "exact") for r, c in pairs)


def test_dim_lower_estimate_frozen():
    got = dim_lower_estimate(counts_of((13, 512), (93, 1 << 57)))
    assert math.isclose(got, 57 / 93)
    assert math.isclose(dim_lower_estimate(counts_of((13, 512))), 9 / 13)


def test_dim_lower_estimate_errors():
    with pytest.raises(InsufficientData):
        dim_lower_estimate(())
    with pytest.raises(InsufficientData):
        dim_lower_estimate(counts_of((13, 512), (20, 0)))
    with pytest.raises(OutOfRange):
        dim_lower_estimate(counts_of((0, 1), (13, 512)))


@pytest.mark.parametrize("dim_set,dim_dist,ambient,tol,expect", [
    (1.5, 0.5, 2, 0.05, True),
    (2.0, 0.7, 2, 0.05, False),
    (1.0, 0.0, 2, 0.0, True),
])
def test_falconer_frozen(dim_set, dim_dist, ambient, tol, expect):
    rep = falconer_check(dim_set, dim_dist, ambient, tol)
    assert rep.passed is expect
    assert math.isclose(rep.threshold, dim_set - (ambient - 1) - tol)

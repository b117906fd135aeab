import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import polyhedral_specs
from polyfrac.cli import _profile_rows
from polyfrac.construct import SamplePoint, make_spec
from polyfrac.dimension import (_DFS_HEADROOM, _OUT, BoxCount,
                                ComplexityProfile, ExactCount,
                                SlabGroup, SlabSystem, _Group, _tables,
                                count_exact,
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


# Exact oracle for any slab system, coupled groups included: a cell meets
# the system when some choice of one band [k 2^-a, k 2^-a + 2^-b) per group
# and window leaves a nonempty linear system over the cell.  Each system is
# decided by Fourier-Motzkin elimination over Fraction bounds, with strict
# inequalities kept strict (Schrijver, Theory of Linear and Integer
# Programming, section 12.2): the half-open cell and bands meet only on a
# face in some systems, and there only exact strictness decides.  A row is
# an integer coefficient tuple c with (bound, strict): c . x < bound when
# strict, c . x <= bound otherwise.

def _add_row(rows, coeffs, bound, strict):
    """Add one row, keeping the tightest bound per direction; False when a
    row with no variable left is violated."""
    g = math.gcd(*coeffs)
    if not g:
        return bound > 0 or (bound == 0 and not strict)
    coeffs, bound = tuple(c // g for c in coeffs), bound / g
    old = rows.get(coeffs)
    if old is None or bound < old[0] or (bound == old[0] and strict):
        rows[coeffs] = (bound, strict)
    return True


def _eliminate(rows, n):
    """Rows over the variables past the first n whose solutions are the
    projection of rows' solutions, or None when that is empty."""
    for j in range(n):
        pos, neg, out = [], [], {}
        for c, (bound, strict) in rows.items():
            if c[j] > 0:
                pos.append((c, bound, strict))
            elif c[j] < 0:
                neg.append((c, bound, strict))
            else:
                out[c] = (bound, strict)
        for cp, bp, sp in pos:
            for cn, bn, sn in neg:
                p, q = cp[j], -cn[j]
                if not _add_row(out, tuple(q * x + p * y
                                           for x, y in zip(cp, cn)),
                                q * bp + p * bn, sp or sn):
                    return None
        rows = out
    return rows


def _nonempty(lo, lo_open, hi, hi_open):
    return lo < hi or (lo == hi and not (lo_open or hi_open))


def _span(rows, v):
    """(lo, lo_open, hi, hi_open) of v . x over the bounded rows, or None
    when they have no solution: eliminate x from the rows plus t = v . x."""
    dim = len(v)
    ext = {c + (0,): row for c, row in rows.items()}
    _add_row(ext, v + (-1,), Fraction(0), False)
    _add_row(ext, tuple(-c for c in v) + (1,), Fraction(0), False)
    out = _eliminate(ext, dim)
    if out is None:
        return None
    hi, hi_open = out[(0,) * dim + (1,)]
    lo, lo_open = out[(0,) * dim + (-1,)]
    span = (-lo, lo_open, hi, hi_open)
    return span if _nonempty(*span) else None


def _some_band_choice_fits(rows, todo):
    """Is there one band per window of todo that rows' solutions meet?

    Windows come coarsest first; each one's bands are those the exact span
    of its functional over rows meets, so a band that passes leaves rows
    nonempty and the last window needs no further check."""
    if not todo:
        return True
    (a, b, v, pv), rest = todo[0], todo[1:]
    span = _span(rows, v)
    if span is None:
        return False
    lo, lo_open, hi, hi_open = span
    # v . x is 2^pv times the group's value s, so its bands scale alike
    period, width = Fraction(1 << pv, 1 << a), Fraction(1 << pv, 1 << b)
    for k in range(math.floor(lo / period), math.floor(hi / period) + 1):
        bot, top = k * period, k * period + width
        low = (lo, lo_open) if lo >= bot else (bot, False)
        high = (hi, hi_open) if hi < top else (top, True)
        if not _nonempty(*low, *high):
            continue
        chosen = dict(rows)
        _add_row(chosen, tuple(-c for c in v), -bot, False)
        _add_row(chosen, v, top, True)
        if _some_band_choice_fits(chosen, rest):
            return True
    return False


def polytope_cells(system: SlabSystem, r: int) -> int:
    """Level-r cells meeting the system, decided cell by cell."""
    dim = system.dim
    todo = sorted((a, b, g.mantissas, g.precision)
                  for g in system.groups for a, b in g.windows)
    count = 0
    for corner in itertools.product(range(1 << r), repeat=dim):
        rows = {}
        for i, c in enumerate(corner):
            unit = tuple(int(j == i) for j in range(dim))
            _add_row(rows, tuple(-u for u in unit), Fraction(-c, 1 << r),
                     False)
            _add_row(rows, unit, Fraction(c + 1, 1 << r), True)
        count += _some_band_choice_fits(rows, todo)
    return count


@st.composite
def coupled_systems(draw):
    """(system, r): d = 2-3, 2-3 groups with coefficients in [-3, 3] at
    precision 0-2, windows within depth 8; the first group has no positive
    coefficient, so its image is closed at the top."""
    dim = draw(st.integers(2, 3))
    groups = []
    for i in range(draw(st.integers(2, 3))):
        m = draw(st.lists(st.integers(-3, 3), min_size=dim,
                          max_size=dim).filter(any))
        if i == 0:
            m = [-abs(v) for v in m]
        edges = sorted(draw(st.lists(st.integers(0, 8), min_size=2,
                                     max_size=4, unique=True)))
        groups.append(SlabGroup(tuple(m), draw(st.integers(0, 2)),
                                tuple(zip(edges[::2], edges[1::2]))))
    # whole-cube enumeration: at most 256 cells in the plane, 64 in space
    r = draw(st.integers(1, 4 if dim == 2 else 2))
    return SlabSystem(dim, 8, tuple(groups)), r


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
    # whole (r, lower, upper, examined) triples: the level walk counts
    # these systems like any other
    bare = SlabSystem(2, 4, ())
    windowless = SlabSystem(2, 6, (SlabGroup((1, 1), 0, ()),
                                   SlabGroup((1, -1), 0, ((1, 3),))))
    assert [tuple(count_exact(bare, r)) for r in (0, 1, 3)] == [
        (0, 1, 1, 0), (1, 4, 4, 0), (3, 64, 64, 0)]
    assert [tuple(count_exact(windowless, r)) for r in (0, 1, 3)] == [
        (0, 1, 1, 0), (1, 4, 4, 4), (3, 32, 32, 42)]
    # some states' children lie inside every slab of both groups
    nested = SlabSystem(1, 12, (
        SlabGroup((-4,), 1, ((0, 1), (3, 5), (6, 8))),
        SlabGroup((-2,), 1, ((4, 6), (7, 11)))))
    assert tuple(count_exact(nested, 12)) == (12, 48, 48, 97)
    assert polytope_cells(nested, 6) == count_exact(nested, 6).count


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_the_origin_cell_always_counts(data):
    # every slab holds 0, the image of the origin under every functional,
    # so the root cell meets every coupled system and no count is 0
    dim = data.draw(st.integers(1, 3))
    groups = []
    for _ in range(data.draw(st.integers(1, 3))):
        m = data.draw(st.lists(st.integers(-4, 4), min_size=dim,
                               max_size=dim).filter(any))
        edges = sorted(data.draw(st.lists(st.integers(0, 8), min_size=2,
                                          max_size=6, unique=True)))
        groups.append(SlabGroup(tuple(m), data.draw(st.integers(0, 2)),
                                tuple(zip(edges[::2], edges[1::2]))))
    got = count_exact(SlabSystem(dim, 8, tuple(groups)),
                      data.draw(st.integers(0, 4)))
    assert 1 <= got.lower <= got.upper


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


def test_polytope_oracle_reproduces_the_coupled_pins():
    # the two-group counts above, and one-group systems against strip_cells
    system = SlabSystem(2, 6, (SlabGroup((1, 1), 0, ((1, 3),)),
                               SlabGroup((1, -1), 0, ((4, 6),))))
    assert [polytope_cells(system, r) for r in range(1, 7)] == [
        4, 16, 32, 96, 320, 576]
    for g in system.groups + (SlabGroup((-1, -3), 1, ((0, 1), (2, 4))),):
        one = SlabSystem(2, 6, (g,))
        for r in range(1, 5):
            assert polytope_cells(one, r) == strip_cells(one, r)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(coupled_systems())
def test_count_exact_brackets_the_polytope_oracle(case):
    system, r = case
    got = count_exact(system, r)
    assert got.lower <= polytope_cells(system, r) <= got.upper


@settings(derandomize=True, deadline=None, max_examples=6)
@given(spec=polyhedral_specs())
def test_count_exact_brackets_the_oracle_on_generated_norms(spec):
    # windows start past place 6 here, so at these scales each cell's image
    # spans many bands; the oracle still decides every band choice
    system = slab_system(spec)
    for r in range(1, 4 if system.dim == 2 else 3):
        got = count_exact(system, r)
        assert got.lower <= polytope_cells(system, r) <= got.upper


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


def test_deep_block_end_counts_frozen():
    # past r = 384, through the window (773, 1915] to the first block
    # end; both scales stay undecided.  Per scale: examined, the bit
    # lengths of lower, upper and the gap, and a digest of lower and upper
    got = {}
    for r in (768, 1920):
        e = count_exact(_deep_system(), r)
        got[r] = (e.examined, e.lower.bit_length(), e.upper.bit_length(),
                  (e.upper - e.lower).bit_length(), hashlib.sha256(
                      f"{e.lower} {e.upper}".encode()).hexdigest()[:16])
    assert got == {768: (539504, 2058, 2058, 994, "078a7faaa756f533"),
                   1920: (1456957, 4372, 4372, 2828, "eb38f47a191936a7")}


def _check_rows_repeat(system, top: int) -> int:
    """Walk each windowed group of system alone to level top, classifying
    raw states as the walk did before it held them by edge-relative class.
    At every level, the row the group's table returns for a state's held
    form must be the held form of the row classified afresh at that level,
    held forms must give back the raw state, and a held form's corner test
    must agree with the first one made in its stretch.  Returns how many
    rows were read from a table that an earlier level of a stretch
    filled."""
    active = [g for g in system.groups if g.windows]
    cap = min(max(top, g.windows[-1][1]) for g in active) + _DFS_HEADROOM
    reused = 0
    for group in active:
        g = _Group(group, cap, system.dim)
        corners = _tables(g.odd, cap, 1)
        shift = g.qg - g.pv
        states = {g.classify(0, -g.negabs << shift, g.lenbase << shift)}
        for q in range(1, top + 1):
            shared = g.rows[q] is g.rows[q - 1]
            nxt = set()
            for st in states - {None}:
                held = g.form(st, q - 1)
                assert g.raw(held, q - 1) == st
                ok = g.corner_ok(held, q - 1)
                assert corners[q - 1].setdefault(held, ok) == ok
                reused += shared and held in g.rows[q]
                row = g.row(st, q)
                assert g.child_row(held, q) == tuple(g.form(c, q)
                                                     for c in row)
                nxt.update(c for c in row if c is not _OUT)
            states = nxt
    return reused


def test_stretch_rows_repeat_on_the_l1_systems():
    # deep's windows end at places 11, 27, 91 and 379 and the next starts
    # at 773, so its walk to 768 ends in a ~390-level stretch; the
    # m = [1, 16, 32, 96] system's last window ends at place 91
    pairwise = slab_system(make_spec(3, Fraction(9, 4), preset("l1", 3),
                                     seed=0, m=[1, 16, 32, 96]))
    for system in (_deep_system(), pairwise):
        assert _check_rows_repeat(system, 768) > 2000


@settings(derandomize=True, deadline=None, max_examples=60)
@given(coupled_systems())
def test_stretch_rows_repeat_on_coupled_systems(case):
    system, r = case
    _check_rows_repeat(system, r + _DFS_HEADROOM)


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


@pytest.mark.parametrize("r,budget", [
    (4.0, 10**8), (True, 10**8), (4, 1e8), (4, True)])
def test_count_refuses_inexact_scale_and_budget(desk_system, r, budget):
    # refused up front, not left to fail inside a shift
    with pytest.raises(OutOfRange):
        count_exact(desk_system, r, budget)


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
    # deep's r = 11520 gap has ~4900 decimal digits, past the default
    # int-to-str limit, and must still raise BudgetExceeded
    with pytest.raises(BudgetExceeded) as err:
        ExactCount(11520, 0, 1 << 16374, 7).count
    assert str(err.value) == ("cells undecided at scale 11520: upper - "
                              "lower is a 16375-bit number")


# -- sampled counting ------------------------------------------------------

def test_count_value_cells():
    vals = [(1, 2), (5, 4), (3, 2)]  # (mantissa, precision) pairs
    assert count_value_cells(vals, 2) == 2  # 1/4 and 5/16 share a cell
    assert count_value_cells(vals, 4) == 3


def test_count_point_cells():
    pts = [SamplePoint((4, 12), 4, 0), SamplePoint((5, 12), 4, 1)]
    assert count_point_cells(pts, 0) == 1  # all of [0, 1)**2
    assert count_point_cells(pts, 2) == 1
    assert count_point_cells(pts, 4) == 2
    assert count_point_cells(pts, 7) == 2  # finer than the points: no split
    # the same point (1/4, 3/4) at precision 2 shares pts[0]'s cell
    mixed = pts + [SamplePoint((1, 3), 2, 2)]
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
    pts = [SamplePoint((i % 2,), 1, i) for i in range(300)]
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
    # the one-pass curve and the CLI's reduced ratio fields against the
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
            got = list(prof.values())
            assert got == [prof.value_at(r) for r in range(prof.depth + 1)]
            rows = list(_profile_rows(got[1:], got[1:]))
            assert [row[0] for row in rows] == list(range(1, prof.depth + 1))
            for r, row in enumerate(rows, 1):
                q = prof.ratio(r)
                assert row[3:5] == row[5:] == (q.numerator, q.denominator)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(-3, 3)),
                min_size=1, max_size=5))
def test_profile_values_any_segment_list(parts):
    # any contiguous list from 0, negative slopes included for the ratio
    # fields, against a place-by-place sum of slopes
    segments, lo = [], 0
    for length, slope in parts:
        segments.append((lo, lo + length, slope))
        lo += length
    prof = ComplexityProfile(tuple(segments))
    slopes = [s for lo, hi, s in segments for _ in range(lo, hi)]
    got = list(prof.values())
    assert got == [sum(slopes[:r]) for r in range(prof.depth + 1)]
    assert got == [prof.value_at(r) for r in range(prof.depth + 1)]
    rows = list(_profile_rows(got[1:], [0] * prof.depth))
    assert len(rows) == prof.depth
    for r, row in enumerate(rows, 1):
        q = prof.ratio(r)
        assert row[:5] == (r, got[r], 0, q.numerator, q.denominator)
        assert row[5:] == (0, 1)


@pytest.mark.parametrize("segments", [
    (),                                  # no segment
    ((1, 4, 1),),                        # not from 0
    ((-2, 4, 1),),                       # below 0
    ((0, 4, 1), (6, 9, 2)),              # gapped
    ((0, 4, 1), (3, 9, 2)),              # overlapping
    ((4, 9, 2), (0, 4, 1)),              # unsorted
    ((0, 4, 1), (9, 4, 2)),              # reversed
    ((0, 4, 1), (4, 4, 2), (4, 9, 1)),   # empty
], ids=["none", "late-start", "negative", "gapped", "overlapping",
        "unsorted", "reversed", "empty"])
def test_profile_refuses_noncontiguous_segments(segments):
    with pytest.raises(OutOfRange):
        ComplexityProfile(segments)


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

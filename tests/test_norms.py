from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polyfrac.dyadic import Dyadic
from polyfrac.errors import (BadPivot, DegenerateNorm, DimensionMismatch,
                             NonDyadicCoefficient, ZeroVector)
from polyfrac.norms import (Functional, PolyhedralNorm, custom_norm,
                            margin_ok, min_margin, preset)

vectors2 = st.lists(
    st.builds(Dyadic, st.integers(min_value=-1000, max_value=1000),
              st.integers(min_value=0, max_value=10)),
    min_size=2, max_size=2)


def test_linf_preset_shape():
    n = preset("linf", 3)
    assert n.n_functionals == 3
    assert [f.mantissas for f in n.functionals] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [f.pivot for f in n.functionals] == [0, 1, 2]


def test_l1_preset_shape():
    n = preset("l1", 3)
    assert [f.mantissas for f in n.functionals] == [
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    assert [f.pivot for f in n.functionals] == [0, 0, 0, 0]
    assert preset("l1", 1).n_functionals == 1


def test_preset_rejects():
    with pytest.raises(ValueError):
        preset("l2", 2)
    with pytest.raises(DimensionMismatch):
        preset("linf", 0)


def test_evaluate_frozen():
    linf = preset("linf", 2)
    l1 = preset("l1", 2)
    x = (Dyadic(3, 2), Dyadic(-5, 3))  # (3/4, -5/8)
    assert linf.evaluate(x) == Dyadic(3, 2)
    assert l1.evaluate(x) == Dyadic(11, 3)  # |3/4| + |5/8|
    assert l1.argmax((Dyadic(1, 1), Dyadic(1, 2))) == 0


@given(vectors2)
def test_linf_is_max_abs(x):
    expect = max(abs(v.as_fraction()) for v in x)
    assert preset("linf", 2).evaluate(x).as_fraction() == expect


@given(vectors2)
def test_l1_is_sum_abs(x):
    expect = sum(abs(v.as_fraction()) for v in x)
    assert preset("l1", 2).evaluate(x).as_fraction() == expect


def test_argmax_ties_and_zero():
    linf = preset("linf", 2)
    tie = (Dyadic(1, 1), Dyadic(-1, 1))
    assert linf.argmax(tie) == 0
    assert linf.argmax_all(tie) == [0, 1]
    assert linf.measure(tie) == (Dyadic(1, 1), (0, 1))
    zero = (Dyadic(0, 4), Dyadic(0, 2))
    assert linf.measure(zero) == (Dyadic(0, 0), (0, 1))
    with pytest.raises(ZeroVector):
        linf.argmax(zero)
    with pytest.raises(ZeroVector):
        linf.argmax_all(zero)
    # functionals 0 (x) and 1 (x at precision 1) always tie; the value must
    # be functional 0's Dyadic, which == (by value) cannot tell apart
    mixed = custom_norm([[[1, 0], [0, 0]], [[2, 1], [0, 0]],
                         [[0, 0], [3, 1]]])
    x = (Dyadic(5, 3), Dyadic(1, 3))
    value, ties = mixed.measure(x)
    assert ties == (0, 1)
    assert (value.mantissa, value.precision) == (5, 3)  # functional 1: (10, 4)
    value, ties = mixed.measure((Dyadic(0, 2), Dyadic(0, 2)))
    assert ties == (0, 1, 2)
    assert (value.mantissa, value.precision) == (0, 2)


def test_dot_dimension_mismatch():
    f = preset("linf", 2).functionals[0]
    with pytest.raises(DimensionMismatch):
        f.dot((Dyadic(1, 1),))
    with pytest.raises(DimensionMismatch):
        preset("l1", 3).measure((Dyadic(1, 1), Dyadic(0, 0)))
    with pytest.raises(DimensionMismatch):
        preset("l1", 3).measure(())
    # project takes integer vectors of the norm's length only: map(mul)
    # would drop the extra coordinates or the missing functional entries
    for mants in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(DimensionMismatch):
            preset("l1", 3).project(mants)
    with pytest.raises(DimensionMismatch):  # a functional of length 3
        PolyhedralNorm(2, [Functional((1, 0), 0, 0),
                           Functional((0, 1, 1), 0, 1)])


@st.composite
def norm_and_vector(draw):
    """A random custom norm (d = 1..4; rows at their own precisions, signed
    coefficients) and a vector of mixed-precision coordinates, or zero."""
    d = draw(st.integers(min_value=1, max_value=4))
    entry = st.tuples(st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=0, max_value=3))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                         min_size=d, max_size=d + 3))
    try:
        norm = custom_norm(rows)
    except (BadPivot, DegenerateNorm):
        assume(False)
    mantissa = (st.just(0) if draw(st.booleans())
                else st.integers(min_value=-300, max_value=300))
    x = draw(st.lists(st.builds(Dyadic, mantissa,
                                st.integers(min_value=0, max_value=6)),
                      min_size=d, max_size=d))
    return norm, tuple(x)


@given(norm_and_vector())
def test_measure_matches_dot_oracle(case):
    # the integer kernel against the max of |Functional.dot| per functional:
    # value with its precision (Dyadic == cannot see precision) and ties
    norm, x = case
    dots = [abs(f.dot(x)) for f in norm.functionals]
    top = max(d.as_fraction() for d in dots)
    ties = tuple(i for i, d in enumerate(dots) if d.as_fraction() == top)
    value, got_ties = norm.measure(x)
    expect = dots[ties[0]]
    assert (value.mantissa, value.precision) == (expect.mantissa,
                                                 expect.precision)
    assert got_ties == ties
    if not any(v.mantissa for v in x):
        assert ties == tuple(range(norm.n_functionals))


@st.composite
def norm_and_pair(draw):
    """A random custom norm (d = 1..4, d..5 functionals, coefficients at
    precisions 0..3, signed) and two integer vectors, equal half the time."""
    d = draw(st.integers(min_value=1, max_value=4))
    entry = st.tuples(st.integers(min_value=-4, max_value=4),
                      st.integers(min_value=0, max_value=3))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                         min_size=d, max_size=5))
    try:
        norm = custom_norm(rows)
    except (BadPivot, DegenerateNorm):
        assume(False)
    vector = st.lists(st.integers(min_value=-60, max_value=60),
                      min_size=d, max_size=d)
    x = draw(vector)
    y = x if draw(st.booleans()) else draw(vector)
    return norm, x, y, draw(st.integers(min_value=0, max_value=3))


@given(norm_and_pair())
def test_projection_difference_measures_the_difference(case):
    # ||x - y|| from the two projections alone: same value mantissa and
    # precision and the same ties as measuring x - y itself
    norm, x, y, prec = case
    proj = [a - b for a, b in zip(norm.project(x), norm.project(y))]
    mantissa, precision, ties = norm.measure_projection(proj, prec)
    expect = norm.measure_projection(
        norm.project([a - b for a, b in zip(x, y)]), prec)
    assert (mantissa, precision) == expect[:2]
    assert ties == expect[2]
    if x == y:
        assert mantissa == 0
        assert ties == tuple(range(norm.n_functionals))


def test_bad_pivot_rejected():
    with pytest.raises(BadPivot):
        PolyhedralNorm(2, [Functional((0, 1), 0, 0),
                           Functional((1, 0), 0, 0)])


def test_rank_deficient_rejected():
    # second row is twice the first
    with pytest.raises(DegenerateNorm):
        custom_norm([[[1, 0], [1, 1]], [[2, 0], [1, 0]]])
    with pytest.raises(DegenerateNorm):
        custom_norm([])
    with pytest.raises(DegenerateNorm):
        PolyhedralNorm(2, [])


def test_custom_norm_normalization():
    # pivot is the first nonzero coordinate, negated to be positive
    n = custom_norm([[[-1, 0], [1, 1]], [[0, 0], [1, 2]]])
    f0, f1 = n.functionals
    assert (f0.mantissas, f0.precision, f0.pivot) == ((2, -1), 1, 0)
    assert (f1.mantissas, f1.precision, f1.pivot) == ((0, 1), 2, 1)


@pytest.mark.parametrize("entry", [[1, -1], [Fraction(1, 2), 0], "x", [1.5, 0], [1],
                                   [True, 0], [1, True]])
def test_custom_norm_bad_entries(entry):
    with pytest.raises(NonDyadicCoefficient):
        custom_norm([[entry, [1, 0]]])


@pytest.mark.parametrize("name,dim,expect", [
    ("linf", 2, 3), ("linf", 5, 3), ("l1", 2, 4), ("l1", 3, 5)])
def test_min_margin_frozen(name, dim, expect):
    n = preset(name, dim)
    assert min_margin(n) == expect
    assert margin_ok(n, expect)
    assert not margin_ok(n, expect - 1)


def test_margin_ok_small_pivot():
    # pivot coefficient 1/4 forces 1/v_pivot = 4 <= 2**(c-3), so c >= 5
    n = custom_norm([[[1, 2], [0, 0]], [[0, 0], [1, 0]]])
    assert min_margin(n) == 5


@st.composite
def custom_norms(draw):
    """A random custom norm (d = 1..3, d..d+2 functionals, signed
    coefficients at precisions 0..16): the bound 1/v_pivot decides the
    margin in most draws, sum|v_i| in about one in ten."""
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.tuples(st.integers(min_value=-40, max_value=40),
                      st.integers(min_value=0, max_value=16))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                         min_size=d, max_size=d + 2))
    try:
        return custom_norm(rows)
    except (BadPivot, DegenerateNorm):
        assume(False)


@given(custom_norms())
def test_min_margin_is_the_least_margin_ok(norm):
    # the closed form against margin_ok's own comparisons
    c = min_margin(norm)
    assert c >= 1 and margin_ok(norm, c)
    assert c == 1 or not margin_ok(norm, c - 1)


def test_min_margin_refuses_past_two_to_the_twenty():
    # a pivot coefficient 2**-p needs c = p + 3, so p = 2**20 - 3 is the
    # largest precision accepted; a refusal must come at once, not after a
    # search over c
    assert min_margin(custom_norm([[[1, (1 << 20) - 3]]])) == 1 << 20
    with pytest.raises(DegenerateNorm, match="no finite margin constant"):
        min_margin(custom_norm([[[1, (1 << 20) - 2]]]))
    with pytest.raises(DegenerateNorm, match="no finite margin constant"):
        min_margin(custom_norm([[[1, (1 << 20) + 8]]]))

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyfrac.dyadic import Dyadic
from polyfrac.errors import PrecisionExceeded

mantissas = st.integers(min_value=-(1 << 80), max_value=1 << 80)
precisions = st.integers(min_value=0, max_value=80)
dyadics = st.builds(Dyadic, mantissas, precisions)


def test_basic_values():
    assert Dyadic(3, 2).as_fraction() == Fraction(3, 4)
    assert Dyadic(-3, 2).as_fraction() == Fraction(-3, 4)
    assert float(Dyadic(1, 1)) == 0.5
    assert not Dyadic(0, 0)
    assert Dyadic(1, 10)


def test_equality_ignores_trailing_zeros():
    assert Dyadic(1, 1) == Dyadic(2, 2) == Dyadic(4, 3)
    assert hash(Dyadic(1, 1)) == hash(Dyadic(4, 3))
    assert Dyadic(1, 1) != Dyadic(3, 2)


@given(dyadics, dyadics)
def test_ordering_matches_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a <= b) == (a.as_fraction() <= b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(dyadics, dyadics)
def test_field_ops_match_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (-a).as_fraction() == -a.as_fraction()
    assert abs(a).as_fraction() == abs(a.as_fraction())


@given(dyadics)
def test_from_fraction_round_trip(a):
    assert Dyadic.from_fraction(a.as_fraction()) == a


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))


@given(dyadics, st.integers(min_value=-40, max_value=40))
@example(Dyadic(-3, 2), 0)
@example(Dyadic(-18014398509481005, 0), -1)
def test_floor_scaled_is_exact_floor(a, j):
    # Fraction(2)**j stays exact for j < 0, where 2**j would be a float
    assert a.floor_scaled(j) == math.floor(a.as_fraction() * Fraction(2)**j)


def test_floor_scaled_negative_rounds_down():
    # -3/4 at unit scale floors to -1, not 0
    assert Dyadic(-3, 2).floor_scaled(0) == -1
    assert Dyadic(-1, 3).floor_scaled(2) == -1


def test_bit_places_are_msb_first():
    x = Dyadic(0b1011, 4)  # 0.1011
    assert [x.bit(j) for j in (1, 2, 3, 4)] == [1, 0, 1, 1]
    with pytest.raises(PrecisionExceeded):
        x.bit(0)
    with pytest.raises(PrecisionExceeded):
        x.bit(5)


@given(st.integers(min_value=0, max_value=(1 << 60) - 1),
       st.integers(min_value=1, max_value=60))
def test_bit_matches_fraction_expansion(m, p):
    x = Dyadic(m, p)
    for j in range(1, p + 1):
        expect = math.floor(x.as_fraction() * 2**j) % 2
        assert x.bit(j) == expect


@given(dyadics, st.integers(min_value=0, max_value=80))
def test_truncate_drops_fine_digits(a, p):
    t = a.truncate(p)
    assert t.precision == p
    assert t.as_fraction() == Fraction(math.floor(a.as_fraction() * 2**p), 2**p)


def test_repr_round_trips_value():
    x = Dyadic(5, 3)
    assert eval(repr(x)) == x

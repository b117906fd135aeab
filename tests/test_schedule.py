import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfrac.errors import InfeasibleSchedule, OutOfRange
from polyfrac.schedule import (BlockSchedule, _min_block_length,
                               free_fraction, generate)

def desk():
    return generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])


def test_free_fraction():
    assert free_fraction(Fraction(3, 2), 2) == Fraction(1, 2)
    assert free_fraction(1, 2) == 0
    assert free_fraction(2, 2) == 1
    assert free_fraction(Fraction(1, 2), 1) == Fraction(1, 2)
    with pytest.raises(OutOfRange):
        free_fraction(Fraction(5, 2), 2)
    with pytest.raises(OutOfRange):
        free_fraction(1, 0)


def test_desk_schedule_frozen():
    s = desk()
    assert s.bounds == (1, 16, 32, 96)
    assert s.splits == (9, 24, 64)
    assert s.depth == 96
    assert s.n_blocks == 3
    assert [(w.a, w.b) for w in s.blocks] == [(12, 13), (27, 29), (67, 93)]
    assert BlockSchedule(*s) == s  # the constructor's checks pass


@pytest.mark.parametrize("alpha,margin,expect_m,expect_n", [
    (Fraction(3, 4), 3, (1, 29, 58, 174), (22, 51, 145)),
    (Fraction(1, 2), 4, (1, 19, 38, 114), (10, 29, 76)),
    (Fraction(3, 4), 4, (1, 37, 74, 222), (28, 65, 185)),
])
def test_widening_frozen(alpha, margin, expect_m, expect_n):
    s = generate(alpha, margin, 2, m=[1, 16, 32, 96])
    assert s.bounds == expect_m
    assert s.splits == expect_n
    assert BlockSchedule(*s) == s


def test_widening_keeps_feasible_bounds():
    s = generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])
    assert s.bounds == (1, 16, 32, 96)


def test_alpha_one_windows_vacuous():
    s = generate(1, 3, 2, m=[1, 16, 32, 96])
    assert s.splits == (16, 32, 96)
    assert BlockSchedule(*s) == s
    assert s.blocks[0].a >= s.blocks[0].b  # nothing constrained


def test_alpha_zero_everything_constrained():
    s = generate(0, 3, 1, m=[1, 16])
    assert s.splits == (1,)
    assert (s.blocks[0].a, s.blocks[0].b) == (4, 13)


def test_functional_cycle():
    s = desk()
    assert [w.ell for w in s.blocks] == [0, 1, 0]
    assert [w.k for w in s.of_functional(0)] == [1, 3]
    assert [w.k for w in s.of_functional(1)] == [2]
    four = BlockSchedule(3, (1, 16, 32, 96, 384, 1920, 11520),
                         Fraction(1, 2), 4)
    assert four.blocks[5].ell == 1
    one = generate(0, 3, 1, m=[1, 16])
    assert one.blocks[0].ell == 0


@st.composite
def schedules(draw):
    """generate()d schedules: explicit bound lists and the geometric rule,
    alpha from 0 to 1, margins 1-20, 1-4 functionals and K = 0..6 blocks."""
    alpha = draw(st.sampled_from([0, 1])
                 | st.fractions(0, 1, max_denominator=8))
    margin = draw(st.integers(1, 20))
    n_f = draw(st.integers(1, 4))
    K = draw(st.integers(0, 6))
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(1, 40), min_size=K, max_size=K))
        return generate(alpha, margin, n_f, m=list(accumulate([1] + steps)))
    ratio = draw(st.fractions(1, 4, max_denominator=4))
    return generate(alpha, margin, n_f, K=K, ratio=ratio)


@given(schedules())
def test_block_table_matches_fields(s):
    assert [w.k for w in s.blocks] == list(range(1, s.n_blocks + 1))
    for w in s.blocks:
        assert w.start == s.bounds[w.k - 1] and w.end == s.bounds[w.k]
        assert w.split == w.start + math.ceil(s.free_fraction
                                              * (w.end - w.start))
        assert (w.a, w.b) == (w.split + s.margin, w.end - s.margin)
        assert w.ell == (w.k - 1) % s.n_functionals
    slices = [s.of_functional(ell) for ell in range(s.n_functionals)]
    for ell, part in enumerate(slices):
        assert all(w.ell == ell for w in part)
        assert [w.k for w in part] == sorted(w.k for w in part)
    assert sorted(sum(slices, ()), key=lambda w: w.k) == list(s.blocks)


@given(schedules())
def test_generated_schedules_pass_validate(s):
    # generate widens bounds until every check holds; rebuilding the
    # schedule runs the constructor's checks again
    assert BlockSchedule(*s) == s


def test_validate_reports_named_failures():
    with pytest.raises(InfeasibleSchedule) as info:
        BlockSchedule(3, (1, 6, 24), Fraction(1, 2), 2)
    # every failed check, in order, joined by "; "
    assert str(info.value) == ("margin fits below first block end: 2c = 6 "
                               "vs m_2 = 6; window at block 1 nonempty: "
                               "(7, 3]")


def test_geometric_rule_frozen():
    s = generate(Fraction(1, 2), 3, 2, K=4, ratio=2)
    assert s.bounds == (1, 15, 30, 90, 360)
    assert BlockSchedule(*s) == s


def test_geometric_rule_growth_property():
    s = generate(Fraction(1, 3), 4, 3, K=5, ratio=Fraction(3, 2))
    for w in s.blocks:
        assert w.k * w.start <= w.end
        assert w.a < w.b


def test_generate_argument_errors():
    with pytest.raises(OutOfRange):
        generate(2, 3, 2, m=[1, 16])
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 0, 2, m=[1, 16])
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 3, 0, m=[1, 16])
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 3, 2)  # neither bounds nor K
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 3, 2, K=3, ratio=Fraction(1, 2))
    with pytest.raises(InfeasibleSchedule):
        generate(Fraction(1, 2), 3, 2, m=[2, 16])
    with pytest.raises(InfeasibleSchedule):
        generate(Fraction(1, 2), 3, 2, m=[1, 16, 16])


def test_schedule_shape_errors():
    with pytest.raises(OutOfRange):
        BlockSchedule(3, (), Fraction(1, 2), 2)


@given(st.fractions(min_value=0, max_value=1,
                    max_denominator=300).filter(lambda a: a < 1),
       st.integers(min_value=1, max_value=60))
def test_min_block_length_is_the_least_feasible_length(alpha, margin):
    # the closed form against its definition: the least L whose window,
    # L - ceil(alpha*L) places, holds 2c + 1
    need = 2 * margin + 1
    length = _min_block_length(alpha, margin)
    assert length - math.ceil(alpha * length) >= need
    assert length == need or (
        length - 1 - math.ceil(alpha * (length - 1)) < need)

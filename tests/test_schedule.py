from fractions import Fraction

import pytest

from polyfrac.errors import IndexOutOfRange, InfeasibleSchedule, OutOfRange
from polyfrac.schedule import BlockSchedule, free_fraction, generate, validate

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
    assert s.window(1) == (12, 13)
    assert s.window(2) == (27, 29)
    assert s.window(3) == (67, 93)
    assert validate(s).ok


@pytest.mark.parametrize("alpha,margin,expect_m,expect_n", [
    (Fraction(3, 4), 3, (1, 29, 58, 174), (22, 51, 145)),
    (Fraction(1, 2), 4, (1, 19, 38, 114), (10, 29, 76)),
    (Fraction(3, 4), 4, (1, 37, 74, 222), (28, 65, 185)),
])
def test_widening_frozen(alpha, margin, expect_m, expect_n):
    s = generate(alpha, margin, 2, m=[1, 16, 32, 96])
    assert s.bounds == expect_m
    assert s.splits == expect_n
    assert validate(s).ok


def test_widening_keeps_feasible_bounds():
    s = generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])
    assert s.bounds == (1, 16, 32, 96)


def test_alpha_one_windows_vacuous():
    s = generate(1, 3, 2, m=[1, 16, 32, 96])
    assert s.splits == (16, 32, 96)
    assert validate(s).ok
    lo, hi = s.window(1)
    assert lo >= hi  # nothing constrained


def test_alpha_zero_everything_constrained():
    s = generate(0, 3, 1, m=[1, 16])
    assert s.splits == (1,)
    assert s.window(1) == (4, 13)


def test_functional_cycle():
    s = desk()
    assert [s.functional_for_block(k) for k in (1, 2, 3)] == [0, 1, 0]
    assert s.blocks_for_functional(0) == [1, 3]
    assert s.blocks_for_functional(1) == [2]
    four = BlockSchedule(3, (1, 16, 32, 96, 384, 1920, 11520), (9,) * 6,
                         Fraction(1, 2), 4)
    assert four.functional_for_block(6) == 1
    one = generate(0, 3, 1, m=[1, 16])
    assert one.functional_for_block(1) == 0
    with pytest.raises(IndexOutOfRange):
        s.functional_for_block(0)


def test_index_errors():
    s = desk()
    with pytest.raises(IndexOutOfRange):
        s.bound(0)
    with pytest.raises(IndexOutOfRange):
        s.bound(5)
    with pytest.raises(IndexOutOfRange):
        s.split(4)
    with pytest.raises(IndexOutOfRange):
        s.window(0)


def test_validate_reports_named_failures():
    bad = BlockSchedule(3, (1, 8, 24), (5, 12), Fraction(1, 2), 2)
    report = validate(bad)
    assert not report.ok
    names = [f.split(":")[0] for f in report.failures()]
    assert "split at block 2" in names
    assert "window at block 1 nonempty" in names


def test_geometric_rule_frozen():
    s = generate(Fraction(1, 2), 3, 2, K=4, ratio=2)
    assert s.bounds == (1, 15, 30, 90, 360)
    assert validate(s).ok


def test_geometric_rule_growth_property():
    s = generate(Fraction(1, 3), 4, 3, K=5, ratio=Fraction(3, 2))
    for k in range(1, s.n_blocks + 1):
        assert k * s.bound(k) <= s.bound(k + 1)
        lo, hi = s.window(k)
        assert lo < hi


def test_generate_argument_errors():
    with pytest.raises(OutOfRange):
        generate(2, 3, 2, m=[1, 16])
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 0, 2, m=[1, 16])
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 3, 0, m=[1, 16])
    with pytest.raises(OutOfRange):
        generate(Fraction(1, 2), 3, 2)  # neither bounds nor K
    with pytest.raises(InfeasibleSchedule):
        generate(Fraction(1, 2), 3, 2, m=[2, 16])
    with pytest.raises(InfeasibleSchedule):
        generate(Fraction(1, 2), 3, 2, m=[1, 16, 16])


def test_schedule_shape_errors():
    with pytest.raises(OutOfRange):
        BlockSchedule(3, (), (), Fraction(1, 2), 2)
    with pytest.raises(OutOfRange):
        BlockSchedule(3, (1, 16), (), Fraction(1, 2), 2)

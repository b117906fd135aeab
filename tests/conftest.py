from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from polyfrac.construct import make_spec, pinned_point, sample_points
from polyfrac.errors import BadPivot, DegenerateNorm
from polyfrac.norms import custom_norm, preset

BASE_M = [1, 16, 32, 96]
TARGETS = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(7, 4),
           Fraction(2))
NORMS = ("linf", "l1")


@pytest.fixture(scope="session")
def desk_spec():
    return make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7, m=BASE_M)


@pytest.fixture(scope="session")
def ensemble():
    """100 construction runs: both norms, five targets, seeds 0..9, each with
    a pinned point and 1000 samples.  Shared by several acceptance checks."""
    runs = []
    for name in NORMS:
        norm = preset(name, 2)
        for s in TARGETS:
            for seed in range(10):
                spec = make_spec(2, s, norm, seed=seed, m=BASE_M)
                pts = [pinned_point(spec)] + sample_points(spec, 1000)
                runs.append((name, s, seed, spec, pts))
    return runs


@st.composite
def polyhedral_specs(draw, K=4):
    """Specs over random polyhedral norms: d = 2-3, d..d+3 functionals with
    coefficients m * 2**-p, m in [-4, 4] and p in 0..2, target s = d - 1 +
    j/8 and a geometric schedule of K blocks.  Only tables that define no
    norm (an all-zero row, rank below d) are assumed away."""
    d = draw(st.integers(2, 3))
    entry = st.tuples(st.integers(-4, 4), st.integers(0, 2))
    row = st.lists(entry, min_size=d, max_size=d)
    table = draw(st.lists(row, min_size=d, max_size=d + 3))
    try:
        norm = custom_norm(table)
    except (BadPivot, DegenerateNorm):
        assume(False)
    s = Fraction(8 * (d - 1) + draw(st.integers(0, 8)), 8)
    return make_spec(d, s, norm, seed=draw(st.integers(0, 2**16)), K=K)

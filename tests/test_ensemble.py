"""The construction over generated polyhedral norms, not only the presets.

The paper's sharpness claim holds for every polyhedral norm: each point
carries the digit pattern its schedule asks for, and every pinned distance
collapses to constant digits on its achieving functional's windows.  These
properties check both over conftest.polyhedral_specs, and that the points
file carries those digits exactly.

They also check the two premises of the lower bound log2 N_r(E) >= P_draw(r)
(P_draw(r): the drawn places <= r over all coordinates): the drawn runs and
the steered pivot runs of a spec cover each coordinate's places once, and
steering is total, every offset fitting its pivot run with 4 places spare;
and the bound itself, against count_exact's lower count of the slab system
that contains E, at the benchmark's scales.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import BASE_M, NORMS, TARGETS, polyhedral_specs
from polyfrac.construct import (first_failure, make_spec, pinned_point,
                                read_points, sample_points, write_points)
from polyfrac.dimension import count_exact, slab_system
from polyfrac.distset import collapse_first_failure
from polyfrac.norms import custom_norm, preset

SAMPLES = 12


def _named_specs():
    """Both presets at every target, the deep config (l1, d = 3, geometric
    K = 6) and the hexagonal custom norm CI runs."""
    hexagon = custom_norm([[[1, 0], [0, 0]], [[1, 1], [1, 0]],
                           [[1, 1], [-1, 0]]])
    return [*(pytest.param(make_spec(2, s, preset(name, 2), seed=7, m=BASE_M),
                           id=f"{name}-{s}")
              for name in NORMS for s in TARGETS),
            pytest.param(make_spec(3, Fraction(9, 4), preset("l1", 3), seed=7,
                                   K=6, ratio=2), id="deep"),
            pytest.param(make_spec(2, Fraction(3, 2), hexagon, seed=7,
                                   m=[1, 16, 32, 96, 384]), id="hex")]


def assert_runs_partition_places(spec):
    """Per coordinate, the runs spec.plan draws, each block's steered pivot
    run [n_k, m_{k+1}) from spec.schedule.blocks and the tail digit are
    disjoint and cover places 1..depth, bits depth - 1..0 of a mantissa."""
    depth = spec.schedule.depth
    runs = [[1] for _ in range(spec.dim)]  # the tail digit, place depth
    for block in spec.plan:
        for i, nbits, at, _ in block.draws:
            runs[i].append(((1 << nbits) - 1) << at)
    for blk in spec.schedule.blocks:
        pivot = spec.norm.functionals[blk.ell].pivot
        runs[pivot].append(((1 << (blk.end - blk.split)) - 1)
                           << (depth - blk.end + 1))
    for masks in runs:
        union = 0
        for mask in masks:
            assert not union & mask
            union |= mask
        assert union == (1 << depth) - 1


def assert_steering_bound(spec, pts):
    """On every block with a window, the pivot mantissa steps no wider than
    the marker band and the modulus is at most step * 2**(m_{k+1} - n_k - 4),
    so every offset, and each one installed in pts, is at most 2**(m_{k+1}
    - n_k - 4)."""
    for blk, block in zip(spec.schedule.blocks, spec.plan):
        if not block.marker:
            continue
        mask, _, width = block.marker
        step = block.coeffs[block.pivot]
        run, spare = blk.end - blk.split, blk.end - blk.split - 4
        assert step <= width
        assert mask + 1 <= step << spare
        for pt in pts:
            offset = pt.mantissas[block.pivot] >> block.shift
            assert offset & ((1 << run) - 1) <= 1 << spare


def p_draw(spec, r):
    """Drawn places <= r over all coordinates: each draw run covers places
    [depth - at - nbits + 1, depth - at], and the tail digits (place depth)
    are drawn too."""
    depth = spec.schedule.depth
    count = spec.dim if r == depth else 0
    for block in spec.plan:
        for _, nbits, at, _ in block.draws:
            top = depth - at
            count += max(0, min(r, top) - (top - nbits))
    return count


@pytest.mark.parametrize("spec,pins", [
    (make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7, m=BASE_M),
     ((16, 16), (20, 24), (25, 31), (49, 61), (145, 163))),
    (make_spec(3, Fraction(9, 4), preset("l1", 3), seed=7, m=BASE_M),
     ((20, 24), (28, 36), (37, 47), (73, 93), (217, 247))),
    (make_spec(3, Fraction(9, 4), preset("l1", 3), seed=7, K=6, ratio=2),
     ((20, 24), (28, 36), (37, 47), (73, 93), (217, 247))),
], ids=["desk", "l1-d3", "deep"])
def test_drawn_places_bound_the_exact_count_from_below(spec, pins):
    # distinct drawn digits give distinct cells, so log2 N_r(E) >= P_draw(r);
    # E lies in the slab system, so its exact lower count is at least that
    system = slab_system(spec)
    got = tuple((p_draw(spec, r), count_exact(system, r).lower.bit_length()
                 - 1) for r in (8, 12, 16, 32, 96))
    assert got == pins
    assert all(drawn <= log2_lower for drawn, log2_lower in got)


@pytest.mark.parametrize("spec", _named_specs())
def test_named_specs_partition_places_and_steer_totally(spec):
    assert_runs_partition_places(spec)
    assert_steering_bound(spec, [pinned_point(spec)]
                          + sample_points(spec, SAMPLES))


@settings(derandomize=True, deadline=None)
@given(spec=polyhedral_specs())
def test_construction_is_sharp_for_every_polyhedral_norm(tmp_path_factory,
                                                         spec):
    pts = [pinned_point(spec)] + sample_points(spec, SAMPLES)
    # every digit condition of the construction holds on every point
    assert first_failure(pts, spec) is None
    # and every pinned distance collapses on its functional's windows
    assert collapse_first_failure(pts[0], pts[1:], spec) is None
    path = tmp_path_factory.mktemp("points") / "points.txt"
    write_points(path, pts, "ab12")
    assert read_points(path) == (pts, "ab12")
    # and the lower bound's premises hold
    assert_runs_partition_places(spec)
    assert_steering_bound(spec, pts)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(spec=polyhedral_specs(K=6))
def test_construction_is_sharp_at_six_blocks(spec):
    # depths reach ~75k places here, against ~1k at K = 4
    pts = [pinned_point(spec)] + sample_points(spec, 3)
    assert first_failure(pts, spec) is None
    assert collapse_first_failure(pts[0], pts[1:], spec) is None
    assert_runs_partition_places(spec)
    assert_steering_bound(spec, pts)

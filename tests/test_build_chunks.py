"""sample_points builds points a chunk at a time; every chunk size gives the
points a per-point build gives.

The reference below builds one point at a time from a fresh stream per
draw, BitStream(seed, "point", i, "coord", c, "block", k).take_bits(n), with
no path state shared between draws or points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import BASE_M, polyhedral_specs
from polyfrac import construct as cn
from polyfrac.construct import (SamplePoint, build_point, make_spec,
                                sample_points)
from polyfrac.norms import custom_norm, int_dot, preset
from polyfrac.streams import BitStream


def reference_point(spec, index) -> SamplePoint:
    mants = [0] * spec.dim
    for blk in spec.plan:
        for c, nbits, at, _ in blk.draws:
            stream = BitStream(spec.seed, "point", index, "coord", c,
                               "block", blk.k)
            mants[c] |= stream.take_bits(nbits) << at
        if blk.marker:
            s0 = int_dot([m >> blk.shift for m in mants], blk.coeffs)
            mants[blk.pivot] |= cn._steer(s0, blk.coeffs[blk.pivot],
                                          blk.marker) << blk.shift
    tail = spec.schedule.n_blocks + 1
    for c in range(spec.dim):
        mants[c] |= BitStream(spec.seed, "point", index, "coord", c, "block",
                              tail).take_bits(1)
    return SamplePoint(tuple(mants), spec.schedule.depth, index)


def _counts(size):
    """Counts at and around one and two chunks of size points."""
    return sorted({1, size - 1, size, size + 1, 2 * size + 1} - {0})


def assert_chunks_match_reference(spec, monkeypatch, sizes):
    """For chunks of each size (None: the default), sample_points at every
    count of _counts equals the reference, and each count's points begin
    every smaller count's."""
    default = cn._chunk_size(spec)
    ref = {}
    for size in sizes:
        if size is None:
            monkeypatch.undo()
            size = default
        else:
            monkeypatch.setattr(cn, "_BUILD_BITS",
                                size * spec.dim * spec.schedule.depth)
        assert cn._chunk_size(spec) == size
        runs = {n: sample_points(spec, n) for n in _counts(size)}
        for n, pts in runs.items():
            for i in range(len(ref) + 1, n + 1):
                ref[i] = reference_point(spec, i)
            assert pts == [ref[i] for i in range(1, n + 1)], (size, n)
            for m in runs:
                if m < n:
                    assert pts[:m] == runs[m]
    assert build_point(spec, 0) == reference_point(spec, 0)
    assert build_point(spec, 2) == ref[2]


_HEXAGON = custom_norm([[[1, 0], [0, 0]], [[1, 1], [1, 0]],
                        [[1, 1], [-1, 0]]])


@pytest.mark.parametrize("spec", [
    pytest.param(make_spec(2, Fraction(3, 2), preset("linf", 2), seed=7,
                           m=BASE_M), id="linf"),
    pytest.param(make_spec(2, Fraction(7, 4), preset("l1", 2), seed=3,
                           m=BASE_M), id="l1"),
    # draws of up to 9600 bits: keyed counter blocks, 15 points a chunk
    pytest.param(make_spec(3, Fraction(9, 4), preset("l1", 3), seed=7,
                           K=6, ratio=2), id="deep"),
    pytest.param(make_spec(2, Fraction(3, 2), _HEXAGON, seed=7,
                           m=[1, 16, 32, 96, 384]), id="hex"),
])
def test_chunks_match_the_per_point_build(spec, monkeypatch):
    assert_chunks_match_reference(spec, monkeypatch, [1, 3, None])


@settings(derandomize=True, deadline=None, max_examples=15)
@given(spec=polyhedral_specs())
def test_chunks_match_the_per_point_build_for_every_polyhedral_norm(spec):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_chunks_match_reference(spec, monkeypatch, [1, 3, None])

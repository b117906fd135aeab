"""The construction over generated polyhedral norms, not only the presets.

The paper's sharpness claim holds for every polyhedral norm: each point
carries the digit pattern its schedule asks for, and every pinned distance
collapses to constant digits on its achieving functional's windows.  These
properties check both over conftest.polyhedral_specs, and that the points
file carries those digits exactly.
"""

from hypothesis import given, settings

from conftest import polyhedral_specs
from polyfrac.construct import (first_failure, pinned_point, read_points,
                                sample_points, write_points)
from polyfrac.distset import collapse_first_failure

SAMPLES = 12


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

"""Start-up loads only what a command runs: the package and the CLI import
no dataclasses, inspect or logging, and neither dimension nor distset; no
module a command imports loads the Dyadic test oracle, nor the lane
kernels, which only a chunk of two points or more loads."""

import json
import logging
import os
import subprocess
import sys

import pytest

import polyfrac
from polyfrac import construct
from polyfrac.construct import make_spec, sample_points
from polyfrac.norms import preset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
HEAVY = ("dataclasses", "inspect", "logging", "polyfrac.dimension",
         "polyfrac.distset", "polyfrac.dyadic", "polyfrac.lanes")

_PROBE = """
import json, sys
loaded = {}
for name in sys.argv[1:]:
    __import__(name)
    loaded[name] = sorted(m for m in %r if m in sys.modules)
print(json.dumps(loaded))
""" % (HEAVY,)


def _probe(*names) -> dict:
    # -S and a bare environment: no site hook or path entry may preload a
    # module and hide an import of it; -B leaves no byte code under src
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", _PROBE, *names],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_heavy_module():
    assert _probe("polyfrac", "polyfrac.cli") == {"polyfrac": [],
                                                  "polyfrac.cli": []}


@pytest.mark.parametrize("module", ["polyfrac.distset", "polyfrac.dimension"])
def test_command_module_loads_only_itself(module):
    # distset and dimension hold distances as (mantissa, precision) ints
    assert _probe(module) == {module: [module]}


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(polyfrac, "no_such_name")
    assert not hasattr(polyfrac, "Dataclass")
    # the import system still finds a submodule named in a from-import
    from polyfrac import dimension
    assert dimension.count_exact is polyfrac.count_exact


def _identical_points_logged(caplog):
    # d = 1 at s = 0: every digit is solved except the last, so samples
    # repeat with period 2 in their index
    spec = make_spec(1, 0, preset("linf", 1), seed=0, m=[1, 16, 32])
    with caplog.at_level(logging.WARNING, logger="polyfrac.construct"):
        pts = sample_points(spec, 4)
    assert pts[0].mantissas == pts[2].mantissas
    assert [r.getMessage() for r in caplog.records] == [
        "points 1 and 3 are identical", "points 2 and 4 are identical"]


def test_identical_points_are_logged(caplog):
    _identical_points_logged(caplog)


@pytest.mark.parametrize("size", [1, 3])
def test_identical_points_are_logged_across_chunks(caplog, monkeypatch, size):
    # chunks of 1 and of 3 points (d = 1, depth 32): pairs that straddle a
    # chunk are logged alike, in the same order
    monkeypatch.setattr(construct, "_BUILD_BITS", size * 32)
    _identical_points_logged(caplog)

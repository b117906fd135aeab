"""perfbench/trace_launch.py wraps library functions by module attribute
(``construct.build_point``, ``cli.generate``, ...) and fails on a name that
is gone; one traced construct here catches a rename before the benchmark
does."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK = {"dimension": 2, "s": "3/2", "norm": {"preset": "linf"},
        "schedule": {"c": "auto", "m": [1, 16, 32, 96]}, "seed": 7,
        "samples": 20, "scales": [8, 12, 16]}


def test_tracer_patch_targets_exist(tmp_path):
    cfg = tmp_path / "desk.json"
    cfg.write_text(json.dumps(DESK))
    trace = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "trace_launch.py"),
         str(trace), "construct", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    header = json.loads(trace.read_text())
    assert header["exit"] == 0
    assert {"construct.build_point", "schedule.generate"} <= set(
        header["names"])

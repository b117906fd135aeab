"""polyfrac benchmark: time real CLI commands on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 7 --seconds 40 --trace 0

Each command runs in a fresh child interpreter (``python3 -m polyfrac``
with ``src`` on PYTHONPATH), one child at a time.  With ``--trace 0`` the run
spends ``--seconds`` on start-up probes and the five commands (construct,
verify, distset, boxdim, profile), interleaved over the whole run, and
reports mean times per command and rates per mean time, divided by the
run's slowdown as a fixed reference loop, timed before every child,
measures it.  With
``--trace 1`` it runs one untraced pass and one pass under
``trace_launch.py`` and reports per-layer metrics plus the tracing
overhead.  Every command run goes through the correctness gate in
``workloads.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import (COMMANDS, DEFAULT_SEED, WORKLOADS,  # noqa: E402
                       artifact_digests, check_command)

LAUNCHER = os.path.join(HERE, "trace_launch.py")
DIGESTS = os.path.join(HERE, "digests.json")
COMMAND_LIMIT_S = 90
REFERENCE_ROUNDS = 8000
# mean reference_s() over 20 runs (0.0272 s) on a 2-CPU x86_64 sandbox with
# Python 3.11.7, rounded
REFERENCE_S = 0.027
_MASK = (1 << 4096) - 1

# name -> unit, in report order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "construct_pts_per_s": "1/s",
    "verify_pts_per_s": "1/s",
    "distset_rows_per_s": "1/s",
    "boxdim_s": "s",
    "profile_s": "s",
    "peak_rss_mb": "MB",
}

LIMITS = ("wall-clock only, scaled by the run's reference speed; shared "
          "2-CPU sandbox; one child process at a time; no machine-level "
          "tracing; POLYFRAC_THREADS unset (nothing reads it); `sample` not "
          "run (construct covers its layers)")


def reference_s() -> float:
    """Time of a fixed pure-Python loop.

    The loop hashes, does 4096-bit integer arithmetic and allocates small
    objects, as polyfrac does.  It is timed before every child, so the
    run's mean stands for the machine's speed while the run lasted.
    """
    blake2b = hashlib.blake2b
    t0 = time.perf_counter()
    x, acc = 1, 0
    for i in range(REFERENCE_ROUNDS):
        v = int.from_bytes(blake2b(i.to_bytes(8, "big"),
                                   digest_size=32).digest(), "big")
        x = (x * 3 + v) & _MASK
        acc += (x >> 17) % 97
    return time.perf_counter() - t0


@dataclass
class Child:
    code: int
    wall: float
    ref: float       # reference_s() just before the child started
    rss_kb: int
    stdout: str
    stderr: str


def _commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(root: str, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limits": LIMITS,
    }


class Runner:
    """Starts polyfrac children one at a time and reaps each with wait4."""

    def __init__(self, root: str):
        env = dict(os.environ)
        env.pop("POLYFRAC_THREADS", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.env = env
        self.root = root

    def run(self, argv: list, log_prefix: str) -> Child:
        out_path, err_path = log_prefix + ".out", log_prefix + ".err"
        ref = reference_s()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return Child(proc.returncode, wall, ref, usage.ru_maxrss, stdout,
                     stderr)


def _digest_problems(files: dict, want: dict, label: str) -> list:
    return [f"{name} differs from {label}"
            for name in sorted(set(files) | set(want))
            if files.get(name) != want.get(name)]


class Bench:
    """Runs commands of one workload, gates each one and keeps its samples.

    Every command run is one attempted operation.  Its artifacts must pass
    ``check_command`` and match, byte for byte, the first run of the same
    command in this benchmark run (and the pinned digests at DEFAULT_SEED).
    """

    def __init__(self, root: str, wl, cfg_path: str, work: str, pinned,
                 expected_counts: dict):
        self.runner = Runner(root)
        self.wl = wl
        self.cfg_path = cfg_path
        self.work = work
        self.pinned = pinned
        self.expected = expected_counts
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self.walls: dict = {c: [] for c in ("setup", *COMMANDS)}
        self.rss: dict = {c: [] for c in COMMANDS}
        self.refs: list = []
        self.items: dict = {}
        self.runs = 0

    def setup_probe(self) -> float:
        """Fresh interpreter, import and config resolution, timed.

        ``verify`` on an empty output directory resolves the config and
        stops with "missing input" (exit 2) before any work: exactly the
        start-up every command pays.
        """
        empty = os.path.join(self.work, "probe")
        shutil.rmtree(empty, ignore_errors=True)
        child = self.runner.run(["-m", "polyfrac", "verify", "--config",
                                 self.cfg_path, "--out", empty],
                                os.path.join(self.work, "probe"))
        shutil.rmtree(empty, ignore_errors=True)
        self.runs += 1
        self.attempted += 1
        self.refs.append(child.ref)
        if child.code != 2 or "missing input" not in child.stderr:
            self.failed += 1
            self.reasons.append(f"run {self.runs} setup probe: exit "
                                f"{child.code}: {child.stderr.strip()[-200:]}")
        return child.wall

    def command(self, command: str, out: str, trace_dir=None) -> Child:
        argv = [*self.wl.argv(command), "--config", self.cfg_path,
                "--out", out]
        if trace_dir is None:
            argv = ["-m", "polyfrac", *argv]
        else:
            argv = [LAUNCHER, os.path.join(trace_dir, command + ".json"),
                    *argv]
        self.runs += 1
        child = self.runner.run(argv, os.path.join(self.work, command))
        bad = []
        if child.code != 0:
            bad.append(f"exit {child.code}: {child.stderr.strip()[-200:]}")
        else:
            try:
                found, self.items[command] = check_command(
                    self.wl, command, out, child.stdout, self.expected)
                bad += found
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                bad.append(f"unreadable artifact: {exc!r}")
        digests = artifact_digests(out, command)
        first = self.first.setdefault(command, digests)
        bad += _digest_problems(digests, first, "the first run")
        if self.pinned is not None:
            bad += _digest_problems(digests, self.pinned.get(command, {}),
                                    "the pinned digest")
        self.attempted += 1
        if bad:
            self.failed += 1
            self.reasons += [f"run {self.runs} {command}: {b}" for b in bad]
        if trace_dir is None:
            self.refs.append(child.ref)
            self.walls[command].append(child.wall)
            self.rss[command].append(child.rss_kb)
        return child

    def slowdown(self) -> float:
        """The run's mean reference time over REFERENCE_S."""
        return statistics.fmean(self.refs) / REFERENCE_S

    def end_to_end(self) -> dict:
        """Mean time per run of each command; rates are items per mean time.

        Times are scaled to a machine whose reference loop takes
        REFERENCE_S: each wall time is divided by ``slowdown()``.  Other
        tenants make the machine faster or slower for minutes, which moves
        every run's times together; the reference loop, timed before every
        child, moves with them.  Means, not medians: the speed switches
        between regimes for seconds at a time, and the median of a run's
        samples jumps between them, while the mean (total busy time over
        runs) moves smoothly with the share of time spent in each.  Set-up,
        a short probe sampled many times, reports its median.
        """
        slowdown = self.slowdown()
        mean = {c: statistics.fmean(v) / slowdown
                for c, v in self.walls.items() if v}

        def rate(command):
            return self.items.get(command, 0) / mean[command]

        return {
            "wall_s": sum(mean[c] for c in COMMANDS),
            "setup_s": statistics.median(self.walls["setup"]) / slowdown,
            "construct_pts_per_s": rate("construct"),
            "verify_pts_per_s": rate("verify"),
            "distset_rows_per_s": rate("distset"),
            "boxdim_s": mean["boxdim"],
            "profile_s": mean["profile"],
            "peak_rss_mb": max(max(v) for v in self.rss.values()) / 1024,
        }


def measure(bench: Bench, seconds: float) -> None:
    """Untraced measurement, interleaving the commands over ``seconds``.

    After one warm-up probe, one timed probe and one full pass in
    pipeline order, the command (or start-up probe) with the smallest
    product of sample count and total time runs next, skipping any whose
    last duration would overrun ``seconds``.  That gives each a share of
    the run growing with the square root of its duration: a 4 s command
    gets several samples and a 0.15 s probe many, all spread over the
    whole run like the reference timings that scale them.
    """
    out = os.path.join(bench.work, "out")
    os.makedirs(out)
    t0 = time.perf_counter()
    bench.setup_probe()  # warms the file cache and byte-code cache
    bench.walls["setup"].append(bench.setup_probe())
    for command in COMMANDS:
        bench.command(command, out)
    if bench.failed:
        return
    while True:
        left = seconds - (time.perf_counter() - t0)
        fits = [c for c, v in bench.walls.items() if v[-1] <= left]
        if not fits:
            return
        name = min(fits, key=lambda c: len(bench.walls[c])
                   * sum(bench.walls[c]))
        if name == "setup":
            bench.walls["setup"].append(bench.setup_probe())
        elif bench.command(name, out).code != 0:
            return


def trace(bench: Bench) -> dict:
    """One untraced pass, then one pass under the trace launcher."""
    plain, traced, trace_dir = (os.path.join(bench.work, d)
                                for d in ("plain", "traced", "trace"))
    for d in (plain, traced, trace_dir):
        os.makedirs(d)
    plain_wall = sum(bench.command(c, plain).wall for c in COMMANDS)
    traced_wall = sum(bench.command(c, traced, trace_dir).wall
                      for c in COMMANDS)
    traces = {c: layers.Trace(os.path.join(trace_dir, c + ".json"))
              for c in COMMANDS
              if os.path.exists(os.path.join(trace_dir, c + ".json"))}
    points = os.path.join(traced, "points.txt")
    size = os.path.getsize(points) if os.path.exists(points) else 0
    return layers.layer_metrics(traces, size, traced_wall, plain_wall)


def _summary(values: list) -> str:
    head = f"n={len(values)} mean={statistics.fmean(values):.6g}"
    if len(values) == 1:
        return head
    q = statistics.quantiles(values, n=4)
    return (f"{head} min={min(values):.6g} q1={q[0]:.6g} "
            f"median={statistics.median(values):.6g} q3={q[2]:.6g} "
            f"max={max(values):.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="append the full result as one JSON line to FILE")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyfrac", "cli.py")):
        print("run from the root of a polyfrac checkout (src/polyfrac "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import polyfrac

    wl = WORKLOADS[args.workload]
    env = _environment(root, args)
    work = os.path.join(HERE, "work", f"{wl.name}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cfg_path = os.path.join(work, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(dict(wl.config, seed=args.seed), fh)
        pinned = None
        if args.seed == DEFAULT_SEED:
            with open(DIGESTS) as fh:
                pinned = json.load(fh)[wl.name]
        bench = Bench(root, wl, cfg_path, work, pinned,
                      wl.set_counts(polyfrac))
        t0 = time.perf_counter()
        if args.trace == 0:
            measure(bench, args.seconds)
            units = END_TO_END
            metrics = bench.end_to_end()
            samples = {**bench.walls, "reference": bench.refs}
        else:
            metrics = trace(bench)
            units = {k: u for k, (u, _) in layers.METRICS.items()}
            samples = {}
        measured = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bench.failed == 0
    print(f"polyfrac benchmark: workload={wl.name} seed={args.seed} "
          f"trace={args.trace} commands={bench.attempted} "
          f"measured={measured:.1f}s")
    print("environment: " + json.dumps({k: v for k, v in env.items()
                                        if k != "limits"}))
    print(f"limits: {LIMITS}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    if samples:
        print(f"  {'slowdown (reference / REFERENCE_S)':34s} "
              f"{bench.slowdown():.6g}")
    for name, walls in samples.items():
        print(f"  {name + ' wall (s)':34s} {_summary(walls)}")
    print(f"  {'failed_ops':34s} {bench.failed}/{bench.attempted} commands")
    for reason in bench.reasons:
        print(f"  FAIL {reason}")
    print(f"correctness: {'PASS' if correct else 'FAIL'}")

    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"environment": env, "samples": samples,
                                 **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the correctness gate for their artifacts.

Each workload is a polyfrac config plus the five CLI commands run on it.
All three count boxes at the same scales and run every layer, so every
metric is measured on every workload.  The workload seed only goes into the
config's ``seed``; slab systems do not depend on it, so the exact set-count
checks hold at every seed.  Artifact digests are pinned for DEFAULT_SEED;
at any seed, every run of a command must reproduce its first run byte for
byte.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 7
COMMANDS = ("construct", "verify", "distset", "boxdim", "profile")

# today's count_exact [lower, upper] brackets for the l1 d=3 slab system; the
# deep geometric schedule and m=[1,16,32,96] share their blocks up to place
# 96, so both workloads get the same brackets.  Scales 32 and 96 end with
# undecided cells and fall back to sampled counts.
_L1_D3_COUNTS = {
    8: (16777216, 16777216),
    12: (68719476736, 68719476736),
    16: (149533581377536, 149533581377536),
    32: (10522499778658698075932983296,
         10522500368954508434638635008),
    96: (240291200809860268824094719563482961228940329118137994626611970184348434432,
         240291200809860268824142610779885838921215486606668819482444494956453167104),
}
SCALES = [8, 12, 16, 32, 96]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    distset: tuple   # flags of the distset command
    rows: int        # distance rows distset must write

    def set_counts(self, polyfrac) -> dict:
        """Expected exact set count bracket (lower, upper) per scale."""
        if self.name == "desk":
            cfg = self.config
            spec = polyfrac.make_spec(
                cfg["dimension"], Fraction(cfg["s"]),
                polyfrac.preset(cfg["norm"]["preset"], cfg["dimension"]),
                DEFAULT_SEED, m=cfg["schedule"]["m"])
            system = polyfrac.slab_system(spec)
            return {r: (polyfrac.decoupled_count(system, r),) * 2
                    for r in cfg["scales"]}
        return _L1_D3_COUNTS

    def argv(self, command: str) -> list:
        return [command, *self.distset] if command == "distset" else [command]


WORKLOADS = {
    # README desk config at 10k samples: stream key derivation, point
    # construction and pinned distances dominate; count_exact is <1 ms
    "desk": Workload("desk", {
        "dimension": 2, "s": "3/2", "norm": {"preset": "linf"},
        "schedule": {"c": "auto", "m": [1, 16, 32, 96]},
        "samples": 10000, "scales": SCALES},
        ("--pinned", "--euclid", "24"), 10000),
    # 11520-bit deep geometric schedule: exact counting at r=32/96 and
    # big-integer arithmetic dominate; few points
    "deep": Workload("deep", {
        "dimension": 3, "s": "9/4", "norm": {"preset": "l1"},
        "schedule": {"c": "auto", "rule": "geometric", "K": 6, "ratio": 2},
        "samples": 500, "scales": SCALES},
        ("--pinned", "--euclid", "24"), 500),
    # the only workload on the pairwise path (Floyd rank sampling, pair
    # unranking, 4-functional norm evaluation); capped at 25000 rows
    "pairwise": Workload("pairwise", {
        "dimension": 3, "s": "9/4", "norm": {"preset": "l1"},
        "schedule": {"c": "auto", "m": [1, 16, 32, 96]},
        "samples": 5000, "scales": SCALES},
        ("--pairwise", "--budget", "25000", "--euclid", "24"), 25000),
}


def artifact_digests(out_dir: str, command: str) -> dict:
    """SHA-256 of each artifact a command writes, by file name."""
    patterns = {"construct": ["points.txt"], "verify": [],
                "distset": ["distances.csv"],
                "boxdim": ["boxcounts_*"], "profile": ["profiles_*"]}[command]
    out = {}
    for pat in patterns:
        for path in sorted(glob.glob(os.path.join(out_dir, pat))):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def _data_lines(path: str, header_lines: int) -> list:
    with open(path) as fh:
        return fh.read().splitlines()[header_lines:]


def check_command(wl: Workload, command: str, out_dir: str, stdout: str,
                  expected_counts: dict) -> tuple[list, int]:
    """Problems found in one command's artifacts, and the items it handled.

    Items are points written (construct), points verified (verify) or
    distance rows written (distset); 0 for the other commands.
    """
    samples = wl.config["samples"]
    problems = []
    items = 0
    if command == "construct":
        with open(os.path.join(out_dir, "points.txt")) as fh:
            head = [next(fh) for _ in range(3)]
        fields = dict(f.split("=") for f in head[2].split())
        items = int(fields["count"])
        if items != samples + 1:
            problems.append(f"points.txt holds {items} points, "
                            f"expected {samples + 1}")
    elif command == "verify":
        want = [f"verified {samples + 1} points",
                f"collapse ok on {samples} pinned pairs"]
        for line in want:
            if line not in stdout.splitlines():
                problems.append(f"verify did not print {line!r}")
        items = samples + 1 if not problems else 0
    elif command == "distset":
        rows = _data_lines(os.path.join(out_dir, "distances.csv"), 3)
        items = len(rows)
        if items != wl.rows:
            problems.append(f"distances.csv has {items} rows, "
                            f"expected {wl.rows}")
    elif command == "boxdim":
        rows = _data_lines(os.path.join(out_dir, "boxcounts_set.csv"), 3)
        seen = {}
        for row in rows:
            r, count, _, mode = row.split(",")
            seen[int(r)] = (int(count), mode)
        for r, (lo, hi) in expected_counts.items():
            if r not in seen:
                problems.append(f"no set count at r={r}")
                continue
            count, mode = seen[r]
            if lo == hi and (mode != "exact" or count != lo):
                problems.append(f"r={r}: {mode} count {count}, expected "
                                f"exact {lo}")
            elif mode == "exact" and not lo <= count <= hi:
                problems.append(f"r={r}: exact count {count} outside "
                                f"[{lo}, {hi}]")
    elif command == "profile":
        rows = _data_lines(os.path.join(out_dir, "profiles_set.csv"), 3)
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            depth = json.load(fh)["resolved"]["schedule"]["m"][-1]
        if len(rows) != depth:
            problems.append(f"profiles_set.csv has {len(rows)} rows, "
                            f"expected {depth}")
    return problems, items

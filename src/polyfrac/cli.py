"""Command line front end.

Every run resolves the JSON config to a fully explicit parameter set, hashes
it, and stamps the hash into each output file, so artifacts can be matched
to the exact configuration that produced them.  All outputs are
byte-deterministic for a fixed config and flags.

Exit codes: 0 success, 2 config or format problem or a missing or
mismatched points.txt, 3 verification failure, 4 budget exhausted before
any exact count finished.

Each command imports the modules only it runs (distset, dimension) when it
starts, before reading any input, so start-up pays for what it uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from . import construct as cn
from .errors import (BudgetExceeded, FormatError, OutOfRange, PolyfracError)
from .norms import custom_norm, min_margin, preset
from .schedule import free_fraction, generate

_POINTS_FILE = "points.txt"


def _canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Run(NamedTuple):
    spec: cn.FractalSpec
    scales: list
    samples: int
    budget: int
    resolved: dict
    config_hash: str
    manifest_hash: str


def _rational(name: str, raw) -> Fraction:
    # str() first: JSON true reads as "True" and is refused, not taken for 1
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise OutOfRange(f"cannot read {name} {raw!r}") from None


def _whole(name: str, value, low: int = 1) -> int:
    # JSON 7.5 or true would otherwise pass for 7 or 1 under another hash
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise OutOfRange(f"{name} must be an integer >= {low}, not {value!r}")
    return value


def _object(name: str, value, keys: tuple) -> dict:
    """value as a JSON object whose keys all lie in keys: a misspelt key
    would otherwise be dropped, and its default resolved in its place."""
    if not isinstance(value, dict):
        raise FormatError(f"{name} must be a JSON object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise FormatError(f"unknown key {unknown[0]!r} in {name}")
    return value


def _resolve(cfg: dict, seed=None, samples=None, budget=None) -> _Run:
    _object("config", cfg, ("dimension", "s", "norm", "schedule", "seed",
                             "samples", "budget", "scales"))
    dim = _whole("dimension", cfg["dimension"])
    s = _rational("target dimension", cfg["s"])
    ncfg = _object("norm", cfg["norm"], ("preset", "custom"))
    if len(ncfg) != 1:
        raise FormatError("norm needs a preset or a custom table, not both")
    if "preset" in ncfg:
        kind, name = "preset", ncfg["preset"]
        norm = preset(name, dim)
    else:
        kind, name = "custom", None
        norm = custom_norm(ncfg["custom"])
        if norm.dim != dim:
            raise OutOfRange("custom norm dimension != config dimension")
    c_min = min_margin(norm)
    scfg = _object("schedule", cfg["schedule"], ("c", "m", "rule", "K",
                                                 "ratio"))
    if "m" in scfg and scfg.keys() & {"rule", "K", "ratio"}:
        raise FormatError("schedule gives block ends and a geometric rule")
    margin = scfg.get("c", "auto")
    # FractalSpec refuses a margin below c_min
    margin = c_min if margin == "auto" else _whole("schedule.c", margin)
    alpha = free_fraction(s, dim)
    if "m" in scfg:
        m = [_whole("schedule.m entry", v) for v in scfg["m"]]
        sched = generate(alpha, margin, norm.n_functionals, m=m)
    elif scfg.get("rule") == "geometric":
        sched = generate(alpha, margin, norm.n_functionals,
                         K=_whole("K", scfg["K"], 0),
                         ratio=_rational("ratio", scfg.get("ratio", 2)))
    else:
        raise FormatError("schedule needs block ends or a geometric rule")
    seed = _whole("seed", cfg.get("seed", 0) if seed is None else seed, 0)
    samples = _whole("samples",
                     cfg.get("samples", 1000) if samples is None else samples)
    budget = _whole("budget",
                    cfg.get("budget", 10**8) if budget is None else budget)
    spec = cn.FractalSpec(dim, s, norm, sched, seed)
    raw_scales = cfg.get("scales", "checkpoints")
    if raw_scales == "checkpoints":
        scales = list(sched.bounds[1:])
    else:
        scales = list(raw_scales)
        for r in scales:
            if _whole("scale", r) > sched.depth:
                raise OutOfRange(f"scale {r!r} outside 1..{sched.depth}")
    # a zero-block schedule has no checkpoints to resolve to
    if not scales or len(set(scales)) != len(scales):
        raise OutOfRange(f"scales must be non-empty and distinct, not "
                         f"{scales!r}")
    resolved = {
        "dimension": dim,
        "s": f"{s.numerator}/{s.denominator}",
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
        "seed": seed,
        "samples": samples,
        "budget": budget,
        "scales": scales,
        "norm": {
            "kind": kind,
            "name": name,
            "n_functionals": norm.n_functionals,
            "pivots": [f.pivot for f in norm.functionals],
            "min_margin": c_min,
            "functionals": [[[v, f.precision] for v in f.mantissas]
                            for f in norm.functionals],
        },
        "schedule": {"margin": sched.margin, "m": list(sched.bounds),
                     "n": list(sched.splits)},
    }
    return _Run(spec, scales, samples, budget, resolved,
                _canonical_hash(cfg), _canonical_hash(resolved))


def _write_manifest(run: _Run, args) -> None:
    """manifest.json for construct, so it keeps describing the points.txt
    written with it; manifest.<command>.json for every other command."""
    doc = {
        "format": "polyfrac-manifest v1",
        "tool": f"polyfrac {__version__}",
        "config_hash": run.config_hash,
        "manifest_hash": run.manifest_hash,
        "resolved": run.resolved,
    }
    name = ("manifest.json" if args.command == "construct"
            else f"manifest.{args.command}.json")
    path = os.path.join(args.out, name)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_lines(path: str, lines: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _series_svg(entries, mhash: str, title: str) -> list:
    pts = [(e.r, math.log2(e.count)) for e in entries if e.count]
    w, h, ml, mb = 400, 300, 45, 40
    if pts:
        rlo, rhi = min(p[0] for p in pts), max(p[0] for p in pts)
        vhi = max(p[1] for p in pts) or 1.0
        rspan = (rhi - rlo) or 1
        coords = " ".join(
            f"{ml + (r - rlo) / rspan * (w - ml - 20):.2f},"
            f"{h - mb - v / vhi * (h - mb - 30):.2f}" for r, v in pts)
    else:
        coords = ""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">',
        f"<!-- manifest {mhash} -->",
        f'<text x="{ml}" y="18" font-size="12">{title}</text>',
        f'<polyline fill="none" stroke="#888" points="{ml},{h - mb} '
        f'{w - 20},{h - mb}"/>',
        f'<polyline fill="none" stroke="#888" points="{ml},{h - mb} '
        f'{ml},20"/>',
        f'<polyline fill="none" stroke="#000" points="{coords}"/>',
        "</svg>",
    ]


def _write_counts(out: str, tag: str, entries, mhash: str) -> None:
    """boxcounts_<tag>.csv and its log-log plot boxcounts_<tag>.svg."""
    lines = ["polyfrac-boxcounts v1", f"# manifest {mhash}",
             "r,count,log2_count,mode"]
    for e in entries:
        lg = math.log2(e.count) if e.count else float("-inf")
        lines.append(f"{e.r},{e.count},{lg:.6f},{e.mode}")
    path = os.path.join(out, f"boxcounts_{tag}")
    _write_lines(path + ".csv", lines)
    _write_lines(path + ".svg", _series_svg(entries, mhash, tag))


def _load_points(run: _Run, args) -> list:
    """The points ``construct`` wrote, bound to this config by content.

    Seed, norm and schedule fix the pinned point and ``samples`` the count;
    budget and scales do not bind the file, so its manifest hash is unread.
    """
    points, _ = cn.read_points(os.path.join(args.out, _POINTS_FILE))
    spec = run.spec
    if points[0].dim != spec.dim or points[0].precision != spec.schedule.depth:
        raise FormatError("points file shape does not match the config")
    if len(points) != run.samples + 1:
        raise FormatError(f"points file holds {len(points)} points, not "
                          f"{run.samples + 1}")
    if points[0] != cn.pinned_point(spec):
        raise FormatError("manifest mismatch: point 0 of the points file is "
                          "not this config's pinned point")
    # point 0 equals the pinned point, role included, so row 0 is tagged x
    tagged = next((pt.index for pt in points[1:] if pt.role != "sample"),
                  None)
    if tagged is not None:
        raise FormatError(f"points file row {tagged} is tagged "
                          f"{cn.ROLE_TAGS['pinned']}: only row 0 may be")
    return points


def _all_verified(points, spec) -> bool:
    """Check every point; name the first failure on stderr."""
    bad = cn.first_failure(points, spec)
    if bad is None:
        return True
    pt, report = bad
    k, check, place = report.failures[0]
    print(f"point {pt.index}: block {k} {check} fails at place {place}",
          file=sys.stderr)
    return False


def cmd_construct(run: _Run, args) -> int:
    points = [cn.pinned_point(run.spec)]
    points += cn.sample_points(run.spec, run.samples)
    if not _all_verified(points, run.spec):
        return 3
    path = os.path.join(args.out, _POINTS_FILE)
    cn.write_points(path, points, run.manifest_hash)
    _write_manifest(run, args)
    print(f"wrote {len(points)} points (d={run.spec.dim}, "
          f"prec={run.spec.schedule.depth}) to {path}")
    return 0


def cmd_distset(run: _Run, args) -> int:
    from . import distset as ds
    points = _load_points(run, args)
    x, ys = points[0], points[1:]
    r = args.euclid
    if args.pairwise:
        recs = ds.pairwise(ys, run.spec.norm, cap=run.budget,
                           seed=run.spec.seed, euclid=r)
    else:
        recs = ds.pinned(x, ys, run.spec.norm, euclid=r)
    header = "pair_id,ell,mantissa_hex,prec"
    if r is not None:
        header += ",euclid_mantissa_hex,euclid_prec"

    def row(rec) -> str:
        i, j = rec.source
        line = (f"{i}-{j},{rec.achieving},"
                f"{cn.mantissa_to_hex(rec.mantissa, rec.precision)},"
                f"{rec.precision}")
        if r is not None:
            line += f",{cn.mantissa_to_hex(rec.euclid, r)},{r}"
        return line + "\n"

    path = os.path.join(args.out, "distances.csv")
    rows = 0
    with open(path, "w", newline="\n") as fh:
        fh.write(f"polyfrac-distances v1\n# manifest {run.manifest_hash}\n"
                 f"{header}\n")
        for rec in recs:  # pairwise records are measured as they are written
            fh.write(row(rec))
            rows += 1
    _write_manifest(run, args)
    kind = "pairwise" if args.pairwise else "pinned"
    print(f"wrote {rows} {kind} distances to {path}")
    return 0


def cmd_boxdim(run: _Run, args) -> int:
    from . import dimension as dm
    from . import distset as ds
    spec = run.spec
    points = _load_points(run, args)
    system = dm.slab_system(spec)
    set_counts = []
    for r in run.scales:
        try:
            count = dm.count_exact(system, r, run.budget).count
            set_counts.append(dm.BoxCount(r, count, "exact"))
        except BudgetExceeded:
            set_counts += dm.sampled_point_series(points, [r])
    _write_counts(args.out, "set", set_counts, run.manifest_hash)
    for e in set_counts:
        print(f"r={e.r} count={e.count} mode={e.mode}")

    values = ds.estimation_values(ds.pinned(points[0], points[1:], spec.norm))
    sched = spec.schedule
    dist_counts = []
    for ell in range(spec.norm.n_functionals):
        counts = dm.sampled_distance_series(
            values.get(ell, []), [w.b for w in sched.of_functional(ell)])
        dist_counts.append(counts)
        _write_counts(args.out, f"dist_ell{ell}", counts, run.manifest_hash)
    _write_manifest(run, args)

    est_set = dm.dim_lower_estimate(set_counts)
    limited = [e.r for e in set_counts if e.mode == "saturated"]
    print(f"dim_set lower estimate {est_set:.4f} over scales "
          f"{list(run.scales)}"
          + (f"; sample-limited (saturated) at {limited}" if limited else ""))
    for ell, counts in enumerate(dist_counts):
        # a checkpoint tops its block's window, with n_k digits as its ideal
        # bound; an empty window constrains no digit, so it bounds nothing
        for w, e in zip(sched.of_functional(ell), counts):
            lg = math.log2(e.count) if e.count else None
            line = f"dist ell={ell} r={w.b} " + (
                "empty" if lg is None else f"log2count={lg:.2f}")
            if w.a >= w.b:
                print(f"{line} no thinning claimed (empty window)")
                continue
            slack = dm.distance_slack(sched.margin, w.end)
            word = "ok" if lg is None or lg <= w.split + slack else "over"
            print(f"{line} bound={w.split}+{slack} {word}")

    code = 0
    if args.falconer:
        usable = [[e for e in counts if e.count] for counts in dist_counts]
        est_dist = min((dm.dim_lower_estimate(es) for es in usable if es),
                       default=0.0)
        dist_limited = [f"ell={ell} r={e.r}" for ell, es in enumerate(usable)
                        for e in es if e.mode == "saturated"]
        rep = dm.falconer_check(est_set, est_dist, spec.dim)
        word = "PASS" if rep.passed else "FAIL"
        print(f"falconer: dim_set>={est_set:.4f} dim_dist>={est_dist:.4f} "
              f"threshold={rep.threshold:.4f} {word}"
              + (f"; sample-limited (saturated) at {', '.join(dist_limited)}"
                 if dist_limited else ""))
        if not rep.passed:
            code = 3
    if all(e.mode != "exact" for e in set_counts):
        print("no exact scale completed within budget", file=sys.stderr)
        return 4
    return code


def _ratio_text(v: int, r: int) -> str:
    """v/r in lowest terms: Fraction(v, r)'s numerator/denominator, 0/1 at 0."""
    g = math.gcd(v, r)
    return f"{v // g}/{r // g}"


def cmd_profile(run: _Run, args) -> int:
    from . import dimension as dm
    sched = run.spec.schedule
    bases = [("set", None)]
    bases += [(f"dist_ell{ell}", ell)
              for ell in range(run.spec.norm.n_functionals)]
    for tag, ell in bases:
        ideal = dm.profile_ideal(sched, run.spec.dim, ell).values()
        aware = dm.profile_c_aware(sched, run.spec.dim, ell).values()
        lines = ["polyfrac-profiles v1", f"# manifest {run.manifest_hash}",
                 "r,P_ideal,P_c_aware,ratio_ideal,ratio_c_aware"]
        for r in range(1, sched.depth + 1):
            vi, vc = ideal[r], aware[r]
            lines.append(f"{r},{vi},{vc},{_ratio_text(vi, r)},"
                         f"{_ratio_text(vc, r)}")
        path = os.path.join(args.out, f"profiles_{tag}.csv")
        _write_lines(path, lines)
        print(f"wrote {path}")
    _write_manifest(run, args)
    return 0


def cmd_verify(run: _Run, args) -> int:
    from . import distset as ds
    points = _load_points(run, args)
    if not _all_verified(points, run.spec):
        return 3
    x = points[0]
    pt = ds.collapse_first_failure(x, points[1:], run.spec)
    if pt is not None:
        rep = ds.collapse_check(x, pt, run.spec)
        bad = next(b.block for b in rep.blocks if not b.constant_trimmed)
        print(f"pair {x.index}-{pt.index}: collapse fails at block {bad}",
              file=sys.stderr)
        return 3
    print(f"verified {len(points)} points")
    print(f"collapse ok on {len(points) - 1} pinned pairs")
    return 0


_COMMANDS = {
    "construct": cmd_construct,
    "distset": cmd_distset,
    "boxdim": cmd_boxdim,
    "profile": cmd_profile,
    "verify": cmd_verify,
}


def _places(text: str) -> int:
    """--euclid: a count of binary places, so an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, not {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polyfrac")
    sub = top.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--budget", type=int)
        if name == "distset":
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--pinned", action="store_true")
            mode.add_argument("--pairwise", action="store_true")
            p.add_argument("--euclid", type=_places)
        if name == "boxdim":
            p.add_argument("--falconer", action="store_true")
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        run = _resolve(cfg, seed=args.seed, samples=args.samples,
                       budget=args.budget)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            PolyfracError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        # --out is empty, names a file, lies under one or cannot be made
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](run, args)
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except (IsADirectoryError, NotADirectoryError) as exc:
        # points.txt is a directory
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    except PolyfracError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

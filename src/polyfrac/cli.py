"""Command line front end.

Every run resolves the JSON config to a fully explicit parameter set, hashes
it, and stamps the hash into each output file, so artifacts can be matched
to the exact configuration that produced them.  All outputs are
byte-deterministic for a fixed config and flags.

Exit codes: 0 success, 2 config or format problem or a missing or
mismatched points.txt, 3 verification failure, 4 budget exhausted before
any exact count finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from . import construct as cn
from . import dimension as dm
from . import distset as ds
from .errors import (BudgetExceeded, FormatError, OutOfRange, PolyfracError)
from .norms import PolyhedralNorm, custom_norm, margin_ok, min_margin, preset
from .schedule import free_fraction, generate

_POINTS_FILE = "points.txt"
_SAMPLES_FILE = "samples.txt"


def _canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class _Run:
    spec: "cn.FractalSpec"
    norm_kind: str
    norm_name: str | None
    scales: list
    samples: int
    budget: int
    resolved: dict
    config_hash: str
    manifest_hash: str


def _parse_s(raw) -> Fraction:
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise OutOfRange(f"cannot read target dimension {raw!r}") from None


def _whole(name: str, value, low: int = 1) -> int:
    # JSON 7.5 or true would otherwise pass for 7 or 1 under another hash
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise OutOfRange(f"{name} must be an integer >= {low}, not {value!r}")
    return value


def _resolve(cfg: dict, seed=None, samples=None, budget=None) -> _Run:
    if not isinstance(cfg, dict):
        raise FormatError("config must be a JSON object")
    dim = _whole("dimension", cfg["dimension"])
    s = _parse_s(cfg["s"])
    ncfg = cfg["norm"]
    if "preset" in ncfg:
        kind, name = "preset", ncfg["preset"]
        norm = preset(name, dim)
    elif "custom" in ncfg:
        kind, name = "custom", None
        norm = custom_norm(ncfg["custom"])
        if norm.dim != dim:
            raise OutOfRange("custom norm dimension != config dimension")
    else:
        raise FormatError("norm needs a preset or custom table")
    scfg = cfg["schedule"]
    margin = scfg.get("c", "auto")
    if margin == "auto":
        margin = min_margin(norm)
    elif not isinstance(margin, int) or not margin_ok(norm, margin):
        raise OutOfRange(f"margin {margin!r} too small for this norm")
    alpha = free_fraction(s, dim)
    if "m" in scfg:
        sched = generate(alpha, margin, norm.n_functionals, m=scfg["m"],
                         widen=True)
    elif scfg.get("rule") == "geometric":
        sched = generate(alpha, margin, norm.n_functionals, K=scfg["K"],
                         ratio=scfg.get("ratio", 2))
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
        scales = [sched.bound(k) for k in range(2, sched.n_blocks + 2)]
    else:
        scales = list(raw_scales)
        for r in scales:
            if _whole("scale", r) > sched.depth:
                raise OutOfRange(f"scale {r!r} outside 1..{sched.depth}")
        if not scales or len(set(scales)) != len(scales):
            raise OutOfRange(f"scales must be non-empty and distinct, "
                             f"not {scales!r}")
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
            "min_margin": min_margin(norm),
            "functionals": [[[v, f.precision] for v in f.mantissas]
                            for f in norm.functionals],
        },
        "schedule": {"margin": sched.margin, "m": list(sched.bounds),
                     "n": list(sched.splits)},
    }
    return _Run(spec, kind, name, scales, samples, budget, resolved,
                _canonical_hash(cfg), _canonical_hash(resolved))


def _write_manifest(run: _Run, out: str) -> None:
    doc = {
        "format": "polyfrac-manifest v1",
        "tool": f"polyfrac {__version__}",
        "config_hash": run.config_hash,
        "manifest_hash": run.manifest_hash,
        "resolved": run.resolved,
    }
    path = os.path.join(out, "manifest.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_lines(path: str, lines: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _boxcount_csv(series: dm.BoxCountSeries, mhash: str) -> list:
    lines = ["polyfrac-boxcounts v1", f"# manifest {mhash}",
             "r,count,log2_count,mode"]
    for e in series.entries:
        lg = math.log2(e.count) if e.count else float("-inf")
        lines.append(f"{e.r},{e.count},{lg:.6f},{e.mode}")
    return lines


def _series_svg(series: dm.BoxCountSeries, mhash: str, title: str) -> list:
    pts = [(e.r, math.log2(e.count)) for e in series.entries if e.count]
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
    return points


def _all_verified(points, spec) -> bool:
    """Check each point; name the first failure on stderr."""
    for pt in points:
        report = cn.verify_point(pt, spec)
        if not report.ok:
            k, check, place = report.failures[0]
            print(f"point {pt.index}: block {k} {check} fails at place "
                  f"{place}", file=sys.stderr)
            return False
    return True


def cmd_construct(run: _Run, args) -> int:
    points = [cn.pinned_point(run.spec)]
    points += cn.sample_points(run.spec, run.samples)
    if not _all_verified(points, run.spec):
        return 3
    path = os.path.join(args.out, _POINTS_FILE)
    cn.write_points(path, points, run.manifest_hash)
    _write_manifest(run, args.out)
    print(f"wrote {len(points)} points (d={run.spec.dim}, "
          f"prec={run.spec.schedule.depth}) to {path}")
    return 0


def cmd_sample(run: _Run, args) -> int:
    ys = cn.sample_points(run.spec, run.samples)
    path = os.path.join(args.out, _SAMPLES_FILE)
    cn.write_points(path, ys, run.manifest_hash)
    _write_manifest(run, args.out)
    print(f"wrote {len(ys)} sample points to {path}")
    return 0


def cmd_distset(run: _Run, args) -> int:
    points = _load_points(run, args)
    x, ys = points[0], points[1:]
    if args.pairwise:
        recs = ds.pairwise(ys, run.spec.norm, cap=run.budget,
                           seed=run.spec.seed)
    else:
        recs = ds.pinned(x, ys, run.spec.norm)
    header = "pair_id,ell,mantissa_hex,prec"
    if args.euclid is not None:
        header += ",euclid_mantissa_hex,euclid_prec"
    lines = ["polyfrac-distances v1", f"# manifest {run.manifest_hash}",
             header]
    for rec in recs:
        i, j = rec.source
        row = (f"{i}-{j},{rec.achieving},"
               f"{cn.mantissa_to_hex(rec.value.mantissa, rec.value.precision)},"
               f"{rec.value.precision}")
        if args.euclid is not None:
            delta = [a - b for a, b in
                     zip(points[i].coords, points[j].coords)]
            e = ds.euclid_floor(delta, args.euclid)
            row += f",{cn.mantissa_to_hex(e.mantissa, e.precision)},{e.precision}"
        lines.append(row)
    path = os.path.join(args.out, "distances.csv")
    _write_lines(path, lines)
    _write_manifest(run, args.out)
    kind = "pairwise" if args.pairwise else "pinned"
    print(f"wrote {len(recs)} {kind} distances to {path}")
    return 0


def cmd_boxdim(run: _Run, args) -> int:
    spec = run.spec
    points = _load_points(run, args)
    system = dm.slab_system(spec)
    entries = []
    exact_done = 0
    for r in run.scales:
        try:
            ec = dm.count_exact(system, r, run.budget)
            entries.append(dm.BoxCount(r, ec.count, "exact"))
            exact_done += 1
        except BudgetExceeded:
            entries.append(dm.sampled_point_series(points, [r]).entries[0])
    set_series = dm.BoxCountSeries(tuple(entries))
    _write_lines(os.path.join(args.out, "boxcounts_set.csv"),
                 _boxcount_csv(set_series, run.manifest_hash))
    _write_lines(os.path.join(args.out, "boxcounts_set.svg"),
                 _series_svg(set_series, run.manifest_hash, "set"))
    for e in set_series.entries:
        print(f"r={e.r} count={e.count} mode={e.mode}")

    values = ds.estimation_values(ds.pinned(points[0], points[1:], spec.norm))
    dist_series = {}
    for ell in range(spec.norm.n_functionals):
        cps = [r for r, _ in dm.distance_checkpoints(spec, ell)]
        ser = dm.sampled_distance_series(values.get(ell, []), cps)
        dist_series[ell] = (ser, cps)
        tag = f"dist_ell{ell}"
        _write_lines(os.path.join(args.out, f"boxcounts_{tag}.csv"),
                     _boxcount_csv(ser, run.manifest_hash))
        _write_lines(os.path.join(args.out, f"boxcounts_{tag}.svg"),
                     _series_svg(ser, run.manifest_hash, tag))
    _write_manifest(run, args.out)

    est_set = dm.dim_lower_estimate(set_series, run.scales)
    limited = [e.r for e in set_series.entries if e.mode == "saturated"]
    print(f"dim_set lower estimate {est_set:.4f} over scales "
          f"{list(run.scales)}"
          + (f"; sample-limited (saturated) at {limited}" if limited else ""))
    sched = spec.schedule
    for ell in range(spec.norm.n_functionals):
        ser, _ = dist_series[ell]
        for (r, bound), k in zip(dm.distance_checkpoints(spec, ell),
                                 sched.blocks_for_functional(ell)):
            slack = dm.distance_slack(sched.margin, sched.bound(k + 1))
            e = ser.entry(r)
            if e.count:
                lg = math.log2(e.count)
                word = "ok" if lg <= bound + slack else "over"
                print(f"dist ell={ell} r={r} log2count={lg:.2f} "
                      f"bound={bound}+{slack} {word}")
            else:
                print(f"dist ell={ell} r={r} empty bound={bound}+{slack} ok")

    code = 0
    if args.falconer:
        est_dist = None
        for ell, (ser, cps) in dist_series.items():
            usable = [r for r in cps if ser.entry(r).count >= 1]
            if not usable:
                continue
            v = dm.dim_lower_estimate(ser, usable)
            est_dist = v if est_dist is None else min(est_dist, v)
        if est_dist is None:
            est_dist = 0.0
        rep = dm.falconer_check(est_set, est_dist, spec.dim)
        word = "PASS" if rep.passed else "FAIL"
        print(f"falconer: dim_set>={est_set:.4f} dim_dist>={est_dist:.4f} "
              f"threshold={rep.threshold:.4f} {word}")
        if not rep.passed:
            code = 3
    if exact_done == 0:
        print("no exact scale completed within budget", file=sys.stderr)
        return 4
    return code


def cmd_profile(run: _Run, args) -> int:
    sched = run.spec.schedule
    bases = [("set", "set")]
    bases += [(f"dist_ell{ell}", ("distance", ell))
              for ell in range(run.spec.norm.n_functionals)]
    for tag, base in bases:
        ideal = dm.profile_ideal(sched, run.spec.dim, base)
        aware = dm.profile_c_aware(sched, run.spec.dim, base)
        lines = ["polyfrac-profiles v1", f"# manifest {run.manifest_hash}",
                 "r,P_ideal,P_c_aware,ratio_ideal,ratio_c_aware"]
        for r in range(1, sched.depth + 1):
            ri, rc = ideal.ratio(r), aware.ratio(r)
            lines.append(f"{r},{ideal.value_at(r)},{aware.value_at(r)},"
                         f"{ri.numerator}/{ri.denominator},"
                         f"{rc.numerator}/{rc.denominator}")
        path = os.path.join(args.out, f"profiles_{tag}.csv")
        _write_lines(path, lines)
        print(f"wrote {path}")
    _write_manifest(run, args.out)
    return 0


def cmd_verify(run: _Run, args) -> int:
    points = _load_points(run, args)
    if not _all_verified(points, run.spec):
        return 3
    x = points[0]
    for pt in points[1:]:
        rep = ds.collapse_check(x, pt, run.spec)
        if not rep.ok:
            bad = next(b.block for b in rep.blocks if not b.constant_trimmed)
            print(f"pair {x.index}-{pt.index}: collapse fails at block "
                  f"{bad}", file=sys.stderr)
            return 3
    print(f"verified {len(points)} points")
    print(f"collapse ok on {len(points) - 1} pinned pairs")
    return 0


_COMMANDS = {
    "construct": cmd_construct,
    "sample": cmd_sample,
    "distset": cmd_distset,
    "boxdim": cmd_boxdim,
    "profile": cmd_profile,
    "verify": cmd_verify,
}


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
            p.add_argument("--euclid", type=int)
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
    os.makedirs(args.out, exist_ok=True)
    try:
        return _COMMANDS[args.command](run, args)
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
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

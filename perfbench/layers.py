"""Per-layer metrics from the span files the trace launcher writes.

A traced pass leaves one trace per command.  Spans give per-call times
(reported as p50/p99 by nearest rank over every call in the pass) and
summed layer times; counters snapshotted at span boundaries give work per
point and per distance.
"""

from __future__ import annotations

import json
import math
from array import array

from workloads import COMMANDS, SCALES

# name -> (unit, better); the order here is the order of the report
METRICS = {
    "streams.init_us.p50": ("us", "lower"),
    "streams.init_us.p99": ("us", "lower"),
    "streams.per_point": ("count", "lower"),
    "streams.bits_per_point": ("count", "lower"),
    "construct.build_point_us.p50": ("us", "lower"),
    "construct.build_point_us.p99": ("us", "lower"),
    "construct.verify_point_us.p50": ("us", "lower"),
    "construct.verify_point_us.p99": ("us", "lower"),
    "construct.write_points_s": ("s", "lower"),
    "construct.read_points_s": ("s", "lower"),
    "construct.points_bytes": ("bytes", "lower"),
    "norms.dot_per_distance": ("count", "lower"),
    "norms.dot_per_collapse": ("count", "lower"),
    "norms.evaluate_us": ("us", "lower"),
    "norms.argmax_us": ("us", "lower"),
    "distset.pinned_us": ("us", "lower"),
    "distset.row_us": ("us", "lower"),
    "distset.collapse_check_us": ("us", "lower"),
    "distset.euclid_floor_us": ("us", "lower"),
    **{f"dimension.count_exact_s.r{r}": ("s", "lower") for r in SCALES},
    **{f"dimension.examined.r{r}": ("count", "lower") for r in SCALES},
    **{f"dimension.undecided.r{r}": ("count", "lower") for r in SCALES},
    "dimension.exact_ratio": ("ratio", "higher"),
    "dimension.discarded_share": ("ratio", "lower"),
    "dimension.distance_series_s": ("s", "lower"),
    "dimension.profile_s": ("s", "lower"),
    "schedule.generate_us": ("us", "lower"),
    "dyadic.allocs_per_point": ("count", "lower"),
    "dyadic.allocs_per_distance": ("count", "lower"),
    **{f"cli.self_s.{c}": ("s", "lower") for c in COMMANDS},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


class Trace:
    """One command's spans and counters, as the launcher wrote them."""

    def __init__(self, path: str):
        with open(path) as fh:
            self.header = json.load(fh)
        n = self.header["n_spans"]
        arrays = [array("i"), array("i"), array("q"), array("q")]
        with open(path + ".bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, n)
        name, self.parent, start, end = arrays
        self.dur = [e - s for s, e in zip(start, end)]
        names = self.header["names"]
        self.by_name = {nm: [] for nm in names}
        for k, d in zip(name, self.dur):
            self.by_name[names[k]].append(d)
        self.root = name.index(names.index("cli.main"))

    def durations(self, name: str) -> list:
        return self.by_name.get(name, [])

    def self_ns(self) -> int:
        """The command's root span minus its direct child spans and the
        profile evaluation the command does itself."""
        kids = sum(d for d, p in zip(self.dur, self.parent) if p == self.root)
        return self.dur[self.root] - kids - self.header["profile_eval_ns"]

    def delta(self, name: str, counter: str) -> int:
        row = self.header["deltas"].get(name)
        if row is None:
            return 0
        return row[self.header["counter_names"].index(counter)]

    def items(self, name: str) -> int:
        return self.header["items"].get(name, 0)


def _pct(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: dict, points_bytes: int, traced_wall: float,
                  plain_wall: float) -> dict:
    """Per-layer metric values from {command: Trace} of one traced pass."""
    tr = list(traces.values())

    def durs(name):
        return [d for t in tr for d in t.durations(name)]

    def total_s(*names):
        return sum(sum(durs(n)) for n in names) / 1e9

    def delta(name, counter):
        return sum(t.delta(name, counter) for t in tr)

    def items(name):
        return sum(t.items(name) for t in tr)

    us = 1e-3  # ns -> us
    m = {}
    init = durs("streams.init")
    m["streams.init_us.p50"] = _pct(init, 0.5) * us
    m["streams.init_us.p99"] = _pct(init, 0.99) * us
    built = len(durs("construct.build_point"))
    m["streams.per_point"] = _ratio(delta("construct.build_point", "streams"),
                                    built)
    m["streams.bits_per_point"] = _ratio(delta("construct.build_point", "bits"),
                                         built)
    for name in ("build_point", "verify_point"):
        d = durs(f"construct.{name}")
        m[f"construct.{name}_us.p50"] = _pct(d, 0.5) * us
        m[f"construct.{name}_us.p99"] = _pct(d, 0.99) * us
    m["construct.write_points_s"] = total_s("construct.write_points")
    m["construct.read_points_s"] = total_s("construct.read_points")
    m["construct.points_bytes"] = points_bytes

    rows = items("distset.pinned") + items("distset.pairwise")
    dots = delta("distset.pinned", "dot") + delta("distset.pairwise", "dot")
    m["norms.dot_per_distance"] = _ratio(dots, rows)
    m["norms.dot_per_collapse"] = _ratio(
        delta("distset.collapse_check", "dot"),
        len(durs("distset.collapse_check")))
    m["norms.evaluate_us"] = _pct(durs("norms.evaluate"), 0.5) * us
    m["norms.argmax_us"] = _pct(durs("norms.argmax"), 0.5) * us
    m["distset.pinned_us"] = _ratio(sum(durs("distset.pinned")) * us,
                                    items("distset.pinned"))
    ds = traces.get("distset")
    if ds is not None:
        spans = ds.durations("distset.pinned") + ds.durations("distset.pairwise")
        m["distset.row_us"] = _ratio(sum(spans) * us, ds.items("distset.pinned")
                                     + ds.items("distset.pairwise"))
    else:
        m["distset.row_us"] = 0.0
    m["distset.collapse_check_us"] = _pct(durs("distset.collapse_check"),
                                          0.5) * us
    m["distset.euclid_floor_us"] = _pct(durs("distset.euclid_floor"), 0.5) * us

    exact = [rec for t in tr for rec in t.header["count_exact"]]
    for r in SCALES:
        recs = [rec for rec in exact if rec["r"] == r]
        m[f"dimension.count_exact_s.r{r}"] = sum(rec["ns"] for rec in recs) / 1e9
        m[f"dimension.examined.r{r}"] = sum(rec["examined"] or 0
                                            for rec in recs)
        m[f"dimension.undecided.r{r}"] = float(sum(
            rec["upper"] - rec["lower"] for rec in recs
            if rec["lower"] is not None))
    decided = [rec for rec in exact
               if rec["lower"] is not None and rec["lower"] == rec["upper"]]
    m["dimension.exact_ratio"] = _ratio(len(decided), len(exact))
    m["dimension.discarded_share"] = _ratio(
        sum(rec["ns"] for rec in exact if rec not in decided),
        sum(rec["ns"] for rec in exact))
    m["dimension.distance_series_s"] = total_s(
        "dimension.sampled_distance_series")
    m["dimension.profile_s"] = (
        total_s("dimension.profile_ideal", "dimension.profile_c_aware")
        + sum(t.header["profile_eval_ns"] for t in tr) / 1e9)
    m["schedule.generate_us"] = _pct(durs("schedule.generate"), 0.5) * us
    m["dyadic.allocs_per_point"] = _ratio(
        delta("construct.build_point", "dyadic"), built)
    m["dyadic.allocs_per_distance"] = _ratio(
        delta("distset.pinned", "dyadic") + delta("distset.pairwise", "dyadic"),
        rows)
    for command in COMMANDS:
        t = traces.get(command)
        m[f"cli.self_s.{command}"] = t.self_ns() / 1e9 if t else 0.0
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.overhead_share"] = _ratio(traced_wall - plain_wall, plain_wall)
    return m

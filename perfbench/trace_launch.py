"""Run one polyfrac command with layer tracing installed from outside.

Usage: python3 perfbench/trace_launch.py TRACE_FILE polyfrac-args...

The launcher replaces the module and class attributes the library looks up
at call time (``polyfrac.construct.build_point``, ``PolyhedralNorm.evaluate``,
``polyfrac.dimension.count_exact``, ...) with wrappers, then calls
``polyfrac.cli.main``.  Each wrapped call records a span (name, start, end,
parent); hot inner calls (``Functional.dot``, ``Dyadic`` construction,
``BitStream.take_bits``) are only counted.  Spans stay in memory and are
written once, after the command returns: a JSON header at TRACE_FILE and the
span arrays at TRACE_FILE + ".bin".  No file under ``src/`` is changed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# counter slots, snapshotted at the boundaries of the spans in _COUNTED
DOT, DYADIC, STREAMS, BITS = range(4)
COUNTER_NAMES = ("dot", "dyadic", "streams", "bits")

# spans whose counter deltas and returned item counts are aggregated by name
_COUNTED = {"construct.build_point", "construct.sample_points",
            "distset.pinned", "distset.pairwise", "distset.collapse_check"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts = [0] * len(COUNTER_NAMES)
        self.deltas: dict[str, list[int]] = {}
        self.items: dict[str, int] = {}
        self.count_exact: list[dict] = []
        self.profile_eval_ns = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn):
        """Wrap fn so every call records a span called name."""
        nid = self.name_id(name)
        counted = name in _COUNTED
        if counted:
            deltas = self.deltas.setdefault(name, [0] * len(COUNTER_NAMES))
        counts = self.counts

        def wrapped(*args, **kwargs):
            before = counts[:] if counted else None
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
                if counted:
                    for k, v in enumerate(before):
                        deltas[k] += counts[k] - v
            if counted and isinstance(out, list):
                self.items[name] = self.items.get(name, 0) + len(out)
            return out

        return wrapped

    def counted(self, slot: int, fn, amount=None):
        """Wrap fn so every call bumps a counter (by 1 or amount(args))."""
        counts = self.counts
        if amount is None:
            def wrapped(*args, **kwargs):
                counts[slot] += 1
                return fn(*args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                counts[slot] += amount(*args)
                return fn(*args, **kwargs)
        return wrapped

    def dump(self, path: str, exit_code) -> None:
        header = {"names": self.names, "n_spans": len(self.start),
                  "exit": exit_code, "counter_names": list(COUNTER_NAMES),
                  "counts": self.counts, "deltas": self.deltas,
                  "items": self.items, "count_exact": self.count_exact,
                  "profile_eval_ns": self.profile_eval_ns}
        with open(path, "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tr: Tracer) -> None:
    from polyfrac import cli, construct, dimension, distset, norms
    from polyfrac.dyadic import Dyadic
    from polyfrac.errors import BudgetExceeded
    from polyfrac.streams import BitStream

    def patch(owner, attr, name):
        setattr(owner, attr, tr.span(name, getattr(owner, attr)))

    patch(cli, "generate", "schedule.generate")
    for attr in ("pinned_point", "sample_points", "build_point",
                 "verify_point", "write_points", "read_points"):
        patch(construct, attr, f"construct.{attr}")
    for attr in ("pinned", "pairwise", "collapse_check", "euclid_floor"):
        patch(distset, attr, f"distset.{attr}")
    for attr in ("evaluate", "argmax", "argmax_all"):
        patch(norms.PolyhedralNorm, attr, f"norms.{attr}")
    for attr in ("slab_system", "count_point_cells", "sampled_distance_series",
                 "profile_ideal", "profile_c_aware"):
        patch(dimension, attr, f"dimension.{attr}")

    # a stream's constructor derives its key; time it, hand back the real one
    stream_span = tr.span("streams.init", BitStream)
    construct.BitStream = tr.counted(STREAMS, stream_span)
    distset.BitStream = tr.counted(STREAMS, stream_span)
    BitStream.take_bits = tr.counted(BITS, BitStream.take_bits,
                                     amount=lambda _self, n: n)
    norms.Functional.dot = tr.counted(DOT, norms.Functional.dot)
    Dyadic.__init__ = tr.counted(DYADIC, Dyadic.__init__)

    exact_span = tr.span("dimension.count_exact", dimension.count_exact)

    def count_exact(system, r, *args, **kwargs):
        t0 = time.perf_counter_ns()
        rec = {"r": r}
        try:
            ec = exact_span(system, r, *args, **kwargs)
        except BudgetExceeded as exc:
            rec.update(lower=None, upper=None, examined=exc.examined)
            raise
        else:
            rec.update(lower=ec.lower, upper=ec.upper, examined=ec.examined)
            return ec
        finally:
            rec["ns"] = time.perf_counter_ns() - t0
            tr.count_exact.append(rec)

    dimension.count_exact = count_exact

    # profile evaluation is many tiny calls: time it in aggregate, outermost
    # call only (ratio calls value_at)
    depth = [0]

    def timed(fn):
        def wrapped(*args):
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                tr.profile_eval_ns += time.perf_counter_ns() - t0
                depth[0] = 0
        return wrapped

    prof = dimension.ComplexityProfile
    prof.value_at = timed(prof.value_at)
    prof.ratio = timed(prof.ratio)


def main(argv: list[str]) -> int:
    trace_file, args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    from polyfrac.cli import main as cli_main
    code = None
    i = tr.open(tr.name_id("cli.main"))
    try:
        code = cli_main(args)
    finally:
        tr.close(i)
        tr.dump(trace_file, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

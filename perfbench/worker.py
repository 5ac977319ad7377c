"""One benchmark process: set up a workload, then run timed passes.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It prints
``ready`` on its own line as soon as set-up is done (import, input
generation, caches), so the parent can time set-up from the process start;
with ``--setup-only`` it exits right there.  Otherwise it runs passes until
``--seconds`` have elapsed and the workload's minimum pass count is met, and
prints one JSON line with every operation's latency and outcome.

With ``--trace 1`` it alternates untraced and traced passes: the traced
ones give the per-layer numbers, and the difference between the two kinds
is the tracing overhead.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback

from importlib import metadata

import numpy as np

import twinbeam
from twinbeam.errors import TwinbeamError

from tracing import LAYERS, Tracer
from workloads import WORKLOADS


# The host's speed drifts by tens of percent from second to second (other
# tenants share the cores, and neither frequency nor cores can be pinned).
# A fixed reference kernel, run from a SIGALRM handler every REF_PERIOD_S
# while the passes run, tracks that drift.  An operation's calibrated time
# is its wall time minus the kernel runs inside it, times REF_NOMINAL_S and
# the mean inverse reference time sampled during it: the time it would take
# where the kernel takes REF_NOMINAL_S.
REF_NOMINAL_S = 1e-3
REF_PERIOD_S = 0.025
REF_WINDOW_S = 0.25     # samples this close to an op calibrate it


def _ordered(a, b):
    return (a, b) if a < b else (b, a)


def reference_kernel():
    """Interpreter work like the library's Python loops (tuple keys, dict
    updates, generator tests, float math), small-array numpy calls, and a
    little 4096-element array work.  Of the kernels tried, this mix tracked
    the drift of all three workloads best."""
    counts = {}
    acc = 0.0
    for i in range(700):
        key = _ordered(i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        acc += math.sqrt(i + 1.0) * 0.5
        if key in counts and all(v >= 0 for v in key):
            acc -= 1e-9
    small = np.arange(4.0)
    for _ in range(30):
        if float(np.mean(small)) <= 0.0:
            acc += 1.0
        small = np.sqrt(small + 1.0)
    big = np.arange(4096.0)
    for _ in range(12):
        big = big * 0.5 + 1.0
    return acc


class Clock:
    """Reference-kernel samples (start, end) taken on a wall-clock timer."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def _sample(self, *_):
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def net(self, op) -> float:
        """Wall time of op without the kernel runs that interrupted it."""
        lo = bisect.bisect_left(self.starts, op.start)
        hi = bisect.bisect_right(self.ends, op.end)
        return op.seconds - sum(self.ends[k] - self.starts[k]
                                for k in range(lo, hi))

    def calibrated(self, op) -> float:
        """Net time of op at the reference kernel's nominal speed, from the
        samples during it and within REF_WINDOW_S around it.  The window
        averages the noise of single 1 ms samples; the drift it corrects
        lasts seconds."""
        lo = bisect.bisect_left(self.starts, op.start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, op.end + REF_WINDOW_S)
        inverse = statistics.fmean(1.0 / (self.ends[k] - self.starts[k])
                                   for k in range(lo, hi))
        return self.net(op) * REF_NOMINAL_S * inverse


class Op:
    """Outcome of one timed operation."""

    __slots__ = ("kind", "start", "end", "seconds", "item", "error",
                 "mismatch", "untyped")

    def __init__(self, kind, start, end, item, error=None, untyped=False):
        self.kind = kind
        self.start = start
        self.end = end
        self.seconds = end - start
        self.item = item
        self.error = error
        self.mismatch = False
        self.untyped = untyped

    def check(self, problem):
        """Record a failed output check; None means the check passed."""
        if problem is not None and self.error is None:
            self.error = f"check: {problem}"
            self.mismatch = True


class Runner:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []

    def run_op(self, kind, fn, item=False):
        tracer = self.tracer
        if tracer is not None:
            tracer.armed = True
        value = None
        error = None
        untyped = False
        start = time.perf_counter()
        try:
            value = fn()
        except TwinbeamError as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an untyped error is a defect: record it
            error = f"untyped {type(exc).__name__}: {exc}"
            untyped = True
            traceback.print_exc(file=sys.stderr)
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.armed = False
        op = Op(kind, start, end, item, error, untyped)
        self.ops.append(op)
        return value, op


def layer_metrics(tracer, ops) -> dict:
    """Per-layer numbers of one traced pass, from its spans and counts."""
    selfs = tracer.self_times()
    counts = tracer.counts

    def layer_self(layer, names=None):
        return sum(v for k, v in selfs.items()
                   if k.split(".", 1)[0] == layer
                   and (names is None or k.split(".", 1)[1] in names))

    wall = sum(op.seconds for op in ops)
    maps = [op.seconds for op in ops if op.kind == "map"]
    sweeps = sum(1 for op in ops if op.kind == "sweep")
    states_done = sum(1 for op in ops if op.kind == "state")
    scan_self = layer_self("scan")
    out = {
        "scan.self_s": scan_self,
        "scan.write_s": layer_self("scan", ("write_csv",
                                            "write_boundaries_json")),
        "scan.map_share": scan_self / sum(maps) if maps else 0.0,
        "scan.cells": counts["scan.cells"],
        "scan.crossing_vertices": counts["scan.crossing_vertices"],
        "scan.mixed_ratio": (counts["scan.crossing_vertices"]
                             / counts["scan.cells"]
                             if counts["scan.cells"] else 0.0),
        "scan.polylines": counts["scan.polylines"],
        "cli.self_s": layer_self("cli"),
        "cli.boundary_rsqrt_calls": (tracer.rsqrt_under("cli.") / sweeps
                                     if sweeps else 0.0),
        "series.rsqrt_s": layer_self("series", ("rsqrt",)),
        "series.rsqrt_calls": counts["series.rsqrt_calls"],
        "series.rsqrt_lanes": counts["series.rsqrt_lanes"],
        "series.rsqrt_coeffs": counts["series.rsqrt_coeffs"],
        "series.rebased_s": layer_self("series", ("rebased",)),
        "series.rebased_calls": counts["series.rebased_calls"],
        "criteria.self_s": layer_self("criteria"),
        "criteria.evals": counts["criteria.evals"],
        "criteria.rsqrt_per_state": (tracer.rsqrt_under("criteria.")
                                     / states_done if states_done else 0.0),
        "states.build_s": layer_self("states"),
        "states.builds": counts["states.builds"],
        "quantifiers.classify_s": layer_self("quantifiers"),
        "moments.self_s": layer_self("moments"),
        "moments.marginal_calls": counts["moments.marginal_calls"],
        "moments.table_bytes": counts["moments.table_bytes"],
        "moments.cutoff_sum": counts["moments.cutoff_sum"],
        "oracle.bs_transform_s": layer_self("oracle", ("bs_transform_pnd",)),
        "oracle.downsample_s": layer_self("oracle",
                                          ("bernoulli_downsample",)),
        "oracle.factorial_s": layer_self("oracle",
                                         ("factorial_moment_from_pnd",)),
        "oracle.shells": counts["oracle.shells"],
        "trace.pass_s": wall,
        "trace.remainder_s": wall - sum(layer_self(layer)
                                        for layer in LAYERS),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="where to write the traced spans (gzip JSON)")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    seq = np.random.SeedSequence(
        [args.seed, sorted(WORKLOADS).index(cls.name)])
    workload = cls(np.random.default_rng(seq))
    workload.warm()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    deadline = start + args.seconds
    plain_passes = []        # per pass: list of Op
    traced = []              # per traced pass: (ops, layer metrics)
    tracer = Tracer() if args.trace else None
    clock = Clock()
    pass_spans = []
    min_passes = cls.trace_min_passes if args.trace else cls.min_passes
    while True:
        use_tracer = bool(args.trace) and len(traced) < len(plain_passes)
        if use_tracer:
            tracer.reset()
            tracer.install()
            runner = Runner(tracer)
            try:
                workload.run_pass(runner.run_op)
            finally:
                tracer.uninstall()
            traced.append((runner.ops,
                           layer_metrics(tracer, runner.ops)))
            pass_spans.append(tracer.spans)
        else:
            runner = Runner()
            with clock:
                workload.run_pass(runner.run_op)
            plain_passes.append(runner.ops)
        done = min(len(plain_passes), len(traced)) if args.trace \
            else len(plain_passes)
        if time.perf_counter() >= deadline and done >= min_passes:
            break

    # Inputs that raise today run once, after the timed passes; their
    # failures are reported apart from the operations of the passes.
    probes = Runner()
    workload.probe_defects(probes.run_op)
    probe_errors = [f"{op.kind}: {op.error}" for op in probes.ops
                    if op.error is not None]

    ops = [op for p in plain_passes + [t for t, _ in traced] for op in p]
    failures = [op.error for op in ops if op.error is not None]
    result = {
        "attempted": len(ops),
        "failed": len(failures),
        "mismatches": sum(op.mismatch for op in ops),
        "untyped": sum(op.untyped for op in ops),
        "failure_examples": sorted(set(failures))[:5],
        "known_defects": {"attempted": len(probes.ops),
                          "failed": len(probe_errors),
                          "errors": probe_errors},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        # scipy's version from its metadata: importing it here would add
        # to set-up the cost that a scipy-free twinbeam no longer pays
        "env": {"numpy": np.__version__, "scipy": metadata.version("scipy"),
                "twinbeam": twinbeam.__file__},
        "reference_s": statistics.median(
            e - s for s, e in zip(clock.starts, clock.ends)),
        "passes": [{"seconds": sum(clock.net(op) for op in p),
                    "cal_seconds": sum(clock.calibrated(op) for op in p),
                    "kinds": {k: [clock.net(op) for op in p if op.kind == k]
                              for k in sorted({op.kind for op in p})},
                    "items": [clock.net(op) for op in p if op.item],
                    "cal_items": [clock.calibrated(op) for op in p
                                  if op.item]}
                   for p in plain_passes],
    }
    if args.trace:
        # times and ratios: median over the traced passes; counts: the
        # first traced pass, which sees the same inputs in every run
        metrics = [m for _, m in traced]
        result["layers"] = {
            k: v if isinstance(v, int)
            else statistics.median(m[k] for m in metrics)
            for k, v in metrics[0].items()}
        result["layers"]["trace.overhead_s"] = (
            result["layers"]["trace.pass_s"]
            - statistics.median(sum(clock.net(op) for op in p)
                                for p in plain_passes))
        if args.spans:
            Tracer.dump_passes(pass_spans, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded around twinbeam's public entry points.

The wrappers live here, in the benchmark, not in the library: installing a
``Tracer`` replaces every public module-level function of the traced modules
(and ``BivariateSeries.rsqrt`` / ``rebased`` at class level) with a wrapper
that records a span ``(name, start, end, parent)``.  Because the library's
modules import each other's functions by name, the wrapper is put into every
``twinbeam`` module namespace that holds the original function object, so
calls between modules are traced too.  ``uninstall`` puts the originals back.

A span's parent is the innermost open span on the same thread.  Threads that
have no open span of their own (the scanner's worker pool) take the
innermost open span of the thread that installed the tracer, so their work
is charged to the call that started the pool.

Counts are recorded at the same boundaries, from the arguments and results
of the wrapped calls; they are exact and repeat run to run.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import threading
import time
from collections import Counter

# Modules whose public functions are wrapped; the layer name of a span is
# the module name.  The CLI contributes only its entry point.
LAYERS = ("states", "series", "moments", "criteria", "quantifiers", "oracle",
          "scan", "cli")
STATE_BUILDERS = ("twin_beam", "beam_splitter", "attenuate")


def _count_rsqrt(counts, args, kwargs, result):
    counts["series.rsqrt_calls"] += 1
    counts["series.rsqrt_lanes"] += int(math.prod(result.coeffs.shape[2:]))
    counts["series.rsqrt_coeffs"] += int(result.coeffs.size)


def _tally(key):
    def hook(counts, args, kwargs, result):
        counts[key] += 1
    return hook


def _count_pnd(counts, args, kwargs, result):
    counts["moments.table_bytes"] += int(result.p.nbytes)
    counts["moments.cutoff_sum"] += result.n_max1 + result.n_max2


def _count_bs_transform(counts, args, kwargs, result):
    pnd = args[0] if args else kwargs["pnd"]
    counts["oracle.shells"] += pnd.n_max1 + pnd.n_max2 + 1


def _count_scan(counts, args, kwargs, result):
    """Marching-squares work of a two-dimensional scan, read off its result:
    cells visited per target, distinct refined crossing vertices, and
    polylines."""
    if len(result.shape) != 2:
        return
    nx, ny = result.shape
    for lines in result.boundaries.values():
        counts["scan.cells"] += (nx - 1) * (ny - 1)
        counts["scan.polylines"] += len(lines)
        counts["scan.crossing_vertices"] += len(
            {(float(x), float(y)) for line in lines for x, y in line})


COUNTERS = {
    "series.rsqrt": _count_rsqrt,
    "series.rebased": _tally("series.rebased_calls"),
    "moments.marginal_pnd_table": _tally("moments.marginal_calls"),
    "moments.photon_number_distribution": _count_pnd,
    "oracle.bs_transform_pnd": _count_bs_transform,
    "scan.run_scan": _count_scan,
}
COUNTERS.update({f"states.{name}": _tally("states.builds")
                 for name in STATE_BUILDERS})
COUNTERS.update({f"criteria.eval_{fam}": _tally("criteria.evals")
                 for fam in ("E_W", "E_p", "M_W", "M_p", "R_W", "R_p")})


class Tracer:
    """In-memory span and counter store; records only while ``armed``."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or None)
        self.counts = Counter()
        self.armed = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._patched = []       # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        if not self.armed:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent)
        hook = COUNTERS.get(name)
        if hook is not None:
            with self._lock:
                hook(self.counts, args, kwargs, result)
        return result

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- patching --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    def install(self):
        """Wrap the public entry points of every traced module."""
        import twinbeam
        from twinbeam.series import BivariateSeries

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"twinbeam.{layer}"]
            names = ["main"] if layer == "cli" else [
                n for n, obj in vars(module).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__]
            for n in names:
                originals[id(getattr(module, n))] = (
                    getattr(module, n), f"{layer}.{n}")
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        modules = [twinbeam] + [m for n, m in sorted(sys.modules.items())
                                if n.startswith("twinbeam.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is originals[id(obj)][0]:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for method in ("rsqrt", "rebased"):
            original = BivariateSeries.__dict__[method]
            self._patched.append((BivariateSeries, method, original))
            setattr(BivariateSeries, method,
                    self._wrap(f"series.{method}", original))
        self._main_stack = self._stack()

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._main_stack = None

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus the union of the
        intervals its child spans cover (children on other threads may
        overlap each other)."""
        children = {}
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[name] += (end - start) - covered
        return dict(totals)

    def rsqrt_under(self, prefix: str) -> int:
        """rsqrt spans that have an ancestor whose name starts with prefix."""
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]
        memo = {}

        def inside(index):
            path = []
            hit = False
            while index is not None:
                if index in memo:
                    hit = memo[index]
                    break
                path.append(index)
                if names[index].startswith(prefix):
                    hit = True
                    break
                index = parents[index]
            for p in path:
                memo[p] = hit
            return hit

        return sum(1 for i, name in enumerate(names)
                   if name == "series.rsqrt" and parents[i] is not None
                   and inside(parents[i]))

    @staticmethod
    def dump_passes(pass_spans, path):
        """Write the spans of each traced pass as gzip-compressed JSON with
        a name table; parents index into the same pass's list."""
        names = sorted({s[0] for spans in pass_spans for s in spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {"fields": ["name", "start", "end", "parent"],
                   "names": names,
                   "passes": [[[code[n], s, e, p] for n, s, e, p in spans]
                              for spans in pass_spans]}
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))

"""Parameter scans over twin-beam families with boundary extraction.

A scan walks a one- to three-dimensional grid over twin-beam parameters
(pair mean, per-mode noise means, beam-splitter transmissivity, detection
efficiency), evaluates a set of targets on every grid cell, and, for
two-dimensional scans, traces the zero contours that separate non-classical
from classical cells.

The heavy lifting is vectorized: every grid cell is one lane of a batched
generating-function expansion, so a 200 x 200 grid with several criteria
amounts to a handful of array operations rather than forty thousand Python
calls.  Threads merely split the flattened grid into contiguous slabs; each
slab writes to a disjoint slice of the preallocated result arrays, which
keeps results byte-identical no matter how many workers run.

Cells whose evaluation degenerates (non-finite results) are recorded in the
error list and marked with verdict -1; they never abort the scan.

Boundary tracing uses marching squares on the sign of a per-target
indicator, with every crossing edge refined by ITP against the exact
evaluator, so reported boundary vertices satisfy the criterion to solver
precision rather than to grid resolution.  Grid values that are exactly
zero count as non-classical for the contour topology.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import CriterionId, _judge
from .errors import ConfigError
from .moments import _q_coeff_array
from .quantifiers import ZERO_TOL, _local_values, _negativity_arrays
from .states import (_attenuate_arrays, _bs_transform_arrays, _checked,
                     _twin_beam_arrays)

__all__ = [
    "AXIS_NAMES",
    "AxisSpec",
    "TargetSpec",
    "ScanSpec",
    "ScanResult",
    "run_scan",
    "write_csv",
    "write_boundaries_json",
]

AXIS_NAMES = ("bp", "bs", "bi", "t", "eta")
NOISE_MODES = ("independent", "balanced", "unbalanced")

BISECTION_MAX_ITER = 60
BISECTION_REL_TOL = 1e-9
# ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) in _bisect: truncation
# kappa1 * (b - a)**2 with kappa1 = ITP_KAPPA1 / (b0 - a0), and n0 = ITP_N0
ITP_KAPPA1 = 0.2
ITP_N0 = 1
WRITE_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class AxisSpec:
    """One scanned coordinate: a named parameter with a sampled range."""

    name: str
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(
                f"unknown axis {self.name!r}; expected one of "
                f"{', '.join(AXIS_NAMES)}")
        start = _checked(self.name, self.start, ConfigError)
        stop = _checked(self.name, self.stop, ConfigError)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "count",
                           _checked("count", self.count, ConfigError))
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be linear or log, got {self.scale!r}")
        if start > stop:
            raise ConfigError(
                f"axis {self.name} bounds must be ordered, got "
                f"[{start}, {stop}]")
        if self.scale == "log" and start <= 0.0:
            raise ConfigError(
                f"axis {self.name} uses log spacing, so its start must be "
                f"positive, got {start}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class TargetSpec:
    """One scanned quantity: a criterion, the negativity, or a local
    quantifier.  A field its kind does not read keeps its default: only a
    criterion target takes a criterion id, and only a local target a mode
    (a criterion's mode lives in its id)."""

    kind: str
    criterion: CriterionId | None = None
    mode: int = 1

    def __post_init__(self):
        if self.kind not in ("criterion", "negativity", "local"):
            raise ConfigError(f"unknown target kind {self.kind!r}")
        if (self.kind == "criterion") != (self.criterion is not None):
            raise ConfigError("criterion targets, and only they, take a "
                              f"criterion id, got kind {self.kind!r} with "
                              f"criterion {self.criterion}")
        mode = _checked("mode", self.mode, ConfigError)
        if self.kind != "local" and mode != 1:
            raise ConfigError(
                f"the {self.kind} target takes no mode, got mode={mode}")
        object.__setattr__(self, "mode", mode)

    def label(self) -> str:
        if self.kind == "criterion":
            return self.criterion.label()
        if self.kind == "negativity":
            return "negativity"
        return f"i_ncl:{self.mode}"

    @classmethod
    def parse(cls, text: str) -> "TargetSpec":
        text = text.strip()
        if text == "negativity":
            return cls("negativity")
        if text.startswith("i_ncl"):
            parts = text.split(":")
            if len(parts) != 2 or parts[1] not in ("1", "2"):
                raise ConfigError(
                    f"local targets are written i_ncl:1 or i_ncl:2, "
                    f"got {text!r}")
            return cls("local", mode=int(parts[1]))
        try:
            return cls("criterion", criterion=CriterionId.parse(text))
        except Exception as exc:
            raise ConfigError(f"cannot parse target {text!r}: {exc}") from None


@dataclass(frozen=True)
class ScanSpec:
    """Complete description of one scan: axes, fixed parameters, targets,
    and how per-mode noise is coupled."""

    axes: tuple
    targets: tuple
    fixed: dict = field(default_factory=dict)
    noise_mode: str = "independent"
    threads: int | None = None

    def __post_init__(self):
        axes = tuple(self.axes)
        targets = tuple(self.targets)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "fixed", dict(self.fixed))
        if not 1 <= len(axes) <= 3:
            raise ConfigError(
                f"a scan needs between one and three axes, got {len(axes)}")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"axis names must be unique, got {names}")
        if not targets:
            raise ConfigError("a scan needs at least one target")
        labels = [t.label() for t in targets]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"target labels must be unique, got {labels}")
        if self.noise_mode not in NOISE_MODES:
            raise ConfigError(
                f"unknown noise_mode {self.noise_mode!r}; expected one of "
                f"{', '.join(NOISE_MODES)}")
        for key, value in self.fixed.items():
            if key not in AXIS_NAMES + ("phi",):
                raise ConfigError(f"unknown fixed parameter {key!r}")
            if key in names:
                raise ConfigError(
                    f"{key!r} cannot be both an axis and a fixed parameter")
            self.fixed[key] = _checked(key, value, ConfigError)
        if "phi" in self.fixed and "t" not in names and "t" not in self.fixed:
            raise ConfigError("a fixed phi needs t as an axis or fixed value")
        if self.noise_mode in ("balanced", "unbalanced"):
            if "bi" in names or "bi" in self.fixed:
                raise ConfigError(
                    f"{self.noise_mode} noise derives bi, so it cannot be "
                    "set explicitly")
        if "bp" not in names and "bp" not in self.fixed:
            raise ConfigError("bp must be given as an axis or fixed value")
        if self.threads is not None:
            object.__setattr__(self, "threads",
                               _checked("threads", self.threads, ConfigError))


# -- evaluation pipeline ----------------------------------------------------

class _Pipeline:
    """Maps grid coordinates to state parameters and target values."""

    def __init__(self, spec: ScanSpec):
        self.spec = spec
        present = {a.name for a in spec.axes} | set(spec.fixed)
        self.has_bs = "t" in present
        self.has_eta = "eta" in present
        self.targets = spec.targets
        self.criteria = [t.criterion for t in spec.targets
                         if t.kind == "criterion"]

    def state_params(self, coords: dict, dtype=float):
        """Coordinate arrays (broadcastable) to the six state parameters,
        computed by the maps of the states module in the real ``dtype``."""
        full = {"bs": 0.0, "bi": 0.0, "phi": 0.0}
        full.update(self.spec.fixed)
        full.update(coords)
        if self.spec.noise_mode == "balanced":
            full["bi"] = full["bs"]
        elif self.spec.noise_mode == "unbalanced":
            full["bi"] = 0.0
        params = _twin_beam_arrays(*(np.asarray(full[name], dtype=dtype)
                                     for name in ("bp", "bs", "bi")))
        if self.has_bs:
            params = _bs_transform_arrays(*params, full["t"], full["phi"])
        if self.has_eta:
            params = _attenuate_arrays(*params, full["eta"], full["eta"])
        return params

    def evaluate(self, coords: dict):
        """Per-target (value, verdict, indicator) float64/int8 arrays."""
        # reduce the extended-precision parameters to the negativity before
        # the criterion tables exist, so that the two never share memory
        kinds = {tgt.kind for tgt in self.targets}
        if "negativity" in kinds:
            negativity = _negativity_arrays(
                *self.state_params(coords, np.longdouble))
        if self.criteria or "local" in kinds:
            params = self.state_params(coords)
        if self.criteria:
            with np.errstate(all="ignore"):
                judged = iter(_judge(self.criteria, _q_coeff_array(*params)))
        out = []
        for tgt in self.targets:
            if tgt.kind == "negativity":
                value, nu = negativity
                value = np.asarray(value, dtype=float)
                verdict = value > ZERO_TOL
                indicator = np.asarray(nu, dtype=float) - 0.5
            elif tgt.kind == "local":
                value = _local_values(*params[:4])[tgt.mode - 1]
                verdict = value > ZERO_TOL
                indicator = -value
            else:
                value, tol = next(judged)
                verdict = value < -tol
                indicator = value
            out.append((np.asarray(value, dtype=float),
                        verdict.astype(np.int8),
                        np.asarray(indicator, dtype=float)))
        return out


# -- results ----------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """Grid values, verdicts, refined boundaries, and per-cell errors.

    values[label] has the grid shape; verdicts use 1 for non-classical
    (entangled / locally non-classical for quantifier targets), 0 for
    classical, -1 for cells whose evaluation failed.  boundaries[label]
    holds, for two-dimensional scans, a list of polylines as (k, 2) arrays
    in axis coordinates.
    """

    spec: ScanSpec
    axis_values: tuple
    values: dict
    verdicts: dict
    boundaries: dict
    errors: list

    @property
    def shape(self) -> tuple:
        return tuple(len(v) for v in self.axis_values)


def run_scan(spec: ScanSpec) -> ScanResult:
    """Evaluate every target on the full grid, then trace boundaries.

    Deterministic: identical specs give byte-identical CSV and JSON output
    regardless of thread count.
    """
    pipeline = _Pipeline(spec)
    axis_values = tuple(a.values() for a in spec.axes)
    shape = tuple(len(v) for v in axis_values)
    mesh = np.meshgrid(*axis_values, indexing="ij") if shape else ()
    flats = {a.name: m.reshape(-1) for a, m in zip(spec.axes, mesh)}
    n = int(np.prod(shape))

    labels = [t.label() for t in spec.targets]
    values = {lab: np.full(n, np.nan) for lab in labels}
    verdicts = {lab: np.full(n, -1, dtype=np.int8) for lab in labels}
    indicators = {lab: np.full(n, np.nan) for lab in labels}

    threads = spec.threads or min(os.cpu_count() or 1, 8)
    n_chunks = max(1, min(n, threads * 4))
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
              if hi > lo]

    chunk_errors = [[] for _ in slices]
    # a cell of a chunk that raised has its chunk's record alone
    returned = np.zeros(n, dtype=bool)

    def work(idx: int):
        sl = slices[idx]
        coords = {name: arr[sl] for name, arr in flats.items()}
        try:
            results = pipeline.evaluate(coords)
        except Exception as exc:  # record, never abort the scan
            for lab in labels:
                chunk_errors[idx].append(
                    {"target": lab, "start": int(sl.start),
                     "stop": int(sl.stop), "message": str(exc)})
            return
        for lab, (val, ver, ind) in zip(labels, results):
            values[lab][sl] = val
            verdicts[lab][sl] = np.where(np.isfinite(val), ver, -1)
            indicators[lab][sl] = ind
        returned[sl] = True

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(len(slices))))

    errors = []
    for bucket in chunk_errors:
        errors.extend(bucket)
    for lab in labels:
        bad = np.nonzero(returned & ~np.isfinite(values[lab]))[0]
        for flat_index in bad:
            index = np.unravel_index(flat_index, shape)
            errors.append({
                "target": lab,
                "index": [int(i) for i in index],
                "params": {name: float(arr[flat_index])
                           for name, arr in flats.items()},
                "message": "evaluation produced a non-finite value",
            })

    values = {lab: arr.reshape(shape) for lab, arr in values.items()}
    verdicts = {lab: arr.reshape(shape) for lab, arr in verdicts.items()}
    indicators = {lab: arr.reshape(shape) for lab, arr in indicators.items()}

    boundaries = {}
    if len(shape) == 2:
        for tgt, lab in zip(spec.targets, labels):
            boundaries[lab] = _trace_boundaries(pipeline, tgt, axis_values,
                                                indicators[lab])
    return ScanResult(spec=spec, axis_values=axis_values, values=values,
                      verdicts=verdicts, boundaries=boundaries, errors=errors)


# -- boundary tracing -------------------------------------------------------

def _trace_boundaries(pipeline: _Pipeline, target: TargetSpec, axis_values,
                      grid: np.ndarray) -> list:
    """Marching squares over the indicator sign with refined edges."""
    xs, ys = axis_values
    if len(xs) < 2 or len(ys) < 2:
        return []
    # refined crossing of every sign-changing edge: ("h", i, j) joins grid
    # points (i, j) and (i + 1, j), ("v", i, j) joins (i, j) and (i, j + 1)
    points = {}
    for axis, kind in ((0, "h"), (1, "v")):
        (i, j), crossings = _refine_edges(pipeline, target, axis_values, grid,
                                          axis, BISECTION_REL_TOL)
        for a, b, point in zip(i.tolist(), j.tolist(), crossings.tolist()):
            points[(kind, a, b)] = tuple(point)

    # corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) of every cell at once;
    # only the few finite mixed cells are visited
    c0, c1 = grid[:-1, :-1], grid[1:, :-1]
    c2, c3 = grid[1:, 1:], grid[:-1, 1:]
    ok = np.isfinite(c0) & np.isfinite(c1) & np.isfinite(c2) & np.isfinite(c3)
    n0, n1, n2, n3 = c0 <= 0.0, c1 <= 0.0, c2 <= 0.0, c3 <= 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        # same summation order as np.mean over the four corners
        centre = (((c0 + c1) + c2) + c3) / 4 <= 0.0
    # a side crosses where its two corners differ; a mixed cell has two
    # crossing sides, which it joins, and a saddle four
    cross = (n0 != n1, n1 != n2, n3 != n2, n0 != n3)
    segments = []
    for i, j in np.argwhere(ok & np.any(cross, axis=0)).tolist():
        sides = [key for key, crosses in zip(
                     (("h", i, j), ("v", i + 1, j), ("h", i, j + 1),
                      ("v", i, j)), cross) if crosses[i, j]]
        # a saddle joins bottom-right and top-left when its centre is on
        # corner 0's side, and right-top and left-bottom otherwise
        if len(sides) == 4 and centre[i, j] != n0[i, j]:
            sides = sides[1:] + sides[:1]
        segments += zip(sides[::2], sides[1::2])
    return _chain_segments(segments, points)


def _sign_changes(grid: np.ndarray, axis: int) -> tuple:
    """Indices of the grid edges along ``axis`` whose two finite end values
    lie on opposite sides of zero (ties count as non-classical)."""
    n = grid.shape[axis]
    a = np.take(grid, np.arange(n - 1), axis=axis)
    b = np.take(grid, np.arange(1, n), axis=axis)
    return np.nonzero(np.isfinite(a) & np.isfinite(b)
                      & ((a <= 0.0) != (b <= 0.0)))


def _bisect(indicator, lo, hi, f_lo, f_hi, log_spacing: bool,
            rel_tol: float) -> np.ndarray:
    """ITP refinement of sign changes, one lane per bracket [lo, hi].

    Each step truncates the regula falsi point of the end values toward the
    midpoint, projects it so that no bracket is wider than bisection's was
    ITP_N0 steps earlier, and keeps it half a stopping width inside the
    bracket, as Brent's method does, so that a step next to the crossing
    closes the bracket.  Log-spaced axes step in log x.

    ``indicator(x, lanes)`` gives the values at points of the unfinished
    ``lanes``; f_lo and f_hi lie on opposite sides (<= 0 against > 0).  A
    non-finite value counts as lo's side and sends its lane to midpoints.
    A lane stops once its bracket is within rel_tol of its larger end, or
    after BISECTION_MAX_ITER steps.  Returns the bracket midpoints.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    lo_sign = f_lo <= 0.0
    to_u = np.log if log_spacing else np.asarray
    width0 = to_u(hi) - to_u(lo)
    for step in range(BISECTION_MAX_ITER):
        stop = rel_tol * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-30)
        lanes = np.flatnonzero(hi - lo > stop)
        if not lanes.size:
            break
        a, b = to_u(lo[lanes]), to_u(hi[lanes])
        width, mid = b - a, 0.5 * (a + b)
        with np.errstate(all="ignore"):
            falsi = a - f_lo[lanes] * width / (f_hi[lanes] - f_lo[lanes])
        falsi = np.where(np.isfinite(falsi), falsi, mid)
        toward = np.sign(mid - falsi)
        delta = ITP_KAPPA1 * width ** 2 / width0[lanes]
        u = np.where(delta <= np.abs(mid - falsi), falsi + toward * delta,
                     mid)
        radius = 0.5 * (width0[lanes] * 2.0 ** (ITP_N0 - step) - width)
        u = np.where(np.abs(u - mid) <= radius, u, mid - toward * radius)
        margin = 0.5 * stop[lanes]
        x = np.clip(np.exp(u) if log_spacing else u, lo[lanes] + margin,
                    hi[lanes] - margin)
        f = indicator(x, lanes)
        take_lo = (np.where(np.isfinite(f), f <= 0.0, lo_sign[lanes])
                   == lo_sign[lanes])
        lo[lanes[take_lo]], f_lo[lanes[take_lo]] = x[take_lo], f[take_lo]
        hi[lanes[~take_lo]], f_hi[lanes[~take_lo]] = x[~take_lo], f[~take_lo]
    return np.sqrt(lo * hi) if log_spacing else 0.5 * (lo + hi)


def _refine_edges(pipeline, target, axis_values, grid, axis, rel_tol):
    """Refine every sign change of a 1-D or 2-D indicator grid along
    ``axis`` in one batch, starting from the grid values at both ends.

    Returns the edge indices, each edge named by its lower end as
    _sign_changes gives them, and an (edges, ndim) array of crossing points
    in axis coordinates: the coordinate along ``axis`` refined by _bisect to
    ``rel_tol``, the others those of the grid.
    """
    edges = _sign_changes(grid, axis)
    points = [values[index] for values, index in zip(axis_values, edges)]
    if edges[axis].size:
        axes = pipeline.spec.axes
        sub = _Pipeline(replace(pipeline.spec, targets=(target,)))
        upper = edges[:axis] + (edges[axis] + 1,) + edges[axis + 1:]

        def indicator(x, lanes):
            coords = {a.name: p[lanes] for a, p in zip(axes, points)}
            return sub.evaluate({**coords, axes[axis].name: x})[0][2]

        points[axis] = _bisect(
            indicator, points[axis], axis_values[axis][upper[axis]],
            grid[edges], grid[upper], axes[axis].scale == "log", rel_tol)
    return edges, np.stack(points, axis=-1)


def _chain_segments(segments, points) -> list:
    """Join refined edge points into polylines: each path from its smaller
    free end, then each loop from its smallest key toward its smaller
    neighbour, closed by repeating that key once at its end.  A key is a
    side of at most two cells, and a cell joins each side at most once, so
    no key has more than two neighbours."""
    neighbours = {}
    for a, b in segments:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    ends = sorted(key for key, nbrs in neighbours.items() if len(nbrs) == 1)
    visited = set()
    polylines = []
    for start in ends + sorted(neighbours):
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        ahead = neighbours[start]
        while ahead:
            path.append(min(ahead))
            visited.add(path[-1])
            ahead = [k for k in neighbours[path[-1]] if k not in visited]
        if len(neighbours[start]) == 2:
            path.append(start)
        polylines.append(np.array([points[k] for k in path]))
    return polylines


# -- writers ----------------------------------------------------------------

def write_csv(result: ScanResult, stream):
    """Grid values and verdicts as CSV, one row per cell in C order."""
    labels = [t.label() for t in result.spec.targets]
    header = [a.name for a in result.spec.axes]
    for lab in labels:
        header.append(lab)
        header.append(f"{lab}:nonclassical")
    stream.write(",".join(header) + "\n")
    coords = np.meshgrid(*result.axis_values, indexing="ij")
    columns = [c.reshape(-1) for c in coords]
    for lab in labels:
        columns.append(result.values[lab].reshape(-1))
        columns.append(result.verdicts[lab].reshape(-1))
    # '%.12g' writes nan, inf and -0.0 as format(x, ".12g") does
    row = ",".join(["%.12g"] * len(coords)
                   + ["%.12g", "%d"] * len(labels)) + "\n"
    _write_rows(stream, row, columns)


def _write_rows(stream, row, columns):
    """Write ``row % cells`` for every row of ``columns`` laid side by side,
    arrays of equal length: a 1-D array gives one cell per row, a 2-D array
    one per column."""
    columns = [c if c.ndim == 2 else c[:, None] for c in columns]
    # blocks of rows bound the Python objects alive at once; one write
    # per block also leaves less of the heap behind than one per row
    step = max(1, WRITE_BLOCK_CELLS // sum(c.shape[1] for c in columns))
    # a reader that closes a pipe mid-block cuts the binary write short
    # without an error, and a text layer reports the whole block written,
    # so blocks go to the binary layer where there is one
    binary = getattr(stream, "buffer", None)
    if binary is not None:
        stream.flush()
    for start in range(0, len(columns[0]), step):
        lists = [col for c in columns
                 for col in c[start:start + step].T.tolist()]
        block = "".join(row % cells for cells in zip(*lists))
        if binary is None:
            stream.write(block)
        elif binary.write(block.encode()) < len(block):
            raise BrokenPipeError("the reader closed the output mid-block")


def write_boundaries_json(result: ScanResult, stream):
    """Axes, refined boundary polylines, and error records as JSON."""
    payload = {
        "axes": [
            {"name": a.name, "scale": a.scale,
             "values": [float(v) for v in vals]}
            for a, vals in zip(result.spec.axes, result.axis_values)
        ],
        "noise_mode": result.spec.noise_mode,
        "fixed": {k: float(v) for k, v in sorted(result.spec.fixed.items())},
        "targets": [t.label() for t in result.spec.targets],
        "boundaries": {
            lab: [[[float(x), float(y)] for x, y in line] for line in lines]
            for lab, lines in sorted(result.boundaries.items())
        },
        "errors": result.errors,
    }
    json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
    stream.write("\n")

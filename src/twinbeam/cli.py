"""Command-line interface.

Subcommands:

  state     print the Gaussian parameters, generating-polynomial
            coefficients, covariance matrix and quantifiers of a state
  crit      evaluate one non-classicality criterion on a state
  pnd       dump the joint photon-number distribution as CSV
  boundary  locate sign changes of a criterion or quantifier along one axis
  scan      evaluate targets over a parameter grid (CSV / JSON / SVG output)
  selftest  run the built-in consistency battery

States are described everywhere by the same flags: --bp/--bs/--bi for the
twin-beam parameters, then optionally --t/--phi for a beam splitter and
--eta/--eta2 for detection loss, applied in that order.

Exit codes: 0 on success, 1 for usage and parameter errors, 2 for numerical
failures.  Machine-readable error records go to stderr as single-line JSON.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from . import selftest as selftest_module
from .criteria import FAMILIES, CriterionId, evaluate
from .errors import ConfigError, OrderLimitError, ParameterError, TwinbeamError
from .moments import build_k_matrix, photon_number_distribution, pnd_table
from .quantifiers import classify
from .scan import (AXIS_NAMES, NOISE_MODES, AxisSpec, ScanSpec, TargetSpec,
                   _Pipeline, _refine_edges, _write_rows, run_scan,
                   write_boundaries_json, write_csv)
from .states import (BeamSplitterParams, TwinBeamParams, _checked, attenuate,
                     beam_splitter, covariance_n, symplectic_eigenvalues,
                     twin_beam)
from .svg import render_svg

__all__ = ["main"]

_BOUNDARY_DEFAULT_RANGES = {
    "bp": (1e-6, 10.0),
    "bs": (1e-6, 10.0),
    "bi": (1e-6, 10.0),
    "t": (0.5, 1.0),
    "eta": (1e-6, 1.0),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take -1e-3, -.5, -inf and -nan for values, not for flags
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


def _json_default(value):
    """What ``json`` cannot write itself: complex numbers as [re, im],
    arrays as lists, numpy scalars as Python scalars."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _print_json(payload, stream=None):
    stream = stream or sys.stdout
    json.dump(payload, stream, sort_keys=True, default=_json_default)
    stream.write("\n")


def _add_state_args(parser, require_bp=True):
    parser.add_argument("--bp", type=float, required=require_bp,
                        help="mean photon-pair number")
    parser.add_argument("--bs", type=float, default=0.0,
                        help="thermal noise mean in mode 1 (default 0)")
    parser.add_argument("--bi", type=float, default=0.0,
                        help="thermal noise mean in mode 2 (default 0)")
    parser.add_argument("--t", type=float, default=None,
                        help="beam-splitter transmissivity (omit for none)")
    parser.add_argument("--phi", type=float, default=0.0,
                        help="beam-splitter phase (default 0)")
    parser.add_argument("--eta", type=float, default=None,
                        help="detection efficiency (omit for none)")
    parser.add_argument("--eta2", type=float, default=None,
                        help="efficiency of mode 2 when it differs")


def _state_from_args(args):
    if _checked("phi", args.phi, ConfigError) and args.t is None:
        raise ConfigError("--phi needs --t as well")
    state = twin_beam(TwinBeamParams(args.bp, args.bs, args.bi))
    if args.t is not None:
        state = beam_splitter(state, BeamSplitterParams(args.t, args.phi))
    if args.eta is not None:
        state = attenuate(state, args.eta, args.eta2)
    elif args.eta2 is not None:
        raise ConfigError("--eta2 needs --eta as well")
    return state


def _add_criterion_args(parser, families):
    parser.add_argument("--family", required=True, choices=families)
    parser.add_argument("--k1", type=int, default=0)
    parser.add_argument("--k2", type=int, default=0)
    parser.add_argument("--mode", type=int, default=1, choices=(1, 2))


def _criterion_from_args(args) -> CriterionId:
    return CriterionId(args.family, args.k1, args.k2, args.mode)


# -- subcommand implementations --------------------------------------------

def _cmd_state(args) -> int:
    state = _state_from_args(args)
    report = classify(state)
    nu = symplectic_eigenvalues(state)
    nu_pt = symplectic_eigenvalues(state, partial_transpose=True)
    payload = {
        "b1": state.b1, "b2": state.b2,
        "c1": state.c1, "c2": state.c2,
        "d12": state.d12, "dbar12": state.dbar12,
        "physical": state.is_physical(),
        "symplectic": list(nu),
        "symplectic_pt": list(nu_pt),
        "negativity": report.negativity,
        "entangled": report.entangled,
        "i_ncl": [report.i_ncl_1, report.i_ncl_2],
        "locally_nonclassical": list(report.locally_nonclassical),
        "k_matrix": dataclasses.asdict(build_k_matrix(state)),
        "covariance_n": covariance_n(state).entries,
    }
    _print_json(payload)
    return 0


def _cmd_crit(args) -> int:
    state = _state_from_args(args)
    cid = _criterion_from_args(args)
    result = evaluate(state, cid, max_order=args.max_order)
    _print_json({
        "criterion": cid.label(),
        "value": result.value,
        "nonclassical": result.nonclassical,
        "tol": result.tol,
        "max_order_used": result.max_order_used,
    })
    return 0


def _cmd_pnd(args) -> int:
    state = _state_from_args(args)
    if args.nmax is not None:
        n_max = _checked("n_max", args.nmax, ConfigError)
        p = pnd_table(state, n_max, n_max)
        tail = 1.0 - float(p.sum())
    else:
        dist = photon_number_distribution(state, tail_tol=args.tail_tol)
        p, tail = dist.p, dist.tail_mass
    out = sys.stdout
    header = ["n1\\n2"] + [str(j) for j in range(p.shape[1])]
    out.write(",".join(header) + "\n")
    _write_rows(out, "%d," + ",".join(["%.12g"] * p.shape[1]) + "\n",
                [np.arange(p.shape[0]), p])
    out.write(f"# tail_mass,{format(tail, '.12g')}\n")
    return 0


def _boundary_target(args) -> TargetSpec:
    # a criterion flag that the target does not read would be dropped
    reads = {"negativity": (), "i_ncl": ("mode",)}.get(args.family)
    if reads is not None:
        unread = [f"--{name} {getattr(args, name)}"
                  for name, default in (("k1", 0), ("k2", 0), ("mode", 1))
                  if name not in reads and getattr(args, name) != default]
        if unread:
            raise ConfigError(f"the {args.family} target takes no "
                              + ", ".join(unread))
    if args.family == "negativity":
        return TargetSpec("negativity")
    if args.family == "i_ncl":
        return TargetSpec("local", mode=args.mode)
    return TargetSpec("criterion", criterion=_criterion_from_args(args))


def _cmd_boundary(args) -> int:
    if args.eta2 is not None:
        raise ConfigError(
            "boundary scans apply one detection efficiency to both modes; "
            "--eta2 is not supported")
    if not 0.0 <= args.tol < 1.0:
        raise ConfigError(f"--tol must lie in [0, 1), got {args.tol}")
    target = _boundary_target(args)
    lo_default, hi_default = _BOUNDARY_DEFAULT_RANGES[args.axis]
    lo = lo_default if args.min is None else args.min
    hi = hi_default if args.max is None else args.max
    axis = AxisSpec(args.axis, lo, hi, args.samples, args.scale)

    fixed = {}
    for name in ("bp", "bs", "bi", "t", "eta", "phi"):
        if name == args.axis:
            continue
        value = getattr(args, name)
        if name in ("bs", "bi", "phi"):
            if value:
                fixed[name] = value
        elif value is not None:
            fixed[name] = value
    if args.axis != "bp" and "bp" not in fixed:
        raise ConfigError(f"--bp is required when scanning {args.axis}")

    pipeline = _Pipeline(ScanSpec(axes=(axis,), targets=(target,),
                                  fixed=fixed, noise_mode=args.noise_mode))
    values = axis.values()
    grid = pipeline.evaluate({args.axis: values})[0][2]
    _, points = _refine_edges(pipeline, target, (values,), grid, 0, args.tol)
    crossings = []
    if len(points):
        x = points[:, 0]
        found = pipeline.evaluate({args.axis: x})[0][0]
        crossings = [{"x": float(a), "value": float(v)}
                     for a, v in zip(x, found)]
    _print_json({
        "target": target.label(),
        "axis": args.axis,
        "fixed": fixed,
        "noise_mode": args.noise_mode,
        "crossings": crossings,
    })
    return 0


def _parse_axis_flag(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError(
            f"axes are written name:min:max:count[:scale], got {text!r}")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ConfigError(f"malformed axis {text!r}") from None
    return AxisSpec(parts[0], lo, hi, count, *parts[4:])


def _parse_fixed_flag(text: str):
    name, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"fixed values are written name=value, got {text!r}")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise ConfigError(f"malformed fixed value {text!r}") from None


def _load_config(path: str) -> list:
    """The scan flags an INI file stands for: [scan] targets, noise_mode
    and threads, [fixed] name = value pairs, and one [axis:NAME] section
    per axis with min, max, count (default 2) and scale (default linear)."""
    cp = configparser.ConfigParser()
    flags = []
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        for name in cp.sections():
            section = cp[name]
            if name == "scan":
                flags += [f"--target={section.get('targets', '')}",
                          f"--noise-mode={section.get('noise_mode', '')}"]
                if "threads" in section:
                    flags.append(f"--threads={section['threads']}")
            elif name == "fixed":
                flags += [f"--fixed={key}={value}"
                          for key, value in cp.items(name)]
            elif name.startswith("axis:"):
                lo = section.get("min", section.get("start"))
                hi = section.get("max", section.get("stop"))
                if lo is None or hi is None:
                    raise ConfigError(
                        f"axis section {name!r} needs min and max")
                flags.append(f"--axis={name.split(':', 1)[1]}:{lo}:{hi}:"
                             f"{section.get('count', '2')}:"
                             f"{section.get('scale', 'linear')}")
            else:
                raise ConfigError(f"unknown config section {name!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    return flags


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def _cmd_scan(args) -> int:
    # an INI file is read as the flags it stands for, ahead of the command
    # line: --axis and --target replace its lists, --fixed overrides it key
    # by key, --noise-mode and --threads override it
    sources = [args]
    if args.config:
        sources.insert(0, _build_parser().parse_args(
            ["scan", *_load_config(args.config)]))
    axes, targets, fixed, noise_mode, threads = [], [], {}, None, None
    for flags in sources:
        if flags.axis:
            axes = [_parse_axis_flag(text) for text in flags.axis]
        if flags.target:
            targets = [TargetSpec.parse(part) for text in flags.target
                       for part in text.split(",") if part.strip()]
        fixed.update(_parse_fixed_flag(text) for text in flags.fixed or [])
        noise_mode = flags.noise_mode or noise_mode
        if flags.threads is not None:
            threads = flags.threads
    spec = ScanSpec(axes=axes, targets=targets, fixed=fixed,
                    noise_mode=noise_mode or "independent", threads=threads)
    if args.svg is not None and len(spec.axes) != 2:
        raise ConfigError("SVG output needs a two-dimensional scan")

    # every output is opened before the scan runs, so that a path that
    # cannot be written fails before any work is done
    with contextlib.ExitStack() as stack:
        def output(path):
            return stack.enter_context(_open_output(path))

        csv_out = sys.stdout if args.csv == "-" else output(args.csv)
        json_out = None if args.json is None else output(args.json)
        svg_out = []
        for tgt in spec.targets if args.svg is not None else ():
            label = tgt.label()
            safe = label.replace(":", "-").replace("/", "-")
            svg_out.append((label, output(f"{args.svg}{safe}.svg")))
        result = run_scan(spec)
        write_csv(result, csv_out)
        if json_out is not None:
            write_boundaries_json(result, json_out)
        for label, handle in svg_out:
            handle.write(render_svg(result, label))
    if result.errors:
        _print_json({"error": "EvaluationError",
                     "message": f"{len(result.errors)} grid cells failed; "
                                "see the JSON error records"}, sys.stderr)
    return 0


def _cmd_selftest(_args) -> int:
    failures = selftest_module.run(stream=sys.stdout)
    return 0 if failures == 0 else 2


# -- parser wiring -----------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once: parsing leaves it as it was."""
    parser = _Parser(prog="twinbeam",
                     description="Non-classicality analysis of noisy twin "
                                 "beams and their beam-splitter transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="inspect one state")
    _add_state_args(p_state)
    p_state.set_defaults(func=_cmd_state)

    p_crit = sub.add_parser("crit", help="evaluate one criterion")
    _add_state_args(p_crit)
    _add_criterion_args(p_crit, FAMILIES)
    p_crit.add_argument("--max-order", type=int, default=None)
    p_crit.set_defaults(func=_cmd_crit)

    p_pnd = sub.add_parser("pnd", help="dump the photon-number distribution")
    _add_state_args(p_pnd)
    p_pnd.add_argument("--nmax", type=int, default=None,
                       help="per-mode cutoff (default: adaptive)")
    p_pnd.add_argument("--tail-tol", type=float, default=1e-10)
    p_pnd.set_defaults(func=_cmd_pnd)

    p_bound = sub.add_parser("boundary",
                             help="locate sign changes along one axis")
    _add_state_args(p_bound, require_bp=False)
    _add_criterion_args(p_bound, FAMILIES + ("negativity", "i_ncl"))
    p_bound.add_argument("--axis", required=True, choices=AXIS_NAMES)
    p_bound.add_argument("--min", type=float, default=None)
    p_bound.add_argument("--max", type=float, default=None)
    p_bound.add_argument("--samples", type=int, default=128)
    p_bound.add_argument("--scale", choices=("linear", "log"),
                         default="linear")
    p_bound.add_argument("--tol", type=float, default=1e-8,
                         help="relative ITP refinement tolerance on the axis")
    p_bound.add_argument("--noise-mode", default="independent",
                         choices=NOISE_MODES)
    p_bound.set_defaults(func=_cmd_boundary)

    p_scan = sub.add_parser("scan", help="evaluate targets over a grid")
    p_scan.add_argument("--config", default=None,
                        help="INI file with [scan], [fixed], [axis:NAME]")
    p_scan.add_argument("--axis", action="append", default=None,
                        metavar="NAME:MIN:MAX:COUNT[:SCALE]")
    p_scan.add_argument("--target", action="append", default=None,
                        metavar="TARGET[,TARGET..]")
    p_scan.add_argument("--fixed", action="append", default=None,
                        metavar="NAME=VALUE")
    # the scan spec checks the noise mode, so that a --noise-mode flag
    # overrides whatever an INI file names
    p_scan.add_argument("--noise-mode", default=None,
                        help=f"one of {', '.join(NOISE_MODES)}")
    p_scan.add_argument("--threads", type=int, default=None)
    p_scan.add_argument("--csv", default="-",
                        help="CSV output path, - for stdout (default)")
    p_scan.add_argument("--json", default=None,
                        help="boundary/error JSON output path")
    p_scan.add_argument("--svg", default=None,
                        help="SVG output path prefix, one file per target")
    p_scan.set_defaults(func=_cmd_scan)

    p_self = sub.add_parser("selftest", help="run built-in checks")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TwinbeamError as exc:
        _print_json({"error": type(exc).__name__, "message": str(exc)},
                    sys.stderr)
        usage = (ConfigError, OrderLimitError, ParameterError)
        return 1 if isinstance(exc, usage) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""End-to-end tests of the command-line interface."""

import ast
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import twinbeam
from twinbeam import cli, criteria, moments, scan, states
from twinbeam.cli import main
from twinbeam.scan import AxisSpec, ScanSpec, TargetSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_state_report(capsys):
    rc, out, _ = run_cli(capsys, "state", "--bp", "1.0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["physical"] is True
    assert payload["entangled"] is True
    assert payload["b1"] == pytest.approx(1.0)
    assert payload["negativity"] == pytest.approx(np.sqrt(2.0) + 1.0)
    assert payload["locally_nonclassical"] == [False, False]
    nu = sorted(payload["symplectic"])
    assert nu[0] == pytest.approx(0.5, abs=1e-8)
    matrix = states._an_matrix(*states.twin_beam(1.0).params())
    assert payload["covariance_n"] == [[[z.real, z.imag] for z in row]
                                       for row in matrix.tolist()]


def test_crit_reference_value(capsys):
    rc, out, _ = run_cli(capsys, "crit", "--bp", "1.0",
                      "--family", "E_p", "--k1", "0", "--k2", "0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["criterion"] == "E_p:0:0"
    assert payload["value"] == pytest.approx(-1.0, rel=1e-12)
    assert payload["nonclassical"] is True
    assert payload["max_order_used"] == 2


def test_crit_matches_the_library_through_a_full_chain(capsys):
    rc, out, _ = run_cli(capsys, "crit", "--bp", "0.8", "--bs", "0.1",
                      "--bi", "0.05", "--t", "0.7", "--phi", "0.3",
                      "--eta", "0.9", "--eta2", "0.8",
                      "--family", "M_p")
    assert rc == 0
    payload = json.loads(out)
    st = states.attenuate(
        states.beam_splitter(
            states.twin_beam(0.8, bs=0.1, bi=0.05), 0.7, phi=0.3),
        0.9, 0.8)
    want = criteria.eval_M_p(st)
    assert payload["value"] == pytest.approx(want.value, rel=1e-12)
    assert payload["nonclassical"] == want.nonclassical


def test_pnd_table_output(capsys):
    rc, out, _ = run_cli(capsys, "pnd", "--bp", "0.5", "--nmax", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split(",")[0] == "n1\\n2"
    assert len(lines) == 6
    diag = [float(lines[1 + n].split(",")[1 + n]) for n in range(4)]
    ratio = 0.5 / 1.5
    expected = [(1 - ratio) * ratio**n for n in range(4)]
    np.testing.assert_allclose(diag, expected, rtol=1e-10)
    tail_line = lines[-1]
    assert tail_line.startswith("# tail_mass,")
    assert float(tail_line.split(",")[1]) == pytest.approx(ratio**4, rel=1e-9)


def test_crit_reports_a_non_finite_criterion_as_a_numerical_failure(capsys):
    """Q overflows at bp = 1e100, so E_W:2:2 is NaN: exit 2 with one JSON
    error line, not a success that prints NaN, and none of the overflow's
    warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "crit", "--bp", "1e100",
                               "--family", "E_W", "--k1", "2", "--k2", "2")
    assert caught == []
    assert rc == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "EvaluationError"
    assert "E_W:2:2" in payload["message"]


def test_crit_names_a_cancelled_constant_term_as_a_plain_float(capsys):
    """At bp = 1e9, Q about (1, 1) cancels to a negative constant term:
    exit 2, and the message prints it as a float, not as a NumPy repr."""
    rc, out, err = run_cli(capsys, "crit", "--bp", "1e9",
                           "--family", "E_p", "--k1", "0", "--k2", "0")
    assert rc == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "EvaluationError"
    assert payload["message"].endswith("(constant term -210104904704.0)")


def test_pnd_without_nmax_stops_at_the_tail_tolerance(capsys):
    rc, out, _ = run_cli(capsys, "pnd", "--bp", "0.5")
    assert rc == 0
    lines = out.splitlines()
    dist = moments.photon_number_distribution(states.twin_beam(0.5))
    assert len(lines) == dist.p.shape[0] + 2
    assert len(lines[0].split(",")) == dist.p.shape[1] + 1
    tail_tol = cli._build_parser().parse_args(["pnd", "--bp", "0.5"]).tail_tol
    tail_line = lines[-1]
    assert tail_line.startswith("# tail_mass,")
    assert float(tail_line.split(",")[1]) <= tail_tol


def test_scan_reports_failed_cells_and_exits_zero(capsys):
    """E_W:2:2 is NaN at bp = 1e100, and the negativity, whose spectrum
    cancels, at bp = 1e50 and 1e100: their verdicts are -1 and stderr
    counts the failed cells, while the scan itself succeeds."""
    rc, out, err = run_cli(capsys, "scan", "--axis", "bp:1:1e100:3:log",
                           "--target", "E_W:2:2,negativity")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["bp", "E_W:2:2", "E_W:2:2:nonclassical",
                       "negativity", "negativity:nonclassical"]
    assert [rows[1][2], rows[3][2]] == ["1", "-1"]
    assert [row[4] for row in rows[1:]] == ["1", "-1", "-1"]
    payload = json.loads(err)
    assert payload["error"] == "EvaluationError"
    assert payload["message"].startswith("3 grid cells failed")


def test_state_reports_a_cancelled_negativity_as_a_numerical_failure(
        capsys):
    """At bp = 1e10 the partially transposed spectrum cancels to zero:
    exit 2 with one JSON error line, not a negativity of 2.5e299."""
    rc, out, err = run_cli(capsys, "state", "--bp", "1e10")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "EvaluationError"


def test_boundary_balanced_noise(capsys):
    """The separability threshold in bs at unit pump is sqrt(2) - 1."""
    rc, out, _ = run_cli(capsys, "boundary", "--family", "negativity",
                      "--axis", "bs", "--bp", "1.0",
                      "--noise-mode", "balanced")
    assert rc == 0
    payload = json.loads(out)
    assert payload["target"] == "negativity"
    assert payload["axis"] == "bs"
    assert len(payload["crossings"]) == 1
    crossing = payload["crossings"][0]
    assert crossing["x"] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-6)
    assert abs(crossing["value"]) < 1e-6


def test_boundary_of_a_local_quantifier_names_its_mode(capsys):
    """i_ncl of mode 2 after the splitter switches on where E_p:0:0 switches
    off, at t = (1 + 1/sqrt(2))/2."""
    rc, out, _ = run_cli(capsys, "boundary", "--family", "i_ncl",
                         "--mode", "2", "--axis", "t", "--bp", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["target"] == "i_ncl:2"
    assert len(payload["crossings"]) == 1
    want = (1.0 + 1.0 / np.sqrt(2.0)) / 2.0
    assert payload["crossings"][0]["x"] == pytest.approx(want, abs=1e-6)


def test_boundary_transmissivity_endpoint(capsys):
    """E_p:0:0 after the splitter switches off at t = (1 + 1/sqrt(2))/2."""
    rc, out, _ = run_cli(capsys, "boundary", "--family", "E_p",
                      "--k1", "0", "--k2", "0", "--axis", "t",
                      "--min", "0.5", "--max", "1.0", "--bp", "2.0")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["crossings"]) == 1
    want = (1.0 + 1.0 / np.sqrt(2.0)) / 2.0
    assert payload["crossings"][0]["x"] == pytest.approx(want, abs=1e-6)


def test_boundary_reports_every_crossing(capsys):
    """R_p:2:2 at pair mean bp = 2 changes sign at t* and 1 - t*, where the
    analytic boundary gives boundary_R22p(t*) = 2."""
    rc, out, _ = run_cli(capsys, "boundary", "--family", "R_p",
                      "--k1", "2", "--k2", "2", "--axis", "t",
                      "--min", "0", "--max", "1", "--bp", "2")
    assert rc == 0
    t_star = brentq(lambda t: criteria.boundary_R22p(t) - 2.0, 0.1, 0.45)
    assert t_star == pytest.approx(0.2991862, abs=1e-6)
    xs = [c["x"] for c in json.loads(out)["crossings"]]
    assert xs == pytest.approx([t_star, 1.0 - t_star], abs=1e-6)


@pytest.mark.parametrize("bp", ["0.3", "2", "40"])
def test_boundary_on_a_log_axis(capsys, bp):
    """Geometric bisection on a log-spaced noise axis lands on the balanced
    separability threshold sqrt(bp (bp + 1)) - bp."""
    rc, out, _ = run_cli(capsys, "boundary", "--family", "negativity",
                      "--axis", "bs", "--noise-mode", "balanced",
                      "--scale", "log", "--min", "1e-4", "--max", "10",
                      "--bp", bp)
    assert rc == 0
    crossings = json.loads(out)["crossings"]
    assert len(crossings) == 1
    want = criteria.entanglement_boundary_twin_beam(float(bp), True)
    assert abs(crossings[0]["x"] - want) <= 1e-7 * want


def test_scan_stdout_matches_the_library(capsys):
    rc, out, _ = run_cli(capsys, "scan",
                      "--axis", "bp:0.1:2:5", "--axis", "bs:0:1:5",
                      "--target", "negativity",
                      "--noise-mode", "balanced", "--csv", "-")
    assert rc == 0
    spec = ScanSpec(
        axes=[AxisSpec("bp", 0.1, 2.0, 5), AxisSpec("bs", 0.0, 1.0, 5)],
        targets=[TargetSpec.parse("negativity")],
        fixed={}, noise_mode="balanced")
    buffer = io.StringIO()
    scan.write_csv(scan.run_scan(spec), buffer)
    assert out == buffer.getvalue()


def test_scan_config_file_equals_flags(capsys, tmp_path):
    config = tmp_path / "scan.ini"
    config.write_text(
        "[scan]\n"
        "targets = negativity, E_p:0:0\n"
        "noise_mode = balanced\n"
        "threads = 2\n"
        "[fixed]\n"
        "t = 0.7\n"
        "[axis:bp]\n"
        "min = 0.1\n"
        "max = 10\n"
        "count = 4\n"
        "scale = log\n"
        "[axis:bs]\n"
        "min = 0\n"
        "max = 0.5\n"
        "count = 3\n"
    )
    rc, from_config, _ = run_cli(capsys, "scan", "--config", str(config),
                              "--csv", "-")
    assert rc == 0
    rc, from_flags, _ = run_cli(capsys, "scan",
                             "--axis", "bp:0.1:10:4:log",
                             "--axis", "bs:0:0.5:3",
                             "--target", "negativity,E_p:0:0",
                             "--fixed", "t=0.7",
                             "--noise-mode", "balanced",
                             "--csv", "-")
    assert rc == 0
    assert from_config == from_flags


def test_scan_file_outputs(capsys, tmp_path):
    csv_path = tmp_path / "grid.csv"
    json_path = tmp_path / "bounds.json"
    rc, _, _ = run_cli(capsys, "scan",
                    "--axis", "bp:0:5:9", "--axis", "bs:0:1:9",
                    "--target", "negativity", "--noise-mode", "balanced",
                    "--csv", str(csv_path), "--json", str(json_path),
                    "--svg", str(tmp_path / "plot-"))
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 81
    payload = json.loads(json_path.read_text())
    assert payload["boundaries"]["negativity"]
    svg_files = sorted(tmp_path.glob("plot-*.svg"))
    assert len(svg_files) == 1
    root = ET.fromstring(svg_files[0].read_text())
    assert root.tag.endswith("svg")


def _package_modules():
    """The modules twinbeam/__init__.py imports its names from."""
    tree = ast.parse(inspect.getsource(twinbeam))
    return [importlib.import_module(f"twinbeam.{node.module}")
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1]


@pytest.mark.parametrize("module", _package_modules(),
                         ids=lambda module: module.__name__)
def test_package_exports_every_public_name(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__)
    for name in module.__all__:
        assert name in twinbeam.__all__
        assert getattr(twinbeam, name) is getattr(module, name)


def test_package_names_are_sorted_and_unique():
    """A name two modules export would be shadowed by the later star
    import without an error."""
    assert twinbeam.__all__ == sorted(set(twinbeam.__all__))


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1] == "11 of 11 checks passed"
    for line in lines[:-1]:
        match = re.fullmatch(r"ok +(.+) \((\d+\.\d{3}) s\)", line)
        assert match, line
        assert match.group(1) and float(match.group(2)) >= 0.0


def test_one_parser_serves_every_call(capsys):
    """main builds the argparse tree once; calls that share it print and
    exit as each would on a fresh tree."""
    sweep = ["boundary", "--family", "E_p", "--axis", "t", "--bp", "1"]
    calls = [sweep, sweep + ["--tol", "-1"],
             ["boundary", "--family", "E_p", "--axis", "nosuch"], sweep,
             ["scan", "--axis", "bp:0.1:1:3", "--target", "negativity"],
             ["scan", "--axis", "bs:0:1:2", "--target", "M_p",
              "--fixed", "bp=1"]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cli._build_parser() is cli._build_parser()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 1, 1, 0, 0, 0]


class _Ini(str):
    """Config-file text that the failure test writes to a file and passes
    by its path."""


_AXIS_BP = "[axis:bp]\nmin = 0.1\nmax = 1\n"


_FAILURES = [
    (["crit", "--bp", "1.0"], "ParameterError"),
    (["crit", "--bp", "-1", "--family", "E_p", "--k1", "0", "--k2", "0"],
     "ParameterError"),
    (["crit", "--bp", "1", "--family", "E_W", "--k1", "2", "--k2", "2",
      "--max-order", "5"], "ParameterError"),
    (["state", "--bp", "1", "--eta", "1.5"], "ParameterError"),
    (["nosuch"], "ParameterError"),
    (["scan", "--axis", "bp:0:1:3", "--target", "Q_z:0:0"], "ParameterError"),
    (["scan", "--config", "/nonexistent/scan.ini"], "ParameterError"),
    (["boundary", "--family", "negativity", "--axis", "bs", "--bp", "1",
      "--eta", "0.5", "--eta2", "0.9"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "bp", "--t", "0.5",
      "--phi", "inf"], "ParameterError"),
    (["crit", "--bp", "1", "--family", "E_p", "--phi", "inf"],
     "ParameterError"),
    (["crit", "--bp", "1", "--family", "M_p", "--t", "0.5", "--phi", "nan"],
     "ParameterError"),
    (["state", "--bp", "1", "--phi", "nan"], "ParameterError"),
    (["pnd", "--bp", "1", "--nmax", "2", "--phi=-inf"], "ParameterError"),
    (["crit", "--bp", "1", "--family", "M_p", "--t", "0.6", "--phi", "-inf"],
     "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "t", "--bp", "1",
      "--tol=inf"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "t", "--bp", "1",
      "--tol=nan"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "t", "--bp", "1",
      "--tol", "-1"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "t", "--bp", "1",
      "--tol", "1"], "ParameterError"),
    (["pnd", "--bp", "1", "--nmax", "-1"], "ParameterError"),
    (["scan", "--config", _Ini("[axis:bp]\nmin = abc\nmax = 1\n"),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--config", _Ini(_AXIS_BP + "count = 2.5\n"),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--config", _Ini(_AXIS_BP + "[scan]\nthreads = x\n"),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--config", _Ini("min = 0\nmax = 1\n"),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--config", _Ini(_AXIS_BP + _AXIS_BP),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--config", _Ini(_AXIS_BP + "count = 3%\n"),
      "--target", "negativity"], "ParameterError"),
    # l > k certifies the thermal state: R_W:1:3:1 read -2.0 there
    (["crit", "--bp", "0", "--bs", "1", "--bi", "1", "--family", "R_W",
      "--k1", "1", "--k2", "3"], "ParameterError"),
    # a phase without a beam splitter would be dropped silently
    (["crit", "--bp", "1", "--family", "E_p", "--phi", "0.5"],
     "ParameterError"),
    (["scan", "--fixed", "phi=0.5", "--axis", "bp:0.1:1:2",
      "--target", "E_p:0:0"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "bp", "--phi", "0.5"],
     "ParameterError"),
    # flags the criterion's label leaves out would be dropped silently
    (["crit", "--bp", "1", "--family", "M_W", "--k1", "3", "--k2", "4"],
     "ParameterError"),
    (["crit", "--bp", "1", "--family", "E_W", "--mode", "2"],
     "ParameterError"),
    (["boundary", "--family", "negativity", "--axis", "bs", "--noise-mode",
      "balanced", "--bp", "1", "--k1", "3", "--mode", "2"], "ParameterError"),
    (["boundary", "--family", "i_ncl", "--axis", "t", "--bp", "1",
      "--k1", "3", "--k2", "5"], "ParameterError"),
    # bp * (bp + 1) overflows: the message used to blame d12
    (["crit", "--bp", "1e300", "--family", "E_W", "--k1", "0", "--k2", "0"],
     "ParameterError"),
    (["state", "--bp", "1", "--eta2", "0.5"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "t"], "ParameterError"),
    # a fixed cutoff would drop the tail tolerance silently
    (["pnd", "--bp", "1", "--nmax", "3", "--tail-tol", "0.5"],
     "ParameterError"),
    # a flag of the swept axis, or bi under balanced noise, would be
    # dropped silently; scan rejects the same input
    (["boundary", "--family", "E_p", "--axis", "t", "--t", "0.3", "--bp",
      "1"], "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "bp", "--bp", "2"],
     "ParameterError"),
    (["boundary", "--family", "E_p", "--axis", "bs", "--bs", "0.5", "--bp",
      "1"], "ParameterError"),
    (["boundary", "--family", "negativity", "--axis", "bs", "--noise-mode",
      "balanced", "--bp", "1", "--bi", "0"], "ParameterError"),
    (["scan", "--config", _Ini("[axis:bp]\nmin = 0.1\n"),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--config", _Ini(_AXIS_BP + "[plot]\n"),
      "--target", "negativity"], "ParameterError"),
    (["scan", "--axis", "bp:1:2", "--target", "negativity"], "ParameterError"),
    (["scan", "--axis", "bp:0.1:1:2", "--fixed", "bs", "--target",
      "negativity"], "ParameterError"),
    (["scan", "--axis", "bp:0.1:1:2", "--fixed", "bs=x", "--target",
      "negativity"], "ParameterError"),
    # scan and boundary targets obey crit's order limit; after the colon,
    # what the message must say
    (["scan", "--axis", "bp:0.1:1:2", "--target", "E_W:20:20", "--csv", "-"],
     "ParameterError:order 42 exceeds"),
    (["boundary", "--axis", "bp", "--t", "0.7", "--family", "E_W", "--k1",
      "20", "--k2", "20"], "ParameterError:order 42 exceeds"),
    (["scan", "--config", _Ini(_AXIS_BP + "[scan]\ntargets = E_W:20:20\n")],
     "ParameterError:order 42 exceeds"),
    # an integer beyond the float range used to end in a traceback
    (["crit", "--bp", "1", "--family", "E_W", "--k1", "9" * 400],
     "ParameterError:k1 must be finite"),
    # each scan worker may be an OS thread, so the count is bounded; a
    # two-cell grid starts at most two threads either way
    (["scan", "--axis", "bp:0.1:1:2", "--target", "negativity", "--threads",
      "100000", "--csv", "-"], "ParameterError:threads must be in [1, 64]"),
    (["scan", "--config", _Ini(_AXIS_BP + "[scan]\nthreads = 10000\n"),
      "--target", "negativity"], "ParameterError:threads must be in [1, 64]"),
    # an axis section spells its ends min and max only
    (["scan", "--config", _Ini("[axis:bp]\nstart = 0.1\nstop = 1\n"),
      "--target", "negativity"], "ParameterError:needs min and max"),
    (["scan", "--axis", "bp:0.1:1:2", "--target", "negativity",
      "--noise-mode", "unbalanced"],
     "ParameterError:expected one of independent, balanced"),
    # so would a zero phase
    (["crit", "--bp", "1", "--family", "M_p", "--phi", "0"],
     "ParameterError:--phi needs --t"),
    # a misspelt key would be dropped silently
    (["scan", "--config", _Ini("[axis:bp]\nmin = 0.1\nmax = 1\ncont = 5\n"
                               "[scan]\ntargets = negativity\n"
                               "noise = balanced\n")],
     "ParameterError:unknown key 'cont' in config section 'axis:bp'"),
    (["scan", "--config", _Ini(_AXIS_BP + "[scan]\nnoise = balanced\n"),
      "--target", "negativity"],
     "ParameterError:unknown key 'noise' in config section 'scan'"),
]
# The first 54 rows keep the ids they had while usage errors came in three
# classes: rows 2 and 46-48 then reported OrderLimitError, and the others
# not listed here ConfigError.
_FORMER_CLASS = {
    **dict.fromkeys(range(54), "ConfigError"),
    **dict.fromkeys((2, 46, 47, 48), "OrderLimitError"),
    **dict.fromkeys((1, 3, 25, 29, 30, 33, 49), "ParameterError"),
}


@pytest.mark.parametrize("argv,error", _FAILURES, ids=[
    f"argv{i}-" + error.replace("ParameterError",
                                _FORMER_CLASS.get(i, "ParameterError"), 1)
    for i, (_, error) in enumerate(_FAILURES)])
def test_failures_report_json_and_exit_nonzero(capsys, tmp_path, argv,
                                               error):
    error, _, says = error.partition(":")
    config = tmp_path / "scan.ini"
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, _Ini):
            config.write_text(arg)
            argv[i] = str(config)
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == error
    assert payload["message"]
    assert says in payload["message"]


@pytest.mark.parametrize("flags,commands", [
    (["--bp", "-1"], [["crit", "--family", "M_p"], ["state"],
                      ["pnd", "--nmax", "2"],
                      ["boundary", "--axis", "t", "--family", "M_p"]]),
    (["--bp", "1", "--t", "0.5", "--phi", "inf"],
     [["crit", "--family", "M_p"], ["state"], ["pnd"]]),
])
def test_a_bad_state_flag_gives_one_record_in_every_command(capsys, flags,
                                                            commands):
    records = set()
    for command in commands:
        rc, _, err = run_cli(capsys, *command, *flags)
        assert rc == 1
        records.add(err)
    assert len(records) == 1
    assert json.loads(records.pop())["error"] == "ParameterError"


@pytest.mark.parametrize("axis,section", [
    ("bp:0:1:0", "[axis:bp]\nmin = 0\nmax = 1\ncount = 0\n"),
    ("foo:0:1:3", "[axis:foo]\nmin = 0\nmax = 1\ncount = 3\n"),
    ("bp:0:1:3:log", "[axis:bp]\nmin = 0\nmax = 1\ncount = 3\nscale = log\n"),
], ids=["count", "name", "scale"])
def test_axis_flags_fail_as_their_config_sections(capsys, tmp_path, axis,
                                                  section):
    config = tmp_path / "scan.ini"
    config.write_text(section)
    rc, _, from_flag = run_cli(capsys, "scan", "--axis", axis,
                               "--target", "negativity")
    assert rc == 1
    rc, _, from_config = run_cli(capsys, "scan", "--config", str(config),
                                 "--target", "negativity")
    assert rc == 1
    assert from_flag == from_config
    assert "malformed" not in json.loads(from_flag)["message"]


def test_scan_flags_override_the_config_file(capsys, tmp_path):
    """--axis and --target replace the file's lists, --fixed overrides it
    key by key, --noise-mode and --threads override it."""
    config = tmp_path / "scan.ini"
    config.write_text(
        "[scan]\ntargets = M_p\nnoise_mode = balanced\nthreads = 1\n"
        "[fixed]\nt = 0.7\nphi = 0.3\n"
        "[axis:bp]\nmin = 0.1\nmax = 2\ncount = 3\n")
    rc, from_config, _ = run_cli(capsys, "scan", "--config", str(config))
    assert rc == 0
    rc, from_flags, _ = run_cli(capsys, "scan", "--axis", "bp:0.1:2:3",
                                "--target", "M_p", "--fixed", "t=0.7",
                                "--fixed", "phi=0.3",
                                "--noise-mode", "balanced")
    assert rc == 0
    assert from_config == from_flags
    rc, merged, _ = run_cli(capsys, "scan", "--config", str(config),
                            "--axis", "bs:0:1:2", "--target", "E_p:0:0",
                            "--fixed", "t=0.9", "--fixed", "bp=1",
                            "--noise-mode", "independent", "--threads", "2")
    assert rc == 0
    rc, want, _ = run_cli(capsys, "scan", "--axis", "bs:0:1:2",
                          "--target", "E_p:0:0", "--fixed", "t=0.9",
                          "--fixed", "phi=0.3", "--fixed", "bp=1")
    assert rc == 0
    assert merged == want


@pytest.mark.parametrize("flag", ["--csv", "--json", "--svg"])
def test_unwritable_output_paths_report_json(capsys, tmp_path, flag):
    rc, _, err = run_cli(capsys, "scan", "--axis", "bp:0.1:1:3",
                         "--axis", "bs:0:1:3", "--target", "negativity",
                         "--csv", str(tmp_path / "grid.csv"),
                         flag, str(tmp_path / "missing" / "out"))
    assert rc == 1
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "missing" in payload["message"]
    # every output is opened before the scan runs, so no rows are written
    csv = tmp_path / "grid.csv"
    assert not csv.exists() or csv.read_text() == ""


def test_svg_of_a_one_dimensional_scan_fails_before_the_scan(capsys,
                                                             tmp_path):
    rc, _, err = run_cli(capsys, "scan", "--axis", "bp:0.1:1:3",
                         "--target", "negativity",
                         "--csv", str(tmp_path / "grid.csv"),
                         "--svg", str(tmp_path / "plot-"))
    assert rc == 1
    assert json.loads(err) == {
        "error": "ParameterError",
        "message": "SVG output needs a scan of two axes, got 1"}
    assert not (tmp_path / "grid.csv").exists()


def test_pnd_rows_match_per_value_formatting(capsys):
    """Row templates and block writes give the bytes of per-value
    format(v, ".12g") rows, on a table wider than one block of rows."""
    argv = ["--bp", "0.7", "--bs", "0.2", "--t", "0.4", "--phi", "0.3"]
    rc, out, _ = run_cli(capsys, "pnd", *argv, "--nmax", "300")
    assert rc == 0
    st = states.beam_splitter(states.twin_beam(0.7, bs=0.2), 0.4, phi=0.3)
    p = moments.pnd_table(st, 300, 300)
    assert p.size > scan.WRITE_BLOCK_CELLS
    want = ",".join(["n1\\n2"] + [str(j) for j in range(301)]) + "\n"
    for i in range(301):
        want += ",".join([str(i)] + [format(v, ".12g") for v in p[i]]) + "\n"
    want += f"# tail_mass,{format(1.0 - float(p.sum()), '.12g')}\n"
    assert out == want


@pytest.mark.parametrize("phi", ["-1e-3", "-2E-1", "-.5", "-3"])
def test_negative_values_are_values_not_flags(capsys, phi):
    base = ["crit", "--bp", "1", "--family", "M_p", "--t", "0.6"]
    rc, out, err = run_cli(capsys, *base, "--phi", phi)
    assert rc == 0, err
    assert out == run_cli(capsys, *base, f"--phi={phi}")[1]


def test_negative_infinite_phi_is_rejected_as_a_value(capsys):
    rc, _, err = run_cli(capsys, "crit", "--bp", "1", "--family", "M_p",
                         "--t", "0.6", "--phi", "-inf")
    assert rc == 1
    assert "phi must be finite" in json.loads(err)["message"]


# a block write that the closed pipe cuts short returns its short count,
# so an output of one block must report that count, and one of several
# blocks fails at the latest on the next
@pytest.mark.parametrize("argv", [
    ["pnd", "--bp", "3", "--nmax", "400"],
    ["scan", "--axis", "bp:0.1:3:200", "--axis", "t:0.5:1:200", "--target",
     "negativity", "--csv", "-"],
    ["scan", "--axis", "bp:0.1:3:100", "--axis", "t:0.5:1:100", "--target",
     "negativity", "--csv", "-"]], ids=["pnd", "scan", "scan_one_block"])
def test_a_closed_stdout_ends_quietly_with_status_141(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "twinbeam", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["crit", "--bp", "1e150", "--family", "M_W"],
    ["pnd", "--bp", "1e150", "--t", "0.5", "--nmax", "2"]],
    ids=["crit", "pnd"])
def test_a_numerical_failure_writes_only_its_json_record(argv):
    """The overflow's RuntimeWarnings do not precede the error record.  The
    pnd case is a splitter output, whose probabilities are read off Q; a
    twin beam's are read off K, which does not overflow at bp 1e150."""
    proc = subprocess.run([sys.executable, "-m", "twinbeam", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "EvaluationError"


def test_a_succeeding_command_keeps_its_warnings():
    proc = subprocess.run([sys.executable, "-m", "twinbeam", "crit",
                           "--bp", "3e50", "--family", "E_W", "--k1", "2",
                           "--k2", "2"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["criterion"] == "E_W:2:2"
    assert "RuntimeWarning: overflow encountered" in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twinbeam", "crit", "--bp", "1.0",
         "--family", "M_W"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["criterion"] == "M_W"
    assert payload["nonclassical"] is True

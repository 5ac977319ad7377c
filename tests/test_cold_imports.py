"""scipy is imported only where it is called: a cold catalog, classify,
state, crit, scan or boundary loads none of it, nor does a noiseless twin
beam's photon-number distribution; photon-number tables that solve their
rows load scipy.linalg alone, without a warning, and detection loss loads
none."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# appended to each case: print the scipy modules it left in sys.modules
LOADED = ("\nimport sys\nprint(sorted(m for m in sys.modules\n"
          "             if m == 'scipy' or m.startswith('scipy.')))\n")


def _scipy_after(code):
    """The scipy modules loaded after running ``code`` in a fresh
    interpreter, with warnings raised as errors and twinbeam taken from the
    source tree; fails on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code + LOADED],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _cli(*argv):
    return (f"from twinbeam import cli\n"
            f"assert cli.main({list(argv)!r}) == 0\n")


CATALOG = """
from twinbeam import criteria, quantifiers, states
state = states.attenuate(
    states.beam_splitter(states.twin_beam(1.0, bs=0.2, bi=0.1), 0.6,
                         phi=0.3), 0.7, 0.8)
for cid in criteria.default_catalog():
    criteria.evaluate(state, cid)
quantifiers.classify(state)
"""


@pytest.mark.parametrize("case", ["crit", "state", "scan", "boundary",
                                  "catalog"])
def test_cold_paths_import_no_scipy(case, tmp_path):
    code = {
        "crit": _cli("crit", "--bp", "1", "--family", "E_p", "--k1", "2",
                     "--k2", "2"),
        "state": _cli("state", "--bp", "1", "--t", "0.4"),
        "scan": _cli("scan", "--axis", "bp:0.1:2:4", "--axis", "t:0:1:3",
                     "--target", "E_p:2:2,negativity",
                     "--csv", str(tmp_path / "scan.csv"),
                     "--json", str(tmp_path / "scan.json")),
        "boundary": _cli("boundary", "--family", "E_p", "--axis", "t",
                         "--bp", "1"),
        "catalog": CATALOG,
    }[case]
    assert _scipy_after(code) == []
    if case == "scan":
        assert (tmp_path / "scan.json").stat().st_size > 0


def test_photon_numbers_and_detection_loss_load_scipy_lazily():
    """The 65-column tables of a splitter output and of a noisy twin beam
    solve their rows with BLAS dtbsv, which imports scipy.linalg on the
    spot without a warning; detection loss imports nothing, and neither
    pulls in scipy.signal or scipy.stats."""
    loaded = set(_scipy_after("""
from twinbeam import moments, oracle, states
for state in (states.beam_splitter(states.twin_beam(1.0), 0.5),
              states.twin_beam(1.0, bs=0.2, bi=0.1)):
    pnd = moments.photon_number_distribution(state)
    oracle.bernoulli_downsample(pnd, 0.5)
"""))
    assert "scipy.linalg" in loaded
    assert not loaded & {"scipy.signal", "scipy.stats"}


def test_a_noiseless_twin_beam_distribution_loads_no_scipy():
    """A noiseless twin beam's 1/K table is diagonal and solves no row, so
    its distribution, as large as 4097^2, and its detection loss load no
    scipy."""
    assert _scipy_after("""
from twinbeam import moments, oracle, states
pnd = moments.photon_number_distribution(states.twin_beam(1.0))
oracle.bernoulli_downsample(pnd, 0.5)
pnd = moments.photon_number_distribution(states.twin_beam(100.0))
assert pnd.p.shape == (4097, 4097)
""") == []

"""The 50-digit reference of exact.py against the closed forms, and the
library's tables and criteria against it."""

import mpmath
import numpy as np
import pytest

import exact
from conftest import random_physical_state
from twinbeam import criteria, moments, states
from twinbeam.criteria import CriterionId


@pytest.fixture(autouse=True)
def _digits():
    with mpmath.workdps(exact.DPS):
        yield


@pytest.mark.parametrize("params", [(0.3, 0.0, 0.0), (1.7, 0.4, 0.0),
                                    (2.5, 0.3, 1.1)])
def test_the_reference_gives_the_noisy_twin_beam_closed_form(params):
    """To 1e-14 relative, and 1e-15 absolute for the closed form's rounding
    at the exact zeros of a noiseless beam, p(n1, n2) = 0 for n1 != n2."""
    tb = states.TwinBeamParams(*params)
    p = exact.table(states.twin_beam(tb), "P", 6, 5, extended=True)
    for n1 in range(7):
        for n2 in range(6):
            want = moments.twin_beam_pnd_closed_form(tb, n1, n2)
            assert abs(p[n1][n2] - want) <= 1e-14 * want + 1e-15, (n1, n2)


_NOISELESS_IDS = ["E_W:0:0", "E_W:0:1", "E_W:0:2", "E_W:1:1", "E_W:2:2",
                  "E_p:0:0", "E_p:0:1", "E_p:0:2", "E_p:1:1", "E_p:2:2",
                  "M_W", "M_p"]


@pytest.mark.parametrize("bp", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("label", _NOISELESS_IDS)
def test_the_reference_gives_the_noiseless_closed_forms(bp, label):
    want = criteria.closed_form_noiseless(CriterionId.parse(label), bp)
    got = exact.value(states.twin_beam(bp), label, extended=True)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("bp,t", [(0.5, 0.2), (2.0, 0.37), (1.0, 0.5)])
@pytest.mark.parametrize("label", ["E_p:0:0", "E_p:1:1", "E_p:2:2",
                                   "E_p:0:2", "M_p"])
def test_the_reference_gives_the_beam_splitter_closed_forms(bp, t, label):
    want = criteria.closed_form_bs_output(CriterionId.parse(label), bp, t)
    state = states.beam_splitter(states.twin_beam(bp), t)
    got = exact.value(state, label, extended=True)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("bp,extended,bound", [
    (76.83, True, 1e-16), (76.83, False, 1e-14),
    (1e6, True, 1e-12), (1e6, False, 1e-9)])
def test_a_bright_beam_is_as_exact_as_its_fields(bp, extended, bound):
    """p(n, n) = bp**n / (1 + bp)**(n + 1) on a noiseless twin beam.  The
    exact arithmetic leaves only the rounding of the stored fields, about
    eps bp relative on float64 ones and far less on the extended copy."""
    p = exact.table(states.twin_beam(bp), "P", 3, 3, extended=extended)
    b = mpmath.mpf(bp)
    for n in range(4):
        assert abs(p[n][n] / (b ** n / (1 + b) ** (n + 1)) - 1) <= bound


def _seeded(count):
    return [random_physical_state(np.random.default_rng(seed))
            for seed in range(count)]


@pytest.mark.parametrize("kind,orders", [
    *criteria._CATALOG_ORDERS.items(), ("P", (5, 5)), ("P1", (8, 0)),
    ("P2", (8, 0))])
def test_the_catalog_tables_match_the_reference(kind, orders):
    """Every table the catalog reads, and small photon-number tables, lie
    within 1e-13 of the largest entry of the exact table of the same
    float64 fields, on seeded splitter-and-loss states."""
    for state in _seeded(8):
        got = moments._table(moments._q(state), kind, *orders)
        want = np.array(exact.table(state, kind, *orders), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_the_catalog_values_match_the_reference():
    """Every catalog value lies within 1e-13 of its largest term, the scale
    its tol is RELATIVE_TOL of, from the exact value of the same fields."""
    for state in _seeded(4):
        for cid in criteria.default_catalog():
            result = criteria.evaluate(state, cid)
            scale = result.tol / criteria.RELATIVE_TOL
            assert abs(result.value - exact.value(state, cid)) <= (
                1e-13 * scale), cid.label()

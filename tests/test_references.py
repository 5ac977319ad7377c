"""Photon-number tables against independent references, where their errors
live: large tables of bright and noisy beams.

Twin beams and their losses, whose tables are read off 1/K, are checked
against twin_beam_pnd_closed_form, whole diagonals and sampled entries off
them up to 4097^2, and small lossy tables against the 50-digit reference of
tests/exact.py.  A splitter output, read off Q, is checked against the Fock
oracle applied to a closed-form twin-beam table cut to n1 + n2 <= N, which
the splitter maps exactly onto the same triangle because it conserves
photon number.
"""

import mpmath
import numpy as np
import pytest

import exact
from twinbeam import moments, oracle, states

# relative, on entries the closed form gives in float64's normal range
CLOSED_FORM_TOL = 1e-11
NORMAL = 1e-290


def _assert_closed_form(params, table, entries):
    """Each of ``entries`` of ``table`` within CLOSED_FORM_TOL relative of
    the closed form, where that is a normal float, and 0.0 where it is."""
    for n1, n2 in entries:
        want = moments.twin_beam_pnd_closed_form(params, n1, n2)
        got = float(table[n1, n2])
        if want == 0.0:
            assert got == 0.0, (n1, n2, got)
        elif want > NORMAL:
            assert abs(got - want) <= CLOSED_FORM_TOL * want, (
                n1, n2, got, want)


@pytest.mark.parametrize("params", [(20.0, 25.0, 25.0), (100.0, 125.0, 125.0),
                                    (50.0, 0.0, 10.0)],
                         ids=["tb(20,25,25)", "tb(100,125,125)",
                              "tb(50,0,10)"])
def test_noisy_twin_beam_tables_are_the_closed_form(params):
    """The whole diagonal of a 4097^2 table, and 200 seeded entries off it,
    within 1e-11 of the closed form."""
    p = states.TwinBeamParams(*params)
    table = moments.pnd_table(states.twin_beam(p), 4096, 4096)
    rng = np.random.default_rng(26)
    near = rng.integers(0, 4097, 100)
    offsets = rng.integers(-64, 65, 100)
    entries = [(n, n) for n in range(4097)]
    entries += [(int(n), int(np.clip(n + d, 0, 4096)))
                for n, d in zip(near, offsets)]
    entries += [tuple(map(int, e)) for e in rng.integers(0, 4097, (100, 2))]
    _assert_closed_form(p, table, entries)


@pytest.mark.parametrize("bp", [36.6919354124013, 76.8282917364289, 100.0])
def test_noiseless_distributions_are_the_closed_form(bp):
    """Adaptive distributions of noiseless beams, among them the two
    jittered pumps at which the expansion of Q once turned negative, are
    exactly diagonal and lie within 1e-11 of the closed form along it."""
    p = states.TwinBeamParams(bp)
    dist = moments.photon_number_distribution(states.twin_beam(p))
    n = dist.n_max1
    assert dist.n_max2 == n
    assert np.count_nonzero(dist.p) == np.count_nonzero(np.diagonal(dist.p))
    _assert_closed_form(p, dist.p, [(k, k) for k in range(n + 1)])


@pytest.mark.parametrize("params,etas", [((2.0, 0.3, 0.1), (0.7, 0.4)),
                                         ((20.0, 5.0, 5.0), (0.7, 0.6))])
def test_lossy_twin_beam_tables_are_the_exact_reference(params, etas):
    """A lossy twin beam's 41^2 table within 1e-12 relative of the 50-digit
    table of its float64 fields."""
    state = states.attenuate(states.twin_beam(*params), *etas)
    with mpmath.workdps(exact.DPS):
        want = np.array(exact.table(state, "P", 40, 40), dtype=float)
    got = moments.pnd_table(state, 40, 40)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_a_split_noisy_beam_is_the_fock_oracle():
    """A 50:50 split of twin_beam(20, 25, 25) within 1e-14 absolute of the
    Fock oracle on n1 + n2 <= 200, the oracle's own error being about
    2e-15."""
    n = 200
    p = states.TwinBeamParams(20.0, 25.0, 25.0)
    cut = np.zeros((n + 1, n + 1))
    for n1 in range(n + 1):
        for n2 in range(n + 1 - n1):
            cut[n1, n2] = moments.twin_beam_pnd_closed_form(p, n1, n2)
    split = oracle.bs_transform_pnd(
        moments.PhotonNumberDistribution(n, n, cut, 0.0), 0.5)
    got = moments.pnd_table(states.beam_splitter(states.twin_beam(p), 0.5),
                            n, n)
    triangle = np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n
    error = np.abs(got - split.p[:n + 1, :n + 1])[triangle]
    assert error.max() <= 1e-14

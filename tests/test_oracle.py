"""Tests for the Fock-basis splitter oracle and detection downsampling."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from twinbeam import moments, oracle, states
from twinbeam.errors import ParameterError


def _shell_probs(t, s):
    """Probability matrix of shell s: the square of the last amplitude
    matrix ``_shells`` yields."""
    *_, amps = oracle._shells(t, s)
    return amps ** 2


@pytest.mark.parametrize("t", [0.1, 0.37, 0.5, 0.73, 0.9])
@pytest.mark.parametrize("shell", [1, 5, 20, 32, 120])
def test_shell_matrices_are_stochastic(t, shell):
    """Probability is conserved within every photon-number shell."""
    m = _shell_probs(t, shell)
    assert m.shape == (shell + 1, shell + 1)
    assert np.all(m >= 0.0)
    np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-12 * (1 + shell))


def test_two_photon_interference():
    """One photon in each arm never exits split at the balanced point."""
    column = _shell_probs(0.5, 2)[:, 1]
    assert column[1] == 0.0
    assert column[0] == pytest.approx(0.5, rel=1e-12)
    assert column[2] == pytest.approx(0.5, rel=1e-12)


def test_full_transmission_is_the_identity():
    for s in (1, 3, 8):
        np.testing.assert_allclose(_shell_probs(1.0, s), np.eye(s + 1),
                                   atol=1e-30)


def test_full_reflection_reverses_the_shell():
    for s in (1, 3, 8):
        np.testing.assert_allclose(
            _shell_probs(0.0, s), np.eye(s + 1)[::-1],
            atol=1e-12 * (1 + s)
        )


def _interference_sum(t, s, j):
    """Column j of shell s as the direct sum over the ways the input's
    photons split, in mpmath: P(n | j) for n = 0 .. s.  Its terms
    alternate in sign and cancel by about 0.3 s digits, so the working
    precision grows with the shell."""
    with mpmath.workdps(int(0.3 * s) + 40):
        r = mpmath.sqrt(mpmath.mpf(t))
        w = mpmath.sqrt(1 - mpmath.mpf(t))
        fact = mpmath.factorial
        col = []
        for n in range(s + 1):
            amp = mpmath.mpf(0)
            for k in range(max(0, n - (s - j)), min(j, n) + 1):
                term = (math.comb(j, k) * math.comb(s - j, n - k)
                        * r ** (s - j - n + 2 * k) * w ** (j + n - 2 * k))
                amp += -term if (j - k) % 2 else term
            amp *= mpmath.sqrt(fact(n) * fact(s - n)
                               / (fact(j) * fact(s - j)))
            col.append(float(amp ** 2))
    return np.array(col)


@pytest.mark.parametrize("t", [0.37, 0.9])
def test_large_shells_match_the_interference_sum(t):
    """The recurrence stays accurate past the shells a cutoff-64 table
    reaches: columns of shells 129 and 200 against the exact sums."""
    wanted = {129: (0, 64, 129), 200: (1, 100, 177)}
    for s, amps in enumerate(oracle._shells(t, 200)):
        for j in wanted.get(s, ()):
            np.testing.assert_allclose(amps[:, j] ** 2,
                                       _interference_sum(t, s, j),
                                       rtol=0, atol=1e-14)


def test_coefficient_vanishes_across_shells():
    """A Fock input (1, 2) leaves on shell 3 only: exact zeros elsewhere."""
    fock = np.zeros((2, 3))
    fock[1, 2] = 1.0
    out = oracle.bs_transform_pnd(
        moments.PhotonNumberDistribution.from_table(fock), 0.7).p
    n1, n2 = np.indices(out.shape)
    assert not np.any(out[n1 + n2 != 3])
    assert out[1, 2] > 0.0
    assert out[n1 + n2 == 3].sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_transform_matches_gaussian_engine(seed):
    """The Fock-basis transform agrees with the engine's output PND."""
    rng = np.random.default_rng(500 + seed)
    bp = rng.uniform(0.2, 1.2)
    bs = rng.uniform(0.0, 0.5)
    bi = rng.uniform(0.0, 0.5)
    t = rng.uniform(0.0, 1.0)
    phi = rng.uniform(-np.pi, np.pi)
    tb = states.twin_beam(bp, bs=bs, bi=bi)
    pnd_in = moments.photon_number_distribution(tb, tail_tol=1e-13)
    got = oracle.bs_transform_pnd(pnd_in, t)
    out_state = states.beam_splitter(tb, t, phi=phi)
    want = moments.pnd_table(out_state, 8, 8)
    np.testing.assert_allclose(got.p[:9, :9], want, rtol=0, atol=1e-12)


def test_transform_conserves_probability():
    """Also for a table whose odd shells are empty, as a noiseless twin
    beam's are: the splitter keeps them exactly zero."""
    tb = states.twin_beam(1.0, bs=0.3)
    noisy = moments.photon_number_distribution(tb, tail_tol=1e-12)
    diagonal = moments.PhotonNumberDistribution.from_table(
        np.diag(0.5 ** np.arange(1.0, 9.0)))
    for pnd in (noisy, diagonal):
        out = oracle.bs_transform_pnd(pnd, 0.42)
        assert out.total_mass() == pytest.approx(pnd.total_mass(), abs=1e-13)
        assert out.tail_mass == pytest.approx(pnd.tail_mass, abs=1e-13)
    n1, n2 = np.indices(out.p.shape)
    assert not np.any(out.p[(n1 + n2) % 2 == 1])


@pytest.mark.parametrize("seed", range(6))
def test_downsampling_matches_loss_channel(seed):
    """Bernoulli detection equals the Gaussian attenuation channel."""
    rng = np.random.default_rng(900 + seed)
    bp = rng.uniform(0.2, 1.2)
    bs = rng.uniform(0.0, 0.4)
    eta1 = rng.uniform(0.2, 1.0)
    eta2 = rng.uniform(0.2, 1.0)
    st = states.twin_beam(bp, bs=bs)
    pnd = moments.photon_number_distribution(st, tail_tol=1e-13)
    got = oracle.bernoulli_downsample(pnd, eta1, eta2)
    want = moments.pnd_table(states.attenuate(st, eta1, eta2), 6, 6)
    np.testing.assert_allclose(got.p[:7, :7], want, rtol=0, atol=1e-12)


def test_downsampling_scales_the_mean():
    st = states.twin_beam(0.8, bs=0.3, bi=0.1)
    pnd = moments.photon_number_distribution(st, tail_tol=1e-13)
    thinned = oracle.bernoulli_downsample(pnd, 0.5, 0.25)
    n1 = np.arange(thinned.p.shape[0])
    n2 = np.arange(thinned.p.shape[1])
    mean1 = float(n1 @ thinned.p.sum(axis=1))
    mean2 = float(thinned.p.sum(axis=0) @ n2)
    assert mean1 == pytest.approx(0.5 * st.b1, rel=1e-9)
    assert mean2 == pytest.approx(0.25 * st.b2, rel=1e-9)


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.3, 0.5, 0.77, 1.0])
def test_loss_matrix_matches_exact_binomial_weights(eta):
    """Pascal's rule against C(n, m) eta^m (1 - eta)^(n - m) in exact
    rational arithmetic on the float eta: relative error at most
    3 n 2^-53, exact zeros above the diagonal and at eta 0 and 1, and
    columns that sum to 1 within (n + 1) 2^-53."""
    n_max = 64
    loss = oracle._loss_matrix(n_max, eta)
    assert loss.shape == (n_max + 1, n_max + 1)
    e = Fraction(eta)
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            exact = (math.comb(n, m) * e ** m * (1 - e) ** (n - m)
                     if m <= n else Fraction(0))
            if exact == 0:
                assert loss[m, n] == 0.0
            else:
                assert (abs(Fraction(float(loss[m, n])) - exact)
                        <= 3 * n * Fraction(1, 2 ** 53) * exact)
        assert abs(loss[:, n].sum() - 1.0) <= (n + 1) * 2.0 ** -53


def test_downsampling_is_within_rounding_of_exact_sums():
    """Each entry of a 17^2 downsample lies within 8 ulps of the exact
    rational sum over the same float inputs (3.3 measured; the bound of
    two nonnegative 17-term sums is 34 units of 2^-53 relative)."""
    st = states.twin_beam(0.9, bs=0.2, bi=0.1)
    pnd = moments.PhotonNumberDistribution.from_table(
        moments.pnd_table(st, 16, 16))
    got = oracle.bernoulli_downsample(pnd, 0.55, 0.7)
    t1 = [[Fraction(x) for x in row] for row in oracle._loss_matrix(16, 0.55)]
    t2 = [[Fraction(x) for x in row] for row in oracle._loss_matrix(16, 0.7)]
    p = [[Fraction(x) for x in row] for row in pnd.p]
    left = [[sum(t1[m][n] * p[n][k] for n in range(17)) for k in range(17)]
            for m in range(17)]
    for m in range(17):
        for l in range(17):
            exact = sum(left[m][k] * t2[l][k] for k in range(17))
            error = abs(Fraction(float(got.p[m, l])) - exact)
            assert error <= 8 * Fraction(math.ulp(float(exact)))


def test_unit_efficiency_is_identity():
    pnd = moments.photon_number_distribution(states.twin_beam(0.7), tail_tol=1e-12)
    same = oracle.bernoulli_downsample(pnd, 1.0)
    np.testing.assert_array_equal(same.p, pnd.p)


@pytest.mark.parametrize("k1,k2", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 3)])
def test_factorial_moments_respect_their_bounds(k1, k2):
    """Estimates agree with the series engine within the stated bound."""
    for st in (
        states.twin_beam(0.8, bs=0.2, bi=0.05),
        states.beam_splitter(states.twin_beam(1.0, bs=0.3), 0.7),
    ):
        pnd = moments.photon_number_distribution(st, tail_tol=1e-14)
        est = oracle.factorial_moment_from_pnd(pnd, k1, k2)
        exact = moments.intensity_moment(st, k1, k2)
        assert abs(est.value - exact) <= est.error_bound
        assert est.value == pytest.approx(exact, rel=1e-7)


def test_factorial_moment_bound_is_informative():
    pnd = moments.photon_number_distribution(states.twin_beam(0.5), tail_tol=1e-14)
    est = oracle.factorial_moment_from_pnd(pnd, 2, 2)
    assert est.error_bound < 1e-6 * max(1.0, abs(est.value))


def test_parameter_validation():
    pnd = moments.photon_number_distribution(states.twin_beam(0.5))
    with pytest.raises(ParameterError):
        oracle.bs_transform_pnd(pnd, 1.2)
    with pytest.raises(ParameterError):
        oracle.bernoulli_downsample(pnd, -0.1)
    with pytest.raises(ParameterError):
        oracle.bs_transform_pnd(pnd, np.nan)
    with pytest.raises(ParameterError):
        oracle.bernoulli_downsample(pnd, np.nan)
    with pytest.raises(ParameterError):
        oracle.bernoulli_downsample(pnd, 0.5, 1.5)
    with pytest.raises(ParameterError):
        oracle.factorial_moment_from_pnd(pnd, 1.5, 0)
    # a non-finite entry or tail is no distribution to transform or sum
    for table, tail in (([[0.5, np.nan], [0.25, 0.25]], 0.0),
                        ([[0.5, np.inf], [0.25, 0.25]], 0.0),
                        ([[np.inf, -np.inf], [0.25, 0.25]], 0.0),
                        ([[0.5, 0.25], [0.25, 0.0]], np.nan),
                        ([[0.5, 0.25], [0.25, 0.0]], np.inf),
                        ([[0.5, np.nan], [0.25, 0.25]], None),
                        ([[np.inf, -np.inf], [0.25, 0.25]], None)):
        with pytest.raises(ParameterError):
            moments.PhotonNumberDistribution(1, 1, table, tail)

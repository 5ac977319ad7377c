"""Tests for the Fock-basis splitter oracle and detection downsampling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from twinbeam import moments, oracle, states
from twinbeam.errors import ParameterError


@pytest.mark.parametrize("t", [0.1, 0.37, 0.5, 0.73, 0.9])
@pytest.mark.parametrize("shell", [1, 5, 20, 32, 120])
def test_shell_matrices_are_stochastic(t, shell):
    """Probability is conserved within every photon-number shell."""
    table = oracle.BsCoefficientTable(t, cutoff=max(32, shell))
    m = table.shell(shell)
    assert m.shape == (shell + 1, shell + 1)
    assert np.all(m >= 0.0)
    np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-12 * (1 + shell))


def test_two_photon_interference():
    """One photon in each arm never exits split at the balanced point."""
    m = oracle.BsCoefficientTable(0.5).shell(2)
    column = m[:, 1]
    assert column[1] == pytest.approx(0.0, abs=1e-25)
    assert column[0] == pytest.approx(0.5, rel=1e-12)
    assert column[2] == pytest.approx(0.5, rel=1e-12)


def test_full_transmission_is_the_identity():
    table = oracle.BsCoefficientTable(1.0)
    for s in (1, 3, 8):
        np.testing.assert_allclose(table.shell(s), np.eye(s + 1), atol=1e-30)


def test_full_reflection_reverses_the_shell():
    table = oracle.BsCoefficientTable(0.0)
    for s in (1, 3, 8):
        np.testing.assert_allclose(
            table.shell(s), np.eye(s + 1)[::-1], atol=1e-12 * (1 + s)
        )


def test_coefficient_vanishes_across_shells():
    table = oracle.BsCoefficientTable(0.7)
    assert table.coefficient(2, 1, 1, 1) == 0.0
    assert table.coefficient(0, 0, 1, 2) == 0.0
    assert table.coefficient(1, 2, 1, 2) > 0.0


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
    tb = states.twin_beam(1.0, bs=0.3)
    pnd = moments.photon_number_distribution(tb, tail_tol=1e-12)
    out = oracle.bs_transform_pnd(pnd, 0.42)
    assert out.total_mass() == pytest.approx(pnd.total_mass(), abs=1e-13)
    assert out.tail_mass == pytest.approx(pnd.tail_mass, abs=1e-13)


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
        oracle.BsCoefficientTable(2.0)
    with pytest.raises(ParameterError):
        oracle.BsCoefficientTable(np.nan)
    with pytest.raises(ParameterError):
        oracle.bernoulli_downsample(pnd, np.nan)
    with pytest.raises(ParameterError):
        oracle.bernoulli_downsample(pnd, 0.5, 1.5)
    with pytest.raises(ParameterError):
        oracle.factorial_moment_from_pnd(pnd, 1.5, 0)
    with pytest.raises(ParameterError):
        oracle.BsCoefficientTable(0.5, cutoff=3.7)
    with pytest.raises(ParameterError):
        oracle.BsCoefficientTable(0.5).shell(1.5)
    with pytest.raises(ParameterError):
        oracle.BsCoefficientTable(0.5, cutoff=2).shell(3)
    with pytest.raises(ParameterError):
        oracle.BsCoefficientTable(0.5).coefficient(1, 0, 0.5, 0.5)

"""Tests for the moment/PND engine and its generating-function core."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_physical_state
from twinbeam import moments, states
from twinbeam.errors import (EvaluationError, OrderLimitError, ParameterError,
                             TruncationError)


def _characteristic_quadrature(state, lam1, lam2, nodes=48):
    """Antinormal generating function by direct Gaussian integration.

    Evaluates the two-complex-dimensional integral of the normally
    ordered characteristic function against the exponential weights
    with tensor-product Gauss-Hermite quadrature.  Shares nothing with
    the series engine: the integrand is assembled from the raw state
    parameters.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    s1, s2 = np.sqrt(lam1), np.sqrt(lam2)
    y, u, v = np.meshgrid(x, x, x, indexing="ij")
    wyuv = np.einsum("i,j,k->ijk", w, w, w)
    beta2 = s2 * (u + 1j * v)
    beta2c = np.conj(beta2)
    mode2 = -state.b2 * (beta2.real**2 + beta2.imag**2) + (
        state.c2 * beta2c**2
    ).real
    total = 0.0
    for xi, wi in zip(x, w):
        beta1 = s1 * (xi + 1j * y)
        beta1c = np.conj(beta1)
        exponent = (
            -state.b1 * (beta1.real**2 + beta1.imag**2)
            + (state.c1 * beta1c**2).real
            + mode2
            + 2.0 * (state.d12 * beta1c * beta2c + state.dbar12 * beta1 * beta2c).real
        )
        total += wi * float(np.sum(wyuv * np.exp(exponent)))
    return total / np.pi**2


def test_k_matrix_of_unit_twin_beam():
    km = moments.build_k_matrix(states.twin_beam(1.0))
    assert km.k12 == pytest.approx(2.0, rel=1e-12)
    assert km.k13 == pytest.approx(2.0, rel=1e-12)
    assert km.k14 == pytest.approx(0.0, abs=1e-12)
    assert km.k22 == pytest.approx(1.0, rel=1e-12)
    assert km.k33 == pytest.approx(1.0, rel=1e-12)
    assert km.k24 == pytest.approx(-2.0, rel=1e-12)
    assert km.k34 == pytest.approx(-2.0, rel=1e-12)
    assert km.k44 == pytest.approx(1.0, rel=1e-12)


def test_q_value_normalization():
    rng = np.random.default_rng(2)
    for _ in range(4):
        poly = moments.q_polynomial(random_physical_state(rng))
        assert poly.eval(0.0, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_q_value_against_quadrature_balanced_split():
    """Mandated cross-check on the balanced splitter output at unit pump."""
    st = states.beam_splitter(states.twin_beam(1.0), 0.5)
    poly = moments.q_polynomial(st)
    rng = np.random.default_rng(20260819)
    for _ in range(5):
        l1, l2 = rng.uniform(0.6, 1.2, size=2)
        q_direct = 1.0 / _characteristic_quadrature(st, l1, l2) ** 2
        assert poly.eval(l1, l2) == pytest.approx(q_direct, rel=1e-10)


def test_q_value_against_quadrature_noisy_unbalanced_split():
    """The same integral on a state with every coupling term active."""
    st = states.beam_splitter(states.twin_beam(1.0, bs=0.3, bi=0.1), 0.7)
    assert abs(st.dbar12) > 0.05  # the discriminating cross term is live
    poly = moments.q_polynomial(st)
    rng = np.random.default_rng(77)
    for _ in range(3):
        l1, l2 = rng.uniform(0.6, 1.2, size=2)
        q_direct = 1.0 / _characteristic_quadrature(st, l1, l2) ** 2
        assert poly.eval(l1, l2) == pytest.approx(q_direct, rel=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_pnd_sum_reproduces_generating_function(seed):
    """Partial sums of the PND evaluate the generating function."""
    rng = np.random.default_rng(300 + seed)
    st = random_physical_state(rng, max_pump=1.5)
    poly = moments.q_polynomial(st)
    pnd = moments.photon_number_distribution(st, tail_tol=1e-14)
    n1 = np.arange(pnd.n_max1 + 1)
    n2 = np.arange(pnd.n_max2 + 1)
    for _ in range(3):
        q1, q2 = rng.uniform(0.2, 0.9, size=2)
        partial = float(q1**n1 @ pnd.p @ q2**n2)
        exact = poly.eval(1.0 - q1, 1.0 - q2) ** -0.5
        assert partial == pytest.approx(exact, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("seed", range(3))
def test_moments_match_falling_factorial_sums(seed):
    """Intensity moments equal factorial moments of the distribution."""
    rng = np.random.default_rng(40 + seed)
    st = random_physical_state(rng, max_pump=1.0)
    pnd = moments.photon_number_distribution(st, tail_tol=1e-13)
    n1 = np.arange(pnd.n_max1 + 1, dtype=float)
    n2 = np.arange(pnd.n_max2 + 1, dtype=float)
    table = moments.moment_table(st, 3, 3)
    for k1 in range(4):
        for k2 in range(4):
            w1 = np.ones_like(n1)
            for j in range(k1):
                w1 *= n1 - j
            w2 = np.ones_like(n2)
            for j in range(k2):
                w2 *= n2 - j
            direct = float(w1 @ pnd.p @ w2)
            assert table[k1, k2] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_first_moments_in_closed_form():
    st = states.twin_beam(0.8, bs=0.4, bi=0.15)
    mt = moments.moment_table(st, 2, 2)
    assert mt[0, 0] == pytest.approx(1.0, rel=1e-13)
    assert mt[1, 0] == pytest.approx(st.b1, rel=1e-12)
    assert mt[0, 1] == pytest.approx(st.b2, rel=1e-12)
    assert mt[1, 1] == pytest.approx(
        st.b1 * st.b2 + abs(st.d12) ** 2 + abs(st.dbar12) ** 2, rel=1e-12
    )
    assert mt[2, 0] == pytest.approx(2.0 * st.b1**2 + abs(st.c1) ** 2, rel=1e-12)


def test_intensity_moment_matches_table():
    rng = np.random.default_rng(8)
    st = random_physical_state(rng)
    mt = moments.moment_table(st, 3, 2)
    for k1 in range(4):
        for k2 in range(3):
            assert moments.intensity_moment(st, k1, k2) == pytest.approx(
                mt[k1, k2], rel=1e-13
            )


def test_marginal_moments_match_joint():
    rng = np.random.default_rng(13)
    st = random_physical_state(rng)
    mt = moments.moment_table(st, 4, 4)
    for k in range(5):
        assert moments.marginal_intensity_moment(st, 1, k) == pytest.approx(
            mt[k, 0], rel=1e-12
        )
        assert moments.marginal_intensity_moment(st, 2, k) == pytest.approx(
            mt[0, k], rel=1e-12
        )


@pytest.mark.parametrize(
    "params",
    [states.TwinBeamParams(0.5), states.TwinBeamParams(0.8, 0.4, 0.15)],
    ids=["noiseless", "noisy"],
)
def test_pnd_elements_match_closed_form(params):
    st = states.twin_beam(params)
    for n1 in range(7):
        for n2 in range(7):
            got = moments.pnd_element(st, n1, n2)
            want = moments.twin_beam_pnd_closed_form(params, n1, n2)
            if want == 0.0:
                # an exactly vanishing element evaluates to rounding residue
                assert abs(got) < 1e-15
            else:
                assert got == pytest.approx(want, rel=1e-12)


def test_noiseless_diagonal_is_geometric():
    bp = 0.5
    st = states.twin_beam(bp)
    for n in range(7):
        expected = bp**n / (1.0 + bp) ** (n + 1)
        assert moments.pnd_element(st, n, n) == pytest.approx(expected, rel=1e-12)


def test_deep_tail_uses_log_domain():
    """Far-tail probabilities keep relative accuracy at 1e-27 scale."""
    params = states.TwinBeamParams(0.8, 0.4, 0.15)
    st = states.twin_beam(params)
    got = moments.pnd_element(st, 60, 3, max_order=65)
    want = moments.twin_beam_pnd_closed_form(params, 60, 3)
    assert want < 1e-25
    assert got == pytest.approx(want, rel=1e-10)
    # a noiseless beam has no term off the diagonal: every base but the
    # pair one is zero
    assert moments.twin_beam_pnd_closed_form(1.0, 60, 61) == 0.0


def test_pnd_table_matches_elements():
    rng = np.random.default_rng(21)
    st = random_physical_state(rng)
    table = moments.pnd_table(st, 5, 4)
    assert table.shape == (6, 5)
    for n1 in (0, 2, 5):
        for n2 in (0, 3, 4):
            assert table[n1, n2] == pytest.approx(
                moments.pnd_element(st, n1, n2), rel=1e-13, abs=1e-300
            )


def test_pnd_element_raises_where_its_table_does():
    """At bp = 60.6 the expansion about (1, 1) turns significantly negative
    inside a 124 x 122 table; its element must not return that value."""
    st = states.twin_beam(60.6)
    with pytest.raises(EvaluationError):
        moments.pnd_table(st, 123, 121)
    with pytest.raises(EvaluationError):
        moments.pnd_element(st, 123, 121, max_order=244)


def test_probability_elements_are_their_table_entries():
    """Exact zeros off a twin beam's diagonal and underflowed marginal tails
    come back as the same +0.0 from an element and from its table."""
    st = states.twin_beam(0.01)
    for n1, n2 in [(0, 0), (4, 3), (2, 7), (6, 6)]:
        got = moments.pnd_element(st, n1, n2, max_order=16)
        want = moments.pnd_table(st, n1, n2)[n1, n2]
        assert got == want and not np.signbit(got)
    for mode in (1, 2):
        for n in (0, 5, 300):
            got = moments.marginal_pnd(st, mode, n, max_order=n)
            want = moments.marginal_pnd_table(st, mode, n)[n]
            assert got == want and not np.signbit(got)


def test_elements_are_their_table_entries_and_share_the_memo():
    """Moment and scaled-probability elements read the state's held tables,
    growing them request by request; every element still equals the entry
    of its own smallest table bit for bit."""
    st = random_physical_state(np.random.default_rng(21))
    q = moments._q_coeff_array(*st.params())

    def same(got, want):
        return np.float64(got).tobytes() == np.float64(want).tobytes()

    for k1, k2 in [(2, 1), (0, 0), (1, 3), (3, 3), (4, 0)]:
        for fn, kind in ((moments.intensity_moment, "W"),
                         (moments.modified_pnd_element, "p"),
                         (moments.pnd_element, "P")):
            assert same(fn(st, k1, k2), moments._table(q, kind, k1, k2)[k1, k2])
    for mode in (1, 2):
        for k in (3, 0, 6, 2):
            for fn, kind in ((moments.marginal_intensity_moment, "W"),
                             (moments.marginal_modified_pnd, "p"),
                             (moments.marginal_pnd, "P")):
                want = moments._table(q, f"{kind}{mode}", k)[k]
                assert same(fn(st, mode, k), want)
    assert set(st._memo) == {"Q", "W", "p", "W1", "W2", "p1", "p2"}


def test_modified_elements_follow_definition():
    st = states.twin_beam(0.8, bs=0.4, bi=0.15)
    p00 = moments.pnd_element(st, 0, 0)
    for n1, n2 in [(0, 0), (1, 1), (2, 1), (0, 3)]:
        expected = (
            math.factorial(n1) * math.factorial(n2)
            * moments.pnd_element(st, n1, n2) / p00
        )
        assert moments.modified_pnd_element(st, n1, n2) == pytest.approx(
            expected, rel=1e-12
        )
    table = moments.modified_pnd_table(st, 3, 3)
    assert table[0, 0] == pytest.approx(1.0, rel=1e-13)
    assert table[2, 1] == pytest.approx(
        moments.modified_pnd_element(st, 2, 1), rel=1e-13
    )


def test_marginal_pnd_matches_joint_sum():
    rng = np.random.default_rng(33)
    st = random_physical_state(rng, max_pump=1.0)
    pnd = moments.photon_number_distribution(st, tail_tol=1e-14)
    marg = pnd.marginal(1)
    for n in range(6):
        assert moments.marginal_pnd(st, 1, n) == pytest.approx(
            float(marg[n]), rel=1e-10, abs=1e-14
        )


def test_marginal_modified_pnd_consistency():
    st = states.twin_beam(0.8, bs=0.4, bi=0.15)
    p0 = moments.marginal_pnd(st, 2, 0)
    for n in range(5):
        expected = math.factorial(n) * moments.marginal_pnd(st, 2, n) / p0
        assert moments.marginal_modified_pnd(st, 2, n) == pytest.approx(
            expected, rel=1e-11
        )
    table = moments.marginal_modified_pnd_table(st, 2, 4)
    assert table[3] == pytest.approx(
        moments.marginal_modified_pnd(st, 2, 3), rel=1e-12
    )


@pytest.mark.parametrize("tail_tol", [1e-8, 1e-12])
def test_adaptive_pnd_reaches_requested_tail(tail_tol):
    rng = np.random.default_rng(55)
    st = random_physical_state(rng)
    pnd = moments.photon_number_distribution(st, tail_tol=tail_tol)
    assert -1e-15 <= pnd.tail_mass <= tail_tol
    assert pnd.total_mass() + pnd.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert np.all(pnd.p >= -1e-15)


def test_adaptive_pnd_respects_cap():
    with pytest.raises(TruncationError):
        moments.photon_number_distribution(states.twin_beam(50.0), n_cap=32)


def test_adaptive_pnd_stops_its_doubling_at_the_cap():
    """Doubling from 16 jumps from 512 past a cap of 1000, yet this
    twin beam's marginal tails meet the tolerance from n = 723 on: the
    last step stops at the cap instead of giving up."""
    pnd = moments.photon_number_distribution(states.twin_beam(30.0),
                                             n_cap=1000)
    assert (pnd.n_max1, pnd.n_max2) == (1000, 1000)
    assert pnd.tail_mass <= 1e-10


@pytest.mark.parametrize("n_start,n_cap", [(64, 32), (16, 8), (1, 3)])
def test_adaptive_pnd_rejects_a_first_cutoff_above_the_cap(monkeypatch,
                                                           n_start, n_cap):
    """The first cutoff is max(4, n_start); above n_cap no table is built."""
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(moments, "_table", no_table)
    with pytest.raises(ParameterError, match="n_cap"):
        moments.photon_number_distribution(states.twin_beam(0.5),
                                           n_start=n_start, n_cap=n_cap)


def test_adaptive_pnd_builds_q_once_per_state(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return q_coeff_array(*args)

    q_coeff_array = moments._q_coeff_array
    monkeypatch.setattr(moments, "_q_coeff_array", counted)
    st = states.twin_beam(1.0)
    pnd = moments.photon_number_distribution(st)
    assert (pnd.n_max1, pnd.n_max2) == (64, 64)
    assert len(calls) == 1


def test_order_limit_is_enforced():
    st = states.twin_beam(1.0)
    with pytest.raises(OrderLimitError):
        moments.pnd_element(st, 7, 7)
    with pytest.raises(OrderLimitError):
        moments.moment_table(st, 7, 7)
    # explicitly raising the order unlocks the computation
    assert moments.pnd_element(st, 7, 7, max_order=16) == pytest.approx(
        0.5**8, rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_k_matrix_names_the_entries_of_q(seed):
    st = random_physical_state(np.random.default_rng(seed))
    q = moments.q_polynomial(st).coeffs
    km = moments.build_k_matrix(st)
    for field in dataclasses.fields(km):
        value = getattr(km, field.name)
        assert value.hex() == q[moments._K_INDEX[field.name]].hex()
    # the fields and the constant 1 cover every coefficient
    assert q[0, 0] == 1.0
    assert len({*moments._K_INDEX.values(), (0, 0)}) == q.size


def test_k_matrix_names_the_powers_of_a_noisy_twin_beam():
    """Without squeezing in either mode, Q = ((1 + b1 l1)(1 + b2 l2)
    - |d12|**2 l1 l2)**2, which ties each name to its power of l1 and l2."""
    st = states.twin_beam(0.7, bs=0.3, bi=0.1)
    b1, b2 = st.b1, st.b2
    m = b1 * b2 - abs(st.d12) ** 2
    want = {"k12": 2 * b1, "k13": 2 * b2, "k14": 2 * (b1 * b2 + m),
            "k22": b1 * b1, "k24": 2 * b1 * m, "k33": b2 * b2,
            "k34": 2 * b2 * m, "k44": m * m}
    got = dataclasses.asdict(moments.build_k_matrix(st))
    assert got == pytest.approx(want, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(bp=st.floats(0.01, 5.0), bs=st.floats(0.0, 2.0), bi=st.floats(0.0, 2.0),
       t=st.floats(0.0, 1.0), phi=st.floats(-math.pi, math.pi),
       eta1=st.floats(0.05, 1.0), eta2=st.floats(0.05, 1.0),
       kind=st.sampled_from(("W", "p", "W1", "W2", "p1", "p2")),
       o1=st.integers(0, 7), o2=st.integers(0, 7),
       d1=st.integers(0, 4), d2=st.integers(0, 4))
def test_table_prefix_is_the_smaller_table(bp, bs, bi, t, phi, eta1, eta2,
                                           kind, o1, o2, d1, d2):
    """Every criterion table kind: the [:o1 + 1, :o2 + 1] corner of a larger
    table is the smaller table bit for bit, signs of zero included, which
    lets a state keep one table per kind at its largest orders."""
    state = states.attenuate(states.beam_splitter(
        states.twin_beam(bp, bs=bs, bi=bi), t, phi=phi), eta1, eta2)
    q = moments._q_coeff_array(*state.params())
    if kind != kind[0]:  # a marginal has one order
        o2 = d2 = 0
    small = moments._table(q, kind, o1, o2)
    large = moments._table(q, kind, o1 + d1, o2 + d2)
    corner = large[:o1 + 1, :o2 + 1] if kind == kind[0] else large[:o1 + 1]
    assert corner.shape == small.shape
    assert corner.tobytes() == small.tobytes()

"""Tests for state construction, transformations and physicality checks."""

import dataclasses
import math
import pickle
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_physical_state
from twinbeam import criteria, moments, oracle, quantifiers, scan, states
from twinbeam.errors import ParameterError, PhysicalityError


def test_twin_beam_parameters():
    """Pair amplitude and per-mode noise land in the documented slots."""
    st = states.twin_beam(2.0, bs=0.3, bi=0.1)
    assert st.b1 == pytest.approx(2.3)
    assert st.b2 == pytest.approx(2.1)
    assert st.c1 == 0.0 and st.c2 == 0.0 and st.dbar12 == 0.0
    assert st.d12 == pytest.approx(1j * math.sqrt(2.0 * 3.0))


def test_twin_beam_accepts_params_object():
    assert states.twin_beam(states.TwinBeamParams(1.0, 0.2, 0.1)) == states.twin_beam(
        1.0, bs=0.2, bi=0.1
    )


def test_beam_splitter_errors_name_the_bad_argument():
    tb = states.twin_beam(1.0)
    with pytest.raises(ParameterError, match=r"^t must be in \[0, 1\]"):
        states.beam_splitter(tb, 1.2)
    with pytest.raises(ParameterError, match=r"^phi must be finite, got inf"):
        states.beam_splitter(tb, 0.5, phi=math.inf)


@pytest.mark.parametrize(
    "build",
    [
        lambda: states.twin_beam(-0.1),
        lambda: states.twin_beam(1.0, bs=-0.2),
        lambda: states.twin_beam(1.0, bi=-1e-9),
        lambda: states.beam_splitter(states.twin_beam(1.0), 1.2),
        lambda: states.beam_splitter(states.twin_beam(1.0), -0.01),
        lambda: states.attenuate(states.twin_beam(1.0), 1.1),
        lambda: states.attenuate(states.twin_beam(1.0), 0.5, -0.5),
        lambda: states.twin_beam(math.inf),
        lambda: states.attenuate(states.twin_beam(1.0), math.nan),
        lambda: states.beam_splitter(states.twin_beam(1.0), 0.5, phi=math.inf),
        lambda: states.TwoModeGaussianState(math.nan, 1.0),
        lambda: states.twin_beam("abc"),
        lambda: states.twin_beam(1.0, bs=None),
        lambda: states.beam_splitter(states.twin_beam(1.0), "x"),
        lambda: states.beam_splitter(states.twin_beam(1.0), 0.5, phi=None),
        lambda: moments.twin_beam_pnd_closed_form("abc", 1, 1),
        # a params object carries every parameter of its map
        lambda: states.twin_beam(states.TwinBeamParams(1.0), bs=0.5),
        lambda: states.twin_beam(states.TwinBeamParams(1.0), bi=0.5),
        # the beam splitter takes its transmissivity as a number
        lambda: states.beam_splitter(states.twin_beam(1.0),
                                     states.TwinBeamParams(0.5)),
        # integers beyond the float range used to raise OverflowError
        lambda: states._checked("k1", 10**400),
        lambda: states.twin_beam(-10**400),
        lambda: moments.pnd_element(states.twin_beam(0.5), 10**400, 0),
        lambda: moments.photon_number_distribution(states.twin_beam(0.5),
                                                   tail_tol="x"),
        lambda: moments.photon_number_distribution(states.twin_beam(0.5),
                                                   tail_tol=None),
        lambda: moments.photon_number_distribution(states.twin_beam(0.5),
                                                   tail_tol=0.0),
        lambda: moments.photon_number_distribution(states.twin_beam(0.5),
                                                   tail_tol=1.0),
        # bp * (bp + 1) overflows: the state used to blame d12
        lambda: states.twin_beam(1.35e154),
        lambda: states.TwoModeGaussianState(1.0, 1.0,
                                            c1=complex(math.nan, 0.0)),
    ],
)
def test_parameter_validation(build):
    with pytest.raises(ParameterError):
        build()


def test_the_largest_pair_mean_is_the_last_whose_cross_term_fits():
    """d12 = i sqrt(bp (bp + 1)) is finite up to sqrt of the largest
    float; one step beyond, the error names bp and its limit."""
    limit = math.sqrt(sys.float_info.max)
    assert math.isfinite(abs(states.twin_beam(limit).d12))
    with pytest.raises(ParameterError,
                       match=r"^bp must be in \[0, 1\.34078e\+154\], got"):
        states.twin_beam(math.nextafter(limit, math.inf))


_STATE = states.beam_splitter(states.twin_beam(0.8, bs=0.2, bi=0.1), 0.7)
_PND = moments.PhotonNumberDistribution.from_table(
    moments.pnd_table(_STATE, 6, 6))

# every public entry point that takes an integer, called with v = 2 in each
# integer slot (or a multiple of v where 2 is too small)
_INTEGER_CALLS = {
    "CriterionId": lambda v: criteria.CriterionId("R_p", v, v, v).label(),
    "evaluate": lambda v: criteria.evaluate(_STATE, "E_W:2:2",
                                            max_order=3 * v),
    "eval_R_p": lambda v: criteria.eval_R_p(_STATE, v, v, v).value,
    "moment_table": lambda v: moments.moment_table(_STATE, v, v),
    "intensity_moment": lambda v: moments.intensity_moment(_STATE, v, v),
    "marginal_intensity_moment":
        lambda v: moments.marginal_intensity_moment(_STATE, v, v),
    "pnd_table": lambda v: moments.pnd_table(_STATE, v, v),
    "pnd_element": lambda v: moments.pnd_element(_STATE, v, v),
    "modified_pnd_table": lambda v: moments.modified_pnd_table(_STATE, v, v),
    "modified_pnd_element":
        lambda v: moments.modified_pnd_element(_STATE, v, v),
    "marginal_pnd_table": lambda v: moments.marginal_pnd_table(_STATE, v, v),
    "marginal_pnd": lambda v: moments.marginal_pnd(_STATE, v, v),
    "marginal_modified_pnd_table":
        lambda v: moments.marginal_modified_pnd_table(_STATE, v, v),
    "marginal_modified_pnd":
        lambda v: moments.marginal_modified_pnd(_STATE, v, v),
    "twin_beam_pnd_closed_form":
        lambda v: moments.twin_beam_pnd_closed_form(0.8, v, v),
    "photon_number_distribution": lambda v: moments.photon_number_distribution(
        _STATE, n_cap=2048 * v).p,
    "PhotonNumberDistribution": lambda v: moments.PhotonNumberDistribution(
        v, v, np.zeros((3, 3)), 0.0).n_max1,
    "PhotonNumberDistribution.marginal": lambda v: _PND.marginal(v),
    "rsqrt": lambda v: moments.q_polynomial(_STATE).rsqrt(v, v).coeffs,
    "local_quantifier": lambda v: quantifiers.local_quantifier(_STATE, v),
    "factorial_moment_from_pnd":
        lambda v: oracle.factorial_moment_from_pnd(_PND, v, v),
    "AxisSpec": lambda v: scan.AxisSpec("bp", 0.0, 1.0, v).count,
    "ScanSpec": lambda v: scan.ScanSpec(
        axes=[scan.AxisSpec("bp", 0.0, 1.0, 3)],
        targets=[scan.TargetSpec("negativity")], threads=v).threads,
    "TargetSpec": lambda v: scan.TargetSpec("local", mode=v).label(),
}


@pytest.mark.parametrize("call", _INTEGER_CALLS.values(),
                         ids=_INTEGER_CALLS.keys())
def test_integer_arguments_take_any_integral_number(call):
    """2, 2.0 and np.int64(2) are one argument to every integer slot."""
    want = call(2)
    for value in (2.0, np.int64(2)):
        got = call(value)
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and np.array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("bp,delta", [(1e-3, 1e-2), (1.0, 1e-4), (1e3, 1e-8)])
def test_physicality_edge(bp, delta):
    """The pair correlation sits exactly on the physical boundary.

    The minimal symplectic eigenvalue responds quadratically in the
    correlation magnitude, so the probe perturbation is scaled with the
    pump to stay clear of the validator's rounding margin.
    """
    d_max = math.sqrt(bp * (bp + 1.0))
    # on and slightly inside the boundary: fine
    states.TwoModeGaussianState(bp, bp, d12=1j * d_max * (1.0 - delta))
    states.twin_beam(bp)
    # slightly outside: rejected
    with pytest.raises(PhysicalityError):
        states.TwoModeGaussianState(bp, bp, d12=1j * d_max * (1.0 + delta))


def test_negative_mean_rejected():
    with pytest.raises((ParameterError, PhysicalityError)):
        states.TwoModeGaussianState(-0.5, 1.0)


_BP_MAX = states._PARAM_RANGES["bp"][1]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bp=st.one_of(st.just(0.0), st.floats(-300.0, math.log10(_BP_MAX)).map(
           lambda e: min(10.0 ** e, _BP_MAX))),
       bs=st.floats(0.0, 1e6), bi=st.floats(0.0, 1e6),
       t=st.floats(0.0, 1.0),
       phi=st.floats(allow_nan=False, allow_infinity=False),
       eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
def test_map_outputs_pass_the_check_they_skip(bp, bs, bi, t, phi, eta1,
                                              eta2):
    """The maps do not check their outputs for physicality; every state of
    a twin beam -> beam splitter -> loss chain must still pass it."""
    beam = states.twin_beam(bp, bs=bs, bi=bi)
    split = states.beam_splitter(beam, t, phi=phi)
    lost = states.attenuate(split, eta1, eta2)
    for state in (beam, split, lost):
        assert state.is_physical(), state


def test_a_state_built_from_numbers_is_still_checked():
    """Only map outputs skip the check: the same numbers with too strong a
    pair correlation raise, built directly or through dataclasses.replace
    of a map output."""
    out = states.attenuate(states.beam_splitter(
        states.twin_beam(1.0, bs=0.2), 0.6, phi=0.4), 0.9, 0.8)
    assert out.is_physical() and out.d12 != 0.0
    b1, b2, c1, c2, d12, dbar12 = out.params()
    with pytest.raises(PhysicalityError):
        states.TwoModeGaussianState(b1, b2, c1, c2, 10.0 * d12, dbar12)
    with pytest.raises(PhysicalityError):
        dataclasses.replace(out, d12=10.0 * d12)
    assert dataclasses.replace(out, d12=d12) == out


def test_beam_splitter_output_parameters():
    """Transmitted output of a noisy twin beam in closed form."""
    bp, bs, bi, t = 1.5, 0.4, 0.2, 0.7
    r = 1.0 - t
    root = math.sqrt(bp * (bp + 1.0))
    out = states.beam_splitter(states.twin_beam(bp, bs=bs, bi=bi), t)
    assert out.b1 == pytest.approx(t * bs + bp + r * bi)
    assert out.b2 == pytest.approx(r * bs + bp + t * bi)
    assert out.c1 == pytest.approx(2j * math.sqrt(t * r) * root)
    assert out.c2 == pytest.approx(-out.c1)
    assert out.d12 == pytest.approx(1j * (2.0 * t - 1.0) * root)
    assert out.dbar12 == pytest.approx(math.sqrt(t * r) * (bs - bi))


@pytest.mark.parametrize("seed", range(6))
def test_beam_splitter_inverts_with_opposite_phase(seed):
    """A second splitter with phase shifted by pi undoes the first."""
    rng = np.random.default_rng(seed)
    st = random_physical_state(rng)
    t = rng.uniform(0.0, 1.0)
    phi = rng.uniform(-np.pi, np.pi)
    back = states.beam_splitter(states.beam_splitter(st, t, phi), t, phi + np.pi)
    for name in ("b1", "b2", "c1", "c2", "d12", "dbar12"):
        assert getattr(back, name) == pytest.approx(
            getattr(st, name), rel=1e-12, abs=1e-12
        )


def test_double_balanced_splitter_swaps_modes():
    tb = states.twin_beam(1.0, bs=0.3, bi=0.1)
    out = states.beam_splitter(states.beam_splitter(tb, 0.5), 0.5)
    assert out.b1 == pytest.approx(tb.b2)
    assert out.b2 == pytest.approx(tb.b1)
    assert out.d12 == pytest.approx(np.conj(tb.d12))
    assert abs(out.c1) < 1e-12 and abs(out.c2) < 1e-12 and abs(out.dbar12) < 1e-12


def test_beam_splitter_preserves_total_mean_photon_number():
    rng = np.random.default_rng(42)
    for _ in range(5):
        st = random_physical_state(rng)
        out = states.beam_splitter(st, rng.uniform(0, 1), phi=rng.uniform(0, 2 * np.pi))
        assert out.b1 + out.b2 == pytest.approx(st.b1 + st.b2, rel=1e-12)


def test_beam_splitter_preserves_purity():
    """Symplectic eigenvalues are invariant under the passive unitary."""
    rng = np.random.default_rng(3)
    st = random_physical_state(rng)
    out = states.beam_splitter(st, 0.37, phi=1.1)
    np.testing.assert_allclose(
        states.symplectic_eigenvalues(out),
        states.symplectic_eigenvalues(st),
        rtol=1e-10,
    )


def test_attenuate_identity_and_vacuum_limits():
    tb = states.twin_beam(1.0, bs=0.3)
    assert states.attenuate(tb, 1.0) == tb
    dark = states.attenuate(tb, 0.0)
    assert dark.b1 == 0.0 and dark.b2 == 0.0 and dark.d12 == 0.0


def test_attenuate_is_multiplicative():
    rng = np.random.default_rng(9)
    st = random_physical_state(rng)
    once = states.attenuate(st, 0.6 * 0.5, 0.9 * 0.25)
    twice = states.attenuate(states.attenuate(st, 0.6, 0.9), 0.5, 0.25)
    for name in ("b1", "b2", "c1", "c2", "d12", "dbar12"):
        assert getattr(twice, name) == pytest.approx(
            getattr(once, name), rel=1e-12, abs=1e-15
        )


def test_attenuate_scales_parameters():
    tb = states.twin_beam(1.0, bs=0.3, bi=0.1)
    out = states.attenuate(tb, 0.5, 0.8)
    assert out.b1 == pytest.approx(0.5 * tb.b1)
    assert out.b2 == pytest.approx(0.8 * tb.b2)
    assert out.d12 == pytest.approx(math.sqrt(0.5 * 0.8) * tb.d12)


@pytest.mark.parametrize("bp", [0.5, 36.6919354124013, 80.0, 1e12])
def test_a_noiseless_twin_beam_carries_kappa_minus_bp(bp):
    """K's kappa comes from the parameters: exactly -bp on a noiseless
    beam, so b1 + kappa and b2 + kappa are exactly 0, while the fields'
    b1 b2 - |d12|**2 keeps the rounding of d12 (5.6e-5 relative at bp
    1e12)."""
    tb = states.twin_beam(bp)
    assert tb._kappa == -bp
    assert tb.b1 + tb._kappa == 0.0 and tb.b2 + tb._kappa == 0.0
    assert states._fields_kappa(tb) != -bp


def test_kappa_is_carried_by_twin_beam_and_attenuate_and_read_elsewhere():
    """twin_beam sets bp (bs + bi) + bs bi - bp and attenuate scales it by
    eta1 eta2; construction from numbers, dataclasses.replace and the
    beam splitter read b1 b2 - |d12|**2 off the fields.  Every route agrees
    with the fields to rounding."""
    tb = states.twin_beam(2.0, bs=0.3, bi=0.1)
    assert tb._kappa == 2.0 * (0.3 + 0.1) + 0.3 * 0.1 - 2.0
    lossy = states.attenuate(tb, 0.7, 0.4)
    assert lossy._kappa == tb._kappa * (0.7 * 0.4)
    assert states.attenuate(tb, 0.7)._kappa == tb._kappa * (0.7 * 0.7)
    for state in (tb, lossy):
        assert state._kappa == pytest.approx(states._fields_kappa(state),
                                             rel=1e-14)
    built = states.TwoModeGaussianState(*lossy.params())
    for state in (built, dataclasses.replace(lossy, b1=lossy.b1),
                  states.beam_splitter(tb, 0.3, phi=0.2)):
        assert state._kappa == states._fields_kappa(state)


def test_kappa_is_not_part_of_a_states_identity():
    """Two states with the same six fields are equal, have the same
    params() and repr, whatever their kappa; a copy keeps its kappa."""
    tb = states.twin_beam(80.0)
    built = states.TwoModeGaussianState(*tb.params())
    assert built._kappa != tb._kappa
    assert built == tb and hash(built) == hash(tb)
    assert built.params() == tb.params() and repr(built) == repr(tb)
    assert "kappa" not in repr(tb)
    assert pickle.loads(pickle.dumps(tb))._kappa == tb._kappa


def test_covariance_layout():
    tb = states.twin_beam(1.0, bs=0.3, bi=0.1)
    m = states.covariance_n(tb)
    assert m[0, 0] == pytest.approx(-tb.b1)
    assert m[1, 1] == pytest.approx(-tb.b1)
    assert m[2, 2] == pytest.approx(-tb.b2)
    assert m[0, 3] == pytest.approx(tb.d12)
    assert m[1, 2] == pytest.approx(np.conj(tb.d12))
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)


def test_vacuum_quadrature_covariance():
    np.testing.assert_allclose(
        states.quadrature_covariance(states.twin_beam(0.0)), np.eye(4) / 2.0
    )


@pytest.mark.parametrize("seed", range(8))
def test_symplectic_eigenvalues_match_spectral_oracle(seed):
    """Cross-check against |eigenvalues| of i Omega sigma."""
    rng = np.random.default_rng(100 + seed)
    st = random_physical_state(rng)
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0
    sigma = states.quadrature_covariance(st)
    spectral = np.sort(np.abs(np.linalg.eigvals(1j * omega @ sigma)))
    nu_m, nu_p = states.symplectic_eigenvalues(st)
    np.testing.assert_allclose(spectral, [nu_m, nu_m, nu_p, nu_p], rtol=1e-9)


def test_noiseless_twin_beam_is_pure():
    """Both symplectic eigenvalues sit at the vacuum level.

    At purity the two eigenvalues coincide, so their splitting emerges
    from the square root of a cancelling discriminant; 1e-8 is the
    attainable agreement there, not a loose choice.
    """
    nu_m, nu_p = states.symplectic_eigenvalues(states.twin_beam(2.0))
    assert nu_m == pytest.approx(0.5, abs=1e-8)
    assert nu_p == pytest.approx(0.5, abs=1e-8)


def test_partial_transpose_eigenvalue_closed_form():
    bp = 1.0
    nu_m, nu_p = states.symplectic_eigenvalues(
        states.twin_beam(bp), partial_transpose=True
    )
    root = math.sqrt(bp * (bp + 1.0))
    assert nu_m == pytest.approx(bp + 0.5 - root, rel=1e-12)
    assert nu_p == pytest.approx(bp + 0.5 + root, rel=1e-12)


def test_is_physical_params_vectorizes():
    b = np.array([1.0, 1.0, 1.0])
    d = 1j * math.sqrt(2.0) * np.array([0.999, 1.0 - 1e-12, 1.001])
    ok = states.is_physical_params(b, b, 0.0, 0.0, d, 0.0)
    assert ok.tolist() == [True, True, False]


def test_one_number_spectra_keep_their_shape_and_the_batch_bits():
    """_spectrum and is_physical_params run one number on numpy scalars:
    0-d inputs give scalars and a bool, (1,) and (1, 1) inputs arrays of
    that shape, each with the bits of its lane in a batch of two."""
    one = states.beam_splitter(states.twin_beam(1.3, bs=0.2, bi=0.1), 0.3,
                               phi=0.2)
    other = states.twin_beam(0.7)
    for fields in ((one._extended, other._extended),
                   (one.params(), other.params())):
        pair = [np.array(x) for x in zip(*fields)]
        for shape in ((), (1,), (1, 1)):
            lane = [np.reshape(x, shape) for x in fields[0]]
            for transpose in (False, True):
                want = states._spectrum(*pair, transpose)
                got = states._spectrum(*lane, transpose)
                for g, w in zip(got, want):
                    assert np.shape(g) == shape
                    assert g.dtype == np.longdouble
                    assert np.all(g == w[0])
                    assert np.all(np.signbit(g) == np.signbit(w[0]))
            ok = states.is_physical_params(*lane)
            if shape:
                assert ok.shape == shape and ok.all()
            else:
                assert ok is True
    assert type(states._spectrum(*one._extended)[0]) is np.longdouble


def bs_unitary(t, phi=0.0):
    """Mode-transformation matrix of a beam splitter in the field pairing
    (a1, a1+, a2, a2+); batch friendly in t and phi, and computed in their
    precision (complex128 for Python floats).  The reference the library's
    explicit product terms are checked against."""
    real = np.result_type(t, phi, 1.0)
    rt = np.sqrt(np.asarray(t, dtype=real))
    rr = np.sqrt(1.0 - np.asarray(t, dtype=real))
    ph = np.exp(1j * np.asarray(phi, dtype=real))
    shape = np.broadcast_shapes(rt.shape, ph.shape)
    u = np.zeros(shape + (4, 4), dtype=np.result_type(real, 1j))
    u[..., 0, 0] = rt
    u[..., 0, 2] = -rr * ph
    u[..., 1, 1] = rt
    u[..., 1, 3] = -rr * np.conj(ph)
    u[..., 2, 0] = rr * np.conj(ph)
    u[..., 2, 2] = rt
    u[..., 3, 1] = rr * ph
    u[..., 3, 3] = rt
    return u


def test_bs_unitary_is_unitary():
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = bs_unitary(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-14)


def _params_from_an(matrix):
    """Inverse of states._an_matrix; clamps rounding-level negative photon
    numbers."""
    b1 = -np.real(matrix[..., 0, 0])
    b2 = -np.real(matrix[..., 2, 2])
    tiny = 1e-9 * (1.0 + np.abs(b1) + np.abs(b2))
    b1 = np.where((b1 < 0.0) & (b1 > -tiny), 0.0, b1)
    b2 = np.where((b2 < 0.0) & (b2 > -tiny), 0.0, b2)
    return (b1, b2, matrix[..., 0, 1], matrix[..., 2, 3],
            matrix[..., 0, 3], matrix[..., 1, 3])


def _einsum_congruence(b1, b2, c1, c2, d12, dbar12, t, phi):
    """The beam-splitter congruence as an einsum, kept as the reference."""
    a = states._an_matrix(b1, b2, c1, c2, d12, dbar12)
    real = np.finfo(a.dtype).dtype
    u = bs_unitary(np.asarray(t, dtype=real), np.asarray(phi, dtype=real))
    out = np.einsum("...ji,...jk,...kl->...il", np.conj(u), a, u,
                    optimize=True)
    return _params_from_an(out)


def _same_bits(a, b):
    """Equal values, dtypes and signs of zero (the inputs hold no NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b))))


FIELDS = ("b1", "b2", "c1", "c2", "d12", "dbar12")


def _mpmath_congruence(b1, b2, c1, c2, d12, dbar12, t, phi):
    """The six fields of conj(U)^T A U for one float64 lane, in mpmath at
    its working precision."""
    b1, b2, t, phi = (mpmath.mpf(float(x)) for x in (b1, b2, t, phi))
    c1, c2, d, e = (mpmath.mpc(complex(x)) for x in (c1, c2, d12, dbar12))
    cj = mpmath.conj
    a = [[-b1, c1, cj(e), d], [cj(c1), -b1, cj(d), e],
         [e, d, -b2, c2], [cj(d), cj(e), cj(c2), -b2]]
    r, w = mpmath.sqrt(t), mpmath.sqrt(1 - t) * mpmath.expj(phi)
    u = [[r, 0, -w, 0], [0, r, 0, -cj(w)], [cj(w), 0, r, 0], [0, w, 0, r]]
    rows = ((0, 2), (1, 3), (0, 2), (1, 3))  # nonzero rows of U's columns

    def g(m, p):
        return mpmath.fsum(cj(u[k][m]) * a[k][n] * u[n][p]
                           for k in rows[m] for n in rows[p])

    return -g(0, 0).real, -g(2, 2).real, g(0, 1), g(2, 3), g(0, 3), g(1, 3)


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
@pytest.mark.parametrize("lanes", [None, 1, 400, 5000])
def test_congruence_matches_the_einsum_reference(real, lanes):
    """In extended precision the congruence gives the einsum's bits, for
    one state and for stacks of them.  In float64 the einsum's matrix
    products go through BLAS, whose rounding no elementwise formula
    reproduces; there every field, and the einsum's too, lies within
    4 eps (1 + b1 + b2 + |c1| + |c2| + |d12| + |dbar12|) of a 50-digit
    mpmath congruence."""
    rng = np.random.default_rng(23)
    size = () if lanes is None else (lanes,)
    cplx = np.result_type(real, 1j)

    def draw_complex():
        return (rng.normal(size=size) + 1j * rng.normal(size=size)).astype(cplx)

    params = (np.asarray(rng.uniform(0.0, 5.0, size), dtype=real),
              np.asarray(rng.uniform(0.0, 5.0, size), dtype=real),
              draw_complex(), draw_complex(), draw_complex(), draw_complex())
    t = rng.uniform(0.0, 1.0, size)
    phi = rng.uniform(-7.0, 7.0, size)
    got = states._bs_transform_arrays(*params, t, phi)
    want = _einsum_congruence(*params, t, phi)
    assert np.asarray(got[0]).dtype == real
    assert np.asarray(got[2]).dtype == cplx
    if real is np.longdouble:
        for name, g, w in zip(FIELDS, got, want):
            assert _same_bits(g, w), name
        return

    scale = 1.0 + params[0] + params[1] + sum(np.abs(x) for x in params[2:])
    bound = np.atleast_1d(4.0 * np.finfo(np.float64).eps * scale)
    lanes_in = zip(*(np.atleast_1d(x) for x in (*params, t, phi)))
    with mpmath.workdps(50):
        exact = [_mpmath_congruence(*lane) for lane in lanes_in]
        for result in (got, want):
            for j, name in enumerate(FIELDS):
                error = [float(abs(mpmath.mpmathify(complex(v)) - x[j]))
                         for v, x in zip(np.atleast_1d(result[j]), exact)]
                assert np.all(np.array(error) <= bound), name


@pytest.mark.parametrize("bp", [0.0, 0.3, 2.0])
def test_congruence_keeps_the_einsum_zeros(bp):
    """A noiseless twin beam has exact zeros in c1, c2, dbar12 and in the
    real part of d12, and equal means; t = 0 and t = 1 put exact zeros
    into the splitter.  In extended precision every field, signs of zero
    included, is the einsum's, for single states and for lanes."""
    tb = states._twin_beam_arrays(
        *(np.asarray(x, dtype=np.longdouble) for x in (bp, 0.0, 0.0)))
    t, phi = (x.ravel() for x in np.meshgrid([0.0, 1.0, 0.37],
                                             [0.0, -1.49, 2.0]))
    got = states._bs_transform_arrays(*tb, t, phi)
    for name, g, w in zip(FIELDS, got, _einsum_congruence(*tb, t, phi)):
        assert _same_bits(g, w), name
    for k in range(t.size):
        got = states._bs_transform_arrays(*tb, t[k], phi[k])
        want = _einsum_congruence(*tb, t[k], phi[k])
        for name, g, w in zip(FIELDS, got, want):
            assert _same_bits(g, w), (t[k], phi[k], name)


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
def test_full_transmission_returns_the_input_fields(real):
    """At t = 1 the splitter is the identity: positive means, twin-beam
    zeros and random fields all come back bit for bit, at any phase."""
    rng = np.random.default_rng(31)
    n = 200
    cplx = np.result_type(real, 1j)

    def draw_complex():
        return (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(cplx)

    drawn = (np.asarray(rng.uniform(0.1, 5.0, n), dtype=real),
             np.asarray(rng.uniform(0.1, 5.0, n), dtype=real),
             draw_complex(), draw_complex(), draw_complex(), draw_complex())
    twin = states._twin_beam_arrays(
        *(np.asarray(rng.uniform(0.1, 5.0, n), dtype=real) for _ in range(3)))
    for params in (drawn, twin):
        got = states._bs_transform_arrays(*params, 1.0,
                                          rng.uniform(-7.0, 7.0, n))
        for name, g, x in zip(FIELDS, got, params):
            assert _same_bits(g, x), name


def test_scalar_congruence_returns_zero_dimensional_arrays():
    """One state in gives six 0-d arrays out, in its precision."""
    fields = states.twin_beam(1.3, bs=0.2, bi=0.1).params()
    for params, real in ((fields, np.float64),
                         (states._promoted(*fields), np.longdouble)):
        got = states._bs_transform_arrays(*params, 0.3, 0.2)
        cplx = np.result_type(real, 1j)
        assert [type(x) for x in got] == [np.ndarray] * 6
        assert [x.shape for x in got] == [()] * 6
        assert [x.dtype for x in got] == [real] * 2 + [cplx] * 4


def test_a_mean_negative_only_by_rounding_is_clamped_to_zero():
    """A balanced splitter and its inverse send a thermal mode back into
    one mode; the other mode's mean comes out about -3e-17, and the map
    clamps it to 0 rather than building an unphysical state."""
    thermal = states.TwoModeGaussianState(1.0, 0.0)
    split = states.beam_splitter(thermal, 0.5, phi=0.4)
    out = states.beam_splitter(split, 0.5, phi=0.4 + math.pi)
    assert out.b2 == 0.0
    assert out.b1 == pytest.approx(1.0, rel=1e-15)

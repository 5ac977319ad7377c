"""Tests for the entanglement and local non-classicality quantifiers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from twinbeam import criteria, moments, quantifiers, scan, states
from twinbeam.errors import EvaluationError, ParameterError
from twinbeam.scan import AxisSpec, ScanSpec, TargetSpec


def _noise_boundary_by_bisection(bp, balanced, iterations=60):
    """Noise level where the twin beam stops being entangled."""
    lo, hi = 0.0, 4.0 * (bp + 1.0)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        st = states.twin_beam(bp, bs=mid, bi=mid if balanced else 0.0)
        if quantifiers.negativity(st) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_negativity_closed_form_on_moderate_pumps():
    """Noiseless value over six decades of pump strength."""
    for bp in np.logspace(-3.0, math.log10(400.0), 30):
        want = math.sqrt(bp * (bp + 1.0)) + bp
        got = quantifiers.negativity(states.twin_beam(float(bp)))
        assert got == pytest.approx(want, rel=1e-10)


def test_negativity_is_exact_for_the_stored_state():
    """At very strong pumping the result matches rational arithmetic.

    The state is built from the float64 fields of twin_beam(1e3), so it
    carries no extended-precision copy and its correlation parameter is a
    rounded double, which shifts its true negativity by ~3e-10 relative;
    the implementation must sit on the exact value of the state it was
    given, not drift further.
    """
    bp = 1e3
    st = states.TwoModeGaussianState(*states.twin_beam(bp).params())
    b = Fraction(bp)
    di = Fraction(abs(st.d12))
    n_true = (di - b) / (2 * b + 1 - 2 * di)
    got = Fraction(quantifiers.negativity(st))
    assert float(abs(got - n_true) / n_true) < 1e-12
    # the float reference formula genuinely differs from the stored
    # state's exact negativity at this pump level
    ref = math.sqrt(bp * (bp + 1.0)) + bp
    assert float(abs(n_true - Fraction(ref)) / n_true) > 1e-10


@pytest.mark.parametrize("bp", [1e10, 1e20])
def test_a_cancelled_negativity_raises_instead_of_reading_a_floor(bp):
    """From bp of about 1e10 on, the partially transposed nu_minus of a
    twin beam cancels to 0; a physical state has det(sigma) >= 1/16, so
    no digit is left.  negativity read 2.5e299 off a 1e-300 floor there,
    and classify called the state entangled; both must raise."""
    state = states.twin_beam(bp)
    n, verdict, indicator = quantifiers._negativity_lane(*state._extended)
    assert np.isnan(n) and np.isnan(indicator) and not verdict
    with pytest.raises(EvaluationError):
        quantifiers.negativity(state)
    with pytest.raises(EvaluationError):
        quantifiers.classify(state)


def test_twin_beam_keeps_its_float64_fields():
    """The extended-precision copy leaves the public fields as they were."""
    st = states.twin_beam(1e3)
    assert st.d12 == 1j * np.sqrt(1e3 * 1001.0)
    assert st.b1 == st.b2 == 1e3


def test_extended_precision_survives_a_beam_splitter_round_trip():
    """Splitting a strong twin beam and undoing the split keeps the
    negativity on the closed form of the original state."""
    bp = 1e3
    split = states.beam_splitter(states.twin_beam(bp), 0.73, phi=0.4)
    back = states.beam_splitter(split, 0.73, phi=0.4 + math.pi)
    want = math.sqrt(bp * (bp + 1.0)) + bp
    assert quantifiers.negativity(back) == pytest.approx(want, rel=1e-10)


def test_extended_precision_survives_attenuation():
    """A lossy strong twin beam has negativity eta u / (1 - 2 eta u) with
    u = bp / (sqrt(bp(bp+1)) + bp)."""
    bp, eta = 1e3, 0.999
    u = bp / (math.sqrt(bp * (bp + 1.0)) + bp)
    want = eta * u / (1.0 - 2.0 * eta * u)
    got = quantifiers.negativity(states.attenuate(states.twin_beam(bp), eta))
    assert got == pytest.approx(want, rel=1e-12)


def test_negativity_clips_to_zero_for_separable_states():
    st = states.twin_beam(1.0, bs=2.0, bi=2.0)
    assert quantifiers.negativity(st) == 0.0


@pytest.mark.parametrize("bp", [0.1, 1.0, 10.0])
def test_balanced_noise_entanglement_boundary(bp):
    want = math.sqrt(bp * (bp + 1.0)) - bp
    found = _noise_boundary_by_bisection(bp, balanced=True)
    assert found == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("bp", [0.1, 1.0, 10.0])
def test_unbalanced_noise_entanglement_boundary(bp):
    """With noise in one arm only, entanglement survives up to unit
    mean noise photon number regardless of the pump."""
    found = _noise_boundary_by_bisection(bp, balanced=False)
    assert found == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("bp", [0.1, 1.0, 10.0])
def test_balanced_splitter_separates_the_modes(bp):
    tb = states.twin_beam(bp)
    assert quantifiers.negativity(states.beam_splitter(tb, 0.5)) <= 1e-10
    for t in (0.5 - 2e-3, 0.5 + 2e-3):
        assert quantifiers.negativity(states.beam_splitter(tb, t)) > 1e-10


def test_quantifiers_respect_mode_exchange():
    st = states.attenuate(
        states.beam_splitter(
            states.twin_beam(0.9, bs=0.1, bi=0.04), 0.85, phi=0.7
        ),
        0.95,
        0.9,
    )
    swapped = states.TwoModeGaussianState(
        st.b2, st.b1, st.c2, st.c1, st.d12, np.conj(st.dbar12)
    )
    assert quantifiers.negativity(st) > 0.1  # the fixture is entangled
    assert quantifiers.negativity(swapped) == pytest.approx(
        quantifiers.negativity(st), rel=1e-12
    )
    assert quantifiers.local_quantifier(swapped, 2) == pytest.approx(
        quantifiers.local_quantifier(st, 1), rel=1e-12
    )
    assert quantifiers.local_quantifier(swapped, 1) == pytest.approx(
        quantifiers.local_quantifier(st, 2), rel=1e-12
    )


@pytest.mark.parametrize("bp", [0.5, 1.0, 2.0])
def test_local_quantifier_reference_values(bp):
    """Thermal marginals sit below zero; the balanced splitter output
    carries single-mode squeezing worth exactly the pump strength."""
    tb = states.twin_beam(bp)
    out = states.beam_splitter(tb, 0.5)
    for mode in (1, 2):
        assert quantifiers.local_quantifier(tb, mode) == pytest.approx(
            -(bp**2), rel=1e-12
        )
        assert quantifiers.local_quantifier(out, mode) == pytest.approx(
            bp, rel=1e-11
        )


def test_a_state_and_its_scan_lane_agree_on_the_local_quantifiers():
    """On 2,000 noisy splitter outputs, local_quantifier and classify give
    the bits of the state's lane in one scan evaluation.  numpy's complex
    abs rounded 2 of them apart in each mode."""
    rng = np.random.default_rng(0)
    n = 2000
    coords = {"bp": rng.uniform(0.05, 3.0, n), "t": rng.uniform(0.0, 1.0, n),
              "bs": rng.uniform(0.0, 1.0, n)}
    spec = ScanSpec(axes=[AxisSpec(name, 0.0, 1.0, 2) for name in coords],
                    targets=[TargetSpec.parse("i_ncl:1"),
                             TargetSpec.parse("i_ncl:2")],
                    noise_mode="balanced")
    lanes = [value for value, _, _ in scan._evaluate(spec, coords)]
    for k in range(n):
        bp, t, bs = (float(coords[name][k]) for name in ("bp", "t", "bs"))
        st = states.beam_splitter(states.twin_beam(bp, bs=bs, bi=bs), t)
        report = quantifiers.classify(st)
        for mode, reported in ((1, report.i_ncl_1), (2, report.i_ncl_2)):
            want = float(lanes[mode - 1][k]).hex()
            assert quantifiers.local_quantifier(st, mode).hex() == want
            assert reported.hex() == want


def test_classification_of_the_twin_beam():
    rep = quantifiers.classify(states.twin_beam(1.0))
    assert rep.entangled
    assert rep.locally_nonclassical == (False, False)
    assert rep.negativity == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-10)
    assert rep.i_ncl_1 == pytest.approx(-1.0, rel=1e-12)


def test_classification_of_the_balanced_output():
    rep = quantifiers.classify(states.beam_splitter(states.twin_beam(1.0), 0.5))
    assert not rep.entangled
    assert rep.locally_nonclassical == (True, True)
    assert rep.i_ncl_1 == pytest.approx(1.0, rel=1e-10)
    assert rep.i_ncl_2 == pytest.approx(1.0, rel=1e-10)


def test_classification_verdicts_follow_the_tolerance(monkeypatch):
    """classify judges against ZERO_TOL, and a scan lane of the same state
    against the same constant: the scan held a copy of it, and read
    i_ncl:1 as non-classical where classify did not."""
    out = states.beam_splitter(states.twin_beam(1.0), 0.5)
    monkeypatch.setattr(quantifiers, "ZERO_TOL", 2.0)
    strict = quantifiers.classify(out)
    assert strict.locally_nonclassical == (False, False)
    assert not strict.entangled
    spec = ScanSpec(axes=[AxisSpec("bp", 1.0, 1.0, 1)], fixed={"t": 0.5},
                    targets=[TargetSpec.parse(text) for text in
                             ("negativity", "i_ncl:1", "i_ncl:2")])
    verdicts = scan.run_scan(spec).verdicts
    assert [int(verdicts[label][0]) for label in
            ("negativity", "i_ncl:1", "i_ncl:2")] == [
        strict.entangled, *strict.locally_nonclassical]


def test_vacuum_is_classical_everywhere():
    rep = quantifiers.classify(states.twin_beam(0.0))
    assert not rep.entangled
    assert rep.locally_nonclassical == (False, False)
    assert rep.negativity == 0.0


def test_loss_never_creates_entanglement():
    rng = np.random.default_rng(4)
    for _ in range(5):
        bp = rng.uniform(0.2, 3.0)
        st = states.twin_beam(bp, bs=rng.uniform(0, 0.2), bi=rng.uniform(0, 0.2))
        full = quantifiers.negativity(st)
        lossy = quantifiers.negativity(states.attenuate(st, 0.7, 0.6))
        assert lossy <= full + 1e-12


@pytest.mark.parametrize("call", [
    quantifiers.classify,
    quantifiers.negativity,
    lambda state: quantifiers.local_quantifier(state, 1),
    lambda state: states.beam_splitter(state, 0.5),
    lambda state: states.attenuate(state, 0.5),
    states.symplectic_eigenvalues,
    states.covariance_n,
    states.quadrature_covariance,
    moments.build_k_matrix,
    moments.photon_number_distribution,
    lambda state: criteria.evaluate(state, "M_p"),
], ids=["classify", "negativity", "local_quantifier", "beam_splitter",
        "attenuate", "symplectic_eigenvalues", "covariance_n",
        "quadrature_covariance", "build_k_matrix",
        "photon_number_distribution", "evaluate"])
def test_a_non_state_raises_a_parameter_error_naming_the_state_class(call):
    with pytest.raises(ParameterError, match="TwoModeGaussianState"):
        call(states.TwinBeamParams(1.0))

"""Entanglement and local non-classicality quantifiers.

For two-mode Gaussian states the positive-partial-transpose test is exact,
so entanglement is quantified by the negativity obtained from the smaller
symplectic eigenvalue of the partially transposed quadrature covariance.
Local (single-mode) non-classicality is measured by how strongly the
intra-mode variance exceeds what any classical mixture of coherent states
allows.  The classify helper reports only these three quantities, the
negativity and each mode's local quantifier, with a verdict on each.  A
state flagged on none of them may still be non-classical: the splitter
output beam_splitter(twin_beam(1.0, 0.2269, 0.2269), 0.2417) has zero
negativity and a local quantifier of -0.039 in both modes, yet the smallest
eigenvalue of its quadrature covariance is 0.3127, below the vacuum level
1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .states import TwoModeGaussianState, _checked, _not_a_state, _spectrum

__all__ = [
    "ZERO_TOL",
    "NonclassicalityReport",
    "local_quantifier",
    "negativity",
    "classify",
]

ZERO_TOL = 1e-10


@dataclass(frozen=True)
class NonclassicalityReport:
    """Where a state's quantum character resides: in each mode separately,
    in the inter-mode correlations, or nowhere."""

    i_ncl_1: float
    i_ncl_2: float
    negativity: float
    entangled: bool
    locally_nonclassical: tuple


def _local_values(b1, b2, c1, c2):
    """Both modes' local quantifiers |c|^2 - b^2, on Python numbers or on
    arrays.  Real multiplies and adds give one state the bits of its lane
    of a grid; numpy's complex abs rounds a scalar and an array apart."""
    return (c1.real * c1.real + c1.imag * c1.imag - b1 * b1,
            c2.real * c2.real + c2.imag * c2.imag - b2 * b2)


def _state_local_values(state: TwoModeGaussianState):
    """Both modes' local quantifiers of ``state``."""
    try:
        return _local_values(state.b1, state.b2, state.c1, state.c2)
    except AttributeError:
        raise _not_a_state(state) from None


def local_quantifier(state: TwoModeGaussianState, mode: int) -> float:
    """Excess of the intra-mode variance over the classical bound.

    Positive values certify single-mode non-classicality (a squeezed
    quadrature); classical fields give values <= 0.
    """
    return float(_state_local_values(state)[_checked("mode", mode) - 1])


def _negativity_arrays(b1, b2, c1, c2, d12, dbar12):
    """Negativity and the smaller partially transposed symplectic eigenvalue
    from raw parameters; array friendly, extended precision.

    A physical state has det(sigma) >= 1/16, so an eigenvalue below 1e-300
    (in practice 0) means that every digit cancelled: both come back NaN.
    """
    nu_m = _spectrum(b1, b2, c1, c2, d12, dbar12, partial_transpose=True)[0]
    nu_m = np.where(nu_m >= 1e-300, nu_m, np.longdouble(np.nan))
    n = (1.0 - 2.0 * nu_m) / (4.0 * nu_m)
    return np.maximum(n, np.longdouble(0.0)), nu_m


def negativity(state: TwoModeGaussianState) -> float:
    """Entanglement negativity of the state; zero for separable states.

    Raises EvaluationError where the partially transposed spectrum lost
    every digit (twin beams from bp of about 1e10 on).
    """
    try:
        extended = state._extended
    except AttributeError:
        raise _not_a_state(state) from None
    n = float(_negativity_arrays(*extended)[0])
    if np.isnan(n):
        raise EvaluationError(
            "the partially transposed symplectic spectrum cancelled to zero; "
            "the negativity of this state is out of reach")
    return n


def classify(state: TwoModeGaussianState) -> NonclassicalityReport:
    """Full report: local quantifiers for both modes, the negativity, and
    Boolean verdicts that each exceeds ZERO_TOL, as the scan's lanes use.
    Raises EvaluationError where negativity does."""
    i1, i2 = map(float, _state_local_values(state))
    n = negativity(state)
    return NonclassicalityReport(
        i_ncl_1=i1,
        i_ncl_2=i2,
        negativity=n,
        entangled=bool(n > ZERO_TOL),
        locally_nonclassical=(bool(i1 > ZERO_TOL), bool(i2 > ZERO_TOL)),
    )

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
from .states import TwoModeGaussianState, _checked, _fields, _spectrum

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


def _local_lanes(b1, b2, c1, c2):
    """Each mode's (value, verdict, indicator): the local quantifier
    |c|^2 - b^2 in float64, whether it exceeds ZERO_TOL, and its negative;
    on Python numbers or on arrays.  Real multiplies and adds give one
    state the bits of its lane of a grid; numpy's complex abs rounds a
    scalar and an array apart."""
    values = (c1.real * c1.real + c1.imag * c1.imag - b1 * b1,
              c2.real * c2.real + c2.imag * c2.imag - b2 * b2)
    return [(value, value > ZERO_TOL, -value) for value in values]


def local_quantifier(state: TwoModeGaussianState, mode: int) -> float:
    """Excess of the intra-mode variance over the classical bound.

    Positive values certify single-mode non-classicality (a squeezed
    quadrature); classical fields give values <= 0.
    """
    lanes = _local_lanes(*_fields(state)[0][:4])
    return float(lanes[_checked("mode", mode) - 1][0])


def _negativity_lane(b1, b2, c1, c2, d12, dbar12):
    """The negativity's (value, verdict, indicator) in float64 from
    extended-precision parameters, on numbers or on arrays: max(n, 0) in
    extended precision, then rounded; whether it exceeds ZERO_TOL; and the
    smaller partially transposed symplectic eigenvalue, rounded, less 1/2.

    A physical state has det(sigma) >= 1/16, so an eigenvalue below 1e-300
    (in practice 0) means that every digit cancelled: value and indicator
    come back NaN.
    """
    nu_m = _spectrum(b1, b2, c1, c2, d12, dbar12, partial_transpose=True)[0]
    nu_m = np.where(nu_m >= 1e-300, nu_m, np.longdouble(np.nan))
    n = (1.0 - 2.0 * nu_m) / (4.0 * nu_m)
    value = np.asarray(np.maximum(n, np.longdouble(0.0)), dtype=float)
    return value, value > ZERO_TOL, np.asarray(nu_m, dtype=float) - 0.5


def _judged_negativity(state: TwoModeGaussianState) -> tuple:
    """negativity's value of ``state`` and its verdict."""
    value, verdict, _ = _negativity_lane(*_fields(state)[1])
    if np.isnan(value):
        raise EvaluationError(
            "the partially transposed symplectic spectrum cancelled to zero; "
            "the negativity of this state is out of reach")
    return float(value), bool(verdict)


def negativity(state: TwoModeGaussianState) -> float:
    """Entanglement negativity of the state; zero for separable states.

    Raises EvaluationError where the partially transposed spectrum lost
    every digit (twin beams from bp of about 1e10 on).
    """
    return _judged_negativity(state)[0]


def classify(state: TwoModeGaussianState) -> NonclassicalityReport:
    """Full report: local quantifiers for both modes, the negativity, and
    Boolean verdicts that each exceeds ZERO_TOL, as the scan's lanes have
    them.  Raises EvaluationError where negativity does."""
    (i1, local1, _), (i2, local2, _) = _local_lanes(*_fields(state)[0][:4])
    n, entangled = _judged_negativity(state)
    return NonclassicalityReport(
        i_ncl_1=i1, i_ncl_2=i2, negativity=n, entangled=entangled,
        locally_nonclassical=(local1, local2))

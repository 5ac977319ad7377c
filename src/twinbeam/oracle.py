"""Fock-space reference path for photon-number statistics.

The moments engine reaches the joint photon-number distribution through the
generating-function expansion.  This module provides the slow but
structurally independent alternative: exact beam-splitter coefficients in
the Fock basis, a distribution-level beam-splitter transform built from
them, Bernoulli detection loss applied directly to count probabilities, and
factorial moments summed straight off a finite table.  Agreement between
the two paths is the strongest end-to-end check the package has, because
they share no code beyond the state parametrization.

The beam splitter conserves total photon number, so its Fock coefficients
block into shells of fixed n1 + n2, and each shell gives a column-stochastic
probability matrix.  Phases drop out of these squared coefficients, which is
why the transform here needs only the transmissivity.  ``_shells`` builds
each shell's real amplitude matrix from the one before and keeps none, and
``bs_transform_pnd`` squares and checks every shell it reads; on shells up
to 300 photons the probabilities checked are within 2.3e-15 of exact sums.
One transition probability is an entry of the transform of a Fock state.

Detection loss builds its binomial weights by Pascal's rule, so the oracle
loads no scipy.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError
from .moments import PhotonNumberDistribution
from .states import _checked

__all__ = [
    "bs_transform_pnd",
    "bernoulli_downsample",
    "FactorialMomentEstimate",
    "factorial_moment_from_pnd",
]


def _shells(t: float, s_max: int):
    """Yield the real amplitude matrix of shells s = 0 .. s_max, each built
    from the one before; entry [n1_out, n1_in] is the amplitude for input
    (n1_in, s - n1_in) to leave as (n1_out, s - n1_out).

    The input's a1+ leaves as r b1+ - w b2+ and its a2+ as w b1+ + r b2+,
    with r = sqrt(t) and w = sqrt(1 - t), and s |j, s-j> is
    sqrt(j) a1+ |j-1, s-j> + sqrt(s-j) a2+ |j, s-j-1>.  Both terms are
    used for every column: raising only a1+ where j >= 1 is unstable.
    """
    r, w = math.sqrt(t), math.sqrt(1.0 - t)
    amps = np.ones((1, 1))
    yield amps
    for s in range(1, s_max + 1):
        q = np.sqrt(np.arange(1.0, s + 1.0) / s)[:, None]   # sqrt(k / s)
        qr = q[::-1]
        from1 = amps * q.T    # a1+ raises input column j - 1 to j
        from2 = amps * qr.T   # a2+ leaves input column j where it is
        amps = np.zeros((s + 1, s + 1))
        # b1+ raises output row m - 1 to m, b2+ leaves row m where it is
        amps[1:, 1:] = r * q * from1
        amps[:-1, 1:] -= w * qr * from1
        amps[1:, :-1] += w * q * from2
        amps[:-1, :-1] += r * qr * from2
        yield amps


def bs_transform_pnd(pnd: PhotonNumberDistribution,
                     t: float) -> PhotonNumberDistribution:
    """Joint photon-number distribution after the beam splitter, computed
    shell by shell in the Fock basis.

    Each shell is mapped by a stochastic matrix, so the covered mass is
    conserved exactly; the result is rescaled to the input's total mass to
    absorb rounding, and the truncation tail carries over unchanged.
    """
    t = _checked("t", t)
    s_max = pnd.n_max1 + pnd.n_max2
    out = np.zeros((s_max + 1, s_max + 1))
    for s, amps in enumerate(_shells(t, s_max)):
        n1_in = np.arange(max(0, s - pnd.n_max2), min(pnd.n_max1, s) + 1)
        shell_probs = pnd.p[n1_in, s - n1_in]
        if not np.any(shell_probs):
            continue
        probs = amps[:, n1_in] ** 2
        worst = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
        if worst > 1e-12 * (1.0 + s):
            raise EvaluationError(
                f"beam-splitter shell {s} lost unitarity "
                f"(worst column mass error {worst:.3e})")
        n1_out = np.arange(s + 1)
        out[n1_out, s - n1_out] += probs @ shell_probs
    total_out = float(out.sum())
    if total_out > 0.0:
        out *= pnd.total_mass() / total_out
    return PhotonNumberDistribution(s_max, s_max, out, pnd.tail_mass)


def _loss_matrix(n_max: int, eta: float) -> np.ndarray:
    """Entry [m, n]: probability that n photons yield m detections.

    Built by Pascal's rule: column n is (1 - eta) times column n - 1 plus
    eta times column n - 1 shifted down by one.  The rows of the transpose
    are filled, so each step reads and writes contiguous memory."""
    out = np.zeros((n_max + 1, n_max + 1))
    out[0, 0] = 1.0
    # deep binomial tails underflow to zero, as the exact weights round
    with np.errstate(under="ignore"):
        for n in range(1, n_max + 1):
            prev = out[n - 1, :n]
            np.multiply(prev, 1.0 - eta, out=out[n, :n])
            out[n, 1:n + 1] += eta * prev
    return out.T


def bernoulli_downsample(pnd: PhotonNumberDistribution, eta1: float,
                         eta2: float | None = None) -> PhotonNumberDistribution:
    """Detection loss applied directly to the count probabilities.

    Every photon survives independently with probability eta; the stored
    tail mass is kept as a (now conservative) bound, since loss can only
    move probability toward smaller counts.
    """
    e1 = _checked("eta1", eta1)
    e2 = e1 if eta2 is None else _checked("eta2", eta2)
    t1 = _loss_matrix(pnd.n_max1, e1)
    t2 = _loss_matrix(pnd.n_max2, e2)
    out = t1 @ pnd.p @ t2.T
    return PhotonNumberDistribution(pnd.n_max1, pnd.n_max2, out,
                                    pnd.tail_mass)


class FactorialMomentEstimate(NamedTuple):
    value: float
    error_bound: float


def factorial_moment_from_pnd(pnd: PhotonNumberDistribution, k1: int,
                              k2: int) -> FactorialMomentEstimate:
    """Factorial moment <n1 (n1-1).. (n1-k1+1) n2 .. (n2-k2+1)> summed over
    the stored table.

    The error bound charges the whole truncation tail at photon numbers
    twice the cutoffs, plus a rounding allowance for the table-sized dot
    product.  The tail term is floored at a few machine epsilons because a
    strongly over-resolved table can report a survival of exactly zero even
    though the true tail is merely below what double precision resolves.
    The combination is a heuristic rather than a guarantee, but it holds
    with room to spare for the geometrically decaying tails these
    distributions have once the cutoff satisfies the tail tolerance.
    """
    k1 = _checked("k1", k1)
    k2 = _checked("k2", k2)
    f1 = np.array([math.perm(n, k1) if n >= k1 else 0
                   for n in range(pnd.n_max1 + 1)], dtype=float)
    f2 = np.array([math.perm(n, k2) if n >= k2 else 0
                   for n in range(pnd.n_max2 + 1)], dtype=float)
    value = float(f1 @ pnd.p @ f2)
    eps = float(np.finfo(float).eps)
    tail = max(pnd.tail_mass, 4.0 * eps)
    rounding = (pnd.n_max1 + 1) * (pnd.n_max2 + 1) * eps * abs(value)
    bound = (tail * math.perm(2 * pnd.n_max1 + k1, k1)
             * math.perm(2 * pnd.n_max2 + k2, k2) + rounding)
    return FactorialMomentEstimate(value, float(bound))

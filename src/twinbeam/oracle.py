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
why the transform here needs only the transmissivity.  One private function,
``_shell_matrix``, maps a transmissivity to a shell's checked probability
matrix, and ``bs_transform_pnd`` reads every shell through it; one transition
probability is an entry of the transform of a Fock distribution.

Detection loss builds its binomial weights by Pascal's rule, so the oracle
loads no scipy.
"""
from __future__ import annotations

import math
from functools import lru_cache
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

# Shells up to this size keep their decomposition: at most about 12 MB,
# and every shell of a cutoff-64 table.  Larger shells, each (s + 1)**2
# complex numbers, are decomposed per call and not kept.
_CACHED_SHELL_MAX = 128


@lru_cache(maxsize=None)
def _shell_generator(s: int) -> tuple:
    """Eigendecomposition of the number-conserving mixing generator.

    On the shell of s total photons the splitter acts as exp(theta * K)
    with K the tridiagonal antisymmetric matrix K[k+1, k] = sqrt((k+1)(s-k)).
    The decomposition of the Hermitian matrix iK depends only on s, so it is
    shared across transmissivities.
    """
    k = np.arange(s, dtype=float)
    w = np.sqrt((k + 1.0) * (s - k))
    herm = np.zeros((s + 1, s + 1), dtype=complex)
    herm[np.arange(1, s + 1), np.arange(s)] = 1j * w
    herm[np.arange(s), np.arange(1, s + 1)] = -1j * w
    mu, vec = np.linalg.eigh(herm)
    return mu, vec


def _shell_matrix(t: float, s: int) -> np.ndarray:
    """Probability matrix of one photon-number shell, checked to be
    column-stochastic.

    Entry [n1_out, n1_in] is the probability that an input Fock state
    (n1_in, s - n1_in) leaves the splitter as (n1_out, s - n1_out).  The
    amplitude matrix is the exponential of the mixing generator, evaluated
    through its eigendecomposition; unlike the direct interference sum this
    stays well conditioned at shells of hundreds of photons.
    """
    theta = math.atan2(math.sqrt(1.0 - t), math.sqrt(t))
    if s > _CACHED_SHELL_MAX:
        mu, vec = _shell_generator.__wrapped__(s)
    else:
        mu, vec = _shell_generator(s)
    amps = ((vec * np.exp(-1j * theta * mu)) @ vec.conj().T).real
    probs = amps ** 2
    worst = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
    if worst > 1e-12 * (1.0 + s):
        raise EvaluationError(
            f"beam-splitter shell {s} lost unitarity "
            f"(worst column mass error {worst:.3e})")
    return probs


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
    for s in range(s_max + 1):
        lo = max(0, s - pnd.n_max2)
        hi = min(pnd.n_max1, s)
        n1_in = np.arange(lo, hi + 1)
        shell_probs = pnd.p[n1_in, s - n1_in]
        if not np.any(shell_probs):
            continue
        moved = _shell_matrix(t, s)[:, n1_in] @ shell_probs
        n1_out = np.arange(s + 1)
        out[n1_out, s - n1_out] += moved
    total_in = pnd.total_mass()
    total_out = float(out.sum())
    if total_out > 0.0:
        out *= total_in / total_out
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

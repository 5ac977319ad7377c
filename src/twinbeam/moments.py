"""Intensity moments and photon-number statistics of two-mode Gaussian states.

Everything measurable here descends from one object: the generating function
of the state's photocount statistics, which for a two-mode Gaussian state is
the inverse square root of a polynomial Q(l1, l2) that is quadratic in each
auxiliary variable.  This module builds Q(-l1, -l2) from the state
parameters: its Q**(-1/2) expanded about the origin yields the normally
ordered intensity moments over n1! n2!, and about (-1, -1) the joint
photon-number distribution, so no table has sign code of its own; only
build_k_matrix and q_polynomial turn it back into the paper's Q.  The
expansion itself lives in the series module; this module packages the
coefficients as moments, probabilities, and their factorial-scaled variants.

One private function, _table, maps Q coefficients (of one state or a scan
grid) to every table, joint or marginal, for the public functions and the
criteria alike.  It holds the one rule for negative probabilities: below
-1e-12 it raises EvaluationError, above that it clamps to zero, so an
element raises exactly when the table it is read from does.  Every table
and element function reads a table of its own size, at any order, through
_read: the derivative-order limit is a rule of the criteria module alone.
_read holds the one rule for K: where a state's stored c1, c2 and dbar12
are exactly 0 (every twin beam, noisy or not, and every loss of one),
Q = K**2 with K = 1 + b1 l1 + b2 l2 + kappa l1 l2, so its probabilities
are the coefficients of 1/K(1 - z), a first-order stencil, read with the
kappa the state carries and no Q built.  The moment and factorial-scaled
tables, which the criteria and scans read, stay on Q, and so does every
table of a scan lane.  A state's memo is read and written only by _q
(its Q) and _held, which holds each moment and scaled-probability kind,
joint or marginal, for criteria.evaluate alone, at the largest orders
asked so far, as the lane of a one-lane batch at any width; a kind's
first table is built at least at the floor evaluate names, the default
catalog's orders, unless that table would raise a floating-point error.

Marginal quantities use the exact single-mode reduction of Q, or of K,
rather than summing the joint distribution, so marginal tails can be
bounded without ever forming a large two-dimensional table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, ParameterError, TruncationError
from .series import BivariateSeries
from .states import (TwinBeamParams, TwoModeGaussianState, _checked,
                     _lane, _not_a_state, _times)

__all__ = [
    "KMatrix",
    "PhotonNumberDistribution",
    "build_k_matrix",
    "q_polynomial",
    "intensity_moment",
    "marginal_intensity_moment",
    "moment_table",
    "pnd_element",
    "pnd_table",
    "modified_pnd_element",
    "modified_pnd_table",
    "marginal_pnd",
    "marginal_pnd_table",
    "marginal_modified_pnd",
    "marginal_modified_pnd_table",
    "photon_number_distribution",
    "twin_beam_pnd_closed_form",
]

# 0! ... 170!, every factorial a float holds; read-only
_FACTORIALS = np.array([float(math.factorial(i)) for i in range(171)])
_FACTORIALS.flags.writeable = False


def _fact_grid(rows: int, cols: int, ndim: int) -> np.ndarray:
    """n1! n2! for every entry of a (rows, cols, *batch) table of ``ndim``
    axes, inf past 170!, shaped to broadcast against it; read-only.
    A grid of up to 4096 entries, the size of every criterion's table, is
    cached per size, so scaling a table builds no np.outer; a larger one,
    whose table costs far more, is built fresh and not kept."""
    if rows * cols > 4096:
        return _cached_fact_grid.__wrapped__(rows, cols, ndim)
    return _cached_fact_grid(rows, cols, ndim)


@lru_cache(maxsize=128)
def _cached_fact_grid(rows: int, cols: int, ndim: int) -> np.ndarray:
    f = np.full(max(rows, cols), math.inf)
    f[:171] = _FACTORIALS[:f.size]
    grid = np.outer(f[:rows], f[:cols])
    grid = grid.reshape((rows, cols) + (1,) * (ndim - 2))
    grid.flags.writeable = False
    return grid


# -- the Q polynomial ------------------------------------------------------

def _q_coeff_array(b1, b2, c1, c2, d12, dbar12) -> np.ndarray:
    """Coefficients of Q(-l1, -l2) from raw state parameters (array
    friendly): a (3, 3, *batch) array with entry [i, j] multiplying
    l1**i * l2**j, the paper's Q coefficient times (-1)**(i + j), negated
    exactly in the formulas of the four odd-degree entries.

    The constant term is 1; _K_INDEX names the other eight entries.  The
    complex parameters are taken as (real, imag) pairs, in real arithmetic
    as in the beam-splitter map: numpy's complex multiply may use FMA in
    its array loop where its scalar one does not, so only real multiplies
    and adds give one state the bits of its lane of a grid.
    """
    shape = np.broadcast(b1, b2, c1, c2, d12, dbar12).shape
    b1, b2 = _lane(b1, float), _lane(b2, float)
    c1, c2, d, e = ((z.real, z.imag) for z in (
        _lane(x, complex) for x in (c1, c2, d12, dbar12)))
    c2_conj, d_conj, e_conj = ((x[0], -x[1]) for x in (c2, d, e))

    ad2, ae2, ac1, ac2 = (x[0] * x[0] + x[1] * x[1] for x in (d, e, c1, c2))
    cross = ad2 + ae2
    # mixed third- and fourth-order invariants, the real parts of
    # c1 e d*, c2 e* d*, c1 c2 d*^2 and c1 c2* e^2
    g1 = _times(_times(c1, e), d_conj)[0]
    g2 = _times(_times(c2, e_conj), d_conj)[0]
    h1 = _times(_times(c1, c2), _times(d_conj, d_conj))[0]
    h2 = _times(_times(c1, c2_conj), _times(e, e))[0]

    q = np.zeros((3, 3) + shape)
    q[0, 0] = 1.0
    q[1, 0] = -2.0 * b1
    q[0, 1] = -2.0 * b2
    q[1, 1] = 4.0 * b1 * b2 - 2.0 * ad2 - 2.0 * ae2
    q[2, 0] = b1 * b1 - ac1
    q[2, 1] = -(2.0 * b1 * b1 * b2 - 2.0 * b1 * cross
                - 2.0 * b2 * ac1 - 4.0 * g1)
    q[0, 2] = b2 * b2 - ac2
    q[1, 2] = -(2.0 * b1 * b2 * b2 - 2.0 * b2 * cross
                - 2.0 * b1 * ac2 - 4.0 * g2)
    q[2, 2] = (b1 * b1 * b2 * b2 + ad2 * ad2 + ae2 * ae2 + ac1 * ac2
               - b1 * b1 * ac2 - b2 * b2 * ac1
               - 2.0 * b1 * b2 * cross - 2.0 * ad2 * ae2
               - 4.0 * b1 * g2 - 4.0 * b2 * g1 - 2.0 * h1 - 2.0 * h2)
    return q


# the entry [i, j] of q_polynomial's coefficients each KMatrix field names
_K_INDEX = {"k12": (1, 0), "k13": (0, 1), "k14": (1, 1), "k22": (2, 0),
            "k24": (2, 1), "k33": (0, 2), "k34": (1, 2), "k44": (2, 2)}

# (-1)**(i + j): turns _q's coefficients of Q(-l1, -l2) into Q(l1, l2)'s
_Q_SIGNS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


@dataclass(frozen=True)
class KMatrix:
    """Non-trivial coefficients of Q(l1, l2); the constant term is 1."""

    k12: float
    k13: float
    k14: float
    k22: float
    k24: float
    k33: float
    k34: float
    k44: float


def build_k_matrix(state: TwoModeGaussianState) -> KMatrix:
    """Q-polynomial coefficients of the state."""
    q = _q(state) * _Q_SIGNS
    return KMatrix(**{name: float(q[index])
                      for name, index in _K_INDEX.items()})


def q_polynomial(state: TwoModeGaussianState) -> BivariateSeries:
    """Q as an exact bivariate polynomial about the origin."""
    return BivariateSeries(_q(state) * _Q_SIGNS)


def _q(state: TwoModeGaussianState) -> np.ndarray:
    """The state's Q(-l1, -l2) coefficients, built once, read-only in its
    memo."""
    try:
        return state._memo["Q"]
    except AttributeError:
        raise _not_a_state(state) from None
    except KeyError:
        state._memo["Q"] = q = _q_coeff_array(*state.params())
        q.flags.writeable = False
        return q


def _held(state: TwoModeGaussianState, kind: str, o1: int, o2: int = 0,
          *, floor: tuple) -> np.ndarray:
    """evaluate's ``kind`` table at orders >= (o1, o2), kept read-only in
    the state's memo at the largest orders asked so far.  Built as the lane
    of a one-lane batch, its prefix equals a smaller table bit for bit at
    any width, so it serves every smaller request and is rebuilt at the
    elementwise max of both orders for a larger one; a kind's first table
    covers ``floor`` as well.  Entries beyond the request are never read,
    so where that larger table raises a floating-point error the requested
    orders alone are built, warning as they do on their own.  A lane whose
    first entry is not finite raises the unbatched table's EvaluationError."""
    try:
        held = state._memo.get(kind)
    except AttributeError:
        raise _not_a_state(state) from None
    # held table's sizes, a marginal's padded with a 1; (0, 1) if none
    h1, h2 = (0, 1) if held is None else (*held.shape, 1)[:2]
    if o1 < h1 and o2 < h2:
        return held
    f1, f2 = floor if held is None else (0, 0)
    try:
        with np.errstate(all="raise", under="ignore"):
            t = _table(_q(state)[..., None], kind, max(o1, h1 - 1, f1),
                       max(o2, h2 - 1, f2))[..., 0]
    except FloatingPointError:
        t = _table(_q(state)[..., None], kind, o1, o2)[..., 0]
    if not np.isfinite(t.flat[0]):
        _table(_q(state), kind, 0, 0)  # raises, naming the constant term
    t.flags.writeable = False
    state._memo[kind] = t
    return t


# -- tables from Q coefficients --------------------------------------------

def _table(q: np.ndarray, kind: str, o1: int, o2: int = 0,
           k: tuple | None = None) -> np.ndarray:
    """One table read off the (3, 3, *batch) Q coefficients ``q``.

    ``kind`` is "W" for the normally ordered intensity moments
    <W1**i W2**j>, "P" for the photon-number probabilities p(n1, n2) and
    "p" for the factorial-scaled probabilities n1! n2! p(n1, n2) / p(0, 0),
    with i, n1 <= o1 and j, n2 <= o2.  A trailing "1" or "2" asks for the
    marginal of that mode instead, an (o1 + 1, *batch) table.

    ``q`` holds Q(-l1, -l2), whose expansion carries every sign: moments
    expand its Q**(-1/2) about the origin, probabilities about (-1, -1),
    since Q(1 - z) is Q(-l) at l = z - 1.  Given ``k``, the (b1, b2,
    kappa) of one state's K, probabilities are read off 1/K(1 - z)
    instead (_inverse_k), and ``q`` is not read.  Probabilities below
    -1e-12 raise EvaluationError, and rounding-level negatives above that
    are clamped to zero.  The scaled probabilities keep their sign,
    because the criteria read them with a tolerance of their own.
    """
    marginal = kind[1:]
    if kind[0] == "P" and k is not None:
        s = _inverse_k(*k, marginal, o1, o2)
    else:
        if marginal == "1":
            q = q[:, :1]
        elif marginal == "2":
            # setting the other variable to zero removes its mode exactly
            q = q[:1].swapaxes(0, 1)
        series = BivariateSeries(q)
        if kind[0] != "W":
            series = series.rebased(-1.0, -1.0)
        s = series.rsqrt(order1=o1, order2=o2).coeffs
    # scaled in place, so no table-sized temporary is made
    if kind[0] == "p":
        s /= s[0, 0].copy()
    if kind[0] != "P":
        s *= _fact_grid(*s.shape[:2], s.ndim)
    else:
        # NaN-skipping like the elementwise test, without a boolean table
        if np.fmin.reduce(s, axis=None) < -1e-12:
            raise EvaluationError(
                "photon-number expansion produced a significantly negative "
                "probability; the requested size exceeds the stable range")
        s = np.maximum(s, 0.0, out=s)
    return s[:, 0] if marginal else s


def _read(state: TwoModeGaussianState, kind: str, o1: int,
          o2: int = 0) -> np.ndarray:
    """The state's ``kind`` table at orders (o1, o2), as every public table
    and element function reads it: a probability kind of a state whose
    stored c1, c2 and dbar12 are exactly 0 (every twin beam and every loss
    of one) from 1/K, whose square is Q, without building Q; every other
    table from Q."""
    k = None
    try:
        if (kind[0] == "P" and state.c1 == 0 and state.c2 == 0
                and state.dbar12 == 0):
            k = state.b1, state.b2, state._kappa
    except AttributeError:
        raise _not_a_state(state) from None
    return _table(_q(state) if k is None else None, kind, o1, o2, k)


def _inverse_k(b1: float, b2: float, kappa: float, marginal: str, o1: int,
               o2: int) -> np.ndarray:
    """The coefficients of 1/K(1 - z1, 1 - z2), the probabilities of a
    state whose Q is K**2: an (o1 + 1, o2 + 1) table, or for the marginal
    of mode ``marginal`` an (o1 + 1, 1) one.

    K(1 - z) = a - c1 z1 - c2 z2 + kappa z1 z2 with c1 = b1 + kappa,
    c2 = b2 + kappa and a = 1 + b1 + c2.  Row i has the right-hand side
    f[j] = c1 s[i - 1, j] - kappa s[i - 1, j - 1] (row 0 has f = 1 at
    n2 = 0), and s[i, j] = (f[j] + c2 s[i, j - 1]) / a is the non-unit
    one-tap banded solve dtbsv, imported where it is called, where c2 is
    not 0, else f / a.  A noiseless twin beam, whose c1 and c2 are exactly
    0, gives a diagonal table and solves nothing.  A marginal is thermal
    with mean b, (b / (1 + b))**n / (1 + b), as a running product.  The
    NumPy operations warn, or raise under np.errstate, as the Q**(-1/2)
    rows do; dtbsv, as in rsqrt, reports nothing."""
    if marginal:
        # K(l, 0) = 1 + b1 l and K(0, l) = 1 + b2 l
        b = b1 if marginal == "1" else b2
        s = np.full((o1 + 1, 1), b / (1.0 + b))
        s[0] = 1.0 / (1.0 + b)
        return np.multiply.accumulate(s, out=s)
    c1, c2 = b1 + kappa, b2 + kappa
    a = 1.0 + b1 + c2
    if not 0.0 < a < math.inf:
        raise EvaluationError(
            "generating polynomial is not positive at the expansion "
            f"point (constant term {a})")
    s = np.zeros((o1 + 1, o2 + 1))
    s[0, 0] = 1.0
    scratch = np.empty(o2 + 1)
    if c2 != 0.0:
        from scipy.linalg.blas import dtbsv
        band = np.empty((2, o2 + 1), order="F")
        band[0], band[1] = a, -c2
    for i in range(o1 + 1):
        row = s[i]
        if i:
            np.multiply(s[i - 1, :-1], -kappa, out=row[1:])
            if c1 != 0.0:
                row += np.multiply(s[i - 1], c1, out=scratch)
        if c2 != 0.0:
            # in place; were f2py to copy the row, this stores the copy
            s[i] = dtbsv(1, band, row, lower=1, overwrite_x=1)
        else:
            row /= a
    return s


def _element(state: TwoModeGaussianState, kind: str, index: tuple) -> float:
    """Entry ``index`` of the smallest ``kind`` table that holds it."""
    return float(_read(state, kind, *index)[index])


# -- intensity moments -----------------------------------------------------

def moment_table(state: TwoModeGaussianState, order1: int,
                 order2: int) -> np.ndarray:
    """Table of normally ordered intensity moments <W1**i W2**j> for all
    i <= order1, j <= order2."""
    return _read(state, "W",
                 _checked("order1", order1), _checked("order2", order2))


def intensity_moment(state: TwoModeGaussianState, k1: int, k2: int) -> float:
    """Normally ordered intensity moment <W1**k1 W2**k2>."""
    return _element(state, "W", (_checked("k1", k1), _checked("k2", k2)))


def marginal_intensity_moment(state: TwoModeGaussianState, mode: int,
                              k: int) -> float:
    """Single-mode moment <Wj**k>, computed from the exact marginal."""
    return _element(state, f"W{_checked('mode', mode)}", (_checked("k", k),))


# -- photon-number distribution --------------------------------------------

def pnd_table(state: TwoModeGaussianState, n_max1: int, n_max2: int) -> np.ndarray:
    """Joint photon-number probabilities p(n1, n2) for n1 <= n_max1,
    n2 <= n_max2.  Rounding-level negatives deep in the tail are clamped."""
    return _read(state, "P",
                 _checked("n_max1", n_max1), _checked("n_max2", n_max2))


def pnd_element(state: TwoModeGaussianState, n1: int, n2: int) -> float:
    """Joint photon-number probability p(n1, n2), the entry of
    pnd_table(state, n1, n2)."""
    return _element(state, "P", (_checked("n1", n1), _checked("n2", n2)))


def modified_pnd_table(state: TwoModeGaussianState, n_max1: int,
                       n_max2: int) -> np.ndarray:
    """Table of factorial-scaled probabilities n1! n2! p(n1, n2) / p(0, 0)."""
    return _read(state, "p",
                 _checked("n_max1", n_max1), _checked("n_max2", n_max2))


def modified_pnd_element(state: TwoModeGaussianState, n1: int,
                         n2: int) -> float:
    """Factorial-scaled joint probability n1! n2! p(n1, n2) / p(0, 0)."""
    return _element(state, "p", (_checked("n1", n1), _checked("n2", n2)))


def marginal_pnd_table(state: TwoModeGaussianState, mode: int,
                       n_max: int) -> np.ndarray:
    """Marginal probabilities p_mode(n) for n <= n_max, from the exact
    single-mode reduction (no joint table is formed)."""
    return _read(state, f"P{_checked('mode', mode)}",
                 _checked("n_max", n_max))


def marginal_pnd(state: TwoModeGaussianState, mode: int, n: int) -> float:
    """Marginal photon-number probability of one mode, the entry of
    marginal_pnd_table(state, mode, n)."""
    return _element(state, f"P{_checked('mode', mode)}", (_checked("n", n),))


def marginal_modified_pnd_table(state: TwoModeGaussianState, mode: int,
                                n_max: int) -> np.ndarray:
    """Factorial-scaled marginal probabilities n! p_mode(n) / p_mode(0) for
    n <= n_max, from the exact single-mode reduction."""
    return _read(state, f"p{_checked('mode', mode)}",
                 _checked("n_max", n_max))


def marginal_modified_pnd(state: TwoModeGaussianState, mode: int,
                          n: int) -> float:
    """Factorial-scaled marginal probability n! p_mode(n) / p_mode(0)."""
    return _element(state, f"p{_checked('mode', mode)}", (_checked("n", n),))


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Joint photon-number probabilities on a finite grid plus the mass the
    grid does not cover, by default one minus the table's sum."""

    n_max1: int
    n_max2: int
    p: np.ndarray
    tail_mass: float | None = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ParameterError("probability table must be two-dimensional")
        object.__setattr__(self, "p", p)
        for name in ("n_max1", "n_max2"):
            object.__setattr__(self, name, _checked(name, getattr(self, name)))
        if p.shape != (self.n_max1 + 1, self.n_max2 + 1):
            raise ParameterError(
                f"table shape {p.shape} does not match photon-number cutoffs "
                f"({self.n_max1}, {self.n_max2})")
        # the sum is not finite if an entry is not (+inf and -inf give nan)
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(p.sum())
        tail = 1.0 - total if self.tail_mass is None else float(self.tail_mass)
        if not math.isfinite(total + tail):
            raise ParameterError("probabilities must be finite")
        object.__setattr__(self, "tail_mass", tail)

    @classmethod
    def from_table(cls, p: np.ndarray) -> "PhotonNumberDistribution":
        p = np.asarray(p, dtype=float)
        return cls(p.shape[0] - 1, p.shape[1] - 1, p)

    def marginal(self, mode: int) -> np.ndarray:
        return self.p.sum(axis=2 - _checked("mode", mode))

    def total_mass(self) -> float:
        return float(self.p.sum())


def photon_number_distribution(state: TwoModeGaussianState,
                               *, tail_tol: float = 1e-10,
                               n_cap: int = 4096) -> PhotonNumberDistribution:
    """Joint photon-number distribution truncated so that the neglected mass
    is below tail_tol.

    Each mode's cutoff doubles until its marginal tail, one minus the
    marginal table's sum, is at most tail_tol / 2; by the union bound the
    mass outside the joint table is then at most tail_tol, up to the
    rounding of those sums.  tail_mass holds one minus the joint table's
    sum, which rounding can make negative (-1.1e-15 for twin_beam(100.0),
    -6.3e-12 for beam_splitter(twin_beam(10.0), 0.5)).
    Cutoffs start at min(16, n_cap) and double, the last step stopping
    at n_cap; a tail that still fails the tolerance at n_cap raises
    TruncationError.
    """
    tail_tol = _checked("tail_tol", tail_tol)
    if not 0.0 < tail_tol < 1.0:
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    n_cap = _checked("n_cap", n_cap)
    cutoffs = []
    for mode in (1, 2):
        n = min(16, n_cap)
        # the exact marginal's mass beyond n, without a joint table
        while (1.0 - float(marginal_pnd_table(state, mode, n).sum())
               > tail_tol / 2.0):
            if n == n_cap:
                raise TruncationError(
                    f"mode {mode} needs more than {n_cap} photon-number "
                    f"terms to reach tail tolerance {tail_tol}")
            n = min(2 * n, n_cap)
        cutoffs.append(n)
    n1, n2 = cutoffs
    return PhotonNumberDistribution.from_table(pnd_table(state, n1, n2))


# -- closed form for the noisy twin beam -----------------------------------

def twin_beam_pnd_closed_form(params, n1: int, n2: int) -> float:
    """Joint photon-number probability of a noisy twin beam via its finite
    sum form; above index 50 each term is scaled by the largest, which
    keeps its exponent apart, so no term underflows."""
    if isinstance(params, TwinBeamParams):
        p = params
    else:
        p = TwinBeamParams(params)
    n1 = _checked("n1", n1)
    n2 = _checked("n2", n2)

    pair = p.bp * (p.bp + 1.0)
    # (1 + bp + bs)(1 + bp + bi) - pair, kt - 1 - bp - bs and
    # kt - 1 - bp - bi with the pair terms cancelled exactly, so that the
    # bases keep their digits at large bp and are exactly 0 where
    # bs = bi = 0
    kt = (1.0 + p.bp) * (1.0 + p.bs + p.bi) + p.bs * p.bi
    x1 = ((1.0 + p.bp) * p.bi + p.bs * (p.bp + p.bi)) / kt  # exponent n2
    x2 = ((1.0 + p.bp) * p.bs + p.bi * (p.bp + p.bs)) / kt  # exponent n1
    xm = pair / (kt * kt)
    m_top = min(n1, n2)

    if max(n1, n2) <= 50:
        total = 0.0
        for m in range(m_top + 1):
            total += (math.comb(n1, m) * math.comb(n2, m)
                      * x1 ** (n2 - m) * x2 ** (n1 - m) * xm ** m)
        return total / kt

    # Larger indices: each term as a multiple of the largest, by running
    # products of the ratios of neighbouring terms, and the largest as a
    # mantissa and a power of two, so that no term underflows and no digit
    # is lost to logarithms.  A zero base leaves only the term in which
    # its exponent is 0.
    lo = max(n2 if x1 == 0.0 else 0, n1 if x2 == 0.0 else 0)
    hi = 0 if xm == 0.0 else m_top
    if lo > hi:
        return 0.0
    scale = 1.0
    peak = lo
    if lo < hi:  # then x1, x2 and xm are positive
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            m = np.arange(lo + 1, hi + 1, dtype=float)
            ratio = ((n1 + 1.0 - m) * (n2 + 1.0 - m) / (m * m)
                     * (np.float64(xm) / x1 / x2))
            # the ratios fall with m, so the terms rise to one peak
            rising = int(np.count_nonzero(ratio >= 1.0))
            peak = lo + rising
            scale += (np.cumprod(ratio[rising:]).sum()
                      + np.cumprod(1.0 / ratio[:rising][::-1]).sum())
    binomials = math.comb(n1, peak) * math.comb(n2, peak)
    shift = max(binomials.bit_length() - 64, 0)
    mantissa, exponent = math.frexp(float(binomials >> shift))
    exponent += shift
    for base, power in ((x1, n2 - peak), (x2, n1 - peak), (xm, peak)):
        if power:
            f, e = _power(base, power)
            mantissa, d = math.frexp(mantissa * f)
            exponent += e + d
    return math.ldexp(mantissa * float(scale) / kt, exponent)


def _power(x: float, k: int) -> tuple:
    """x**k of a positive x as (f, e), x**k = f * 2**e, by repeated
    squaring with the powers of two kept apart: a rounding per product,
    and no underflow."""
    base, base_exp = math.frexp(x)
    f, e = 1.0, 0
    while k:
        if k & 1:
            f, d = math.frexp(f * base)
            e += d + base_exp
        k >>= 1
        if k:
            base, d = math.frexp(base * base)
            base_exp = 2 * base_exp + d
    return f, e

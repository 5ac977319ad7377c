"""Intensity moments and photon-number statistics of two-mode Gaussian states.

Everything measurable here descends from one object: the generating function
of the state's photocount statistics, which for a two-mode Gaussian state is
the inverse square root of a polynomial Q(l1, l2) that is quadratic in each
auxiliary variable.  Expanding Q**(-1/2) about the origin yields normally
ordered intensity moments; expanding about (1, 1) yields the joint photon
number distribution.  The expansion itself lives in the series module; this
module builds Q from the state parameters and packages the coefficients as
moments, probabilities, and their factorial-scaled variants.

One private function, _table, maps Q coefficients (of one state or a scan
grid) to every table, joint or marginal, for the public functions and the
criteria alike.  It holds the one rule for negative probabilities: below
-1e-12 it raises EvaluationError, above that it clamps to zero, so an
element raises exactly when the table it is read from does.  A state's
memo is read and written only by _q (its Q) and _held, which holds each
moment and scaled-probability kind, joint or marginal, for the criteria
and the element functions at the largest orders asked so far, as the lane
of a one-lane batch at any width; a kind's first table is built at least
at the orders its caller names as a floor (evaluate names the default
catalog's), unless that table would raise a floating-point error.
Probability elements are built for their request alone.

Marginal quantities use the exact single-mode reduction of Q rather than
summing the joint distribution, so marginal tails can be bounded without
ever forming a large two-dimensional table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, OrderLimitError, ParameterError, TruncationError
from .series import BivariateSeries
from .states import (TwinBeamParams, TwoModeGaussianState, _checked,
                     _lane, _times)

__all__ = [
    "DEFAULT_MAX_ORDER",
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

DEFAULT_MAX_ORDER = 12


@lru_cache(maxsize=128)
def _factorials(n: int) -> np.ndarray:
    """0!, 1!, ..., (n - 1)! as floats, inf once they overflow; read-only."""
    f = np.full(n, math.inf)
    for i in range(min(n, 171)):
        f[i] = float(math.factorial(i))
    f.flags.writeable = False
    return f


def _fact_grid(s: np.ndarray) -> np.ndarray:
    """n1! n2! for every entry of a (o1 + 1, o2 + 1, *batch) grid, shaped to
    broadcast against it."""
    grid = np.outer(_factorials(s.shape[0]), _factorials(s.shape[1]))
    return grid.reshape(s.shape[:2] + (1,) * (s.ndim - 2))


# -- the Q polynomial ------------------------------------------------------

def _q_coeff_array(b1, b2, c1, c2, d12, dbar12) -> np.ndarray:
    """Coefficients of Q(l1, l2) from raw state parameters (array friendly):
    a (3, 3, *batch) array with entry [i, j] multiplying l1**i * l2**j.

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
    q[1, 0] = 2.0 * b1
    q[0, 1] = 2.0 * b2
    q[1, 1] = 4.0 * b1 * b2 - 2.0 * ad2 - 2.0 * ae2
    q[2, 0] = b1 * b1 - ac1
    q[2, 1] = (2.0 * b1 * b1 * b2 - 2.0 * b1 * cross
               - 2.0 * b2 * ac1 - 4.0 * g1)
    q[0, 2] = b2 * b2 - ac2
    q[1, 2] = (2.0 * b1 * b2 * b2 - 2.0 * b2 * cross
               - 2.0 * b1 * ac2 - 4.0 * g2)
    q[2, 2] = (b1 * b1 * b2 * b2 + ad2 * ad2 + ae2 * ae2 + ac1 * ac2
               - b1 * b1 * ac2 - b2 * b2 * ac1
               - 2.0 * b1 * b2 * cross - 2.0 * ad2 * ae2
               - 4.0 * b1 * g2 - 4.0 * b2 * g1 - 2.0 * h1 - 2.0 * h2)
    return q


# the entry [i, j] of Q's coefficients that each KMatrix field names
_K_INDEX = {"k12": (1, 0), "k13": (0, 1), "k14": (1, 1), "k22": (2, 0),
            "k24": (2, 1), "k33": (0, 2), "k34": (1, 2), "k44": (2, 2)}


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
    q = _q(state)
    return KMatrix(**{name: float(q[index])
                      for name, index in _K_INDEX.items()})


def q_polynomial(state: TwoModeGaussianState) -> BivariateSeries:
    """Q as an exact bivariate polynomial about the origin."""
    return BivariateSeries(_q(state).copy())


def _q(state: TwoModeGaussianState) -> np.ndarray:
    """The state's Q coefficients, built once and read-only in its memo."""
    if "Q" not in state._memo:
        state._memo["Q"] = q = _q_coeff_array(*state.params())
        q.flags.writeable = False
    return state._memo["Q"]


def _held(state: TwoModeGaussianState, kind: str, o1: int, o2: int = 0,
          *, floor: tuple = (0, 0)) -> np.ndarray:
    """The state's ``kind`` table at orders >= (o1, o2), kept read-only in
    its memo at the largest orders asked so far.  Built as the lane of a
    one-lane batch, its prefix equals a smaller table bit for bit at any
    width, so it serves every smaller request and is rebuilt at the
    elementwise max of both orders for a larger one; a kind's first table
    covers ``floor`` as well.  Entries beyond the request are never read,
    so where that larger table raises a floating-point error the requested
    orders alone are built, warning as they do on their own.  A lane whose
    first entry is not finite raises the unbatched table's EvaluationError."""
    # held table's sizes, a marginal's padded with a 1; (0, 1) if none
    h1, h2 = (*np.shape(state._memo.get(kind, ())), 1)[:2]
    if o1 < h1 and o2 < h2:
        return state._memo[kind]
    f1, f2 = (0, 0) if kind in state._memo else floor
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

def _table(q: np.ndarray, kind: str, o1: int, o2: int = 0) -> np.ndarray:
    """One table read off the (3, 3, *batch) Q coefficients ``q``.

    ``kind`` is "W" for the normally ordered intensity moments
    <W1**i W2**j>, "P" for the photon-number probabilities p(n1, n2) and
    "p" for the factorial-scaled probabilities n1! n2! p(n1, n2) / p(0, 0),
    with i, n1 <= o1 and j, n2 <= o2.  A trailing "1" or "2" asks for the
    marginal of that mode instead, an (o1 + 1, *batch) table.

    Moments expand Q**(-1/2) about the origin, probabilities about (1, 1).
    Probabilities below -1e-12 raise EvaluationError, and rounding-level
    negatives above that are clamped to zero.  The scaled probabilities
    keep their sign, because the criteria read them with a tolerance of
    their own.
    """
    marginal = kind[1:]
    if marginal == "1":
        q = q[:, :1]
    elif marginal == "2":
        # setting the other variable to zero removes its mode exactly
        q = q[:1].swapaxes(0, 1)
    series = BivariateSeries(q)
    if kind[0] != "W":
        series = series.rebased(1.0, 1.0)
    s = series.rsqrt(order1=o1, order2=o2).coeffs
    s[1::2] *= -1.0
    s[:, 1::2] *= -1.0
    # scaled in place, so no table-sized temporary is made
    if kind[0] == "W":
        s *= _fact_grid(s)
    elif kind[0] == "p":
        s /= s[0, 0].copy()
        s *= _fact_grid(s)
    else:
        # NaN-skipping like the elementwise test, without a boolean table
        if np.fmin.reduce(s, axis=None) < -1e-12:
            raise EvaluationError(
                "photon-number expansion produced a significantly negative "
                "probability; the requested size exceeds the stable range")
        s = np.maximum(s, 0.0, out=s)
    return s[:, 0] if marginal else s


def _check_order(total: int, max_order: int | None) -> None:
    """Raise OrderLimitError when a derivative order of ``total`` exceeds
    ``max_order``, DEFAULT_MAX_ORDER when it is None."""
    limit = (DEFAULT_MAX_ORDER if max_order is None
             else _checked("max_order", max_order))
    if total > limit:
        raise OrderLimitError(
            f"requested derivative order {total} exceeds the configured "
            f"maximum {limit}; raise max_order explicitly if intended")


def _element(state: TwoModeGaussianState, kind: str, index: tuple,
             max_order: int | None) -> float:
    """Entry ``index`` of the state's held table of ``kind``; probabilities
    come from the smallest table that holds them."""
    _check_order(sum(index), max_order)
    if kind[0] == "P":
        # a P table grown to cover two requests can raise where neither does
        return float(_table(_q(state), kind, *index)[index])
    return float(_held(state, kind, *index)[index])


# -- intensity moments -----------------------------------------------------

def moment_table(state: TwoModeGaussianState, order1: int, order2: int,
                 *, max_order: int | None = None) -> np.ndarray:
    """Table of normally ordered intensity moments <W1**i W2**j>.

    Entry [i, j] covers all i <= order1, j <= order2.  The guard applies to
    the largest requested total order i + j = order1 + order2.
    """
    o1 = _checked("order1", order1)
    o2 = _checked("order2", order2)
    _check_order(o1 + o2, max_order)
    return _table(_q(state), "W", o1, o2)


def intensity_moment(state: TwoModeGaussianState, k1: int, k2: int,
                     *, max_order: int | None = None) -> float:
    """Normally ordered intensity moment <W1**k1 W2**k2>."""
    return _element(state, "W", (_checked("k1", k1),
                                 _checked("k2", k2)), max_order)


def marginal_intensity_moment(state: TwoModeGaussianState, mode: int, k: int,
                              *, max_order: int | None = None) -> float:
    """Single-mode moment <Wj**k>, computed from the exact marginal."""
    return _element(state, f"W{_checked('mode', mode)}",
                    (_checked("k", k),), max_order)


# -- photon-number distribution --------------------------------------------

def pnd_table(state: TwoModeGaussianState, n_max1: int, n_max2: int) -> np.ndarray:
    """Joint photon-number probabilities p(n1, n2) for n1 <= n_max1,
    n2 <= n_max2.  Rounding-level negatives deep in the tail are clamped."""
    return _table(_q(state), "P",
                  _checked("n_max1", n_max1), _checked("n_max2", n_max2))


def pnd_element(state: TwoModeGaussianState, n1: int, n2: int,
                *, max_order: int | None = None) -> float:
    """Joint photon-number probability p(n1, n2), the entry of
    pnd_table(state, n1, n2)."""
    return _element(state, "P", (_checked("n1", n1),
                                 _checked("n2", n2)), max_order)


def modified_pnd_table(state: TwoModeGaussianState, n_max1: int,
                       n_max2: int) -> np.ndarray:
    """Table of factorial-scaled probabilities n1! n2! p(n1, n2) / p(0, 0)."""
    return _table(_q(state), "p",
                  _checked("n_max1", n_max1), _checked("n_max2", n_max2))


def modified_pnd_element(state: TwoModeGaussianState, n1: int, n2: int,
                         *, max_order: int | None = None) -> float:
    """Factorial-scaled joint probability n1! n2! p(n1, n2) / p(0, 0)."""
    return _element(state, "p", (_checked("n1", n1),
                                 _checked("n2", n2)), max_order)


def marginal_pnd_table(state: TwoModeGaussianState, mode: int,
                       n_max: int) -> np.ndarray:
    """Marginal probabilities p_mode(n) for n <= n_max, from the exact
    single-mode reduction (no joint table is formed)."""
    return _table(_q(state), f"P{_checked('mode', mode)}",
                  _checked("n_max", n_max))


def marginal_pnd(state: TwoModeGaussianState, mode: int, n: int,
                 *, max_order: int | None = None) -> float:
    """Marginal photon-number probability of one mode, the entry of
    marginal_pnd_table(state, mode, n)."""
    return _element(state, f"P{_checked('mode', mode)}",
                    (_checked("n", n),), max_order)


def marginal_modified_pnd_table(state: TwoModeGaussianState, mode: int,
                                n_max: int) -> np.ndarray:
    """Factorial-scaled marginal probabilities n! p_mode(n) / p_mode(0) for
    n <= n_max, from the exact single-mode reduction."""
    return _table(_q(state), f"p{_checked('mode', mode)}",
                  _checked("n_max", n_max))


def marginal_modified_pnd(state: TwoModeGaussianState, mode: int, n: int,
                          *, max_order: int | None = None) -> float:
    """Factorial-scaled marginal probability n! p_mode(n) / p_mode(0)."""
    return _element(state, f"p{_checked('mode', mode)}",
                    (_checked("n", n),), max_order)


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Joint photon-number probabilities on a finite grid plus the mass the
    grid does not cover."""

    n_max1: int
    n_max2: int
    p: np.ndarray
    tail_mass: float

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
        object.__setattr__(self, "tail_mass", float(self.tail_mass))

    @classmethod
    def from_table(cls, p: np.ndarray,
                   tail_mass: float | None = None) -> "PhotonNumberDistribution":
        p = np.asarray(p, dtype=float)
        if tail_mass is None:
            tail_mass = 1.0 - float(p.sum())
        return cls(p.shape[0] - 1, p.shape[1] - 1, p, tail_mass)

    def marginal(self, mode: int) -> np.ndarray:
        return self.p.sum(axis=2 - _checked("mode", mode))

    def total_mass(self) -> float:
        return float(self.p.sum())


def photon_number_distribution(state: TwoModeGaussianState,
                               *, tail_tol: float = 1e-10,
                               n_start: int = 16,
                               n_cap: int = 4096) -> PhotonNumberDistribution:
    """Joint photon-number distribution truncated so that the neglected mass
    is below tail_tol.

    The cutoff is chosen per mode by doubling until the exact marginal tails
    together drop below the tolerance; only then is the joint table built.
    The union bound tail(n1_max, n2_max) <= tail_1 + tail_2 makes the
    reported tail_mass trustworthy without summing anything infinite.
    Cutoffs start at max(4, n_start) and double, the last step stopping
    at n_cap; a start above n_cap raises ParameterError, and a tail that
    still fails the tolerance at n_cap TruncationError.
    """
    tail_tol = _checked("tail_tol", tail_tol)
    if not 0.0 < tail_tol < 1.0:
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    n_first = max(4, _checked("n_start", n_start))
    n_cap = _checked("n_cap", n_cap)
    if n_first > n_cap:
        raise ParameterError(f"first cutoff {n_first} exceeds n_cap {n_cap}")
    cutoffs = []
    for mode in (1, 2):
        n = n_first
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
    p = pnd_table(state, n1, n2)
    return PhotonNumberDistribution(n1, n2, p, 1.0 - float(p.sum()))


# -- closed form for the noisy twin beam -----------------------------------

def twin_beam_pnd_closed_form(params, n1: int, n2: int) -> float:
    """Joint photon-number probability of a noisy twin beam via its finite
    sum form; switches to log-domain accumulation for large indices."""
    if isinstance(params, TwinBeamParams):
        p = params
    else:
        p = TwinBeamParams(params)
    n1 = _checked("n1", n1)
    n2 = _checked("n2", n2)

    bt1 = 1.0 + p.bp + p.bs
    bt2 = 1.0 + p.bp + p.bi
    pair = p.bp * (p.bp + 1.0)
    kt = bt1 * bt2 - pair
    x1 = (kt - bt1) / kt  # pairs with the exponent in n2
    x2 = (kt - bt2) / kt  # pairs with the exponent in n1
    xm = pair / (kt * kt)
    m_top = min(n1, n2)

    if max(n1, n2) <= 50:
        total = 0.0
        for m in range(m_top + 1):
            total += (math.comb(n1, m) * math.comb(n2, m)
                      * x1 ** (n2 - m) * x2 ** (n1 - m) * xm ** m)
        return total / kt

    # log-domain: all factors are non-negative, so terms add monotonically
    terms = []
    for m in range(m_top + 1):
        lt = (_lcomb(n1, m) + _lcomb(n2, m))
        ok = True
        for base, expo in ((x1, n2 - m), (x2, n1 - m), (xm, m)):
            if expo == 0:
                continue
            if base <= 0.0:
                ok = False
                break
            lt += expo * math.log(base)
        if ok:
            terms.append(lt)
    if not terms:
        return 0.0
    peak = max(terms)
    acc = sum(math.exp(lt - peak) for lt in terms)
    return math.exp(peak - math.log(kt)) * acc


def _lcomb(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))

"""Two-mode Gaussian states in the normal-ordered parametrization.

A zero-mean two-mode Gaussian field is fixed by six second moments: the mean
photon numbers of the two modes, one intra-mode variance per mode, and two
inter-mode correlations (a photon-pair one and a photon-transfer one).  This
module holds that data model plus the physical maps acting on it: twin-beam
construction, the beam splitter, and detection loss.

Physicality is checked through the symmetric-ordered quadrature covariance
matrix: both symplectic eigenvalues must sit at or above the vacuum level
1/2.  The same machinery, applied after a partial transpose, feeds the
entanglement quantifier in the quantifiers module.  The symplectic algebra
runs in extended precision because the smaller eigenvalue of a strongly
entangled state emerges from cancellation between covariance entries that
are many orders of magnitude larger.

Every state also carries its six parameters in extended precision, next
to the float64 fields.  A state built directly from numbers carries their
exact promotion; the physical maps (twin_beam, beam_splitter, attenuate)
compute the copy of their output from their inputs' copy.  A noiseless
twin beam's negativity rests on bp + 1/2 - |d12|, which magnifies the
float64 rounding of d12 = i sqrt(bp(bp+1)) to about 3e-10 relative at
bp = 1e3; the extended copy keeps that rounding out of the negativity and
the symplectic eigenvalues.  Everything else, the criteria and the
physicality check included, reads the float64 fields.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, PhysicalityError

__all__ = [
    "TwinBeamParams",
    "BeamSplitterParams",
    "TwoModeGaussianState",
    "CovarianceMatrixN",
    "twin_beam",
    "beam_splitter",
    "attenuate",
    "covariance_n",
    "bs_unitary",
    "quadrature_covariance",
    "symplectic_eigenvalues",
    "is_physical_params",
]

PHYSICALITY_TOL = 1e-9


# Allowed range of every scalar argument: the twin-beam means bp, bs and bi,
# the mode means b1 and b2, the transmissivity t and phase phi of a beam
# splitter, the detection efficiencies and tolerances, and, with integer
# bounds, the integer arguments: indices, orders, photon numbers and
# cutoffs, the counts, and the probed mode.  _checked is the only place
# they are compared; bs_unitary, which takes arrays, checks its own.
_PARAM_RANGES = {
    **dict.fromkeys(("bp", "bs", "bi", "b1", "b2"), (0.0, math.inf)),
    **dict.fromkeys(("t", "eta", "eta1", "eta2"), (0.0, 1.0)),
    "phi": (-math.inf, math.inf),
    "tol": (0.0, math.inf),
    "tail_tol": (0.0, 1.0),
    **dict.fromkeys(("k", "k1", "k2", "n", "n1", "n2", "n_max", "n_max1",
                     "n_max2", "order1", "order2", "max_order", "cutoff",
                     "shell", "n1_out", "n2_out", "n1_in", "n2_in"),
                    (0, math.inf)),
    **dict.fromkeys(("count", "threads", "n_start", "n_cap"), (1, math.inf)),
    "mode": (1, 2),
}


def _checked(name: str, value, error=ParameterError) -> float | int:
    """``value`` as a float, or as an int for an integer argument, or
    ``error`` when it is not finite, not integral where it must be, or
    outside the range of ``name``."""
    lo, hi = _PARAM_RANGES[name]
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {number}")
    if isinstance(lo, int):
        if int(number) != value:
            raise error(f"{name} must be an integer, got {value!r}")
        number = int(number)
    if not lo <= number <= hi:
        span = (f"in [{lo:g}, {hi:g}]" if hi != math.inf
                else "non-negative" if lo == 0 else f">= {lo:g}")
        raise error(f"{name} must be {span}, got {number}")
    return number


@dataclass(frozen=True)
class TwinBeamParams:
    """Mean photon-pair number plus per-mode thermal noise means."""

    bp: float
    bs: float = 0.0
    bi: float = 0.0

    def __post_init__(self):
        for name in ("bp", "bs", "bi"):
            object.__setattr__(self, name, _checked(name, getattr(self, name)))


@dataclass(frozen=True)
class BeamSplitterParams:
    """Intensity transmissivity and phase; reflectance is 1 - t."""

    t: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "t", _checked("t", self.t))
        object.__setattr__(self, "phi", _checked("phi", self.phi))

    @property
    def r(self) -> float:
        return 1.0 - self.t


# -- symplectic invariants (extended precision, batch friendly) ----------

def _sigma_entries(b1, b2, c1, c2, d12, dbar12, real):
    """The ten entries of the symmetric-ordered quadrature covariance
    (vacuum level 1/2) in the real type ``real``: the single-mode blocks
    a00, a01, a11 and b00, b01, b11 and the correlation block c00, c01,
    c10, c11.  Inputs may be arrays."""
    b1, b2 = np.asarray(b1, dtype=real), np.asarray(b2, dtype=real)
    cplx = np.result_type(real, 1j)
    c1, c2, d, e = [np.asarray(x, dtype=cplx) for x in (c1, c2, d12, dbar12)]
    half = real(0.5)
    return (b1 + half + c1.real, c1.imag, b1 + half - c1.real,
            b2 + half + c2.real, c2.imag, b2 + half - c2.real,
            d.real - e.real, d.imag - e.imag, d.imag + e.imag,
            -d.real - e.real)


def _covariance_invariants(b1, b2, c1, c2, d12, dbar12):
    """det of the two single-mode blocks, the correlation block, and the
    full quadrature covariance, in extended precision; inputs may be
    arrays."""
    a00, a01, a11, b00, b01, b11, c00, c01, c10, c11 = _sigma_entries(
        b1, b2, c1, c2, d12, dbar12, np.longdouble)

    det_a = a00 * a11 - a01 * a01
    det_b = b00 * b11 - b01 * b01
    det_c = c00 * c11 - c01 * c10  # equals |dbar12|^2 - |d12|^2

    # det(sigma) via the Schur complement of the first mode's block
    with np.errstate(divide="ignore", invalid="ignore"):
        t00 = a11 * c00 - a01 * c10
        t01 = a11 * c01 - a01 * c11
        t10 = -a01 * c00 + a00 * c10
        t11 = -a01 * c01 + a00 * c11
        n00 = (c00 * t00 + c10 * t10) / det_a
        n01 = (c00 * t01 + c10 * t11) / det_a
        n10 = (c01 * t00 + c11 * t10) / det_a
        n11 = (c01 * t01 + c11 * t11) / det_a
        m00 = b00 - n00
        m01 = b01 - n01
        m10 = b01 - n10
        m11 = b11 - n11
        det_sigma = det_a * (m00 * m11 - m01 * m10)
    return det_a, det_b, det_c, det_sigma


def _symplectic_pair(det_a, det_b, det_c, det_sigma, partial_transpose=False):
    """Smaller and larger symplectic eigenvalue from the four invariants of
    _covariance_invariants, extended precision.

    The smaller one is computed through the product form
    nu_minus**2 = det(sigma) / nu_plus**2 so that no subtractive
    cancellation of the large invariants occurs.
    """
    if partial_transpose:
        det_c = -det_c
    delta = det_a + det_b + 2.0 * det_c
    disc = delta * delta - 4.0 * det_sigma
    disc = np.maximum(disc, np.longdouble(0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_p2 = (delta + np.sqrt(disc)) / 2.0
        nu_m2 = np.where(nu_p2 > 0.0, det_sigma / np.where(nu_p2 > 0.0,
                                                           nu_p2, 1.0), 0.0)
        nu_m2 = np.where(np.isfinite(nu_m2), nu_m2, 0.0)
        nu_m2 = np.maximum(nu_m2, np.longdouble(0.0))
        nu_p2 = np.maximum(nu_p2, np.longdouble(0.0))
        return np.sqrt(nu_m2), np.sqrt(nu_p2)


def _physicality_margin(det_a, det_b, tol):
    """Effective slack below the vacuum level 1/2.

    For a state at the physical edge the two symplectic eigenvalues
    coincide, so their splitting comes from the square root of a vanishing
    discriminant and rounding noise of size eps * det blows up to
    sqrt(eps * det).  The tolerance therefore cannot be a constant: it gets
    a floor that grows with the covariance magnitude, otherwise strongly
    squeezed pure states would be rejected as unphysical.
    """
    magnitude = np.maximum(np.maximum(det_a, det_b), np.longdouble(1.0))
    floor = 16.0 * np.sqrt(np.longdouble(2.3e-16) * magnitude)
    return np.maximum(np.longdouble(tol), floor)


def is_physical_params(b1, b2, c1, c2, d12, dbar12,
                       tol: float = PHYSICALITY_TOL):
    """Uncertainty-relation check on raw parameters; array friendly."""
    invariants = _covariance_invariants(b1, b2, c1, c2, d12, dbar12)
    det_a, det_b = invariants[:2]
    nu_m, _ = _symplectic_pair(*invariants)
    margin = _physicality_margin(det_a, det_b, tol)
    ok = ((np.asarray(b1) >= -tol) & (np.asarray(b2) >= -tol)
          & (det_a > 0.0) & (det_b > 0.0)
          & (nu_m >= np.longdouble(0.5) - margin))
    if ok.ndim == 0:
        return bool(ok)
    return np.asarray(ok, dtype=bool)


@dataclass(frozen=True)
class TwoModeGaussianState:
    """Normal-ordered second moments of a zero-mean two-mode Gaussian state.

    b1, b2 are mean photon numbers; c1, c2 the intra-mode variances; d12 the
    anomalous (photon-pair) inter-mode correlation and dbar12 the normal
    (photon-transfer) one.  Construction rejects parameter sets that violate
    the uncertainty relation.
    """

    b1: float
    b2: float
    c1: complex = 0.0
    c2: complex = 0.0
    d12: complex = 0.0
    dbar12: complex = 0.0
    # extended-precision copy of params(): their exact promotion, replaced
    # by the mapped copy in the physical maps
    _extended: tuple = field(init=False, compare=False, repr=False)
    # Q and criterion tables: built on use, read-only, not pickled or copied
    _memo: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("b1", "b2"):
            object.__setattr__(self, name, _checked(name, getattr(self, name)))
        for name in ("c1", "c2", "d12", "dbar12"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_extended", _promoted(*self.params()))
        object.__setattr__(self, "_memo", {})
        if not is_physical_params(*self.params()):
            nu_m, _ = _symplectic_pair(*_covariance_invariants(*self.params()))
            raise PhysicalityError(
                "parameters violate the uncertainty relation "
                f"(smaller symplectic eigenvalue {float(nu_m):.6g} < 1/2)")

    def __getstate__(self):
        return {**self.__dict__, "_memo": {}}

    def is_physical(self, tol: float = PHYSICALITY_TOL) -> bool:
        return is_physical_params(self.b1, self.b2, self.c1, self.c2,
                                  self.d12, self.dbar12, tol)

    def params(self) -> tuple:
        return (self.b1, self.b2, self.c1, self.c2, self.d12, self.dbar12)


def _promoted(b1, b2, c1, c2, d12, dbar12) -> tuple:
    """The six parameters as extended-precision scalars."""
    ld, cld = np.longdouble, np.clongdouble
    return ld(b1), ld(b2), cld(c1), cld(c2), cld(d12), cld(dbar12)


def symplectic_eigenvalues(state: TwoModeGaussianState,
                           partial_transpose: bool = False):
    """(smaller, larger) symplectic eigenvalue of the quadrature covariance."""
    nu_m, nu_p = _symplectic_pair(
        *_covariance_invariants(*state._extended),
        partial_transpose=partial_transpose)
    return float(nu_m), float(nu_p)


# -- normal-ordered covariance matrix ------------------------------------

def _an_matrix(b1, b2, c1, c2, d12, dbar12):
    """4x4 normal-ordered covariance in the (a1, a1+, a2, a2+) pairing.

    Batch friendly: scalar inputs give a (4, 4) matrix, array inputs a
    (..., 4, 4) stack, in the complex type of the inputs' precision.
    """
    params = (b1, b2, c1, c2, d12, dbar12)
    dtype = np.result_type(*params, 1j)
    shape = np.broadcast_shapes(*(np.shape(x) for x in params))
    out = np.zeros(shape + (4, 4), dtype=dtype)
    b1, b2, c1, c2, d, e = (np.asarray(x, dtype=dtype) for x in params)
    out[..., 0, 0] = -b1
    out[..., 0, 1] = c1
    out[..., 0, 2] = np.conj(e)
    out[..., 0, 3] = d
    out[..., 1, 0] = np.conj(c1)
    out[..., 1, 1] = -b1
    out[..., 1, 2] = np.conj(d)
    out[..., 1, 3] = e
    out[..., 2, 0] = e
    out[..., 2, 1] = d
    out[..., 2, 2] = -b2
    out[..., 2, 3] = c2
    out[..., 3, 0] = np.conj(d)
    out[..., 3, 1] = np.conj(e)
    out[..., 3, 2] = np.conj(c2)
    out[..., 3, 3] = -b2
    return out


def _params_from_an(matrix):
    """Inverse of _an_matrix; clamps rounding-level negative photon numbers."""
    b1 = -np.real(matrix[..., 0, 0])
    b2 = -np.real(matrix[..., 2, 2])
    tiny = 1e-9 * (1.0 + np.abs(b1) + np.abs(b2))
    b1 = np.where((b1 < 0.0) & (b1 > -tiny), 0.0, b1)
    b2 = np.where((b2 < 0.0) & (b2 > -tiny), 0.0, b2)
    return (b1, b2, matrix[..., 0, 1], matrix[..., 2, 3],
            matrix[..., 0, 3], matrix[..., 1, 3])


@dataclass(frozen=True)
class CovarianceMatrixN:
    """Normal-ordered 4x4 covariance matrix with its fixed block pattern."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ParameterError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ParameterError("covariance entries must be finite")
        object.__setattr__(self, "entries", m)
        self.validate()

    def validate(self, tol: float = 1e-9):
        m = self.entries
        bound = tol * max(1.0, float(np.max(np.abs(m))))
        for k, name in ((0, "b1"), (2, "b2")):
            if np.real(m[k, k]) > bound:
                raise ParameterError(f"diagonal must hold -{name} <= 0")
        off = np.abs(m - _an_matrix(*_params_from_an(m))) > bound
        if off.any():
            i, j = np.argwhere(off)[0]
            raise ParameterError(f"covariance entry ({i},{j}) does not fit "
                                 "the normal-ordered layout")

    @classmethod
    def from_state(cls, state: TwoModeGaussianState) -> "CovarianceMatrixN":
        return cls(_an_matrix(*state.params()))

    def to_state(self) -> TwoModeGaussianState:
        return TwoModeGaussianState(*_params_from_an(self.entries))


def covariance_n(state: TwoModeGaussianState) -> CovarianceMatrixN:
    """Normal-ordered covariance matrix of the state."""
    return CovarianceMatrixN.from_state(state)


def quadrature_covariance(state: TwoModeGaussianState) -> np.ndarray:
    """Symmetric-ordered covariance in (x1, p1, x2, p2) order, vacuum 1/2."""
    a00, a01, a11, b00, b01, b11, c00, c01, c10, c11 = _sigma_entries(
        *state.params(), np.float64)
    return np.array([[a00, a01, c00, c01], [a01, a11, c10, c11],
                     [c00, c10, b00, b01], [c01, c11, b01, b11]])


# -- physical maps --------------------------------------------------------
#
# Each map is defined once, on raw parameter arrays, and works in the
# precision of its inputs: the float64 fields and the extended copy of a
# state, and every lane of a scan grid, go through the same formulas.

def _twin_beam_arrays(bp, bs, bi):
    """Noisy twin beam on raw arrays: photon pairs plus thermal noise."""
    b1 = bp + bs
    b2 = bp + bi
    zero = np.zeros(np.broadcast_shapes(np.shape(b1), np.shape(b2)),
                    dtype=np.result_type(b1, b2, 1j))
    return b1, b2, zero, zero, 1j * np.sqrt(bp * (bp + 1.0)) + zero, zero


def twin_beam(params, bs: float = 0.0, bi: float = 0.0) -> TwoModeGaussianState:
    """Noisy twin beam: photon pairs plus independent thermal noise.

    Accepts either a TwinBeamParams, which carries the noise means, or a
    bare pair mean with optional noise means.
    """
    if isinstance(params, TwinBeamParams):
        if bs != 0.0 or bi != 0.0:
            raise ParameterError("the noise means belong in the params")
        p = params
    else:
        p = TwinBeamParams(params, bs, bi)
    means = (p.bp, p.bs, p.bi)
    return _apply(_twin_beam_arrays, means, map(np.longdouble, means))


def _apply(fmap, params, extended, *args) -> TwoModeGaussianState:
    """State built by ``fmap`` from float64 ``params``, carrying ``fmap`` of
    their extended-precision copy ``extended`` as its own copy."""
    state = TwoModeGaussianState(*fmap(*params, *args))
    object.__setattr__(state, "_extended", _promoted(*fmap(*extended, *args)))
    return state


def bs_unitary(t, phi=0.0) -> np.ndarray:
    """Mode-transformation matrix of a beam splitter in the field pairing
    (a1, a1+, a2, a2+); batch friendly in t and phi, and computed in their
    precision (complex128 for Python floats)."""
    real = np.result_type(t, phi, 1.0)
    t = np.asarray(t, dtype=real)
    phi = np.asarray(phi, dtype=real)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(phi))):
        raise ParameterError("transmissivity and phase must be finite")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ParameterError("transmissivity must lie in [0, 1]")
    rt = np.sqrt(t)
    rr = np.sqrt(1.0 - t)
    ph = np.exp(1j * phi)
    shape = np.broadcast_shapes(t.shape, phi.shape)
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


def _lane(x, dtype):
    """``x`` as a ``dtype`` array, or as a numpy scalar when it holds one
    number (numpy's scalar arithmetic is several times cheaper)."""
    a = np.asarray(x, dtype=dtype)
    return a[(0,) * a.ndim] if a.size == 1 else a


def _times(x, y):
    """Product of two complex numbers held as (real, imag) pairs, rounded
    as numpy's complex multiply without FMA rounds it."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _plus(x, y):
    return x[0] + y[0], x[1] + y[1]


def _scaled(r, x):
    return r * x[0], r * x[1]


def _bs_transform_arrays(b1, b2, c1, c2, d12, dbar12, t, phi=0.0):
    """Beam-splitter congruence G = conj(U)^T A U on raw parameter arrays,
    with A the normal-ordered covariance of _an_matrix and U of bs_unitary;
    t and phi are taken at the parameters' precision.

    With e = dbar12, A has rows (-b1, c1, e*, d12), (c1*, -b1, d12*, e),
    (e, d12, -b2, c2), (d12*, e*, c2*, -b2); with r = sqrt(t) and
    w = sqrt(1 - t) e^(i phi), U has rows (r, 0, -w, 0), (0, r, 0, -w*),
    (w*, 0, r, 0), (0, w, 0, r).  Only the six entries of G that hold the
    parameters are formed, in real arithmetic on (real, imag) pairs: each
    entry of F = conj(U)^T A and of G = F U is the sum of its two nonzero
    terms, rounded as the matrix product rounds them, and zeros come out
    +0 as the product's sums do.  So extended precision gives the matrix
    product's bits.  Apart from the exact 1j * phi, no step is a complex
    multiply, whose array loop may use FMA where numpy's scalar one does
    not; so one state and the same lane of a grid get the same bits in
    either precision.
    """
    cplx = np.result_type(b1, b2, c1, c2, d12, dbar12, 1j)
    real = np.finfo(cplx).dtype
    shape = np.broadcast(b1, b2, c1, c2, d12, dbar12, t, phi).shape
    b1, b2, t, phi = (_lane(x, real) for x in (b1, b2, t, phi))
    c1, c2, d, e = ((z.real, z.imag) for z in (
        _lane(x, cplx) for x in (c1, c2, d12, dbar12)))
    r = np.sqrt(t)
    rr = np.sqrt(1.0 - t)
    ph = np.exp(1j * phi)
    w = (rr * ph.real, rr * ph.imag)
    w_neg, w_conj, w_conj_neg = (-w[0], -w[1]), (w[0], -w[1]), (-w[0], w[1])

    # rows 0 and 2 of F in the columns G reads; row 1 is needed only in
    # columns 1 and 3, where it is the conjugate of row 0 in columns 0, 2
    we = _times(w, e)
    f00 = (we[0] - r * b1, we[1])
    f01 = _plus(_scaled(r, c1), _times(w, d))
    f02 = (r * e[0] - w[0] * b2, -(r * e[1]) - w[1] * b2)
    f03 = _plus(_scaled(r, d), _times(w, c2))
    f20 = (w[0] * b1 + r * e[0], r * e[1] - w[1] * b1)
    f21 = _plus(_times(w_conj_neg, c1), _scaled(r, d))
    f22_real = -we[0] - r * b2
    f23 = _plus(_times(w_conj_neg, d), _scaled(r, c2))

    means = np.empty((2,) + shape, real)
    means[0] = r * f00[0] + _times(f02, w_conj)[0]
    means[1] = _times(f20, w_neg)[0] + r * f22_real
    g13_conj = _plus(_times(f00, w_neg), _scaled(r, f02))
    fields = np.empty((4,) + shape, cplx)
    for k, (re, im) in enumerate((
            _plus(_scaled(r, f01), _times(f03, w)),               # G01 = c1
            _plus(_times(f21, w_conj_neg), _scaled(r, f23)),      # G23 = c2
            _plus(_times(f01, w_conj_neg), _scaled(r, f03)),      # G03 = d12
            (g13_conj[0], -g13_conj[1]))):                        # G13 = dbar12
        fields.real[k], fields.imag[k] = re, im
    # the product's sums start at +0, so its zeros are +0
    means += 0.0
    fields += 0.0
    np.negative(means, out=means)  # b1 = -G00, b2 = -G22
    # clamp photon numbers that are negative only by rounding
    tiny = 1e-9 * (1.0 + np.abs(means[0]) + np.abs(means[1]))
    means[(means < 0.0) & (means > -tiny)] = 0.0
    return (means[0, ...], means[1, ...], *(g[...] for g in fields))


def beam_splitter(state: TwoModeGaussianState, bs,
                  phi: float = 0.0) -> TwoModeGaussianState:
    """State after mixing the two modes on a beam splitter.

    ``bs`` is a BeamSplitterParams, with its phase, or a bare transmissivity.
    Mean photon numbers of the output are stored as magnitudes (non-negative).
    """
    if isinstance(bs, BeamSplitterParams):
        if phi != 0.0:
            raise ParameterError("the phase belongs in the params")
        p = bs
    else:
        p = BeamSplitterParams(bs, phi)
    return _apply(_bs_transform_arrays, state.params(), state._extended,
                  p.t, p.phi)


def _attenuate_arrays(b1, b2, c1, c2, d12, dbar12, eta1, eta2):
    """Detection loss on raw arrays: normally-ordered moments scale as eta
    per photon.  eta1 and eta2 are taken at the parameters' precision."""
    real = np.finfo(np.result_type(b1, b2, c1, c2, d12, dbar12, 1j)).dtype
    eta1 = np.asarray(eta1, dtype=real)
    eta2 = np.asarray(eta2, dtype=real)
    cross = np.sqrt(eta1 * eta2)
    return (eta1 * b1, eta2 * b2, eta1 * c1, eta2 * c2,
            cross * d12, cross * dbar12)


def attenuate(state: TwoModeGaussianState, eta1: float,
              eta2: float | None = None) -> TwoModeGaussianState:
    """Detection loss: independent attenuation of the two modes, a plain
    rescaling of the parameters."""
    e1 = _checked("eta1", eta1)
    e2 = e1 if eta2 is None else _checked("eta2", eta2)
    return _apply(_attenuate_arrays, state.params(), state._extended, e1, e2)

"""Non-classicality criteria built from moments and photon-number counts.

Six families are implemented.  The E and M families probe inter-mode
correlations: E combines three moments of total order k1 + k2 + 2 into a
discriminant whose negativity certifies a non-classical field, and M is the
corresponding second-order determinant.  The R family probes a single mode
through ratios of neighbouring moments.  Each family exists in two variants:
W uses normally ordered intensity moments, p uses factorial-scaled photon
number probabilities, which stay finite for strong fields and are directly
accessible from photocounting records.

Every criterion reads its table from moments._table.  The derivative-order
limit is a rule of the criteria, so its one guard, _check_order, lives
here: evaluate applies it at max_order (DEFAULT_MAX_ORDER unless raised),
and a scan or boundary target at the default, while the tables and
elements of the moments module read any order.  evaluate reads a state's
tables from its memo, held by moments._held, so every evaluate shares
them.  A kind's first held table covers the orders the default catalog
reads, so the catalog, in any order, builds each of its six table kinds
once per state.  The identifiers, closed forms and boundaries check their
arguments against the range table of the states module.

A criterion certifies non-classicality only when its value is below -tol,
where tol is 1e-12 times the largest of its constituent terms; _value
alone decides this, for evaluate and for every lane of a scan.  It takes
the larger of two terms by _larger, which has np.maximum's bits: a held
table's numbers are compared directly, with no ufunc call on one number,
and a scan's lanes go through np.maximum.  This tolerance is a heuristic,
not a proven bound on the rounding error: where every term is itself
rounding noise, as for the odd-order E_p criteria of a noiseless twin
beam, whose exact value is 0, the noise can still exceed tol and produce a
verdict.

Closed forms for the noiseless twin beam and for its balanced and
unbalanced beam-splitter outputs are provided for cross-checking, together
with the noise boundaries of the single-mode R criterion at indices (2, 2)
and the twin-beam entanglement thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .moments import _held, _table
from .states import TwoModeGaussianState, _checked

__all__ = [
    "DEFAULT_MAX_ORDER",
    "FAMILIES",
    "CriterionId",
    "CriterionResult",
    "eval_E_W",
    "eval_E_p",
    "eval_M_W",
    "eval_M_p",
    "eval_R_W",
    "eval_R_p",
    "evaluate",
    "default_catalog",
    "closed_form_noiseless",
    "closed_form_bs_output",
    "boundary_R22p",
    "boundary_noise_balanced_R22p",
    "entanglement_boundary_twin_beam",
]

FAMILIES = ("E_W", "E_p", "M_W", "M_p", "R_W", "R_p")

RELATIVE_TOL = 1e-12

DEFAULT_MAX_ORDER = 12

_SQRT33 = math.sqrt(33.0)


# the fields a label writes after the family, by the family's letter
_LABEL_FIELDS = {"E": ("k1", "k2"), "M": (), "R": ("k1", "k2", "mode")}


@dataclass(frozen=True)
class CriterionId:
    """Identifier of one criterion: family, indices, and for the single-mode
    R family which mode is probed.  For R the indices are (k, l) with
    1 <= l <= k: the moments T of a classical field are log-convex
    (Lyapunov's inequality), so T[k+1] T[l-1] - T[k] T[l] >= 0 there, while
    for l > k it is <= 0 on classical fields and certifies nothing.  A
    field the family's label leaves out keeps its default."""

    family: str
    k1: int = 0
    k2: int = 0
    mode: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown criterion family {self.family!r}; "
                f"expected one of {', '.join(FAMILIES)}")
        labelled = _LABEL_FIELDS[self.family[0]]
        for field in fields(self)[1:]:
            value = _checked(field.name, getattr(self, field.name))
            if field.name not in labelled and value != field.default:
                raise ParameterError(
                    f"the {self.family} family takes no {field.name}, "
                    f"got {field.name}={value}")
            object.__setattr__(self, field.name, value)
        if self.family in ("R_W", "R_p") and not 1 <= self.k2 <= self.k1:
            raise ParameterError(
                f"the R family needs 1 <= l <= k, got ({self.k1}, {self.k2})")

    def label(self) -> str:
        return ":".join([self.family, *(str(getattr(self, name)) for name
                                        in _LABEL_FIELDS[self.family[0]])])

    def __str__(self) -> str:
        return self.label()

    @classmethod
    def parse(cls, text: str) -> "CriterionId":
        family, *parts = text.strip().split(":")
        if family not in FAMILIES:
            raise ParameterError(
                f"unknown criterion family {family!r} in {text!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ParameterError(
                f"criterion indices in {text!r} must be integers") from None
        names = _LABEL_FIELDS[family[0]]
        # a label may leave out its mode, which then defaults to 1
        if not len(names) - ("mode" in names) <= len(numbers) <= len(names):
            form = ":".join([family, *names]).replace(":mode", "[:mode]")
            raise ParameterError(f"expected {form}, got {text!r}")
        return cls(family, *numbers)


@dataclass(frozen=True)
class CriterionResult:
    """Evaluated criterion: signed value, the verdict, the tolerance that
    guarded it, and the largest derivative order that entered."""

    id: CriterionId
    value: float
    nonclassical: bool
    tol: float
    max_order_used: int


# -- the shared engine ------------------------------------------------------
#
# Every criterion is read off one table that moments._table builds from the
# Q coefficients.  _value takes tables with any trailing batch axes, so a
# state's held table in evaluate and the batch tables of _judge on a scan
# grid share it.

def _need(cid: CriterionId):
    """Table kind, table orders and derivative order of a criterion.

    Kinds are those of moments._table: "W" (intensity moments), "p"
    (factorial-scaled probabilities) and their single-mode marginals "W1",
    "W2", "p1", "p2".
    """
    variant = cid.family[2]
    if cid.family[0] == "E":
        return variant, (cid.k1 + 2, cid.k2 + 2), cid.k1 + cid.k2 + 2
    if cid.family[0] == "M":
        return variant, (2, 2), 2
    depth = max(cid.k1 + 1, cid.k2)
    return f"{variant}{cid.mode}", (depth, 0), depth


def _check_order(total: int, max_order: int | None,
                 advice: str = "raise max_order explicitly if intended"):
    """Raise ParameterError, ending in ``advice``, when a derivative order
    of ``total`` exceeds ``max_order``, DEFAULT_MAX_ORDER when it is None."""
    limit = (DEFAULT_MAX_ORDER if max_order is None
             else _checked("max_order", max_order))
    if total > limit:
        raise ParameterError(
            f"requested derivative order {total} exceeds the configured "
            f"maximum {limit}; {advice}")


def _larger(x, y):
    """np.maximum(x, y), bit for bit: a NaN in either wins, and a tie gives
    ``y``.  One number (a float, which np.float64 is) is compared
    directly, at a fifth of a ufunc call's cost; arrays take np.maximum.
    _value's terms are absolute values or squares, so no tie is between
    signed zeros, the one tie whose pick shows in the bits."""
    if isinstance(x, float):
        return x if x > y or x != x else y
    return np.maximum(x, y)


def _value(cid: CriterionId, table: np.ndarray):
    """Criterion value, its tol (RELATIVE_TOL times its largest term) and
    the verdict value < -tol, the one rule evaluate and the scan share.
    The largest term is taken by _larger: on the numbers of a held table
    by comparison, on the lanes of a scan by np.maximum, the same bits."""
    if cid.family[0] == "E":
        a = table[cid.k1 + 2, cid.k2]
        b = table[cid.k1, cid.k2 + 2]
        c = 2.0 * table[cid.k1 + 1, cid.k2 + 1]
        value = a + b - c
        scale = _larger(_larger(abs(a), abs(b)), abs(c))
    elif cid.family[0] == "M":
        a, b, c = table[2, 0], table[0, 2], table[1, 1]
        value, scale = a * b - c * c, _larger(abs(a * b), c * c)
    else:
        a = table[cid.k1 + 1] * table[cid.k2 - 1]
        b = table[cid.k1] * table[cid.k2]
        value, scale = a - b, _larger(abs(a), abs(b))
    tol = RELATIVE_TOL * scale
    return value, tol, value < -tol


def _orders(ids) -> dict:
    """Each table kind the criteria ``ids`` read, at the largest orders any
    of them asks for."""
    orders = {}
    for cid in ids:
        kind, (o1, o2), _ = _need(cid)
        c1, c2 = orders.get(kind, (0, 0))
        orders[kind] = (max(c1, o1), max(c2, o2))
    return orders


def _judge(ids, coeffs: np.ndarray) -> list:
    """(value, tol, verdict) of each criterion on the Q coefficients
    ``coeffs``; each table kind is built once, at the largest orders asked
    for."""
    tables = {kind: _table(coeffs, kind, *o) for kind, o in _orders(ids).items()}
    return [_value(cid, tables[_need(cid)[0]]) for cid in ids]


def evaluate(state: TwoModeGaussianState, cid: CriterionId,
             *, max_order: int | None = None) -> CriterionResult:
    """Evaluate any criterion by its identifier or its label text."""
    if not isinstance(cid, CriterionId):
        cid = CriterionId.parse(str(cid))
    kind, orders, order = _need(cid)
    _check_order(order, max_order)
    value, tol, verdict = _value(cid, _held(state, kind, *orders,
                                            floor=_CATALOG_ORDERS[kind]))
    # a frozen __init__ sets each field through object.__setattr__, which
    # took a third of a held read's time; the fields go in at once instead
    result = object.__new__(CriterionResult)
    result.__dict__.update(id=cid, value=float(value),
                           nonclassical=bool(verdict),
                           tol=float(tol), max_order_used=order)
    return result


def eval_E_W(state: TwoModeGaussianState, k1: int, k2: int) -> CriterionResult:
    """Inter-mode moment criterion on <W1**i W2**j> at indices (k1, k2)."""
    return evaluate(state, CriterionId("E_W", k1, k2))


def eval_E_p(state: TwoModeGaussianState, k1: int, k2: int) -> CriterionResult:
    """Inter-mode criterion on factorial-scaled photon-number counts."""
    return evaluate(state, CriterionId("E_p", k1, k2))


def eval_M_W(state: TwoModeGaussianState) -> CriterionResult:
    return evaluate(state, CriterionId("M_W"))


def eval_M_p(state: TwoModeGaussianState) -> CriterionResult:
    return evaluate(state, CriterionId("M_p"))


def eval_R_W(state: TwoModeGaussianState, mode: int, k: int,
             l: int) -> CriterionResult:
    """Single-mode moment-ratio criterion on mode 1 or 2 at indices (k, l)."""
    return evaluate(state, CriterionId("R_W", k, l, mode))


def eval_R_p(state: TwoModeGaussianState, mode: int, k: int,
             l: int) -> CriterionResult:
    """Single-mode ratio criterion on factorial-scaled marginal counts."""
    return evaluate(state, CriterionId("R_p", k, l, mode))


def default_catalog() -> tuple:
    """The studied criterion set: E over all index pairs up to (2,2), the
    moment-matrix determinants, and the ratio family on both marginals at
    (2,2), (4,4) and (6,6)."""
    ids = []
    for family in ("E_W", "E_p"):
        for k1 in (0, 1, 2):
            for k2 in (0, 1, 2):
                ids.append(CriterionId(family, k1, k2))
    ids.append(CriterionId("M_W"))
    ids.append(CriterionId("M_p"))
    for family in ("R_W", "R_p"):
        for k in (2, 4, 6):
            for mode in (1, 2):
                ids.append(CriterionId(family, k, k, mode))
    return tuple(ids)


# the floor of a state's first table of each kind in evaluate
_CATALOG_ORDERS = _orders(default_catalog())


# -- closed forms for the noiseless twin beam -------------------------------

def closed_form_noiseless(cid: CriterionId, bp: float) -> float:
    """Reference value of a criterion on the noiseless twin beam.

    Covers the E and M families at the index pairs with compact closed
    forms; other identifiers raise ParameterError.
    """
    b = _checked("bp", bp)
    if not isinstance(cid, CriterionId):
        cid = CriterionId.parse(str(cid))
    key = (min(cid.k1, cid.k2), max(cid.k1, cid.k2))
    r = b / (b + 1.0)
    if cid.family == "E_W":
        forms = {
            (0, 0): -2.0 * b,
            (0, 1): -4.0 * b * b,
            (0, 2): -12.0 * b ** 3 + 4.0 * b * b,
            (1, 1): -12.0 * b ** 3 - 8.0 * b * b,
            (2, 2): -240.0 * b ** 5 - 288.0 * b ** 4 - 72.0 * b ** 3,
        }
        if key in forms:
            return forms[key]
    elif cid.family == "E_p":
        forms = {
            (0, 0): -2.0 * r,
            (0, 1): 0.0,
            (0, 2): 4.0 * r * r,
            (1, 1): -8.0 * r * r,
            (2, 2): -72.0 * r ** 3,
        }
        if key in forms:
            return forms[key]
    elif cid.family == "M_W":
        return -4.0 * b ** 3 - b * b
    elif cid.family == "M_p":
        return -r * r
    raise ParameterError(
        f"no closed form is available for {cid.label()} on the noiseless "
        "twin beam")


def closed_form_bs_output(cid: CriterionId, bp: float, t: float) -> float:
    """Reference value of a photon-number criterion after the two modes of a
    noiseless twin beam interfere on a beam splitter of transmissivity t.

    The dependence on the splitting enters only through w = t (1 - t).
    """
    b = _checked("bp", bp)
    t = _checked("t", t)
    if not isinstance(cid, CriterionId):
        cid = CriterionId.parse(str(cid))
    w = t * (1.0 - t)
    r = b / (b + 1.0)
    if cid.family == "M_p":
        return -(1.0 - 8.0 * w) * r * r
    if cid.family != "E_p":
        raise ParameterError(
            f"no beam-splitter closed form is available for {cid.label()}")
    key = (min(cid.k1, cid.k2), max(cid.k1, cid.k2))
    forms = {
        (0, 0): -(1.0 - 8.0 * w) * 2.0 * r,
        (1, 1): -(72.0 * w * w - 21.0 * w + 1.0) * 8.0 * r * r,
        (2, 2): -(-800.0 * w ** 3 + 340.0 * w * w - 40.0 * w + 1.0)
                * 72.0 * r ** 3,
        (0, 2): (144.0 * w * w - 30.0 * w + 1.0) * 4.0 * r * r,
    }
    if key not in forms:
        raise ParameterError(
            f"no beam-splitter closed form is available for {cid.label()}")
    return forms[key]


# -- boundaries -------------------------------------------------------------

def boundary_R22p(t: float) -> float | None:
    """Pair mean at which the single-mode ratio criterion at indices (2, 2)
    changes sign on the beam-splitter output of a noiseless twin beam.

    Returns None only at t = 1/2 (to within 1e-15), where the criterion
    stays negative for every pair mean, so the non-classical region is
    unbounded there; elsewhere the radicand, with w = t (1 - t) <= 1/4, is
    at least 1 - (7 - sqrt(33))**2 / 4 > 0.6.
    """
    t = _checked("t", t)
    w = t * (1.0 - t)
    denom = (2.0 * t - 1.0) ** 2
    if denom < 1e-30:
        return None
    rad = 4.0 * w * (4.0 * w - (7.0 - _SQRT33)) + 1.0
    return (4.0 * w - 1.0 + math.sqrt(rad)) / (2.0 * denom)


def boundary_noise_balanced_R22p(bp: float, t: float) -> float:
    """Balanced noise mean per mode at which the single-mode ratio criterion
    at indices (2, 2) on the beam-splitter output loses its negativity.

    A non-positive return means the criterion is already non-negative
    without added noise.
    """
    b = _checked("bp", bp)
    t = _checked("t", t)
    w = t * (1.0 - t)
    s = b * (b + 1.0)
    inner = 16.0 * w * s + 4.0 * math.sqrt((_SQRT33 - 5.0) * w * s) + 1.0
    return 0.5 * (math.sqrt(inner) - 2.0 * b - 1.0)


def entanglement_boundary_twin_beam(bp: float, balanced: bool) -> float:
    """Noise mean at which a noisy twin beam stops being entangled.

    For balanced noise (equal means in both modes) the threshold is
    sqrt(bp (bp + 1)) - bp per mode.  With noise in one mode only, the
    threshold is 1 independently of the pair mean.  A beam with no pairs is
    never entangled, so bp = 0 returns 0.
    """
    b = _checked("bp", bp)
    if b == 0.0:
        return 0.0
    if balanced:
        return math.sqrt(b * (b + 1.0)) - b
    return 1.0

"""Truncated bivariate Taylor-series (jet) arithmetic.

The moment engine differentiates a generating function to high order.  The
differentiation is carried out exactly (to rounding) by propagating truncated
Taylor coefficients through the algebraic operations that build the function,
rather than by symbolic algebra or finite differences.  The only nontrivial
operation needed is the reciprocal square root, which satisfies the linear
recurrence obtained from 2*Q*S' = -Q'*S for S = Q**-1/2.

Coefficient tables may carry trailing batch axes, so a whole parameter grid
can be pushed through the same recurrence at once; invalid batch lanes (a
nonpositive constant term) yield NaN coefficients instead of raising.

One rule picks the recurrence.  A table of one number per coefficient,
unbatched or a batch of one lane (each refinement step of a boundary),
runs on Python floats, where NumPy's per-call cost would outweigh the
work, if its constant term is positive and finite and np.errstate ignores
underflow, since floats set no floating-point flags; an unbatched table
wider than _FLOAT_COLUMNS columns is the one exception.  Every other
table, and a float table with a non-finite entry, runs on the NumPy rows
from its first row on, which warn, or raise under np.errstate; unbatched,
its first row stays on floats where underflow is ignored, and its rows
wider than _FLOAT_COLUMNS are solved in place with BLAS's banded triangular
solve, scipy.linalg.blas.dtbsv, imported where it is called, so the
catalog, classify, scans and boundaries never load scipy.  Every table
of at most _FLOAT_COLUMNS columns, and a one-lane batch at any width, has
the bits of its lane of the batch loop; rebasing a table of one number
per coefficient is the unbatched float sum.
"""
from __future__ import annotations

from math import comb, inf, isfinite, sqrt

import numpy as np

from .errors import EvaluationError
from .states import _checked

__all__ = ["BivariateSeries"]

# the widest unbatched table, in columns, whose rows run on Python floats.
# On square tables of a rebased twin-beam Q (timeit, a loaded 2-core x86
# host) they take 0.37-0.75 of the time of the NumPy + dtbsv rows at 2-8
# columns, 0.83-1.21 at 12-16 and 1.18-2.5 at 17-40; wider tables solve
# their rows with dtbsv
_FLOAT_COLUMNS = 16


class BivariateSeries:
    """Coefficients c[i, j] of (x - x0)**i * (y - y0)**j up to fixed orders.

    The first two axes of ``coeffs`` index the powers of the two variables;
    any remaining axes are batch axes shared by all coefficients.
    """

    __slots__ = ("coeffs", "point")

    def __init__(self, coeffs, point=(0.0, 0.0)):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim < 2:
            raise ValueError("coefficient table must be at least 2-D")
        self.coeffs = arr
        self.point = (float(point[0]), float(point[1]))

    @property
    def order1(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def order2(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[2:]

    def __repr__(self):
        return (f"BivariateSeries(orders=({self.order1},{self.order2}), "
                f"point={self.point}, batch={self.batch_shape})")

    # -- basic ring operations ------------------------------------------

    def padded(self, order1: int, order2: int) -> "BivariateSeries":
        """Zero-extend the coefficient table to at least the given orders.

        Only meaningful when the stored coefficients describe an exact
        polynomial (the higher coefficients really are zero), as is the case
        for the quartic generating polynomial.
        """
        o1 = max(order1, self.order1)
        o2 = max(order2, self.order2)
        if (o1, o2) == (self.order1, self.order2):
            return self
        shape = (o1 + 1, o2 + 1) + self.batch_shape
        out = np.zeros(shape, dtype=float)
        out[: self.order1 + 1, : self.order2 + 1] = self.coeffs
        return BivariateSeries(out, self.point)

    def _check_point(self, other: "BivariateSeries"):
        if self.point != other.point:
            raise ValueError(
                f"expansion points differ: {self.point} vs {other.point}")

    def __mul__(self, other):
        if not isinstance(other, BivariateSeries):
            return BivariateSeries(self.coeffs * other, self.point)
        self._check_point(other)
        o1 = max(self.order1, other.order1)
        o2 = max(self.order2, other.order2)
        a = self.padded(o1, o2)
        b = other.padded(o1, o2)
        # each term is a shifted slice add
        batch = np.broadcast_shapes(a.batch_shape, b.batch_shape)
        out = np.zeros((o1 + 1, o2 + 1) + batch, dtype=float)
        ac, bc = a.coeffs, b.coeffs
        for i in range(o1 + 1):
            for j in range(o2 + 1):
                cij = ac[i, j]
                if np.all(cij == 0.0):
                    continue
                out[i:, j:] += cij * bc[: o1 + 1 - i, : o2 + 1 - j]
        return BivariateSeries(out, self.point)

    __rmul__ = __mul__

    # -- analytic operations --------------------------------------------

    def rebased(self, x0: float, y0: float) -> "BivariateSeries":
        """Re-expand about a new point.

        Exact only when the coefficients describe an exact polynomial; used
        to move the generating quartic from the origin to the detection
        point before extracting photon-number statistics.
        """
        dx = x0 - self.point[0]
        dy = y0 - self.point[1]
        # tables of one number per coefficient (unbatched, or a batch of
        # one lane) are summed as Python floats: same rounding, without a
        # NumPy scalar per term
        o1, o2 = self.order1, self.order2
        lane = self.coeffs[0, 0].size == 1
        c = (self.coeffs.reshape(o1 + 1, o2 + 1).tolist() if lane
             else self.coeffs)
        out = np.zeros((o1 + 1, o2 + 1) if lane else self.coeffs.shape)
        for a in range(o1 + 1):
            for b in range(o2 + 1):
                acc = 0.0
                for i in range(a, o1 + 1):
                    wi = comb(i, a) * dx ** (i - a)
                    for j in range(b, o2 + 1):
                        acc = acc + wi * comb(j, b) * dy ** (j - b) * c[i][j]
                out[a, b] = acc
        return BivariateSeries(out.reshape(self.coeffs.shape), (x0, y0))

    def eval(self, x, y):
        """Evaluate the truncated polynomial by Horner recursion."""
        dx = np.asarray(x, dtype=float) - self.point[0]
        dy = np.asarray(y, dtype=float) - self.point[1]
        c = self.coeffs
        res = 0.0
        for i in range(self.order1, -1, -1):
            row = 0.0
            for j in range(self.order2, -1, -1):
                row = row * dy + c[i, j]
            res = res * dx + row
        return res

    def rsqrt(self, order1: int | None = None,
              order2: int | None = None) -> "BivariateSeries":
        """Reciprocal square root S = self**(-1/2) as a truncated series.

        The target orders may exceed the polynomial degree of ``self`` (the
        higher coefficients are taken as zero).  For batched coefficients,
        lanes whose constant term is not positive come back as NaN.  The
        module docstring states which recurrence runs.
        """
        o1 = self.order1 if order1 is None else _checked("order1", order1)
        o2 = self.order2 if order2 is None else _checked("order2", order2)
        q = self.coeffs
        dq1 = min(self.order1, o1)
        dq2 = min(self.order2, o2)
        batch = self.batch_shape
        scalar = (len(batch) == 0)

        q00 = q[0, 0]
        positive = q00.size == 1 and 0.0 < q00.item() < inf
        if scalar and not positive:
            raise EvaluationError(
                "generating polynomial is not positive at the expansion "
                f"point (constant term {q00!r})")
        # floats set no floating-point flags, so they run only where NumPy
        # is told to ignore underflow
        quiet = np.geterr()["under"] == "ignore"
        if positive and quiet and not (scalar and o2 >= _FLOAT_COLUMNS):
            rows = _float_rows(q.reshape(q.shape[:2]).tolist(), o1, o2,
                               dq1, dq2)
            # an overflowed table, whose sum is not finite, is rebuilt
            # on the NumPy rows, to warn or raise
            if isfinite(sum(map(sum, rows))):
                return BivariateSeries(
                    np.array(rows).reshape((o1 + 1, o2 + 1) + batch),
                    self.point)
        valid = np.isfinite(q00) & (q00 > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_q00 = np.where(valid, 1.0 / np.where(valid, q00, 1.0), np.nan)
            s00 = np.where(valid, 1.0 / np.sqrt(np.where(valid, q00, 1.0)),
                           np.nan)
        if scalar and quiet:
            q, inv_q00, s00 = q.tolist(), float(inv_q00), float(s00)
        row, taps = _first_row(q, o2, dq2, inv_q00, s00)
        s = np.zeros((o1 + 1, o2 + 1) + batch, dtype=float)
        s[0] = row

        # remaining rows, each built in place: cross-row terms feed a
        # constant-coefficient within-row recurrence of depth dq2
        banded = scalar and bool(taps) and o2 >= _FLOAT_COLUMNS
        if banded:
            # once per table, not per row; narrow tables and batches never
            # solve banded, so they load no scipy.  The recurrence is the
            # unit lower-triangular banded system with the taps on its
            # sub-diagonals, in BLAS band storage
            from scipy.linalg.blas import dtbsv
            band = np.zeros((len(taps) + 1, o2 + 1), order="F")
            band[1:] = np.reshape(taps, (-1, 1))
        for i in range(1, o1 + 1):
            si = s[i]
            for a in range(1, min(i, dq1) + 1):
                w = 2 * i - a
                for b in range(dq2 + 1):
                    qab = q[a][b]
                    if scalar and qab == 0.0:
                        continue
                    si[b:] += (w * qab) * s[i - a, : o2 + 1 - b]
            si *= -inv_q00 / (2 * i)
            if banded:
                # both branches stay: a numpy-only single path (the
                # recurrence swept along anti-diagonals) matched to 2.2e-16
                # but ran 3x slower than the lfilter rows these replaced
                # on 4097^2 tables, and 2x on (4, 4) ones;
                # tables of at most _FLOAT_COLUMNS columns keep the batch
                # loop's order, and only the wider tables import scipy.
                # The solve works in place; were f2py to copy the row, the
                # assignment stores the copy
                s[i] = dtbsv(len(taps), band, si, lower=1, diag=1,
                             overwrite_x=1)
            elif taps:
                for j in range(o2 + 1):
                    acc = si[j]
                    for b, c in enumerate(taps, start=1):
                        if b > j:
                            break
                        acc = acc - c * si[j - b]
                    si[j] = acc
        return BivariateSeries(s, self.point)


def _first_row(q, o2, dq2, inv_q00, s00):
    """Row 0 of S, by the within-row recurrence with order-dependent
    weights, and the taps q[0][b] / q00 of the later rows' recurrence; on
    Python floats or on batch arrays alike."""
    row = [s00]
    for j in range(1, o2 + 1):
        acc = 0.0
        for b in range(1, min(j, dq2) + 1):
            acc = acc + (2 * j - b) * q[0][b] * row[j - b]
        row.append(-acc * inv_q00 / (2 * j))
    return row, [q[0][b] * inv_q00 for b in range(1, dq2 + 1)]


def _float_rows(q, o1, o2, dq1, dq2):
    """Rows 0..o1 of a table of one number per coefficient, on Python floats
    with the bits of its lane of the batch loop: the cross-row terms are
    summed in the order of their slice adds, and the within-row recurrence
    runs in the order of the batch loop.  A one-column table, whose rows
    have no within-row recurrence, comes back as the one row of its
    column."""
    q00 = q[0][0]
    inv_q00 = 1.0 / q00
    row, taps = _first_row(q, o2, dq2, inv_q00, 1.0 / sqrt(q00))
    if o2 == 0:
        for i in range(1, o1 + 1):
            acc = 0.0
            for a in range(1, min(i, dq1) + 1):
                if q[a][0] != 0.0:
                    acc = acc + (((2 * i - a) * q[a][0]) * row[i - a])
            row.append(acc * (-inv_q00 / (2 * i)))
        return [row]
    width = o2 + 1
    rows = [row]
    for i in range(1, o1 + 1):
        base = [0.0] * width
        for a in range(1, min(i, dq1) + 1):
            w = 2 * i - a
            prev = rows[i - a]
            for b in range(len(taps) + 1):
                qab = q[a][b]
                if qab == 0.0:
                    continue
                c = w * qab
                for j in range(b, width):
                    base[j] = base[j] + c * prev[j - b]
        scale = -inv_q00 / (2 * i)
        out = []
        for j, x in enumerate(base):
            acc = x * scale
            for b in range(1, min(j, len(taps)) + 1):
                acc = acc - taps[b - 1] * out[j - b]
            out.append(acc)
        rows.append(out)
    return rows

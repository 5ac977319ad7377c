"""A 50-digit mpmath reference for Q, every table kind and the criteria.

It repeats the library's arithmetic exactly: Q by moments._q_coeff_array's
formula, the (1, 1) rebase, the rsqrt recurrence and the signs and
scalings of moments._table, and the criterion values of criteria._value.
A state's six fields are taken exactly, float64 from params() or the
extended copy _extended, so the only rounding left is mpmath's at DPS
digits.  Marginals are cut at l_other = 0 before the rebase, as _table
does.  Call the functions inside ``mpmath.workdps(DPS)``.
"""
from math import comb, factorial

import mpmath

from twinbeam import criteria

DPS = 50


def _exact(x):
    n, d = x.as_integer_ratio()
    return mpmath.mpf(n) / d


def q_coeffs(state, extended=False):
    """Q's 3x3 coefficients, [i][j] multiplying l1**i l2**j."""
    raw = state._extended if extended else state.params()
    b1, b2 = (_exact(x) for x in raw[:2])
    c1, c2, d, e = (mpmath.mpc(_exact(z.real), _exact(z.imag))
                    for z in raw[2:])
    ad2, ae2, ac1, ac2 = (abs(z) ** 2 for z in (d, e, c1, c2))
    cross = ad2 + ae2
    cj = mpmath.conj
    g1, g2 = (c1 * e * cj(d)).real, (c2 * cj(e) * cj(d)).real
    h1, h2 = (c1 * c2 * cj(d) ** 2).real, (c1 * cj(c2) * e * e).real
    return [[1, 2 * b2, b2 * b2 - ac2],
            [2 * b1, 4 * b1 * b2 - 2 * cross,
             2 * b1 * b2 ** 2 - 2 * b2 * cross - 2 * b1 * ac2 - 4 * g2],
            [b1 * b1 - ac1,
             2 * b1 ** 2 * b2 - 2 * b1 * cross - 2 * b2 * ac1 - 4 * g1,
             (b1 * b2) ** 2 + ad2 ** 2 + ae2 ** 2 + ac1 * ac2 - b1 ** 2 * ac2
             - b2 ** 2 * ac1 - 2 * b1 * b2 * cross - 2 * ad2 * ae2
             - 4 * b1 * g2 - 4 * b2 * g1 - 2 * h1 - 2 * h2]]


def _rsqrt(q, o1, o2):
    """Q**(-1/2) to orders (o1, o2): 2 j q00 s[0][j] = -sum (2j - b) q[0][b]
    s[0][j - b] along row 0, and 2 i q00 s[i][j] = -sum (2i - a) q[a][b]
    s[i - a][j - b] over (a, b) != (0, 0) for the later rows."""
    n1, n2 = len(q), len(q[0])
    s = [[mpmath.mpf(0)] * (o2 + 1) for _ in range(o1 + 1)]
    s[0][0] = 1 / mpmath.sqrt(q[0][0])
    for i in range(o1 + 1):
        for j in range(o2 + 1):
            if i == 0 and j > 0:
                s[0][j] = -mpmath.fsum(
                    (2 * j - b) * q[0][b] * s[0][j - b]
                    for b in range(1, min(j, n2 - 1) + 1)) / (2 * j * q[0][0])
            elif i > 0:
                s[i][j] = -mpmath.fsum(
                    (2 * i - a) * q[a][b] * s[i - a][j - b]
                    for a in range(min(i, n1 - 1) + 1)
                    for b in range(min(j, n2 - 1) + 1) if a or b) / (
                        2 * i * q[0][0])
    return s


def table(state, kind, o1, o2=0, extended=False):
    """The ``kind`` table of moments._table, as lists of mpf: a list of rows,
    or one list for a marginal kind "W1", "P2", ..."""
    q = q_coeffs(state, extended)
    if kind[1:] == "1":
        q = [row[:1] for row in q]
    elif kind[1:] == "2":
        q = [[x] for x in q[0]]
    if kind[0] != "W":
        q = [[mpmath.fsum(comb(i, a) * comb(j, b) * q[i][j]
                          for i in range(a, len(q))
                          for j in range(b, len(q[0])))
              for b in range(len(q[0]))] for a in range(len(q))]
    s = _rsqrt(q, o1, 0 if kind[1:] else o2)
    # W: i! j! s, P: s, p: i! j! s / s[0][0], each with sign (-1)**(i + j)
    norm = {"W": 1, "P": None, "p": s[0][0]}[kind[0]]
    t = [[(-1) ** (i + j) * (x if norm is None
                             else x * factorial(i) * factorial(j) / norm)
          for j, x in enumerate(row)] for i, row in enumerate(s)]
    return [row[0] for row in t] if kind[1:] else t


def value(state, cid, extended=False):
    """The criterion's value by criteria._value's formula."""
    cid = criteria.CriterionId.parse(str(cid))
    kind, orders, _ = criteria._need(cid)
    t = table(state, kind, *orders, extended=extended)
    if cid.family[0] == "E":
        return (t[cid.k1 + 2][cid.k2] + t[cid.k1][cid.k2 + 2]
                - 2 * t[cid.k1 + 1][cid.k2 + 1])
    if cid.family[0] == "M":
        return t[2][0] * t[0][2] - t[1][1] ** 2
    return t[cid.k1 + 1] * t[cid.k2 - 1] - t[cid.k1] * t[cid.k2]

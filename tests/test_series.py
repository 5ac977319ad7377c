"""Tests for the truncated bivariate power-series arithmetic."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg.blas
from scipy.special import binom

from conftest import random_physical_state
from twinbeam import criteria, moments, series, states
from twinbeam.errors import EvaluationError
from twinbeam.series import BivariateSeries


def _random_positive_series(rng, order1, order2, batch=()):
    """A random series with constant term bounded away from zero."""
    coeffs = rng.normal(size=(order1 + 1, order2 + 1) + batch)
    coeffs[0, 0] = rng.uniform(0.5, 2.0, size=batch)
    return BivariateSeries(coeffs)


def test_eval_matches_direct_polynomial():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=(4, 3))
    s = BivariateSeries(coeffs)
    for x, y in rng.normal(scale=0.7, size=(5, 2)):
        direct = sum(
            coeffs[i, j] * x**i * y**j
            for i in range(4)
            for j in range(3)
        )
        assert s.eval(x, y) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("alpha,beta", [(0.3, -0.4), (-0.8, 0.25), (1.5, 0.9)])
def test_rsqrt_matches_binomial_series(alpha, beta):
    """1/sqrt((1+ax)(1+by)) separates into two binomial series."""
    order = 9
    q = BivariateSeries(
        np.array([[1.0, beta], [alpha, alpha * beta]])
    )
    s = q.rsqrt(order, order)
    k = np.arange(order + 1)
    expected = np.outer(binom(-0.5, k) * alpha**k, binom(-0.5, k) * beta**k)
    np.testing.assert_allclose(s.coeffs, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rsqrt_squared_times_input_is_one(seed):
    """The defining identity S^2 * Q = 1 holds to the truncation order.

    The draws keep the non-constant part contractive, mirroring how the
    engine always rebases its generating polynomial to the evaluation
    point; outside the convergence region the coefficients would grow
    geometrically and rounding would swamp any absolute comparison.
    """
    order = 12
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(scale=0.15, size=(3, 3))
    coeffs[0, 0] = rng.uniform(0.75, 1.5)
    q = BivariateSeries(coeffs)
    s = q.rsqrt(order, order)
    prod = s * s * q.padded(order, order)
    identity = np.zeros((order + 1, order + 1))
    identity[0, 0] = 1.0
    np.testing.assert_allclose(prod.coeffs, identity, rtol=0, atol=1e-12)


def test_rsqrt_default_orders_follow_input():
    q = BivariateSeries(np.ones((3, 5)))
    assert (q.rsqrt().order1, q.rsqrt().order2) == (2, 4)
    # a table without a second power axis has no orders to follow
    with pytest.raises(ValueError, match="at least 2-D"):
        BivariateSeries(np.ones(3))


def test_rebased_series_evaluates_identically():
    rng = np.random.default_rng(5)
    s = BivariateSeries(rng.normal(size=(4, 4)))
    moved = s.rebased(0.37, -0.61)
    assert moved.point == (0.37, -0.61)
    assert repr(moved) == (
        "BivariateSeries(orders=(3,3), point=(0.37, -0.61), batch=())")
    for x, y in rng.normal(size=(6, 2)):
        assert moved.eval(x, y) == pytest.approx(s.eval(x, y), rel=1e-12, abs=1e-12)


def test_rebase_then_rsqrt_matches_direct_value():
    """Expanding about a new point keeps the reciprocal square root exact."""
    rng = np.random.default_rng(17)
    coeffs = rng.uniform(0.1, 0.5, size=(3, 3))
    coeffs[0, 0] = 4.0
    q = BivariateSeries(coeffs)
    x0, y0 = 0.2, 0.3
    s = q.rebased(x0, y0).rsqrt(10, 10)
    assert s.eval(x0, y0) == pytest.approx(q.eval(x0, y0) ** -0.5, rel=1e-13)
    # nearby points still agree with the pointwise value
    assert s.eval(x0 + 0.05, y0 - 0.04) == pytest.approx(
        q.eval(x0 + 0.05, y0 - 0.04) ** -0.5, rel=1e-9
    )


def test_multiplication_truncates_to_operand_orders():
    a = BivariateSeries(np.array([[1.0, 1.0], [1.0, 0.0]]))
    prod = a * a
    assert (prod.order1, prod.order2) == (1, 1)
    np.testing.assert_allclose(
        prod.coeffs, np.array([[1.0, 2.0], [2.0, 2.0]])
    )
    # a scalar scales every coefficient, from either side
    for scaled in (a * 2.0, 2.0 * a):
        np.testing.assert_array_equal(scaled.coeffs, 2.0 * a.coeffs)
    # series about different points do not multiply
    with pytest.raises(ValueError, match="expansion points differ"):
        a * a.rebased(1.0, 1.0)


def test_padded_preserves_values():
    rng = np.random.default_rng(23)
    s = BivariateSeries(rng.normal(size=(3, 2)))
    p = s.padded(6, 5)
    assert p.coeffs.shape == (7, 6)
    np.testing.assert_array_equal(p.coeffs[:3, :2], s.coeffs)
    assert p.eval(0.4, -0.3) == pytest.approx(s.eval(0.4, -0.3), rel=1e-14)


def test_batched_rsqrt_matches_scalar_slices():
    rng = np.random.default_rng(31)
    batch = _random_positive_series(rng, 2, 2, batch=(6,))
    result = batch.rsqrt(7, 7)
    assert batch.batch_shape == (6,)
    for i in range(6):
        single = BivariateSeries(batch.coeffs[..., i]).rsqrt(7, 7)
        np.testing.assert_allclose(
            result.coeffs[..., i], single.coeffs, rtol=0, atol=1e-12
        )


def _assert_same_bits(got, want):
    """Equal shape and values, signs of zero included; NaN matches NaN."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    known = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[known]),
                                  np.signbit(want[known]))


@pytest.mark.parametrize("seed", range(4))
def test_scalar_float_recurrences_match_batched_lanes_bit_for_bit(seed):
    """Where underflow is ignored, an unbatched table of at most
    _FLOAT_COLUMNS columns runs on Python floats, and a wider one keeps a
    float first row; each must equal its lane of the batched NumPy
    recurrence exactly, all rows and signs of zero included: on Q tables
    with exact zeros in the first row and column, on a rebased twin-beam Q
    and on a one-column Q, whose rows have no within-row recurrence.  Wider
    tables solve their later rows with BLAS dtbsv, so only their first row
    is compared."""
    rng = np.random.default_rng(seed)
    lanes = []
    for zeros in ((0, slice(1, None)), (slice(1, None), 0), ()):
        q = _random_positive_series(rng, 2, 2).coeffs
        if zeros:
            q[zeros] = 0.0
        lanes.append(q)
    twin = moments.q_polynomial(states.twin_beam(rng.uniform(0.1, 3.0)))
    lanes.append(twin.rebased(1.0, 1.0).coeffs)
    batches = [BivariateSeries(np.stack(lanes, axis=-1)),
               _random_positive_series(rng, 2, 0, batch=(3,))]   # no taps
    orders = [(int(rng.integers(0, 13)), width - 1)
              for width in range(1, series._FLOAT_COLUMNS + 1)]
    orders += [(29, 29)] + [(order, 0) for order in range(41)]
    # where np.errstate asks to hear of underflow (here, to call a no-op),
    # every table runs on the NumPy rows, first row included, with the
    # same bits
    for batch, under in itertools.product(batches, ("ignore", "call")):
        with np.errstate(under=under, call=lambda *args: None):
            for o1, o2 in orders:
                want = batch.rsqrt(o1, o2).coeffs
                rows = 1 if o2 >= series._FLOAT_COLUMNS else o1 + 1
                for k in range(batch.batch_shape[0]):
                    got = BivariateSeries(batch.coeffs[..., k]).rsqrt(o1, o2)
                    _assert_same_bits(got.coeffs[:rows], want[:rows, :, k])


def test_catalog_tables_run_on_floats_and_ladder_tables_on_dtbsv(
        monkeypatch):
    """The catalog's tables are narrower than the cutoff and never call
    dtbsv; a 17-column photon-number table of a splitter output calls it
    once per row after the first.  A twin beam's probabilities are read
    off 1/K: a noisy beam's solve every row, its first included, with
    dtbsv's one-tap non-unit band, and a noiseless beam's, whose one-tap
    coefficients are exactly 0, solve none.  rsqrt and the 1/K rows import
    dtbsv when they call it, so the patch on scipy.linalg.blas holds."""
    calls = []
    dtbsv = scipy.linalg.blas.dtbsv

    def counted(*args, **kwargs):
        calls.append(1)
        return dtbsv(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "dtbsv", counted)
    state = random_physical_state(np.random.default_rng(3))
    for cid in criteria.default_catalog():
        criteria.evaluate(state, cid)
    assert len(calls) == 0
    split = states.beam_splitter(states.twin_beam(0.3), 0.5)
    moments.pnd_table(split, 16, 16)
    assert len(calls) == 16
    moments.pnd_table(states.twin_beam(0.3, bs=0.2), 16, 16)
    assert len(calls) == 33
    for bp in (0.3, 36.69, 100.0):
        moments.pnd_table(states.twin_beam(bp), 16, 16)
        moments.photon_number_distribution(states.twin_beam(bp))
    assert len(calls) == 33


def test_an_overflowing_wide_table_without_taps_warns_and_raises():
    """A wide table whose taps are all zero overflows in its NumPy rows:
    the overflow warns, and raises under np.errstate."""
    q = np.array([[1.0, 0.0, 0.0], [1e200, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = BivariateSeries(q).rsqrt(4, 40).coeffs
    assert got[2, 0] == np.inf
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            BivariateSeries(q).rsqrt(4, 40)


@pytest.mark.parametrize("seed", range(4))
def test_wide_tables_match_their_one_lane_batch_to_rounding(seed):
    """Unbatched tables wider than _FLOAT_COLUMNS solve their rows with
    BLAS's banded triangular solve, and a batch of one lane runs the batch
    loop's order on Python floats at any width; the two orders agree
    within 1e-15 of the table's largest entry, on rebased twin-beam Q and
    on seeded random_physical_state Q, at 17 to 200 columns."""
    rng = np.random.default_rng(seed)
    qs = [moments.q_polynomial(states.twin_beam(rng.uniform(0.1, 100.0))),
          moments.q_polynomial(random_physical_state(rng))]
    widths = [series._FLOAT_COLUMNS + 1, int(rng.integers(18, 200)), 200]
    for q in qs:
        rebased = q.rebased(1.0, 1.0)
        lane = BivariateSeries(rebased.coeffs[..., None], rebased.point)
        for width in widths:
            o1 = int(rng.integers(0, width))
            got = rebased.rsqrt(o1, width - 1).coeffs
            want = lane.rsqrt(o1, width - 1).coeffs[..., 0]
            scale = np.max(np.abs(want))
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-15 * scale


@pytest.mark.parametrize("c00", [0.0, -1.0])
def test_rsqrt_requires_positive_constant_term(c00):
    coeffs = np.array([[c00, 1.0], [1.0, 0.0]])
    with pytest.raises(EvaluationError):
        BivariateSeries(coeffs).rsqrt()


def _rebased_reference(coeffs, dx, dy):
    """The rebase of an unbatched table as a sum of Python floats, each
    weight formed per term, without a cache."""
    o1, o2 = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    c = coeffs.tolist()
    out = np.zeros(coeffs.shape)
    for a in range(o1 + 1):
        for b in range(o2 + 1):
            acc = 0.0
            for i in range(a, o1 + 1):
                wi = math.comb(i, a) * dx ** (i - a)
                for j in range(b, o2 + 1):
                    acc = acc + wi * math.comb(j, b) * dy ** (j - b) * c[i][j]
            out[a, b] = acc
    return out


@pytest.mark.parametrize("seed", range(4))
def test_one_lane_batches_match_their_lane_of_two_bit_for_bit(seed):
    """A batch of one lane runs rebased and rsqrt on Python floats; each
    table must equal that lane of a two-lane batch exactly, signs of zero
    included: with exact zeros in Q, with one-column Q tables and tables,
    at widths up to 30, on rebased twin-beam tables, and on an invalid lane,
    which comes back all NaN.  Rebased about points whose shifts differ only
    in the sign of a zero, an unbatched table, a one-lane batch and a lane
    of the batch agree, and equal the sum with weights formed per term, so
    the cached weights of one point never serve another."""
    rng = np.random.default_rng(seed)
    tables = []
    for zeros in ((0, slice(1, None)), (slice(1, None), 0), (1, 1), ()):
        q = _random_positive_series(rng, 2, 2, batch=(2,)).coeffs
        if zeros:
            q[zeros] = 0.0
        tables.append(q)
    tables.append(_random_positive_series(rng, 2, 0, batch=(2,)).coeffs)
    invalid = _random_positive_series(rng, 2, 2, batch=(2,)).coeffs
    invalid[0, 0, 1] = -1.0
    tables.append(invalid)
    pair = [states.beam_splitter(states.twin_beam(bp, bs=0.2), t)
            for bp, t in rng.uniform(0.1, 3.0, size=(2, 2)) / (1.0, 3.0)]
    tables.append(np.stack([moments._q(state) for state in pair], axis=-1))
    orders = [(int(rng.integers(0, 13)), width - 1)
              for width in (1, 2, 3, 5, 9, 17, 30)] + [(29, 0)]
    for q in tables:
        for two in (BivariateSeries(q), BivariateSeries(q).rebased(1.0, 1.0)):
            lanes = [BivariateSeries(two.coeffs[..., k:k + 1], two.point)
                     for k in range(2)]
            for point in ((0.5, 1.5), (0.37, -0.61), (-0.0, 0.0),
                          (0.0, 0.0)):
                moved = two.rebased(*point).coeffs
                shift = (point[0] - two.point[0], point[1] - two.point[1])
                for k, lane in enumerate(lanes):
                    _assert_same_bits(lane.rebased(*point).coeffs,
                                      moved[..., k:k + 1])
                    alone = BivariateSeries(two.coeffs[..., k], two.point)
                    _assert_same_bits(alone.rebased(*point).coeffs,
                                      moved[..., k])
                    _assert_same_bits(
                        _rebased_reference(two.coeffs[..., k], *shift),
                        moved[..., k])
            for o1, o2 in orders:
                want = two.rsqrt(o1, o2).coeffs
                for k, lane in enumerate(lanes):
                    _assert_same_bits(lane.rsqrt(o1, o2).coeffs,
                                      want[..., k:k + 1])
    assert np.isnan(BivariateSeries(invalid[..., 1:]).rsqrt(4, 4).coeffs).all()


def test_an_overflowing_one_lane_table_warns_as_the_batch_loop_does():
    """A one-lane table that overflows float64 is rebuilt by the batch
    loop, which warns (and so raises under an error filter), and gets that
    loop's result."""
    q = moments._q(states.twin_beam(1e60))[..., None]
    with np.errstate(all="ignore"):
        want = BivariateSeries(np.concatenate([q, q], axis=-1)).rsqrt(4, 4)
    with pytest.warns(RuntimeWarning):
        got = BivariateSeries(q).rsqrt(4, 4)
    assert not np.isfinite(got.coeffs).all()
    _assert_same_bits(got.coeffs, want.coeffs[..., :1])


def test_a_one_lane_table_raises_on_underflow_where_numpy_is_told_to():
    """Floats set no flags, so under np.errstate(under="raise") a one-lane
    batch and an unbatched table, one-column tables included, run the
    NumPy rows and raise as a batch of two does.  The one-column table
    underflows only past order 4."""
    q = moments._q(states.twin_beam(1e-60))[..., None]
    for table, orders in ((q, (4, 4)),
                          (np.concatenate([q, q], axis=-1), (4, 4)),
                          (q[:, :1, 0], (8, 0)),
                          (q[..., 0], (4, 4))):
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError):
                BivariateSeries(table).rsqrt(*orders)

"""Tests for the non-classicality criteria and their closed forms."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from conftest import random_physical_state
from twinbeam import criteria, moments, quantifiers, states
from twinbeam.criteria import CriterionId
from twinbeam.errors import (ConfigError, EvaluationError, OrderLimitError,
                             ParameterError)
from twinbeam.scan import TargetSpec

E_AND_M_IDS = [
    CriterionId(family, k1, k2)
    for family in ("E_W", "E_p")
    for k1, k2 in [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 2)]
] + [CriterionId("M_W"), CriterionId("M_p")]


def test_catalog_contents():
    cat = criteria.default_catalog()
    labels = [cid.label() for cid in cat]
    assert len(cat) == 32
    assert len(set(labels)) == 32
    assert "E_W:0:0" in labels and "E_p:2:2" in labels
    assert "M_W" in labels and "M_p" in labels
    assert "R_W:2:2:1" in labels and "R_p:6:6:2" in labels


def test_label_parse_round_trip():
    for cid in criteria.default_catalog():
        assert CriterionId.parse(cid.label()) == cid


@pytest.mark.parametrize("text", ["X_p:0:0", "E_p:0", "E_p:a:b", "R_W:2:2:3"])
def test_parse_rejects_malformed_labels(text):
    with pytest.raises(ParameterError):
        CriterionId.parse(text)


def _or_default(default, values):
    return st.one_of(st.just(default), values)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(family=st.sampled_from(criteria.FAMILIES),
       k1=_or_default(0, st.integers(0, 8)),
       k2=_or_default(0, st.integers(0, 8)),
       mode=_or_default(1, st.sampled_from((1, 2))))
def test_every_accepted_id_round_trips_through_its_label(family, k1, k2,
                                                         mode):
    try:
        cid = CriterionId(family, k1, k2, mode)
    except ParameterError:
        assume(False)
    assert CriterionId.parse(cid.label()) == cid


@pytest.mark.parametrize("bp", [0.3, 1.0, 2.0])
def test_noiseless_closed_forms_match_engine(bp):
    """Engine values reproduce the twin-beam closed forms of every
    criterion in the E and M families."""
    st = states.twin_beam(bp)
    for cid in E_AND_M_IDS:
        want = criteria.closed_form_noiseless(cid, bp)
        got = criteria.evaluate(st, cid).value
        if want == 0.0:
            assert abs(got) < 1e-10, cid.label()
        else:
            assert got == pytest.approx(want, rel=1e-9), cid.label()


BS_FORM_IDS = [
    CriterionId("E_p", 0, 0),
    CriterionId("E_p", 1, 1),
    CriterionId("E_p", 2, 2),
    CriterionId("E_p", 0, 2),
    CriterionId("E_p", 2, 0),
    CriterionId("M_p"),
]


@pytest.mark.parametrize("t", [0.55, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("bp", [0.5, 1.0, 3.0])
def test_bs_output_closed_forms_match_engine(bp, t):
    st = states.beam_splitter(states.twin_beam(bp), t)
    for cid in BS_FORM_IDS:
        want = criteria.closed_form_bs_output(cid, bp, t)
        got = criteria.evaluate(st, cid).value
        if abs(want) < 1e-12:
            assert abs(got) < 1e-9, cid.label()
        else:
            assert got == pytest.approx(want, rel=1e-8), cid.label()


def test_evaluate_dispatches_to_family_functions():
    st = states.twin_beam(0.8, bs=0.2, bi=0.1)
    pairs = [
        (CriterionId("E_W", 1, 2), criteria.eval_E_W(st, 1, 2)),
        (CriterionId("E_p", 2, 0), criteria.eval_E_p(st, 2, 0)),
        (CriterionId("M_W"), criteria.eval_M_W(st)),
        (CriterionId("M_p"), criteria.eval_M_p(st)),
        (CriterionId("R_W", 2, 2, 2), criteria.eval_R_W(st, 2, 2, 2)),
        (CriterionId("R_p", 4, 4, 1), criteria.eval_R_p(st, 1, 4, 4)),
    ]
    for cid, direct in pairs:
        via = criteria.evaluate(st, cid)
        assert via.value == direct.value
        assert via.nonclassical == direct.nonclassical
        assert via.id == cid


@pytest.mark.parametrize("call", [
    lambda: criteria.closed_form_noiseless(CriterionId("M_p"), -1.0),
    lambda: criteria.closed_form_bs_output(CriterionId("M_p"), 1.0, 1.5),
    lambda: criteria.closed_form_bs_output(CriterionId("M_p"), math.nan, 0.5),
    lambda: criteria.boundary_R22p(math.nan),
    lambda: criteria.boundary_noise_balanced_R22p(1.0, -0.1),
    lambda: criteria.entanglement_boundary_twin_beam(math.inf, True),
    # integer arguments: no truncation, one rule for the mode
    lambda: CriterionId("R_p", 2, 2, 1.9),
    lambda: CriterionId("R_p", 2, 2, 3),
    lambda: criteria.evaluate(states.twin_beam(1.0), "E_W:2:2",
                              max_order=6.5),
    lambda: moments.moment_table(states.twin_beam(1.0), 2, 2, max_order=4.9),
    lambda: moments.photon_number_distribution(states.twin_beam(1.0),
                                               n_start=4.9),
    lambda: moments.photon_number_distribution(states.twin_beam(1.0),
                                               n_cap=-3),
    lambda: moments.marginal_pnd(states.twin_beam(1.0), 1.5, 2),
    lambda: moments.pnd_table(states.twin_beam(1.0), math.nan, 2),
    lambda: moments.PhotonNumberDistribution.from_table(
        np.eye(3) / 3.0).marginal(0),
    lambda: quantifiers.local_quantifier(states.twin_beam(1.0), 1.5),
    lambda: CriterionId("E_p", None, 0),
    # fields a label leaves out: each would print as the label of another id
    lambda: CriterionId("M_W", 3, 4),
    lambda: CriterionId("M_p", mode=2),
    lambda: CriterionId("E_p", 1, 1, mode=2),
    # ids without a closed form, given as label text
    lambda: criteria.closed_form_noiseless("R_W:2:2:1", 1.0),
    lambda: criteria.closed_form_noiseless("E_W:0:3", 1.0),
    lambda: criteria.closed_form_bs_output("M_W", 1.0, 0.3),
    lambda: criteria.closed_form_bs_output("E_p:0:1", 1.0, 0.3),
    lambda: moments.PhotonNumberDistribution(2, 2, np.zeros(3), 0.0),
    lambda: moments.PhotonNumberDistribution(2, 2, np.zeros((3, 4)), 0.0),
    lambda: CriterionId("X_Y"),
])
def test_parameter_validation(call):
    with pytest.raises(ParameterError):
        call()


def test_evaluate_parses_label_text():
    st = states.beam_splitter(states.twin_beam(0.8, bs=0.2, bi=0.1), 0.7)
    for text in ("R_p:4:4:2", "M_W"):
        assert (criteria.evaluate(st, text)
                == criteria.evaluate(st, CriterionId.parse(text)))
    for text in ("E_p:0", "M_W:1", "R_p:4", "X_p:0:0", "E_W:a:b"):
        with pytest.raises(ParameterError):
            criteria.evaluate(st, text)


def test_ratio_criteria_swap_with_the_modes():
    st = states.twin_beam(0.8, bs=0.5, bi=0.05)
    swapped = states.TwoModeGaussianState(
        st.b2, st.b1, st.c2, st.c1, st.d12, np.conj(st.dbar12)
    )
    for k in (2, 4):
        assert criteria.eval_R_W(st, 2, k, k).value == pytest.approx(
            criteria.eval_R_W(swapped, 1, k, k).value, rel=1e-12
        )
        assert criteria.eval_R_p(st, 2, k, k).value == pytest.approx(
            criteria.eval_R_p(swapped, 1, k, k).value, rel=1e-12
        )


def test_unit_twin_beam_reference_values():
    st = states.twin_beam(1.0)
    assert criteria.eval_E_p(st, 0, 0).value == pytest.approx(-1.0, rel=1e-12)
    assert criteria.eval_E_p(st, 0, 0).nonclassical
    assert criteria.eval_M_p(st).nonclassical
    assert criteria.eval_M_W(st).nonclassical
    assert criteria.eval_E_W(st, 0, 0).nonclassical
    # marginals of a twin beam are thermal, so the single-mode ratios stay up
    assert criteria.eval_R_p(st, 1, 2, 2).value == pytest.approx(0.125, rel=1e-10)
    assert not criteria.eval_R_p(st, 1, 2, 2).nonclassical


def test_thermal_state_fires_no_criterion():
    th = states.twin_beam(0.0, bs=1.0, bi=0.8)
    for cid in criteria.default_catalog():
        res = criteria.evaluate(th, cid)
        assert not res.nonclassical, cid.label()


@pytest.mark.parametrize("text", ["R_W:1:3:1", "R_p:1:3:1", "R_W:2:4:1",
                                  "R_p:2:3:2", "R_W:0:1"])
def test_ratio_pairs_with_l_above_k_are_rejected(text):
    """On the thermal twin_beam(0, bs=1, bi=1) the first three read -2.0,
    -0.125 and -12: pairs with l > k certify classical fields."""
    with pytest.raises(ParameterError, match="1 <= l <= k"):
        CriterionId.parse(text)
    with pytest.raises(ParameterError):
        criteria.evaluate(states.twin_beam(0.0, bs=1.0, bi=1.0), text)
    with pytest.raises(ConfigError):
        TargetSpec.parse(text)


_SOUND_RATIO_IDS = [CriterionId(family, k, l, mode)
                    for family in ("R_W", "R_p") for k in range(1, 6)
                    for l in range(1, k + 1) for mode in (1, 2)]


def _classical_state(bs, bi, t, phi, eta1, eta2):
    """Thermal light through a beam splitter and loss: both keep its P
    function non-negative."""
    return states.attenuate(
        states.beam_splitter(states.twin_beam(0.0, bs=bs, bi=bi), t,
                             phi=phi), eta1, eta2)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bs=st.floats(0.0, 10.0), bi=st.floats(0.0, 10.0),
       t=st.floats(0.0, 1.0), phi=st.floats(-math.pi, math.pi),
       eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
# one thermal mode split in two: W1 = W2 on the classical edge
@example(bs=1.0, bi=0.0, t=0.5, phi=0.0, eta1=1.0, eta2=1.0)
def test_ratio_criteria_never_certify_a_classical_state(bs, bi, t, phi, eta1,
                                                        eta2):
    """Beam splitters and loss keep the P function of thermal light
    non-negative, so no accepted R id may certify the result."""
    state = _classical_state(bs, bi, t, phi, eta1, eta2)
    for cid in _SOUND_RATIO_IDS:
        assert not criteria.evaluate(state, cid).nonclassical, cid.label()


_SOUND_MOMENT_IDS = [CriterionId(family, k1, k2) for family in ("E_W", "E_p")
                     for k1 in range(5) for k2 in range(5)]
_SOUND_MOMENT_IDS += [CriterionId("M_W"), CriterionId("M_p")]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bs=st.floats(0.0, 10.0), bi=st.floats(0.0, 10.0),
       t=st.floats(0.0, 1.0), phi=st.floats(-math.pi, math.pi),
       eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
# one thermal mode split in two: W1 = W2, so every E value is 0 exactly
@example(bs=1.0, bi=0.0, t=0.5, phi=0.0, eta1=1.0, eta2=1.0)
def test_moment_criteria_never_certify_a_classical_state(bs, bi, t, phi,
                                                         eta1, eta2):
    """On a non-negative P function E reads the mean of
    W1**k1 W2**k2 (W1 - W2)**2 and M a Gram determinant, or their
    photon-number analogues, so no E id up to (4, 4) and no M id may
    certify the states of the ratio property."""
    state = _classical_state(bs, bi, t, phi, eta1, eta2)
    for cid in _SOUND_MOMENT_IDS:
        assert not criteria.evaluate(state, cid).nonclassical, cid.label()


def _bits(results):
    """Value and tol of each result as raw float64 bytes, with its verdict."""
    return [(np.float64(r.value).tobytes(), np.float64(r.tol).tobytes(),
             r.nonclassical) for r in results]


# the vacuum, whose tables hold signed zeros, a noiseless twin beam, a
# balanced split of one, and three noisy, split and lossy states
_ORDER_PARAMS = [s.params() for s in (
    states.twin_beam(0.0), states.twin_beam(0.5),
    states.beam_splitter(states.twin_beam(1.0), 0.5),
    *(random_physical_state(np.random.default_rng(seed))
      for seed in range(3)))]


@pytest.mark.parametrize("params", _ORDER_PARAMS)
def test_catalog_bits_do_not_depend_on_the_evaluation_order(params):
    """A state keeps its tables across evaluate calls, so the order in
    which a catalog asks for them must not show in any bit."""
    catalog = criteria.default_catalog()
    state = states.TwoModeGaussianState(*params)
    forwards = [criteria.evaluate(state, cid) for cid in catalog]
    state = states.TwoModeGaussianState(*params)
    backwards = [criteria.evaluate(state, cid) for cid in catalog[::-1]]
    fresh = [criteria.evaluate(states.TwoModeGaussianState(*params), cid)
             for cid in catalog]
    assert _bits(forwards) == _bits(backwards[::-1]) == _bits(fresh)


def _evaluated_state():
    state = random_physical_state(np.random.default_rng(9))
    for cid in criteria.default_catalog():
        criteria.evaluate(state, cid)
    return state


def test_an_evaluated_state_equals_hashes_and_prints_as_a_fresh_one():
    state = _evaluated_state()
    fresh = states.TwoModeGaussianState(*state.params())
    assert state._memo and not fresh._memo
    assert state == fresh
    assert hash(state) == hash(fresh)
    assert repr(state) == repr(fresh)
    for twin in (copy.copy(state), copy.deepcopy(state),
                 pickle.loads(pickle.dumps(state))):
        assert twin == state and not twin._memo


def test_memoized_arrays_are_read_only():
    state = _evaluated_state()
    assert set(state._memo) == {"Q", "W", "p", "W1", "W2", "p1", "p2"}
    for key, array in state._memo.items():
        assert not array.flags.writeable, key
        with pytest.raises(ValueError):
            array.flat[0] = 1.0
    # the public Q polynomial stays the caller's to change
    assert moments.q_polynomial(state).coeffs.flags.writeable


def test_photon_number_tables_stay_out_of_the_memo():
    state = _evaluated_state()
    held = dict(state._memo)
    moments.pnd_table(state, 8, 8)
    moments.marginal_pnd_table(state, 1, 8)
    moments.photon_number_distribution(state)
    assert state._memo.keys() == held.keys()
    assert all(state._memo[key] is held[key] for key in held)


def _counted_builds(monkeypatch):
    """Counts of Q builds and table builds from here on."""
    calls = {"q": 0, "table": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(moments, "_q_coeff_array",
                        counted("q", moments._q_coeff_array))
    monkeypatch.setattr(moments, "_table", counted("table", moments._table))
    return calls


def test_a_catalog_builds_one_q_and_6_tables_per_state(monkeypatch):
    """A kind's first table covers the orders the whole catalog reads, so
    each of the six kinds is built once and M reads the E tables."""
    calls = _counted_builds(monkeypatch)
    state = random_physical_state(np.random.default_rng(5))
    for cid in criteria.default_catalog():
        criteria.evaluate(state, cid)
    assert calls == {"q": 1, "table": 6}


@pytest.mark.parametrize("params", _ORDER_PARAMS)
def test_a_catalog_in_any_order_builds_6_tables_with_the_same_bits(
        monkeypatch, params):
    catalog = criteria.default_catalog()
    shuffled = [catalog[i]
                for i in np.random.default_rng(7).permutation(len(catalog))]
    runs = []
    for ids in (catalog, catalog[::-1], shuffled):
        state = states.TwoModeGaussianState(*params)
        calls = _counted_builds(monkeypatch)
        results = {cid: criteria.evaluate(state, cid) for cid in ids}
        assert calls == {"q": 1, "table": 6}
        runs.append(_bits([results[cid] for cid in catalog]))
    assert runs[0] == runs[1] == runs[2]


def test_ids_beyond_the_catalog_grow_the_held_tables(monkeypatch):
    """Past the catalog's orders a held table grows to the elementwise max
    of the orders asked so far, one build per growing id."""
    ids = [*criteria.default_catalog(),
           *map(CriterionId.parse, ("E_W:3:3", "E_p:4:1", "R_p:8:8:2"))]
    state = random_physical_state(np.random.default_rng(11))
    calls = _counted_builds(monkeypatch)
    results = [criteria.evaluate(state, cid) for cid in ids]
    assert calls == {"q": 1, "table": 9}
    assert {kind: table.shape for kind, table in state._memo.items()} == {
        "Q": (3, 3), "W": (6, 6), "p": (7, 5),
        "W1": (8,), "W2": (8,), "p1": (8,), "p2": (10,)}
    judged = criteria._judge(ids, moments._q(state))
    assert [(np.float64(v).tobytes(), np.float64(t).tobytes())
            for v, t in judged] == [b[:2] for b in _bits(results)]


@pytest.mark.parametrize("params", _ORDER_PARAMS)
def test_a_wide_request_grows_the_held_table_and_keeps_the_bits(params):
    """A wide request grows the held table, as a narrow one does, and
    E_W:2:2 keeps a fresh state's bits after it."""
    state = states.TwoModeGaussianState(*params)
    results = [criteria.evaluate(state, "E_W:2:2"),
               criteria.evaluate(state, "E_W:2:18", max_order=40),
               criteria.evaluate(state, "E_W:2:2")]
    fresh = criteria.evaluate(states.TwoModeGaussianState(*params), "E_W:2:2")
    assert _bits(results[2:]) == _bits(results[:1]) == _bits([fresh])
    assert state._memo["W"].shape[1] >= 21


@pytest.mark.parametrize("bp", [1e40, 1e60])
@pytest.mark.parametrize("label", ["E_W:0:0", "R_W:2:2:1"])
def test_a_lone_request_on_a_bright_beam_stays_silent_and_exact(bp, label):
    """On these beams the catalog-sized tables overflow float64 where the
    requested ones do not; entries beyond the request are never read, so
    their overflow must neither warn nor move a bit of the result."""
    cid = CriterionId.parse(label)
    state = states.twin_beam(bp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = criteria.evaluate(state, cid)
        [(value, tol)] = criteria._judge([cid], moments._q(state))
    assert math.isfinite(result.value)
    assert _bits([result])[0][:2] == (np.float64(value).tobytes(),
                                      np.float64(tol).tobytes())


@pytest.mark.parametrize("build,errstate", [
    (lambda: moments.moment_table(states.twin_beam(1e60), 4, 4, max_order=8),
     {"all": "raise", "under": "ignore"}),
    (lambda: moments.moment_table(states.twin_beam(1e-60), 4, 4, max_order=8),
     {"under": "raise"}),
    (lambda: moments.marginal_pnd_table(states.twin_beam(1e-60), 1, 8),
     {"under": "raise"}),
], ids=["overflow", "underflow", "one_column_underflow"])
def test_a_narrow_joint_table_raises_where_numpy_is_told_to(build, errstate):
    """Narrow tables run on Python floats, which set no floating-point
    flags; one must still raise where NumPy is told to, as the held tables
    rely on that to fall back to the requested orders.  So must a public
    one-column table."""
    with np.errstate(**errstate):
        with pytest.raises(FloatingPointError):
            build()


@pytest.mark.parametrize("read", [
    lambda state: criteria.evaluate(state, "R_W:6:6:1").value,
    lambda state: moments.marginal_intensity_moment(state, 1, 7),
], ids=["R_W:6:6:1", "marginal_intensity_moment"])
def test_an_overflowing_marginal_warns_as_a_joint_table_does(read):
    """A one-column table that overflows float64 is NaN, and says so with
    NumPy's RuntimeWarning as E_W:2:2 on the same beam does."""
    with pytest.warns(RuntimeWarning):
        value = read(states.twin_beam(1e60))
    assert math.isnan(value)


def _assert_state_is_its_lane(params, q, k):
    """The state of ``params`` has lane k of the multi-lane Q build ``q``
    as its Q, and evaluate gives every catalog id the (value, tol) of lane
    k of _judge on ``q``, to the bit, signed zeros included."""
    catalog = criteria.default_catalog()
    state = states.TwoModeGaussianState(*params)
    assert moments._q(state).tobytes() == q[..., k].tobytes()
    results = [criteria.evaluate(state, cid) for cid in catalog]
    assert [(v[k].tobytes(), t[k].tobytes())
            for v, t in criteria._judge(catalog, q)] == [
                b[:2] for b in _bits(results)]


@pytest.mark.parametrize("params", _ORDER_PARAMS)
def test_evaluate_matches_the_batch_judge_bit_for_bit(params):
    """evaluate reads a state's held tables and _judge builds a batch of
    its own, as a scan does; with the six order states stacked as lanes of
    one batch, both must give every id the same bits."""
    lanes = [np.array(field) for field in zip(*_ORDER_PARAMS)]
    _assert_state_is_its_lane(params, moments._q_coeff_array(*lanes),
                              _ORDER_PARAMS.index(params))


@pytest.mark.parametrize("label", ["E_W:2:18", "E_p:2:18"])
def test_a_wide_id_has_the_bits_of_its_lane_of_a_batch(label):
    """A held table is built as the lane of a one-lane batch at any width,
    so evaluate gives the bits of its lane of _judge."""
    cid = CriterionId.parse(label)
    pool = [random_physical_state(np.random.default_rng(seed))
            for seed in range(100)]
    [(values, tols)] = criteria._judge(
        [cid], np.stack([moments._q(state) for state in pool], axis=-1))
    results = [criteria.evaluate(state, cid, max_order=40) for state in pool]
    assert [b[:2] for b in _bits(results)] == [
        (v.tobytes(), t.tobytes()) for v, t in zip(values, tols)]


def test_a_wide_id_raises_where_the_lane_is_not_positive():
    """A lane whose constant term is not positive raises the unbatched
    table's error, which names the constant term."""
    with pytest.raises(EvaluationError,
                       match="not positive at the expansion.*constant term"):
        criteria.evaluate(states.twin_beam(1e9), "E_p:0:16", max_order=40)


def test_a_wide_id_on_a_faint_beam_ignores_underflow_as_a_narrow_one_does():
    """Held tables are built with underflow ignored at any width, so an
    np.errstate that raises on underflow moves no bit of a wide id."""
    expected = criteria.evaluate(states.twin_beam(1e-60), "E_W:2:18",
                                 max_order=40)
    with np.errstate(under="raise"):
        result = criteria.evaluate(states.twin_beam(1e-60), "E_W:2:18",
                                   max_order=40)
    assert _bits([result]) == _bits([expected])


_MEANS = st.floats(0.0, 3.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.floats(0.01, 3.0),
                          st.one_of(st.just(0.0), _MEANS),
                          st.one_of(st.just(0.0), _MEANS),
                          st.floats(0.0, 1.0), st.floats(-math.pi, math.pi),
                          st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
                min_size=2, max_size=5))
def test_a_state_and_its_lane_of_a_batch_agree_to_the_bit(draws):
    """A twin beam, noisy in either mode or neither, sent through a
    splitter and unbalanced loss: the scalar constructors give the state,
    and the array maps, which a scan runs, give all the draws as lanes of
    one batch."""
    params = [states.attenuate(states.beam_splitter(
        states.twin_beam(bp, bs=bs, bi=bi), t, phi=phi), eta1, eta2).params()
        for bp, bs, bi, t, phi, eta1, eta2 in draws]
    bp, bs, bi, t, phi, eta1, eta2 = map(np.array, zip(*draws))
    q = moments._q_coeff_array(*states._attenuate_arrays(
        *states._bs_transform_arrays(*states._twin_beam_arrays(bp, bs, bi),
                                     t, phi), eta1, eta2))
    for k, one in enumerate(params):
        _assert_state_is_its_lane(one, q, k)


def test_verdict_tolerance_scales_with_magnitude():
    res = criteria.eval_E_p(states.twin_beam(1.0), 0, 0)
    assert 0.0 < res.tol < 5e-12
    assert res.max_order_used >= 2


def test_max_order_gate_propagates():
    st = states.twin_beam(1.0)
    with pytest.raises(OrderLimitError):
        criteria.eval_E_W(st, 2, 2, max_order=5)
    res = criteria.eval_E_W(st, 2, 2, max_order=6)
    assert res.max_order_used == 6


def test_saturation_at_strong_pumping():
    """Limits of the two reference criteria for a very strong pump."""
    bp = 1e3
    st = states.twin_beam(bp)
    e = criteria.eval_E_p(st, 0, 0).value
    m = criteria.eval_M_p(st).value
    assert e == pytest.approx(-2.0 * bp / (bp + 1.0), rel=1e-9)
    assert m == pytest.approx(-0.9980029960049941, rel=1e-9)
    assert abs(e - (-2.0)) < 1e-2
    assert abs(m - (-1.0)) < 1e-2


TABLE_BOUNDARY_CASES = [
    # (k1, k2, exact sign-change points of the transmissivity)
    (0, 0, [(1.0 + 1.0 / math.sqrt(2.0)) / 2.0]),
    (1, 1, [
        (1.0 + math.sqrt((5.0 - math.sqrt(17.0)) / 12.0)) / 2.0,
        (1.0 + math.sqrt((5.0 + math.sqrt(17.0)) / 12.0)) / 2.0,
    ]),
    (0, 2, [
        (1.0 + 1.0 / math.sqrt(3.0)) / 2.0,
        (1.0 + math.sqrt(5.0 / 6.0)) / 2.0,
    ]),
    (2, 2, sorted(
        (1.0 + math.sqrt(1.0 - 4.0 * w)) / 2.0
        for w in np.roots([800.0, -340.0, 40.0, -1.0]).real
    )),
]


@pytest.mark.parametrize("k1,k2,exact", TABLE_BOUNDARY_CASES,
                         ids=["00", "11", "02", "22"])
def test_transmissivity_thresholds(k1, k2, exact):
    """Sign-change points of the photon-number criteria across the
    transmissivity range, located on the engine by bisection."""
    def val(t):
        out = states.beam_splitter(states.twin_beam(1.0), t)
        return criteria.eval_E_p(out, k1, k2).value

    for t_star in exact:
        lo = max(0.5 + 1e-6, t_star - 0.01)
        hi = min(1.0, t_star + 0.01)
        found = brentq(val, lo, hi, xtol=1e-13)
        assert found == pytest.approx(t_star, abs=1e-9)


def test_thresholds_do_not_depend_on_pump():
    t_star = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
    for bp in (0.2, 5.0):
        def val(t, bp=bp):
            out = states.beam_splitter(states.twin_beam(bp), t)
            return criteria.eval_E_p(out, 0, 0).value
        found = brentq(val, t_star - 0.01, t_star + 0.01, xtol=1e-13)
        assert found == pytest.approx(t_star, abs=1e-9)


FROZEN_R22_BOUNDARY = {
    0.55: 42.430671438746614,
    0.6: 10.079905338929285,
    0.65: 4.100228148538616,
    0.7: 2.0214560197568784,
    0.75: 1.0759720618966975,
    0.8: 0.5813015972528806,
    0.85: 0.3033580538228065,
    0.9: 0.1431175560233127,
    0.95: 0.05127531641317366,
}


def test_ratio_boundary_frozen_values():
    for t, want in FROZEN_R22_BOUNDARY.items():
        assert criteria.boundary_R22p(t) == pytest.approx(want, rel=1e-9)
    assert criteria.boundary_R22p(0.5) is None
    assert criteria.boundary_R22p(1.0) == pytest.approx(0.0, abs=1e-12)
    # its radicand stays above 0.6, so only t = 1/2 has no boundary
    grid = np.linspace(0.0, 1.0, 1001)
    for t in grid[grid != 0.5]:
        b = criteria.boundary_R22p(float(t))
        assert b is not None and math.isfinite(b) and b >= 0.0, t


@pytest.mark.parametrize("t", [0.6, 0.75, 0.9])
def test_ratio_boundary_matches_engine_bisection(t):
    """The pump level where the marginal ratio criterion changes sign."""
    def val(bp):
        out = states.beam_splitter(states.twin_beam(bp), t)
        return criteria.eval_R_p(out, 1, 2, 2).value

    want = criteria.boundary_R22p(t)
    found = brentq(val, 0.5 * want, 2.0 * want, xtol=1e-14, rtol=1e-12)
    assert found == pytest.approx(want, rel=1e-9)


def test_ratio_criterion_sign_around_boundary():
    t = 0.7
    b_star = criteria.boundary_R22p(t)
    below = states.beam_splitter(states.twin_beam(0.8 * b_star), t)
    above = states.beam_splitter(states.twin_beam(1.25 * b_star), t)
    assert criteria.eval_R_p(below, 1, 2, 2).value < 0.0
    assert criteria.eval_R_p(above, 1, 2, 2).value > 0.0


@pytest.mark.parametrize("bp", [1.0, 100.0, 1000.0])
def test_balanced_splitter_ratio_stays_nonclassical(bp):
    """At the balanced point the ratio criterion never crosses back."""
    assert criteria.boundary_R22p(0.5) is None
    out = states.beam_splitter(states.twin_beam(bp), 0.5)
    res = criteria.eval_R_p(out, 1, 2, 2)
    assert res.value < 0.0
    assert res.nonclassical


def test_noise_boundary_frozen_values():
    assert criteria.boundary_noise_balanced_R22p(5.0, 0.55) == pytest.approx(
        0.18341888579188126, rel=1e-9
    )
    assert criteria.boundary_noise_balanced_R22p(20.0, 0.55) == pytest.approx(
        0.11183089384301326, rel=1e-9
    )


def test_noise_boundary_matches_engine_bisection():
    bp, t = 5.0, 0.55
    x_star = criteria.boundary_noise_balanced_R22p(bp, t)

    def val(x):
        out = states.beam_splitter(states.twin_beam(bp, bs=x, bi=x), t)
        return criteria.eval_R_p(out, 1, 2, 2).value

    found = brentq(val, 0.5 * x_star, 2.0 * x_star, xtol=1e-14, rtol=1e-12)
    assert found == pytest.approx(x_star, rel=1e-8)
    assert val(0.9 * x_star) < 0.0 < val(1.1 * x_star)


def test_negative_noise_boundary_means_no_tolerance():
    """Where the formula goes negative the criterion is already
    non-negative at zero added noise."""
    bp, t = 100.0, 0.55
    assert criteria.boundary_noise_balanced_R22p(bp, t) < 0.0
    out = states.beam_splitter(states.twin_beam(bp), t)
    assert criteria.eval_R_p(out, 1, 2, 2).value > 0.0


def test_entanglement_boundary_values():
    for bp in (0.1, 1.0, 10.0):
        want = math.sqrt(bp * (bp + 1.0)) - bp
        assert criteria.entanglement_boundary_twin_beam(bp, True) == pytest.approx(
            want, rel=1e-12
        )
        assert criteria.entanglement_boundary_twin_beam(bp, False) == 1.0
    # a beam with no pairs is never entangled, whatever the noise
    assert criteria.entanglement_boundary_twin_beam(0.0, False) == 0.0

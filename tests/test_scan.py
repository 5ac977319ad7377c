"""Tests for the parameter-scan engine: grids, verdicts, boundary traces."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import criteria, quantifiers, scan, states
from twinbeam.errors import ConfigError
from twinbeam.scan import AxisSpec, ScanSpec, TargetSpec


def _negativity_spec(count, threads=None):
    return ScanSpec(
        axes=[AxisSpec("bp", 0.0, 5.0, count), AxisSpec("bs", 0.0, 1.0, count)],
        targets=[TargetSpec.parse("negativity"), TargetSpec.parse("E_p:0:0")],
        fixed={},
        noise_mode="balanced",
        threads=threads,
    )


def test_scan_is_deterministic_across_thread_counts():
    """Byte-identical CSV and JSON no matter how the grid is chunked."""
    res1 = scan.run_scan(_negativity_spec(13, threads=1))
    res3 = scan.run_scan(_negativity_spec(13, threads=3))
    for label in ("negativity", "E_p:0:0"):
        assert np.array_equal(res1.values[label], res3.values[label])
        assert np.array_equal(res1.verdicts[label], res3.verdicts[label])
    out1, out3 = io.StringIO(), io.StringIO()
    scan.write_csv(res1, out1)
    scan.write_csv(res3, out3)
    assert out1.getvalue() == out3.getvalue()
    js1, js3 = io.StringIO(), io.StringIO()
    scan.write_boundaries_json(res1, js1)
    scan.write_boundaries_json(res3, js3)
    assert js1.getvalue() == js3.getvalue()


def test_csv_layout():
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 0.1, 2.0, 4), AxisSpec("t", 0.5, 1.0, 3)],
        targets=[TargetSpec.parse("E_p:0:0")],
        fixed={"bs": 0.1},
    ))
    out = io.StringIO()
    scan.write_csv(res, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "bp,t,E_p:0:0,E_p:0:0:nonclassical"
    assert len(lines) == 1 + 4 * 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == 0.5
    assert first[3] in ("0", "1")


def test_boundary_matches_the_separability_curve():
    """The traced negativity contour follows bs = sqrt(bp(bp+1)) - bp."""
    res = scan.run_scan(_negativity_spec(21))
    polylines = res.boundaries["negativity"]
    assert len(polylines) == 1
    pts = polylines[0]
    inside = pts[pts[:, 0] > 0.05]
    predicted = np.sqrt(inside[:, 0] * (inside[:, 0] + 1.0)) - inside[:, 0]
    np.testing.assert_allclose(inside[:, 1], predicted, rtol=0, atol=1e-6)
    assert res.errors == []


def test_verdicts_flag_the_nonclassical_side():
    res = scan.run_scan(_negativity_spec(9))
    vals = res.values["negativity"]
    verd = res.verdicts["negativity"]
    assert np.array_equal(verd.astype(bool), vals > 0.0)


def test_boundaries_json_payload():
    res = scan.run_scan(_negativity_spec(7))
    out = io.StringIO()
    scan.write_boundaries_json(res, out)
    payload = json.loads(out.getvalue())
    assert set(payload) == {
        "axes", "boundaries", "errors", "fixed", "noise_mode", "targets"}
    assert payload["noise_mode"] == "balanced"
    assert [ax["name"] for ax in payload["axes"]] == ["bp", "bs"]
    assert len(payload["axes"][0]["values"]) == 7
    curve = payload["boundaries"]["negativity"][0]
    assert all(len(point) == 2 for point in curve)


def test_single_point_axis_has_no_boundary():
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 1.0, 1.0, 1)],
        targets=[TargetSpec.parse("negativity")],
        fixed={},
    ))
    assert res.values["negativity"].shape == (1,)
    assert res.values["negativity"][0] == pytest.approx(np.sqrt(2.0) + 1.0)
    assert res.boundaries == {}


def test_three_axis_scan():
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 0.5, 1.0, 2), AxisSpec("t", 0.5, 1.0, 2),
              AxisSpec("eta", 0.5, 1.0, 2)],
        targets=[TargetSpec.parse("E_p:0:0")],
        fixed={},
    ))
    assert res.values["E_p:0:0"].shape == (2, 2, 2)
    assert res.boundaries == {}
    assert res.errors == []


def test_balanced_mode_copies_the_signal_noise():
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 1.0, 1.0, 1)],
        targets=[TargetSpec.parse("E_p:0:0")],
        fixed={"bs": 0.2},
        noise_mode="balanced",
    ))
    direct = criteria.eval_E_p(states.twin_beam(1.0, bs=0.2, bi=0.2), 0, 0)
    assert res.values["E_p:0:0"][0] == pytest.approx(direct.value, rel=1e-12)


def test_unbalanced_mode_zeroes_the_idler_noise():
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bs", 0.3, 0.3, 1)],
        targets=[TargetSpec.parse("negativity")],
        fixed={"bp": 1.0},
        noise_mode="unbalanced",
    ))
    direct = quantifiers.negativity(states.twin_beam(1.0, bs=0.3, bi=0.0))
    assert res.values["negativity"][0] == pytest.approx(direct, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bp=st.floats(0.01, 5.0), bs=st.floats(0.0, 1.0),
       bi=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0),
       phi=st.floats(-math.pi, math.pi), eta=st.floats(0.3, 1.0))
def test_scan_agrees_with_the_scalar_evaluators(bp, bs, bi, t, phi, eta):
    """A one-cell scan and the scalar path give the same values and, away
    from the decision threshold, the same verdicts on every target."""
    catalog = criteria.default_catalog()
    targets = [TargetSpec("criterion", criterion=cid) for cid in catalog]
    targets += [TargetSpec.parse(text)
                for text in ("negativity", "i_ncl:1", "i_ncl:2")]
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", bp, bp, 1)], targets=targets,
        fixed={"bs": bs, "bi": bi, "t": t, "phi": phi, "eta": eta},
        threads=1))
    state = states.attenuate(
        states.beam_splitter(states.twin_beam(bp, bs=bs, bi=bi), t, phi=phi),
        eta)

    for cid in catalog:
        want = criteria.evaluate(state, cid)
        label = cid.label()
        margin = 1e-12 * want.tol / criteria.RELATIVE_TOL
        assert abs(res.values[label][0] - want.value) <= margin, label
        if abs(want.value + want.tol) > margin:
            assert res.verdicts[label][0] == want.nonclassical, label

    report = quantifiers.classify(state)
    for label, want, verdict in (
            ("negativity", report.negativity, report.entangled),
            ("i_ncl:1", report.i_ncl_1, report.locally_nonclassical[0]),
            ("i_ncl:2", report.i_ncl_2, report.locally_nonclassical[1])):
        margin = 1e-12 * max(1.0, abs(want))
        assert abs(res.values[label][0] - want) <= margin, label
        if abs(want - quantifiers.ZERO_TOL) > margin:
            assert res.verdicts[label][0] == verdict, label


def test_target_labels_round_trip():
    for text in ("negativity", "E_p:0:0", "E_W:1:2", "M_p", "i_ncl:2"):
        assert TargetSpec.parse(text).label() == text


@pytest.mark.parametrize("build", [
    lambda: AxisSpec("zz", 0.0, 1.0, 5),
    lambda: AxisSpec("bp", 1.0, 2.0, 0),
    lambda: AxisSpec("bp", -1.0, 2.0, 5, scale="log"),
    lambda: AxisSpec("bp", 1.0, 2.0, 5, scale="cubic"),
    lambda: AxisSpec("eta", 0.5, 1.5, 3),
    lambda: ScanSpec(axes=[], targets=[TargetSpec.parse("negativity")],
                     fixed={}),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)], targets=[],
                     fixed={}),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={}, noise_mode="weird"),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3),
                           AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")], fixed={}),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={"bp": 1.0}),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={"bi": 0.1}, noise_mode="balanced"),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={"qq": 1.0}),
    lambda: TargetSpec.parse("Q_z:0:0"),
    lambda: TargetSpec.parse("E_p:0"),
])
def test_invalid_configurations_are_rejected(build):
    with pytest.raises(ConfigError):
        spec = build()
        if isinstance(spec, ScanSpec):
            scan.run_scan(spec)

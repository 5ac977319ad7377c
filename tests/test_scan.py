"""Tests for the parameter-scan engine: grids, verdicts, boundary traces."""

import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import cli, criteria, quantifiers, scan, states, svg
from twinbeam.criteria import CriterionId
from twinbeam.cli import main
from twinbeam.errors import ParameterError
from twinbeam.scan import AxisSpec, ScanSpec, TargetSpec


def _negativity_spec(count, threads=None):
    return ScanSpec(
        axes=[AxisSpec("bp", 0.0, 5.0, count), AxisSpec("bs", 0.0, 1.0, count)],
        targets=[TargetSpec.parse("negativity"), TargetSpec.parse("E_p:0:0")],
        fixed={},
        noise_mode="balanced",
        threads=threads,
    )


def test_a_non_finite_cell_gets_verdict_minus_one_and_an_error_record():
    """Q overflows at bp = 1e100, so E_W:2:2 is NaN there, and the
    partially transposed spectrum cancels to zero at bp = 1e50 and 1e100,
    so the negativity is NaN there; each cell is recorded by its index, and
    the other cells stand."""
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 1.0, 1e100, 3, "log")],
        targets=[TargetSpec.parse("E_W:2:2"), TargetSpec.parse("negativity")]))
    assert math.isnan(res.values["E_W:2:2"][2])
    assert res.verdicts["E_W:2:2"][[0, 2]].tolist() == [1, -1]
    assert res.values["negativity"][0] == pytest.approx(1.0 + math.sqrt(2.0))
    assert np.isnan(res.values["negativity"][1:]).all()
    assert res.verdicts["negativity"].tolist() == [1, -1, -1]
    message = "evaluation produced a non-finite value"
    assert res.errors == [
        {"target": "E_W:2:2", "index": [2], "params": {"bp": 1e100},
         "message": message},
        {"target": "negativity", "index": [1], "params": {"bp": 1e50},
         "message": message},
        {"target": "negativity", "index": [2], "params": {"bp": 1e100},
         "message": message}]


def test_a_chunk_that_raises_is_recorded_once_with_verdict_minus_one(
        monkeypatch):
    """A chunk whose evaluation raises gets one record per target, naming
    its cells by start and stop, and no per-cell records: its cells never
    produced a value.  The chunks that returned stand."""
    evaluate = scan._evaluate

    def failing(spec, coords):
        if (coords["bp"] > 0.5).any():
            raise MemoryError("chunk too large")
        return evaluate(spec, coords)

    monkeypatch.setattr(scan, "_evaluate", failing)
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 0.1, 0.8, 8)],
        targets=[TargetSpec.parse("E_W:2:2"), TargetSpec.parse("negativity")],
        threads=1))
    assert res.errors == [
        {"target": label, "start": start, "stop": start + 2,
         "message": "chunk too large"}
        for start in (4, 6) for label in ("E_W:2:2", "negativity")]
    for label in ("E_W:2:2", "negativity"):
        assert res.verdicts[label][4:].tolist() == [-1] * 4
        assert np.isfinite(res.values[label][:4]).all()


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


def test_one_lane_chunks_give_the_bytes_of_wider_chunks():
    """At threads=3 a 3x3 grid runs as nine one-lane chunks, and every ITP
    step evaluates one lane, on the Python-float and numpy-scalar paths of
    rebased, rsqrt and _spectrum; at threads=1 its chunks hold 2-3 lanes.
    Each table kind (W, p, W2, p1) and both quantifiers must give the same
    CSV and JSON bytes either way."""
    targets = tuple(TargetSpec.parse(label) for label in (
        "E_W:1:1", "E_p:2:2", "R_W:2:2:2", "R_p:2:2", "negativity",
        "i_ncl:1"))
    texts = []
    for threads in (1, 3):
        res = scan.run_scan(ScanSpec(
            axes=[AxisSpec("bp", 0.1, 5.0, 3), AxisSpec("t", 0.5, 1.0, 3)],
            targets=targets, fixed={"bs": 0.1}, threads=threads))
        assert not res.errors
        assert sum(map(len, res.boundaries.values())) >= 5
        out, js = io.StringIO(), io.StringIO()
        scan.write_csv(res, out)
        scan.write_boundaries_json(res, js)
        texts.append((out.getvalue(), js.getvalue()))
    assert texts[0] == texts[1]


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


def test_log_axis_boundary_follows_the_ratio_boundary():
    """Edges along a log-spaced bp axis are refined in log bp; every
    refined vertex lies on the analytic R_p:2:2 boundary."""
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 0.05, 20.0, 40, scale="log"),
              AxisSpec("t", 0.55, 0.95, 30)],
        targets=[TargetSpec.parse("R_p:2:2")]))
    lines = res.boundaries["R_p:2:2:1"]
    assert lines
    points = np.concatenate(lines)
    want = [criteria.boundary_R22p(t) for t in points[:, 1]]
    np.testing.assert_allclose(points[:, 0], want, rtol=1e-7, atol=0.0)


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


def test_an_unknown_noise_mode_names_the_two_modes():
    """An idler without noise is the independent mode with bi omitted; no
    third mode spells it."""
    with pytest.raises(ParameterError, match=r"'unbalanced'; expected one "
                                             r"of independent, balanced$"):
        ScanSpec(axes=[AxisSpec("bs", 0.3, 0.3, 1)],
                 targets=[TargetSpec.parse("negativity")],
                 fixed={"bp": 1.0}, noise_mode="unbalanced")


def test_strong_pump_negativity_matches_the_scalar_path():
    """At bp = 1e3 the scanned negativity uses the same extended precision
    as quantifiers.negativity on twin_beam."""
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 1e3, 1e3, 1)],
        targets=[TargetSpec.parse("negativity")],
        fixed={},
    ))
    direct = quantifiers.negativity(states.twin_beam(1e3))
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


@pytest.mark.parametrize("noise", ["independent", "balanced", "no_bi"])
@pytest.mark.parametrize("with_t", [False, True])
@pytest.mark.parametrize("with_eta", [False, True])
def test_scalar_maps_equal_the_grid_maps(noise, with_t, with_eta):
    """Every grid lane holds exactly the fields of twin_beam, beam_splitter
    and attenuate on that lane's numbers, and in extended precision exactly
    the state's extended copy.  Independent noise with bi omitted reads bi
    as 0."""
    rng = np.random.default_rng(29)
    n = 60
    coords = {"bp": 10.0 ** rng.uniform(-3.0, 3.0, n),
              "bs": np.where(rng.uniform(size=n) < 0.2, 0.0,
                             rng.uniform(0.0, 3.0, n))}
    coords["bp"][0] = 0.0
    if noise == "independent":
        coords["bi"] = rng.uniform(0.0, 3.0, n)
    if with_t:
        coords["t"] = rng.uniform(0.0, 1.0, n)
        coords["t"][:2] = (0.0, 1.0)
        coords["phi"] = rng.uniform(-7.0, 7.0, n)
    if with_eta:
        coords["eta"] = 10.0 ** rng.uniform(-150.0, 0.0, n)
        coords["eta"][:2] = (0.0, 1.0)
    # fixed values switch the maps on; the coordinates override them
    spec = ScanSpec(
        axes=[AxisSpec("bp", 0.0, 1.0, 2)],
        targets=[TargetSpec.parse("negativity")],
        fixed={name: 0.5 for name in coords if name != "bp"},
        noise_mode="balanced" if noise == "balanced" else "independent")
    grid = scan._state_params(spec, coords)
    extended = scan._state_params(spec, coords, np.longdouble)

    for k in range(n):
        lane = {name: float(values[k]) for name, values in coords.items()}
        bi = lane["bs"] if noise == "balanced" else lane.get("bi", 0.0)
        state = states.twin_beam(lane["bp"], bs=lane["bs"], bi=bi)
        if with_t:
            state = states.beam_splitter(state, lane["t"], phi=lane["phi"])
        if with_eta:
            state = states.attenuate(state, lane["eta"])
        for name, got, want in zip(("b1", "b2", "c1", "c2", "d12", "dbar12"),
                                   grid, state.params()):
            assert got[k] == want, (k, name)
        for name, got, want in zip(("b1", "b2", "c1", "c2", "d12", "dbar12"),
                                   extended, state._extended):
            assert got[k] == want, (k, name)


def test_grid_with_a_fixed_first_mode_mean():
    """With bp and bs fixed, b1 is one number for the whole grid while the
    other parameters vary per lane; every cell is still evaluated."""
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bi", 0.0, 1.0, 3), AxisSpec("t", 0.2, 0.8, 3)],
        targets=[TargetSpec.parse("E_p:0:0")], fixed={"bp": 1.0},
        threads=1))
    assert res.errors == []
    cid = criteria.CriterionId.parse("E_p:0:0")
    for i, bi in enumerate(res.axis_values[0]):
        for j, t in enumerate(res.axis_values[1]):
            state = states.beam_splitter(states.twin_beam(1.0, bi=bi), t)
            want = criteria.evaluate(state, cid).value
            assert res.values["E_p:0:0"][i, j] == pytest.approx(want,
                                                                rel=1e-12)


def test_local_target_takes_an_integral_float_mode():
    spec = ScanSpec(axes=[AxisSpec("bp", 0.1, 1.0, 3),
                          AxisSpec("t", 0.5, 1.0, 3)],
                    targets=[TargetSpec("local", mode=1.0)])
    res = scan.run_scan(spec)
    assert list(res.values) == ["i_ncl:1"]
    assert res.errors == []
    assert np.all(res.verdicts["i_ncl:1"] >= 0)
    for i, bp in enumerate(res.axis_values[0]):
        for j, t in enumerate(res.axis_values[1]):
            state = states.beam_splitter(states.twin_beam(bp), t)
            assert res.values["i_ncl:1"][i, j] == pytest.approx(
                quantifiers.local_quantifier(state, 1), rel=1e-12)


def test_target_labels_round_trip():
    for text in ("negativity", "E_p:0:0", "E_W:1:2", "M_p", "i_ncl:2"):
        assert TargetSpec.parse(text).label() == text


def test_a_criterion_target_obeys_the_default_order_limit():
    """E_W:5:5 reads derivative order 12, the default maximum, and is
    accepted; E_W:5:6 reads order 13 and raises crit's error, unwrapped,
    without advising a max_order that scans and boundaries do not take."""
    assert TargetSpec.parse("E_W:5:5").criterion == CriterionId("E_W", 5, 5)
    with pytest.raises(ParameterError, match="order 13 exceeds") as raised:
        TargetSpec.parse("E_W:5:6")
    assert "max_order" not in str(raised.value)
    with pytest.raises(ParameterError):
        TargetSpec("criterion", criterion=CriterionId("R_p", 13, 13))


def test_every_target_equals_the_target_its_label_parses_to():
    built = []
    for kind in ("criterion", "negativity", "local"):
        for cid in (None, CriterionId("E_p"), CriterionId("R_p", 2, 2, 2),
                    CriterionId("M_W")):
            for mode in (1, 2):
                try:
                    target = TargetSpec(kind, criterion=cid, mode=mode)
                except ParameterError:
                    continue
                assert TargetSpec.parse(target.label()) == target
                built.append(target.label())
    assert built == ["E_p:0:0", "R_p:2:2:2", "M_W", "negativity",
                     "i_ncl:1", "i_ncl:2"]


@pytest.mark.parametrize("scale,start,stop", [
    ("linear", 0.3, 2.0), ("linear", 0.0, 1e-300), ("log", 0.1, 10.0),
    ("log", 1e-6, 0.7)])
def test_a_one_point_axis_samples_its_start(scale, start, stop):
    values = AxisSpec("bp", start, stop, 1, scale).values()
    assert values.dtype == np.float64
    assert values.tolist() == [start]


def test_a_one_point_axis_leaves_a_2d_scan_without_boundaries():
    """No cell has four corners, so no boundary is traced, and the SVG
    draws one cell across the one-point axis.  render_svg rejects a
    one-dimensional result and a label the scan does not hold."""
    target = [TargetSpec.parse("E_p:0:0")]
    res = scan.run_scan(ScanSpec(
        axes=[AxisSpec("bp", 0.1, 2.0, 4), AxisSpec("t", 0.5, 0.5, 1)],
        targets=target))
    assert res.boundaries == {"E_p:0:0": []}
    assert ET.fromstring(svg.render_svg(res, "E_p:0:0")).tag.endswith("svg")
    line = scan.run_scan(ScanSpec(axes=[AxisSpec("bp", 0.1, 2.0, 4)],
                                  targets=target))
    with pytest.raises(ParameterError,
                       match="^SVG output needs a scan of two axes, got 1$"):
        svg.render_svg(line, "E_p:0:0")
    with pytest.raises(ParameterError, match="unknown target"):
        svg.render_svg(res, "negativity")


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
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={"t": 0.5, "phi": math.inf}),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={"eta": 1.5}),
    lambda: AxisSpec("bp", 0.0, 1.0, 2.5),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")], threads=1.5),
    lambda: TargetSpec("local", mode=1.5),
    lambda: TargetSpec("local", mode=3),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")],
                     fixed={"phi": 0.5}),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("R_p:2:2"),
                              TargetSpec.parse("R_p:2:2:1")]),
    # a field the target's label leaves out would be dropped silently
    lambda: TargetSpec("negativity", mode=2),
    lambda: TargetSpec("negativity", criterion=CriterionId("E_p")),
    lambda: TargetSpec("local", criterion=CriterionId("E_p")),
    lambda: TargetSpec("criterion", criterion=CriterionId("E_p"), mode=2),
    lambda: TargetSpec("criterion", criterion=CriterionId("R_p", 2, 2, 2),
                       mode=2),
    lambda: AxisSpec("bp", 2.0, 1.0, 3),
    lambda: TargetSpec("bogus"),
    lambda: TargetSpec.parse("i_ncl:3"),
    lambda: ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 3)],
                     targets=[TargetSpec.parse("negativity")], threads=65),
])
def test_invalid_configurations_are_rejected(build):
    with pytest.raises(ParameterError):
        spec = build()
        if isinstance(spec, ScanSpec):
            scan.run_scan(spec)


# -- marching squares and CSV against per-cell references -------------------

def _midpoint_refine(spec, target, axis_values, grid, axis, rel_tol):
    """Stand-in for edge refinement: every crossing edge ends at its
    midpoint."""
    edges = scan._sign_changes(grid, axis)
    points = [values[index] for values, index in zip(axis_values, edges)]
    points[axis] = 0.5 * (points[axis] + axis_values[axis][edges[axis] + 1])
    return edges, np.stack(points, axis=-1)


# the sides each 4-bit case joins, corner k non-classical setting bit k;
# a saddle's pairing depends on whether its centre is non-classical
_CASE_SEGMENTS = {
    1: [("l", "b")], 2: [("b", "r")], 3: [("l", "r")], 4: [("r", "t")],
    6: [("b", "t")], 7: [("l", "t")], 8: [("l", "t")], 9: [("b", "t")],
    11: [("r", "t")], 12: [("l", "r")], 13: [("b", "r")], 14: [("l", "b")],
}
_SADDLE_SEGMENTS = {
    (5, True): [("b", "r"), ("l", "t")], (5, False): [("l", "b"), ("r", "t")],
    (10, True): [("l", "b"), ("r", "t")], (10, False): [("b", "r"), ("l", "t")],
}
# each side's edge key relative to the cell's corner (i, j)
_SIDE_KEYS = {"b": ("h", 0, 0), "t": ("h", 0, 1), "l": ("v", 0, 0),
              "r": ("v", 1, 0)}


def _per_cell_trace(axis_values, grid):
    """Marching squares one cell at a time by the 4-bit case table, chained
    by removing each segment as it is walked: open lines from their smaller
    end, then loops from their smallest key toward its smaller neighbour."""
    xs, ys = axis_values
    points = {}
    for axis, kind in enumerate(("h", "v")):
        (ii, jj), pts = _midpoint_refine(None, None, axis_values, grid, axis,
                                         None)
        for i, j, pt in zip(ii, jj, pts):
            points[(kind, int(i), int(j))] = tuple(pt)
    segments = set()
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = (grid[i, j], grid[i + 1, j],
                       grid[i + 1, j + 1], grid[i, j + 1])
            if not all(np.isfinite(v) for v in corners):
                continue
            case = sum(2 ** k for k, v in enumerate(corners) if v <= 0.0)
            center = float(np.mean(corners)) <= 0.0
            for sides in _SADDLE_SEGMENTS.get((case, center),
                                              _CASE_SEGMENTS.get(case, [])):
                keys = [(kind, i + di, j + dj)
                        for kind, di, dj in map(_SIDE_KEYS.get, sides)]
                segments.add(frozenset(keys))
    degree = {}
    for seg in segments:
        for key in seg:
            degree[key] = degree.get(key, 0) + 1
    lines = []
    for start in (sorted(k for k, d in degree.items() if d == 1)
                  + sorted(degree)):
        path = [start]
        while True:
            ahead = sorted(k for seg in segments if path[-1] in seg
                           for k in seg if k != path[-1])
            if not ahead:
                break
            segments.remove(frozenset((path[-1], ahead[0])))
            path.append(ahead[0])
        if len(path) > 1:
            lines.append(np.array([points[k] for k in path]))
    return lines


def _cell(c0, c1, c2, c3):
    """A one-cell grid with corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)."""
    return np.array([[c0, c3], [c1, c2]], dtype=float)


def _random_grid(seed, shape=(13, 11)):
    """Small integers, so saddles and exact zeros are common, plus NaNs."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-2, 3, size=shape).astype(float)
    grid[rng.random(shape) < 0.05] = np.nan
    return grid


_TRACE_GRIDS = {
    # saddle case 5 (corners 0 and 2 non-classical) with each centre sign
    "case5_centre_nonclassical": _cell(-2.0, 1.0, -2.0, 1.0),
    "case5_centre_classical": _cell(-1.0, 2.0, -1.0, 2.0),
    "case10_centre_nonclassical": _cell(1.0, -2.0, 1.0, -2.0),
    "case10_centre_classical": _cell(2.0, -1.0, 2.0, -1.0),
    # centre exactly zero: a tie, so non-classical
    "case5_centre_tie": _cell(-1.0, 1.0, -1.0, 1.0),
    # the centre sign depends on the order in which the corners are summed
    "case5_rounded_centre": _cell(-1e16 - 2, 1.0, -1.0, 1e16 + 2),
    "case10_rounded_centre": _cell(1e16 + 2, -1.0, 1.0, -1e16),
    # a tiny positive sum whose quarter rounds to zero
    "case5_underflowing_centre": _cell(0.0, 5e-324, 0.0, 5e-324),
    "nan_corner": np.array([[-1.0, 1.0, 1.0, -1.0],
                            [1.0, np.nan, -1.0, 1.0],
                            [-1.0, 1.0, 1.0, 1.0]]),
    "exact_zeros": np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, -0.0],
                             [0.0, 1.0, 2.0, 1.0]]),
    "random_0": _random_grid(0),
    "random_1": _random_grid(1),
    "random_2": _random_grid(2, (7, 19)),
}


@pytest.mark.parametrize("name", sorted(_TRACE_GRIDS))
def test_marching_squares_matches_the_per_cell_reference(monkeypatch, name):
    grid = _TRACE_GRIDS[name]
    rows, cols = grid.shape
    axis_values = (np.geomspace(0.1, 3.0, rows), np.linspace(0.5, 1.0, cols))
    monkeypatch.setattr(scan, "_refine_edges", _midpoint_refine)
    got = scan._trace_boundaries(None, None, axis_values, grid)
    want = _per_cell_trace(axis_values, grid)
    assert want  # every grid here has a contour
    assert len(got) == len(want)
    for line_got, line_want in zip(got, want):
        assert np.array_equal(line_got, line_want)


def test_saddle_centres_pick_the_pairing(monkeypatch):
    """A non-classical centre joins the two non-classical corners, so the
    contour cuts off the classical ones, and the other way round."""
    monkeypatch.setattr(scan, "_refine_edges", _midpoint_refine)
    axis_values = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def cuts(name):
        lines = scan._trace_boundaries(None, None, axis_values,
                                       _TRACE_GRIDS[name])
        return sorted(sorted(map(tuple, line.tolist())) for line in lines)

    around_corners_10_and_01 = [[(0.0, 0.5), (0.5, 1.0)],
                                [(0.5, 0.0), (1.0, 0.5)]]
    around_corners_00_and_11 = [[(0.0, 0.5), (0.5, 0.0)],
                                [(0.5, 1.0), (1.0, 0.5)]]
    assert cuts("case5_centre_nonclassical") == around_corners_10_and_01
    assert cuts("case5_centre_classical") == around_corners_00_and_11
    assert cuts("case10_centre_nonclassical") == around_corners_00_and_11
    assert cuts("case10_centre_classical") == around_corners_10_and_01


def test_a_one_cell_island_is_one_loop_closed_once(monkeypatch):
    monkeypatch.setattr(scan, "_refine_edges", _midpoint_refine)
    grid = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])
    axis_values = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    [line] = scan._trace_boundaries(None, None, axis_values, grid)
    assert line.tolist() == [[0.5, 1.0], [1.0, 0.5], [1.5, 1.0], [1.0, 1.5],
                             [0.5, 1.0]]


def _fmt(value):
    if np.isnan(value):
        return "nan"
    return format(float(value), ".12g")


def _per_row_csv(result):
    """The CSV writer formatting one cell at a time."""
    labels = [t.label() for t in result.spec.targets]
    header = [a.name for a in result.spec.axes]
    for lab in labels:
        header += [lab, f"{lab}:nonclassical"]
    lines = [",".join(header)]
    coords = [c.reshape(-1) for c in
              np.meshgrid(*result.axis_values, indexing="ij")]
    for row in range(int(np.prod(result.shape))):
        cells = [_fmt(c[row]) for c in coords]
        for lab in labels:
            cells.append(_fmt(result.values[lab].reshape(-1)[row]))
            cells.append(str(int(result.verdicts[lab].reshape(-1)[row])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_matches_the_per_row_reference():
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300, 0.1 + 0.2,
               0.0, -2.5, 123456789.123456789, -np.nan, 5e-324]
    spec = ScanSpec(axes=[AxisSpec("bp", 0.0, 1.0, 4),
                          AxisSpec("t", 0.0, 1.0, 3)],
                    targets=[TargetSpec.parse("E_p:0:0"),
                             TargetSpec.parse("negativity")])
    values = np.array(special).reshape(4, 3)
    verdicts = np.resize(np.array([-1, 0, 1], dtype=np.int8), 12)
    result = scan.ScanResult(
        spec=spec,
        axis_values=(np.array([-0.0, 0.1 + 0.2, 1e-300, 1e300]),
                     np.array([1.0 / 3.0, 0.5, 1.0])),
        values={"E_p:0:0": values, "negativity": values[::-1, ::-1].copy()},
        verdicts={"E_p:0:0": verdicts.reshape(4, 3),
                  "negativity": verdicts[::-1].reshape(4, 3)},
        boundaries={}, errors=[])
    out = io.StringIO()
    scan.write_csv(result, out)
    assert out.getvalue() == _per_row_csv(result)
    assert "nan,-1" in out.getvalue() and "-inf" in out.getvalue()


@pytest.mark.parametrize("texts", [("negativity",),
                                   ("negativity", "i_ncl:2")])
def test_negativity_needs_no_criterion_tables(monkeypatch, texts):
    """Scans without criterion targets never build the Q coefficients."""
    spec = ScanSpec(axes=[AxisSpec("bp", 0.1, 3.0, 5),
                          AxisSpec("bs", 0.0, 1.0, 4)],
                    targets=[TargetSpec.parse(t) for t in texts],
                    noise_mode="balanced", threads=1)
    coords = {"bp": np.linspace(0.1, 3.0, 20), "bs": np.linspace(0, 1, 20)}
    want = scan._evaluate(spec, coords)

    def refuse(*args):
        raise AssertionError("Q coefficients built for no criterion")

    monkeypatch.setattr(scan, "_q_coeff_array", refuse)
    got = scan._evaluate(spec, coords)
    assert len(got) == len(want)
    for arrays_got, arrays_want in zip(got, want):
        for a, b in zip(arrays_got, arrays_want):
            assert np.array_equal(a, b)


# -- edge refinement against the bisection it replaced ----------------------

def _reference_bisection(indicator, lo, hi, lo_sign, log_spacing, rel_tol):
    """The batched bisection that edge refinement used before ITP.  Returns,
    per lane, the evaluations that lane needs to meet the stopping rule on
    its own."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    needed = np.full(lo.shape, scan.BISECTION_MAX_ITER)
    for step in range(scan.BISECTION_MAX_ITER):
        mid = np.sqrt(lo * hi) if log_spacing else 0.5 * (lo + hi)
        f_mid = indicator(mid)
        mid_sign = np.where(np.isfinite(f_mid), f_mid <= 0.0, lo_sign)
        take_lo = mid_sign == lo_sign
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
        span = hi - lo
        scale = np.maximum(np.abs(lo), np.abs(hi))
        met = span <= rel_tol * np.maximum(scale, 1e-30)
        needed = np.where(met, np.minimum(needed, step + 1), needed)
        if np.all(met):
            break
    return needed


def _nan_patch(s):
    """Straight, with a non-finite patch on lo's side next to the crossing."""
    return np.where((s > -0.3) & (s <= 0.0), np.nan, s)


# indicators of s = (x - root) / width, negated on every other lane
_SHAPES = {
    "straight": lambda s: s,
    "smooth": lambda s: np.expm1(3.0 * s),
    "triple-root": lambda s: s ** 3,
    "step": lambda s: np.where(s > 0.0, 1.0, -1.0),
    "flat-then-steep": lambda s: np.expm1(40.0 * s),
    "nan-patch": _nan_patch,
    "lo=0": lambda s: np.tanh(4.0 * s),
}


def _refine_brackets(shape, log_spacing, lanes=400):
    """Seeded brackets of one indicator shape, refined by _bisect with the
    tracer's tolerance.  Returns the crossings, the true roots, the
    evaluations per lane and the bisection count per lane; refine(picked)
    runs the lanes ``picked`` alone."""
    rng = np.random.default_rng(sorted(_SHAPES).index(shape))
    if shape == "lo=0":
        lo = np.zeros(lanes)
    elif log_spacing:
        lo = 10.0 ** rng.uniform(-3.0, 2.0, lanes)
    else:
        lo = rng.uniform(0.0, 5.0, lanes)
    width = (lo if log_spacing else 1.0) * rng.uniform(1e-3, 1.0, lanes)
    hi = lo + width
    root = lo + width * rng.uniform(0.35 if shape == "nan-patch" else 0.02,
                                    0.98, lanes)
    sign = np.where(np.arange(lanes) % 2, -1.0, 1.0)
    rel_tol = scan.BISECTION_REL_TOL

    def values(x, lanes):
        return sign[lanes] * _SHAPES[shape]((x - root[lanes]) / width[lanes])

    every = np.arange(lanes)
    f_lo, f_hi = values(lo, every), values(hi, every)

    def refine(picked):
        counts = np.zeros(lanes, dtype=int)

        def indicator(x, active):
            counts[picked[active]] += 1
            return values(x, picked[active])

        got = scan._bisect(indicator, lo[picked], hi[picked], f_lo[picked],
                           f_hi[picked], log_spacing, rel_tol)
        return got, counts[picked]

    needed = _reference_bisection(lambda x: values(x, every), lo, hi,
                                     f_lo <= 0.0, log_spacing, rel_tol)
    got, counts = refine(every)
    return got, root, counts, needed, refine


@pytest.mark.parametrize("shape,log_spacing", [
    (shape, log_spacing) for shape in sorted(_SHAPES)
    for log_spacing in (False, True)
    if not (shape == "lo=0" and log_spacing)])  # log axes start above 0
def test_refinement_keeps_the_worst_case_of_bisection(shape, log_spacing):
    """On every lane ITP needs at most two evaluations beyond bisection, and
    its crossing, the bracket midpoint, meets bisection's stopping rule; a
    lane gives the same point and count alone as in a batch of 400."""
    got, root, counts, needed, refine = _refine_brackets(shape, log_spacing)
    assert np.all(counts <= needed + 2)
    half = 0.5 * scan.BISECTION_REL_TOL * root * (1.0 + 1e-6)
    assert np.all(np.abs(got - root) <= half)
    for lane in (0, 1, int(np.argmax(counts - needed))):
        alone, count = refine(np.array([lane]))
        assert alone[0] == got[lane] and count[0] == counts[lane]


@pytest.mark.parametrize("log_spacing", [False, True], ids=["linear", "log"])
def test_refinement_closes_in_on_a_straight_crossing(log_spacing):
    """Regula falsi lands next to the crossing of a straight indicator, and
    the point kept inside the bracket closes it: at most 8 evaluations on
    every lane, where bisection needs 20 to 35."""
    _, _, counts, needed, _ = _refine_brackets("straight", log_spacing)
    assert counts.max() <= 8 and needed.min() >= 20


@pytest.mark.parametrize("flags,name,values", [
    (["--family", "E_p", "--axis", "t"], "--bp", np.linspace(0.1, 5.0, 15)),
    (["--family", "negativity", "--axis", "bs", "--noise-mode", "balanced"],
     "--bp", np.linspace(0.1, 5.0, 15)),
    (["--family", "R_p", "--k1", "2", "--k2", "2", "--axis", "bp"], "--t",
     np.linspace(0.65, 0.9, 15)),
], ids=["E_p-over-t", "negativity-over-bs", "R_p-over-bp"])
def test_boundary_sweeps_refine_in_a_few_evaluations(monkeypatch, capsys,
                                                      flags, name, values):
    """Each sweep kind of the scan_map benchmark, over its range there,
    evaluates the grid, at most 8 refinement points and the value at the
    crossing; bisection took 19 to 26 refinement points."""
    calls = []
    evaluate = scan._evaluate

    def counted(spec, coords):
        calls.append(coords)
        return evaluate(spec, coords)

    # the command line calls the function by its own imported name
    monkeypatch.setattr(scan, "_evaluate", counted)
    monkeypatch.setattr(cli, "_evaluate", counted)
    for value in values:
        calls.clear()
        assert main(["boundary", *flags, name, repr(float(value))]) == 0
        assert len(json.loads(capsys.readouterr().out)["crossings"]) == 1
        assert len(calls) - 2 <= 8

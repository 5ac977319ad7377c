"""Tests of the benchmark itself (not part of the library's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

The counting test runs one untraced and one traced pass of every workload,
twice from the same seed, so it takes about half a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from twinbeam.errors import TruncationError  # noqa: E402

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Runner, layer_metrics  # noqa: E402
from workloads import WORKLOADS, ScanMap  # noqa: E402


def _traced_counts(name, seed):
    """Counts of the first traced pass, after one untraced pass, as in a
    ``--trace 1`` run."""
    workload = WORKLOADS[name](np.random.default_rng(seed))
    workload.warm()
    workload.run_pass(Runner().run_op)
    tracer = Tracer()
    tracer.install()
    try:
        runner = Runner(tracer)
        workload.run_pass(runner.run_op)
    finally:
        tracer.uninstall()
    # the passes hold no failing input; known failures are defect probes
    assert all(op.error is None for op in runner.ops)
    metrics = layer_metrics(tracer, runner.ops)
    return {k: v for k, v in metrics.items() if isinstance(v, int)}, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name):
    first, tracer = _traced_counts(name, 7)
    second, _ = _traced_counts(name, 7)
    assert first == second
    assert any(first.values())
    # the wrappers are gone again after uninstall
    from twinbeam import moments, series
    assert not hasattr(series.BivariateSeries.rsqrt, "__wrapped__")
    assert not hasattr(moments.pnd_table, "__wrapped__")
    assert all(s is not None for s in tracer.spans)


def test_self_times_partition_the_span():
    tracer = Tracer()
    # parent 0..10 with children 1..4 and 3..6 (overlapping, other thread)
    tracer.spans = [("scan.run_scan", 0.0, 10.0, None),
                    ("series.rsqrt", 1.0, 4.0, 0),
                    ("series.rsqrt", 3.0, 6.0, 0)]
    selfs = tracer.self_times()
    assert selfs["scan.run_scan"] == pytest.approx(5.0)
    assert selfs["series.rsqrt"] == pytest.approx(6.0)


def test_typed_error_is_a_failed_operation():
    runner = Runner()

    def overcap():
        raise TruncationError("mode 1 needs more than 4096 terms")

    value, op = runner.run_op("rung", overcap, item=True)
    assert value is None and op.error.startswith("TruncationError")
    assert not op.untyped and not op.mismatch


def test_defect_probes_are_typed_errors_or_pass_their_checks():
    workload = WORKLOADS["pnd_ladder"](np.random.default_rng(7))
    runner = Runner()
    workload.probe_defects(runner.run_op)
    assert len(runner.ops) == len(workload.probes)
    assert not any(op.mismatch or op.untyped for op in runner.ops)


def test_sweep_check_flags_a_wrong_crossing():
    out = json.dumps({"crossings": [{"x": 0.5, "value": 0.0}]})
    assert ScanMap._check_sweep(0, out, "", 0.5) is None
    assert ScanMap._check_sweep(0, out, "", 0.5 + 1e-5) is not None
    assert ScanMap._check_sweep(2, out, "boom", 0.5) is not None


def test_parse_importtime():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.signal",
        "import time:       400 |        450 |   twinbeam.series",
        "import time:        10 |       1000 | twinbeam",
    ])
    totals = run.parse_importtime(report)
    assert totals["twinbeam"] == pytest.approx(1000e-6)
    assert totals["scipy"] == pytest.approx(350e-6)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_states",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

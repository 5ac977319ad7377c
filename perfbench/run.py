"""twinbeam benchmark: one workload, one seed, end-to-end or per-layer.

  python3 perfbench/run.py --workload scan_map --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src`` directory, in child processes started here:

* ``--trace 0`` times set-up in fresh interpreters (median of
  SETUP_SAMPLES), then runs untraced passes for ``--seconds`` and reports
  the end-to-end metrics of BENCHMARK.json.
* ``--trace 1`` runs untraced and traced passes alternately and reports the
  per-layer metrics, plus the import profile of ``python -X importtime``.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (environment, sample counts, per-pass times) is written to
``perfbench/out/``.  The exit code is 0 whenever a result is printed, and
non-zero without a result when the benchmark cannot run.

This file uses the standard library only, so it can report a missing or
broken library instead of failing to start.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("scan_map", "catalog_states", "pnd_ladder")
SETUP_SAMPLES = 3           # fresh set-ups per untraced run; median reported
TOTAL_BUDGET_S = 170.0      # the whole run, every child process included
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NO_PINNING = ("the sandbox cannot pin CPU frequency or isolate cores; "
              "timings include interference from other tenants")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    """Environment of every child: the checkout's sources first, the
    library's own thread default (TWINBEAM_THREADS unset), BLAS threads
    capped at the usable cores."""
    env = dict(os.environ)
    env.pop("TWINBEAM_THREADS", None)
    nproc = _nproc()
    for var in BLAS_VARS:
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    """SHA-256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout's own repository; None when the checkout is
    not the top of a git work tree (an exported copy inside another
    repository must not report that repository's commit)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Children:
    """Starts the worker processes and keeps every one inside the run's
    time budget; a child that overruns is killed and waited for."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s
        self.env = child_env()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left

    def worker(self, args, setup_only=False):
        """Run worker.py; return (set-up seconds, result dict or None)."""
        cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
        if setup_only:
            cmd.append("--setup-only")
        watchdog = None
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE)
        try:
            watchdog = threading.Timer(self._remaining(), proc.kill)
            watchdog.start()
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate()
        finally:
            if watchdog is not None:
                watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}): "
                             f"{' '.join(cmd)}")
        if setup_only:
            return setup, None
        lines = rest.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return setup, json.loads(lines[-1])

    def import_profile(self) -> dict:
        """Cumulative import time of twinbeam and of scipy, in seconds,
        from ``python -X importtime`` in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twinbeam"],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError("import twinbeam failed")
        return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """Sum the cumulative times of the outermost ``twinbeam`` and ``scipy``
    entries of an importtime report (entries follow their children, and
    nesting shows as indentation)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[1]) * 1e-6))
    totals = {"twinbeam": 0.0, "scipy": 0.0}
    # walk in reverse (parents first) with a stack of open ancestors
    ancestors = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        root = name.split(".", 1)[0]
        if root in totals and root not in ancestors:
            totals[root] += cumulative
        ancestors.append(root)
    return totals


def quantile(values, q):
    """Quantile q (a multiple of 0.01) with the default method of
    ``statistics.quantiles``; a single sample is its own quantile."""
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[int(round(q * 100)) - 1]


def end_to_end(setups, result) -> dict:
    """The metrics of BENCHMARK.json's end_to_end list.  Pass and operation
    times are calibrated against the reference kernel (see worker.py);
    set-up time is plain wall time."""
    passes = result["passes"]
    items = [s for p in passes for s in p["cal_items"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_cal_s": (statistics.median(p["cal_seconds"] for p in passes),
                       "s"),
        "op_cal_ms_mean": (1e3 * statistics.fmean(items), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def aliases(workload, result) -> list:
    """Latency percentiles of the workload's operations (calibrated), and
    its metrics under the names users know them by, as plain wall times:
    (name, value, unit, sample count)."""
    passes = result["passes"]
    cal = [s for p in passes for s in p["cal_items"]]
    lines = [("op_cal_ms_p50", 1e3 * statistics.median(cal), "ms", len(cal)),
             ("op_cal_ms_p90", 1e3 * quantile(cal, 0.90), "ms", len(cal))]
    kinds = {}
    for p in passes:
        for kind, times in p["kinds"].items():
            kinds.setdefault(kind, []).extend(times)
    if workload == "scan_map":
        maps, sweeps = kinds["map"], kinds["sweep"]
        lines.append(("map_s", statistics.median(maps), "s", len(maps)))
        lines.append(("boundary_ms", 1e3 * statistics.median(sweeps), "ms",
                      len(sweeps)))
    elif workload == "catalog_states":
        st = kinds["state"]
        lines.append(("states_per_s", len(st) / sum(st), "1/s", len(st)))
        lines.append(("state_ms_p50", 1e3 * statistics.median(st), "ms",
                      len(st)))
        lines.append(("state_ms_p99", 1e3 * quantile(st, 0.99), "ms",
                      len(st)))
    else:
        lines.append(("pnd_pass_s",
                      statistics.median(p["seconds"] for p in passes), "s",
                      len(passes)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if not (SRC / "twinbeam" / "__init__.py").is_file():
            raise BenchError(f"no twinbeam sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        OUT.mkdir(exist_ok=True)
        children = Children(TOTAL_BUDGET_S)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
        setups = []
        if args.trace:
            worker_args += ["--spans", str(OUT / f"spans-{tag}.json.gz")]
            imports = children.import_profile()
        else:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(children.worker(worker_args,
                                              setup_only=True)[0])
        setup, result = children.worker(worker_args)
        setups.append(setup)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = {
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["env"]["numpy"],
        "scipy": result["env"]["scipy"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "blas_threads": children.env[BLAS_VARS[0]],
        "TWINBEAM_THREADS": "unset",
        "cpu_pinning": NO_PINNING,
    }
    correct = result["mismatches"] == 0 and result["untyped"] == 0
    attempted, failed = result["attempted"], result["failed"]

    if args.trace:
        layers = dict(result["layers"])
        layers["import.twinbeam_s"] = imports["twinbeam"]
        layers["import.scipy_s"] = imports["scipy"]
        metrics = {m["name"]: (layers[m["name"]], m["unit"])
                   for m in spec["per_layer"]}
    else:
        metrics = end_to_end(setups, result)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for key, value in env.items():
        print(f"env {key}={value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"sample setup_s n={len(setups)} passes "
              f"n={len(result['passes'])} ops n="
              f"{sum(len(p['items']) for p in result['passes'])}")
        for name, value, unit, n in aliases(args.workload, result):
            print(f"metric {name} {value:.6g} {unit} (n={n})")
    print(f"fail_ratio {failed / attempted:.6g} (failed {failed} of "
          f"{attempted} operations; {result['mismatches']} output "
          f"mismatches, {result['untyped']} untyped errors)")
    for example in result["failure_examples"]:
        print(f"failure {example}")
    defects = result["known_defects"]
    if defects["attempted"]:
        print(f"known_defects {defects['failed']} of {defects['attempted']} "
              f"probes raise (inputs that fail today, run once outside the "
              f"timed passes and not counted in fail_ratio)")
        for error in defects["errors"]:
            print(f"known_defect {error}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setups": setups, "correct": correct, "attempted": attempted,
              "failed": failed, "worker": result,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

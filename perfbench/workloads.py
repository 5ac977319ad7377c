"""The three benchmark workloads: seeded inputs, one pass, output checks.

Every workload is a closed loop: one caller, each operation starts when the
previous one ends.  A workload object is built from a seed (input
generation), ``warm`` fills the caches a user's session fills once, and
``run_pass`` performs one pass through ``run_op``, which times each
operation and turns a raised ``TwinbeamError`` into a failed operation.  The
checks run outside the timed region and mark an operation failed on any
mismatch with its independent reference.  ``probe_defects`` runs, once per
run and outside the passes, the inputs that are known to fail today, so the
passes themselves carry no failing operation.

Inputs depend only on the seed; the same seed gives the same inputs, so
every count the traced run records repeats exactly.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from twinbeam import cli, criteria, moments, oracle, quantifiers, scan, states
from twinbeam.criteria import CriterionId
from twinbeam.errors import ParameterError
from twinbeam.states import TwinBeamParams

REL_TOL = 1e-8         # closed forms of criteria, oracle against engine
CROSSING_TOL = 1e-6    # boundary sweep crossings, relative
PND_TAIL_TOL = 1e-10   # photon_number_distribution's default tail_tol


def _agree(got, want, rel):
    """Relative comparison that falls back to absolute at a zero reference
    (the acceptance suite's rule)."""
    if abs(want) > 1e-12:
        return abs(got - want) <= rel * abs(want)
    return abs(got) <= rel


# -- scan_map -----------------------------------------------------------------

class ScanMap:
    """A 200x200 (bp, t) map of the noiseless twin beam after a beam
    splitter, written as CSV and boundary JSON, plus 1-D boundary sweeps
    through the command line."""

    name = "scan_map"
    TARGETS = ("E_p:2:2", "E_W:2:2", "M_p", "R_p:6:6", "negativity")
    CHECKED = ("E_p:2:2", "M_p")
    GRID = 200
    SWEEPS_PER_KIND = 20
    min_passes = 3          # 3 x 60 sweeps: at least 100 sweep latencies
    trace_min_passes = 2

    def __init__(self, rng):
        bp_hi = float(rng.uniform(4.0, 6.0))
        self.spec = scan.ScanSpec(
            axes=(scan.AxisSpec("bp", 0.05, bp_hi, self.GRID),
                  scan.AxisSpec("t", 0.5, 1.0, self.GRID)),
            targets=tuple(scan.TargetSpec.parse(t) for t in self.TARGETS))
        kinds = []
        for bp in rng.uniform(0.1, 5.0, self.SWEEPS_PER_KIND):
            kinds.append((["boundary", "--family", "E_p", "--axis", "t",
                           "--bp", repr(float(bp))],
                          (1.0 + 1.0 / math.sqrt(2.0)) / 2.0))
        for bp in rng.uniform(0.1, 5.0, self.SWEEPS_PER_KIND):
            bp = float(bp)
            kinds.append((["boundary", "--family", "negativity", "--axis",
                           "bs", "--noise-mode", "balanced",
                           "--bp", repr(bp)],
                          math.sqrt(bp * (bp + 1.0)) - bp))
        for t in rng.uniform(0.65, 0.9, self.SWEEPS_PER_KIND):
            t = float(t)
            kinds.append((["boundary", "--family", "R_p", "--k1", "2",
                           "--k2", "2", "--axis", "bp", "--t", repr(t)],
                          criteria.boundary_R22p(t)))
        order = rng.permutation(len(kinds))
        self.sweeps = [kinds[i] for i in order]
        self.first_output = None

    def warm(self):
        pass

    def probe_defects(self, run_op):
        """No input of this workload is known to fail."""

    def _map(self):
        result = scan.run_scan(self.spec)
        csv_out, json_out = io.StringIO(), io.StringIO()
        scan.write_csv(result, csv_out)
        scan.write_boundaries_json(result, json_out)
        return result, csv_out.getvalue(), json_out.getvalue()

    def _check_map(self, result, csv_text, json_text):
        if result.errors:
            return f"{len(result.errors)} grid cells failed"
        if self.first_output is None:
            bps, ts = result.axis_values
            for label in self.CHECKED:
                cid = CriterionId.parse(label)
                values = result.values[label]
                for i, bp in enumerate(bps):
                    for j, t in enumerate(ts):
                        want = criteria.closed_form_bs_output(cid, bp, t)
                        if not _agree(values[i, j], want, REL_TOL):
                            return (f"{label} at bp={bp}, t={t}: "
                                    f"{values[i, j]!r} vs {want!r}")
            self.first_output = (csv_text, json_text)
            return None
        if csv_text != self.first_output[0]:
            return "CSV differs from the first pass"
        if json_text != self.first_output[1]:
            return "boundary JSON differs from the first pass"
        return None

    @staticmethod
    def _sweep(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _check_sweep(code, out, err, want):
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        crossings = json.loads(out)["crossings"]
        if len(crossings) != 1:
            return f"{len(crossings)} crossings, expected 1"
        x = crossings[0]["x"]
        if abs(x - want) > CROSSING_TOL * abs(want):
            return f"crossing at {x!r}, expected {want!r}"
        return None

    def run_pass(self, run_op):
        value, op = run_op("map", self._map)
        if value is not None:
            op.check(self._check_map(*value))
        for argv, want in self.sweeps:
            value, op = run_op("sweep", lambda: self._sweep(argv), item=True)
            if value is not None:
                op.check(self._check_sweep(*value, want))


# -- catalog_states ---------------------------------------------------------

class CatalogStates:
    """The 32-criterion default catalog plus classify on a pool of seeded
    states: noiseless twin beams, noiseless twin beams after a beam
    splitter, and noisy twin beams after a beam splitter and loss."""

    name = "catalog_states"
    POOL = 1000
    PER_PASS = 100
    min_passes = 10         # every state of the pool at least once
    trace_min_passes = 2

    def __init__(self, rng):
        self.pool = []
        for k in range(self.POOL):
            kind = k % 3
            if kind == 0:
                self.pool.append(("twin", {"bp": 10.0 ** rng.uniform(-2, 1)}))
            elif kind == 1:
                self.pool.append(("bs", {"bp": 10.0 ** rng.uniform(-2, 1),
                                         "t": rng.uniform(0.0, 1.0),
                                         "phi": rng.uniform(-np.pi, np.pi)}))
            else:
                self.pool.append(("noisy", {
                    "bp": rng.uniform(0.05, 3.0),
                    "bs": rng.uniform(0.0, 1.0), "bi": rng.uniform(0.0, 1.0),
                    "t": rng.uniform(0.0, 1.0),
                    "phi": rng.uniform(-np.pi, np.pi),
                    "eta1": rng.uniform(0.3, 1.0),
                    "eta2": rng.uniform(0.3, 1.0)}))
        self.pool = [(kind, {k: float(v) for k, v in p.items()})
                     for kind, p in self.pool]
        self.catalog = criteria.default_catalog()
        self.noiseless_ids = self._with_form(
            lambda cid: criteria.closed_form_noiseless(cid, 1.0))
        self.bs_ids = self._with_form(
            lambda cid: criteria.closed_form_bs_output(cid, 1.0, 0.3))
        self.cursor = 0

    def _with_form(self, probe):
        ids = []
        for index, cid in enumerate(self.catalog):
            try:
                probe(cid)
            except ParameterError:
                continue
            ids.append(index)
        return tuple(ids)

    def warm(self):
        pass

    def probe_defects(self, run_op):
        """No input of this workload is known to fail."""

    @staticmethod
    def build(kind, p):
        if kind == "twin":
            return states.twin_beam(p["bp"])
        if kind == "bs":
            return states.beam_splitter(states.twin_beam(p["bp"]), p["t"],
                                        phi=p["phi"])
        tb = states.twin_beam(p["bp"], bs=p["bs"], bi=p["bi"])
        out = states.beam_splitter(tb, p["t"], phi=p["phi"])
        return states.attenuate(out, p["eta1"], p["eta2"])

    def _evaluate(self, kind, p):
        state = self.build(kind, p)
        results = [criteria.evaluate(state, cid) for cid in self.catalog]
        return results, quantifiers.classify(state)

    def _check(self, kind, p, results, report):
        bp = p["bp"]
        if kind == "twin":
            for index in self.noiseless_ids:
                cid = self.catalog[index]
                want = criteria.closed_form_noiseless(cid, bp)
                if not _agree(results[index].value, want, REL_TOL):
                    return (f"{cid.label()} at bp={bp}: "
                            f"{results[index].value!r} vs {want!r}")
            want = math.sqrt(bp * (bp + 1.0)) + bp
            if not _agree(report.negativity, want, REL_TOL):
                return f"negativity at bp={bp}: {report.negativity!r}"
            if not report.entangled or report.i_ncl_1 != -bp * bp:
                return f"classify at bp={bp}: {report!r}"
        elif kind == "bs":
            for index in self.bs_ids:
                cid = self.catalog[index]
                want = criteria.closed_form_bs_output(cid, bp, p["t"])
                if not _agree(results[index].value, want, REL_TOL):
                    return (f"{cid.label()} at bp={bp}, t={p['t']}: "
                            f"{results[index].value!r} vs {want!r}")
        return None

    def run_pass(self, run_op):
        for k in range(self.PER_PASS):
            kind, p = self.pool[(self.cursor + k) % self.POOL]
            value, op = run_op("state", lambda: self._evaluate(kind, p),
                               item=True)
            if value is not None:
                op.check(self._check(kind, p, *value))
        self.cursor = (self.cursor + self.PER_PASS) % self.POOL


# -- pnd_ladder -------------------------------------------------------------

class PndLadder:
    """Adaptive photon-number distributions of noiseless twin beams on a
    log-spaced pump ladder, with the Fock oracle on the small rungs.  Inputs
    that raise today are run once per run by ``probe_defects``, outside the
    timed passes."""

    name = "pnd_ladder"
    # Nominal pumps sit inside the cutoff classes 16 ... 512 of the
    # doubling rule, so the seeded jitter leaves each rung's cutoffs, and
    # so its work, the same from seed to seed.
    NOMINAL = (0.29, 0.45, 0.7, 1.2, 1.8, 3.3, 7.0, 14.0)
    # Above about 25, most jittered pumps make pnd_table raise
    # EvaluationError today (the expansion turns negative), so the large
    # rungs use exact pumps that pass: cutoffs 1024, 1024, 2048, 2048 and
    # 4096, the last a 4097^2 table.  Jittered pumps of those sizes are
    # kept as defect probes.
    EXACT = (28.0, 36.0, 60.0, 80.0, 100.0)
    PROBE_NOMINAL = (28.0, 36.0, 60.0, 75.0)
    JITTER = 0.04
    ORACLE_CUTOFF = 64      # a cutoff-256 input takes seconds in the oracle
    MAX_K = 6
    min_passes = 7          # 7 x 13 rungs: at least 90 rung latencies
    trace_min_passes = 2

    def __init__(self, rng):
        self.rungs = []
        pumps = [nominal * math.exp(rng.uniform(-self.JITTER, self.JITTER))
                 for nominal in self.NOMINAL] + list(self.EXACT)
        for bp in pumps:
            self.rungs.append({"params": TwinBeamParams(bp), "bs": None,
                               "oracle": (float(rng.uniform(0.0, 1.0)),
                                          float(rng.uniform(0.5, 1.0)),
                                          float(rng.uniform(0.5, 1.0)))})
        self.probes = [
            {"params": TwinBeamParams(
                nominal * math.exp(rng.uniform(-self.JITTER, self.JITTER))),
             "bs": None, "oracle": None}
            for nominal in self.PROBE_NOMINAL]
        # Past the 4096 cap of the doubling rule: TruncationError today.
        self.probes.append({"params": TwinBeamParams(rng.uniform(280, 320)),
                            "bs": None, "oracle": None})
        noise = rng.uniform(100.0, 150.0)
        self.probes.append({"params": TwinBeamParams(100.0, noise, noise),
                            "bs": float(rng.uniform(0.3, 0.7)),
                            "oracle": None})
        self.refs = {}

    def state(self, rung):
        tb = states.twin_beam(rung["params"])
        if rung["bs"] is None:
            return tb
        return states.beam_splitter(tb, rung["bs"])

    def warm(self):
        """Fill the oracle's Fock-shell cache up to the largest shell the
        oracle rungs can reach."""
        n = self.ORACLE_CUTOFF
        table = moments.pnd_table(states.twin_beam(1.0), n, n)
        pnd = moments.PhotonNumberDistribution.from_table(table)
        oracle.bs_transform_pnd(pnd, 0.5)

    def _rung(self, rung):
        dist = moments.photon_number_distribution(self.state(rung))
        if (rung["oracle"] is None
                or max(dist.n_max1, dist.n_max2) > self.ORACLE_CUTOFF):
            return dist, None
        t, eta1, eta2 = rung["oracle"]
        out = oracle.bs_transform_pnd(dist, t)
        detected = oracle.bernoulli_downsample(out, eta1, eta2)
        fms = {(k1, k2): oracle.factorial_moment_from_pnd(detected, k1, k2)
               for k1 in range(self.MAX_K + 1)
               for k2 in range(self.MAX_K + 1 - k1)}
        return dist, (out, detected, fms)

    def _references(self, index, rung):
        """Engine-side references for the oracle stage (computed once)."""
        ref = self.refs.get(index)
        if ref is None:
            t, eta1, eta2 = rung["oracle"]
            after = states.beam_splitter(states.twin_beam(rung["params"]), t)
            detected = states.attenuate(after, eta1, eta2)
            ref = (moments.pnd_table(after, 8, 8),
                   moments.pnd_table(detected, 8, 8),
                   {k: moments.intensity_moment(detected, *k)
                    for k in ((k1, k2) for k1 in range(self.MAX_K + 1)
                              for k2 in range(self.MAX_K + 1 - k1))})
            self.refs[index] = ref
        return ref

    def _check(self, index, rung, dist, stage):
        mass = float(dist.p.sum()) + dist.tail_mass
        if abs(mass - 1.0) > 1e-12:
            return f"mass plus tail is {mass!r}"
        if dist.tail_mass > PND_TAIL_TOL + 1e-12:
            return f"tail mass {dist.tail_mass!r} above the tolerance"
        if rung["bs"] is None:
            p = rung["params"]
            want = np.array([[moments.twin_beam_pnd_closed_form(p, i, j)
                              for j in range(9)] for i in range(9)])
            dev = float(np.max(np.abs(dist.p[:9, :9] - want)))
            if dev > 1e-10:
                return f"p(n1, n2) deviates from the closed form by {dev:.3e}"
        if stage is None:
            return None
        out, detected, fms = stage
        ref_out, ref_detected, ref_moments = self._references(index, rung)
        for name, got, want in (("beam splitter", out, ref_out),
                                ("downsample", detected, ref_detected)):
            dev = float(np.max(np.abs(got.p[:9, :9] - want)))
            if dev > REL_TOL:
                return f"oracle {name} deviates by {dev:.3e}"
        for k, est in fms.items():
            if abs(est.value - ref_moments[k]) > est.error_bound:
                return (f"factorial moment {k}: |{est.value} - "
                        f"{ref_moments[k]}| > {est.error_bound}")
        return None

    def run_pass(self, run_op):
        for index, rung in enumerate(self.rungs):
            value, op = run_op("rung", lambda: self._rung(rung), item=True)
            if value is not None:
                op.check(self._check(index, rung, *value))

    def probe_defects(self, run_op):
        """Run each defect probe once, checked like a rung."""
        for rung in self.probes:
            value, op = run_op(f"probe bp={rung['params'].bp:.6g}",
                               lambda: self._rung(rung))
            if value is not None:
                op.check(self._check(None, rung, *value))


WORKLOADS = {cls.name: cls for cls in (ScanMap, CatalogStates, PndLadder)}

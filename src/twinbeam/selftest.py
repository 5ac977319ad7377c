"""Built-in consistency battery for quick installation checks.

Each check exercises one seam of the package: the generating polynomial,
criterion evaluation against closed forms, photon-number statistics against
the finite-sum form, the Fock-space oracle, the entanglement quantifier,
and scan determinism.  Everything must run in about a second; thorough
coverage belongs to the test suite, not here.
"""
from __future__ import annotations

import io
import math
import time

import numpy as np

from . import criteria, moments, oracle, quantifiers, scan, states

__all__ = ["run"]


def _close(a, b, rel=1e-9, abso=1e-12) -> bool:
    return abs(a - b) <= abso + rel * max(abs(a), abs(b))


def _checks():
    state1 = states.twin_beam(1.0)

    def k_matrix():
        km = moments.build_k_matrix(state1)
        expected = {"k12": 2.0, "k13": 2.0, "k14": 0.0, "k22": 1.0,
                    "k24": -2.0, "k33": 1.0, "k34": -2.0, "k44": 1.0}
        for name, value in expected.items():
            got = getattr(km, name)
            if not _close(got, value):
                return f"{name}: got {got}, expected {value}"
        return None

    yield "k-matrix of the unit twin beam", k_matrix

    def crit_example():
        res = criteria.eval_E_p(state1, 0, 0)
        if not _close(res.value, -1.0):
            return f"value {res.value}, expected -1"
        if not res.nonclassical:
            return "verdict should be non-classical"
        return None

    yield "photon-number criterion at the reference point", crit_example

    def closed_forms():
        bp = 0.7
        st = states.twin_beam(bp)
        ids = [criteria.CriterionId("E_W", *kk) for kk in
               ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2))]
        ids += [criteria.CriterionId("E_p", *kk) for kk in
                ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2))]
        ids += [criteria.CriterionId("M_W"), criteria.CriterionId("M_p")]
        for cid in ids:
            want = criteria.closed_form_noiseless(cid, bp)
            got = criteria.evaluate(st, cid).value
            if not _close(got, want, rel=1e-10):
                return f"{cid.label()}: got {got}, expected {want}"
        return None

    yield "noiseless closed forms", closed_forms

    def bs_closed_forms():
        bp, t = 0.8, 0.7
        st = states.beam_splitter(states.twin_beam(bp), t)
        for text in ("E_p:0:0", "E_p:1:1", "E_p:2:2", "E_p:0:2", "M_p"):
            cid = criteria.CriterionId.parse(text)
            want = criteria.closed_form_bs_output(cid, bp, t)
            got = criteria.evaluate(st, cid).value
            if not _close(got, want, rel=1e-10):
                return f"{cid.label()}: got {got}, expected {want}"
        return None

    yield "beam-splitter closed forms", bs_closed_forms

    def pnd_check():
        params = states.TwinBeamParams(0.5, 0.2, 0.1)
        st = states.twin_beam(params)
        dist = moments.photon_number_distribution(st, tail_tol=1e-10)
        if abs(dist.total_mass() + dist.tail_mass - 1.0) > 1e-12:
            return "mass bookkeeping broke"
        for n1, n2 in ((0, 0), (1, 2), (3, 1)):
            want = moments.twin_beam_pnd_closed_form(params, n1, n2)
            got = float(dist.p[n1, n2])
            if not _close(got, want, rel=1e-10):
                return f"p({n1},{n2}): got {got}, expected {want}"
        return None

    yield "photon-number distribution", pnd_check

    def hom_check():
        fock = moments.PhotonNumberDistribution(1, 1, [[0, 0], [0, 1]], 0.0)
        value = oracle.bs_transform_pnd(fock, 0.5).p[1, 1]
        if abs(value) > 1e-12:
            return f"two-photon coincidence at t=1/2 is {value}, expected 0"
        return None

    yield "two-photon interference null", hom_check

    def negativity_check():
        bp = 2.0
        want = math.sqrt(bp * (bp + 1.0)) + bp
        got = quantifiers.negativity(states.twin_beam(bp))
        if not _close(got, want, rel=1e-10):
            return f"got {got}, expected {want}"
        return None

    yield "twin-beam negativity", negativity_check

    def boundary_check():
        t = 0.6
        bound = criteria.boundary_R22p(t)
        if bound is None or bound <= 0.0:
            return f"expected a finite positive boundary, got {bound}"
        st = states.beam_splitter(states.twin_beam(bound), t)
        res = criteria.eval_R_p(st, 1, 2, 2)
        scale = max(abs(res.value), res.tol / 1e-12)
        if abs(res.value) > 1e-6 * scale:
            return f"criterion at the boundary is {res.value}, not near zero"
        return None

    yield "ratio-criterion boundary", boundary_check

    def determinism_check():
        spec = scan.ScanSpec(
            axes=(scan.AxisSpec("bp", 0.1, 1.0, 10),
                  scan.AxisSpec("t", 0.5, 1.0, 10)),
            targets=(scan.TargetSpec.parse("E_p:0:0"),
                     scan.TargetSpec.parse("negativity")),
            noise_mode="independent")
        outputs = []
        for threads in (1, 4):
            respec = scan.ScanSpec(axes=spec.axes, targets=spec.targets,
                                   noise_mode=spec.noise_mode,
                                   threads=threads)
            result = scan.run_scan(respec)
            buf = io.StringIO()
            scan.write_csv(result, buf)
            outputs.append(buf.getvalue())
        if outputs[0] != outputs[1]:
            return "thread count changed the CSV output"
        return None

    yield "scan determinism", determinism_check

    def attenuation_check():
        st = states.twin_beam(states.TwinBeamParams(0.9, 0.3, 0.0))
        once = states.attenuate(st, 0.6 * 0.5, 0.7 * 0.25)
        twice = states.attenuate(states.attenuate(st, 0.6, 0.7), 0.5, 0.25)
        for name in ("b1", "b2", "c1", "c2", "d12", "dbar12"):
            a, b = getattr(once, name), getattr(twice, name)
            if abs(complex(a) - complex(b)) > 1e-14:
                return f"{name}: {a} vs {b}"
        return None

    yield "attenuation composes multiplicatively", attenuation_check

    def map_physicality_check():
        # the maps do not check their outputs; this platform's extended
        # precision, maybe a plain double, must still find them physical
        for bp, bs, bi, t, phi, eta1, eta2 in (
                (1.0, 0.0, 0.0, 0.5, 0.0, 1.0, 1.0),
                (1e-3, 0.0, 0.0, 0.7, 0.3, 0.5, 0.9),
                (1e3, 0.2, 0.0, 0.2, -2.0, 0.9, 0.6),
                (1e8, 5.0, 1e4, 0.999, 1.0, 0.1, 1.0)):
            beam = states.twin_beam(bp, bs=bs, bi=bi)
            split = states.beam_splitter(beam, t, phi=phi)
            lost = states.attenuate(split, eta1, eta2)
            for name, st in (("twin beam", beam), ("splitter", split),
                             ("loss", lost)):
                if not st.is_physical():
                    return f"{name} output at bp={bp} is not physical"
        return None

    yield "map outputs are physical", map_physicality_check


def run(stream=None) -> int:
    """Run every check; print one line per check with its wall time;
    return the failure count."""
    failures = total = 0
    for name, check in _checks():
        total += 1
        start = time.perf_counter()
        try:
            problem = check()
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        timed = f"{name} ({time.perf_counter() - start:.3f} s)"
        if problem is None:
            line = f"ok      {timed}"
        else:
            failures += 1
            line = f"FAIL    {timed}: {problem}"
        if stream is not None:
            stream.write(line + "\n")
    if stream is not None:
        stream.write(f"{total - failures} of {total} checks passed\n")
    return failures

"""Output checks against the outcomes fixed at input generation.

An op fails when its exit code, verdict, worst location or output check
disagrees with the expectation.  Some ops carry a known defect of the
program's Hermitian solve, fixed at generation in ``expect["defect"]``
(inputs.DEFECTS): the failure modes the op showed at baseline, out of
``SingularFactor`` (exit 3 on a feasible input) and ``residual`` (a
returned factor off its (J, G) by more than SOLVE_TOL but at most the op's
``ceiling``).  Such an outcome is the op's baseline behaviour: it is not
counted as failed, and the summary and the record name the op as a known
defect.  Any other failure, including any failure of an op without a
listed defect, counts as failed and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from bundletk.document import parse_document, serialize_document
from bundletk.errors import BundleError, SingularFactor
from bundletk.grids import FiberSpec, PathGrid
from bundletk.transport import FrameFactor, LinearTransport, verify_groupoid

#: relative agreement of synthesized entries with the generator's own numpy
SYNTH_RTOL = 1e-8
#: consistency of a solved factor with the (J, G) it was solved for, and its
#: groupoid law; the acceptance suite holds transport_from_hermitian, and the
#: program its own groupoid self-check, to the same 1e-8
SOLVE_TOL = 1e-8
#: samples kept for the groupoid law of a solved factor: the full check at
#: S = 256 needs an O(S^3 n^2) array of several GB
GROUPOID_SAMPLES = 48
#: an odd-parity certificate residual must stay this far from zero
CERT_MIN = 0.1
#: op kinds that run the Hermitian solve on a feasible input
SOLVES = ("solve", "synth-transport")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    known_defect: bool = False


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason)


def _worst(a, b):
    """Worst Frobenius distance between stacked matrices, relative to
    max(1, |a|, |b|) as in ``numutil.rel_residual``, and its index."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf, ()
    scale = np.maximum(1.0, np.maximum(np.linalg.norm(a, axis=(-2, -1)),
                                       np.linalg.norm(b, axis=(-2, -1))))
    rel = np.linalg.norm(a - b, axis=(-2, -1)) / scale
    at = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return float(rel[at]), tuple(int(k) for k in at)


def verify_factor(mats: np.ndarray, j: np.ndarray, g: np.ndarray):
    """(worst residual, reason) of a factor F against (J, G); the reason is
    empty when F is consistent with both on every pair of samples and obeys
    the groupoid law on GROUPOID_SAMPLES of them.

    The residuals are those of ``check_ac_consistency`` (commutation on all
    pairs, and C0^2 = -I) and ``check_bilinear_consistency``, taken on the
    program's own ``LinearTransport.matrix_stack`` for all S^2 pairs at once.
    """
    s, n = mats.shape[0], mats.shape[1]
    try:
        transport = LinearTransport(FrameFactor(PathGrid.uniform(s), FiberSpec(n), tuple(mats)))
    except SingularFactor as exc:
        return np.inf, f"returned factor rejected: {exc}"
    h = transport.matrix_stack()  # H(i->j) at [j, i]
    found = []
    worst, (jj, ii) = _worst(j[:, None] @ h, h @ j[None, :])
    found.append((worst, f"J not consistent with the factor ({worst:.3e} at {(ii, jj)})"))
    c0 = mats[0] @ j[0] @ np.linalg.inv(mats[0])
    worst, _ = _worst(c0 @ c0, -np.eye(n))
    found.append((worst, f"C0^2 != -I ({worst:.3e})"))
    congruent = np.swapaxes(h, -1, -2) @ g[:, None] @ h  # H^T G(j) H against G(i)
    worst, (jj, ii) = _worst(np.broadcast_to(g[None, :], h.shape), congruent)
    found.append((worst, f"G not consistent with the factor ({worst:.3e} at {(ii, jj)})"))
    keep = np.unique(np.linspace(0, s - 1, min(s, GROUPOID_SAMPLES)).round().astype(int))
    sub = FrameFactor(PathGrid.uniform(len(keep)), FiberSpec(n), tuple(mats[keep]))
    report = verify_groupoid(LinearTransport(sub), SOLVE_TOL)
    triple = tuple(int(keep[k]) for k in report.worst_triple or ())
    found.append((report.max_residual,
                  f"groupoid law fails ({report.max_residual:.3e} at {triple})"))
    worst, reason = max(found, key=lambda f: f[0])
    return worst, (reason if worst > SOLVE_TOL else "")


def _solved(op, found):
    """A wrong factor is a known defect only on an op that lists the
    ``residual`` mode, and only up to that op's ceiling."""
    worst, reason = found
    if not reason:
        return ""
    defect = op.expect.get("defect", {})
    if "residual" in defect.get("modes", ()) and worst <= defect["ceiling"]:
        return Outcome(False, f"feasible solve returned a wrong factor: {reason}",
                       known_defect=True)
    return f"feasible solve returned a wrong factor: {reason}"


class Oracle:
    """Checks op outputs; each judged output is remembered by its digest, so
    a byte-identical repeat gets the same outcome without re-running the
    checks."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._seen: dict = {}

    def check(self, op, code, stdout: bytes, stderr: bytes, out_bytes, same_pass: dict) -> Outcome:
        exp = op.expect
        if (code == 3 and b"SingularFactor" in stderr
                and "SingularFactor" in exp.get("defect", {}).get("modes", ())):
            return Outcome(False, "SingularFactor on a feasible input", known_defect=True)
        if code != exp["exit"]:
            said = (stderr.strip() or stdout.strip()).decode(errors="replace").splitlines()
            return _fail(f"exit {code}, expected {exp['exit']}: {(said or [''])[-1][:200]}")
        if exp.get("same_as"):
            ref = same_pass.get(exp["same_as"])
            if ref is not None and ref != stdout:
                return _fail(f"output differs from {exp['same_as']}")
        key = (op.id, hashlib.sha256(stdout + b"\0" + (out_bytes or b"")).hexdigest())
        if key not in self._seen:
            self._seen[key] = self._judge(op, stdout, out_bytes)
        return self._seen[key]

    def _judge(self, op, stdout, out_bytes) -> Outcome:
        try:
            reason = getattr(self, "_" + op.kind.replace("-", "_"))(op, stdout, out_bytes)
        except (BundleError, ValueError, KeyError, TypeError, IndexError) as exc:
            return _fail(f"unreadable output: {type(exc).__name__}: {exc}")
        if isinstance(reason, Outcome):
            return reason
        return _fail(reason) if reason else Outcome(True)

    # -- per-kind checks: "" when the output is right, else the reason ----

    def _verdicts(self, op, stdout):
        verdicts = json.loads(stdout)
        if len(verdicts) != op.expect["verdicts"]:
            raise ValueError(f"{len(verdicts)} verdicts, expected {op.expect['verdicts']}")
        return verdicts

    def _check(self, op, stdout, out_bytes):
        for v in self._verdicts(op, stdout):
            if v["passed"] is not True or not np.isfinite(v["max_residual"]):
                return f"verdict {v} should pass"
        return ""

    def _violation(self, op, stdout, out_bytes):
        (v,) = self._verdicts(op, stdout)
        if v["passed"] is not False:
            return f"planted violation passed: {v}"
        if op.expect["sample"] not in v.get("worst_location", []):
            return f"worst location {v.get('worst_location')} misses sample {op.expect['sample']}"
        return ""

    def _synth(self, op, stdout, out_bytes):
        """New entries by name, after checking the reported names and that
        the source document is carried over unchanged."""
        written = json.loads(stdout)["written"]
        if written != op.expect["written"]:
            return None, f"wrote {written}, expected {op.expect['written']}"
        if out_bytes is None:
            return None, "no output file"
        doc = parse_document(out_bytes)
        new = {}
        for name in written:
            for table in (doc.factors, doc.morphisms, doc.metrics, doc.almost_complex):
                if name in table:
                    new[name] = np.asarray(table.pop(name).matrices, dtype=float)
        if serialize_document(doc) != self.inputs.files[op.expect["source"]]:
            return None, "source entries changed in the output document"
        return new, ""

    def _synth_morphism(self, op, stdout, out_bytes):
        new, reason = self._synth(op, stdout, out_bytes)
        if reason:
            return reason
        err, _ = _worst(new["MS"], self.inputs.arrays[op.id]["MS"])
        return "" if err <= SYNTH_RTOL else f"morphism off by {err:.3e}"

    def _synth_hermitian(self, op, stdout, out_bytes):
        new, reason = self._synth(op, stdout, out_bytes)
        if reason:
            return reason
        arrays = self.inputs.arrays[op.id]
        err = max(_worst(new[k], arrays[k])[0] for k in ("HS_j", "HS_g"))
        return "" if err <= SYNTH_RTOL else f"hermitian structure off by {err:.3e}"

    def _synth_transport(self, op, stdout, out_bytes):
        new, reason = self._synth(op, stdout, out_bytes)
        if reason:
            return reason
        arrays = self.inputs.arrays[op.id]
        return _solved(op, verify_factor(new["TS"], arrays["J"], arrays["G"]))

    def _solve(self, op, stdout, out_bytes):
        result = json.loads(stdout)
        if result["feasible"] is not True or result["signature"] != op.expect["signature"]:
            return f"solve reported {result.get('feasible')} {result.get('signature')}"
        arrays = self.inputs.arrays[op.id]
        return _solved(op, verify_factor(np.asarray(result["factor"], dtype=float),
                                         arrays["J"], arrays["G"]))

    def _solve_odd(self, op, stdout, out_bytes):
        result = json.loads(stdout)
        p, q = op.expect["signature"]
        if result["feasible"] is not False or f"({p},{q})" not in result["reason"]:
            return f"odd parity ({p},{q}) not certified: {result}"
        if result["starts"] != op.expect["starts"]:
            return f"certificate over {result['starts']} starts"
        if not result["certificate_residual"] >= CERT_MIN:
            return f"certificate residual {result['certificate_residual']} near zero"
        return ""

    def _fuzz(self, op, stdout, out_bytes):
        lines = stdout.decode().splitlines()
        if lines[:2] != ["fuzz report", op.expect["header"]]:
            return f"unexpected report header {lines[:2]}"
        if lines[-1] != "all properties passed":
            return f"fuzz report: {lines[-1]}"
        return ""

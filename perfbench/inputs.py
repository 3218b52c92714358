"""Seeded inputs and expected outcomes for the four workloads.

Every document is built from the workload seed with numpy, written with the
program's own ``serialize_document``, and handed to ``btk`` only as a file.
Each op carries the outcome fixed when its input was generated: the exit
code, the number of verdicts, for planted violations the sample that was
perturbed, and for synthesis and solve the data the oracle checks against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from bundletk.document import (
    AlmostComplexEntry,
    BundleDocument,
    FactorEntry,
    MetricEntry,
    MorphismEntry,
    SectionEntry,
    matrices_to_lists,
    serialize_document,
)
from bundletk.grids import FiberSpec, PathGrid

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: log-spread of singular values of generated factors and conjugators; small
#: enough that every generated form passes the library's scale-free
#: invertibility test at n = 8
SPREAD = 0.5

#: relative size of a planted violation at one sample
PERTURB = 0.05


@dataclass
class Op:
    """One ``btk`` invocation and the outcome fixed at generation time."""

    id: str
    argv: list
    kind: str  # check | violation | synth-morphism | synth-hermitian |
    #            synth-transport | solve | solve-odd | fuzz
    expect: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "argv": self.argv, "kind": self.kind, "expect": self.expect}


@dataclass
class Inputs:
    """Generated files (name -> canonical text) and the op list over them."""

    files: dict
    ops: list
    arrays: dict  # op id -> {name: expected array}, for the oracle

    def write(self, where) -> None:
        where.mkdir(parents=True)
        for name, text in self.files.items():
            (where / name).write_text(text, encoding="utf-8")

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name].encode())
        h.update(json.dumps([op.as_dict() for op in self.ops], sort_keys=True).encode())
        for op_id in sorted(self.arrays):
            for key in sorted(self.arrays[op_id]):
                h.update(f"{op_id}/{key}".encode())
                h.update(np.ascontiguousarray(self.arrays[op_id][key]).tobytes())
        return h.hexdigest()


# -- random building blocks ----------------------------------------------


def _orth(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _invertible(rng, n):
    d = np.exp(rng.uniform(-SPREAD, SPREAD, size=n))
    return _orth(rng, n) @ np.diag(d) @ _orth(rng, n)


def _factor(rng, s, n):
    return np.stack([_invertible(rng, n) for _ in range(s)])


def _conjugators(rng, p, q):
    """(C0, C) with C of signature (p, q), C0^2 = -I and C0^T C C0 = C.

    C = T^T G_pq T and C0 = T^-1 P T, where P stacks 2x2 rotations and so
    preserves G_pq whenever p and q are even.
    """
    n = p + q
    t = _invertible(rng, n)
    g = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
    p_mat = np.kron(np.eye(n // 2), ROT)
    return np.linalg.solve(t, p_mat @ t), t.T @ g @ t


def _structure(f, c0, c):
    """J = F^-1 C0 F and G = F^T C F, consistent with the transport of F."""
    j = np.linalg.solve(f, c0 @ f)
    g = np.einsum("sba,bc,scd->sad", f, c, f)
    return j, 0.5 * (g + np.swapaxes(g, 1, 2))


def _morphism(f1, f2, c0):
    """M(i) = F2(i)^-1 C0 F1(i), the morphism generated by C0."""
    return np.linalg.solve(f2, c0 @ f1)


def _matrix_arg(m) -> str:
    return json.dumps(np.asarray(m).tolist())


def _doc(s, n) -> BundleDocument:
    doc = BundleDocument(fiber=FiberSpec(n))
    doc.paths["p"] = PathGrid.uniform(s)
    return doc


def _add(doc, kind, name, mats):
    lists = matrices_to_lists(mats)
    if kind == "factor":
        doc.factors[name] = FactorEntry(name, "p", lists)
    elif kind == "morphism":
        doc.morphisms[name] = MorphismEntry(name, "p", lists)
    elif kind == "metric":
        doc.metrics[name] = MetricEntry(name, "p", "symmetric", lists)
    elif kind == "ac":
        doc.almost_complex[name] = AlmostComplexEntry(name, "p", lists)
    elif kind == "section":
        doc.sections[name] = SectionEntry(name, "p", [list(map(float, v)) for v in mats])


def full_doc(rng, s, n):
    """Factors F1, F2, a consistent morphism M, a Hermitian pair (J, G)
    consistent with F1, and a section A moved by F1's transport.

    Returns the document and the raw arrays it was made from.
    """
    f1, f2 = _factor(rng, s, n), _factor(rng, s, n)
    c0, c = _conjugators(rng, n, 0)
    m = _morphism(f1, f2, _invertible(rng, n))
    j, g = _structure(f1, c0, c)
    a = np.linalg.solve(f1, np.broadcast_to(rng.standard_normal(n), (s, n))[..., None])[..., 0]
    doc = _doc(s, n)
    _add(doc, "factor", "F1", f1)
    _add(doc, "factor", "F2", f2)
    _add(doc, "morphism", "M", m)
    _add(doc, "metric", "G", g)
    _add(doc, "ac", "J", j)
    _add(doc, "section", "A", a)
    return doc, {"F1": f1, "F2": f2, "M": m, "J": j, "G": g}


def _hermitian_doc(rng, s, p, q):
    """A (J, G) pair of signature (p, q) built from a random factor and a
    valid (C0, C), so a consistent transport exists by construction.

    For odd p or q no compatible J exists; the document then carries an
    almost complex field unrelated to G, which the solve never reaches.
    """
    n = p + q
    f = _factor(rng, s, n)
    if p % 2 == 0 and q % 2 == 0:
        c0, c = _conjugators(rng, p, q)
    else:
        t = _invertible(rng, n)
        c0 = np.linalg.solve(t, np.kron(np.eye(n // 2), ROT) @ t)
        c = t.T @ np.diag(np.concatenate([np.ones(p), -np.ones(q)])) @ t
    j, g = _structure(f, c0, c)
    doc = _doc(s, n)
    _add(doc, "metric", "G", g)
    _add(doc, "ac", "J", j)
    return doc, {"F": f, "J": j, "G": g}


# -- op helpers ------------------------------------------------------------


#: Known defects of the program's feasible Hermitian solve, fixed per op
#: kind and signature: the failure modes seen at baseline on seeds 0 to 130,
#: and for a wrong factor a ceiling on its residual at least ten times the
#: largest seen (in the comment).  Definite signatures were exact on every
#: seed and have none.  See oracle.py.
DEFECTS = {
    ("solve", 2, 2): {"modes": ["residual"], "ceiling": 1e-2},  # 8.4e-4
    ("solve", 4, 2): {"modes": ["SingularFactor", "residual"], "ceiling": 1e-5},  # 2.1e-7
    ("solve", 2, 4): {"modes": ["SingularFactor", "residual"], "ceiling": 1e-4},  # 2.1e-6
    ("solve", 4, 4): {"modes": ["SingularFactor"]},
    ("synth-transport", 2, 2): {"modes": ["residual"], "ceiling": 1e-6},  # 3.3e-8 at S = 64
}


def _defect(kind, p, q) -> dict:
    known = DEFECTS.get((kind, p, q))
    return {"defect": known} if known else {}


class _InputSet:
    def __init__(self, seed: int):
        self.seed = seed
        self.files: dict = {}
        self.ops: list = []
        self.arrays: dict = {}

    def rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def write(self, name: str, doc: BundleDocument) -> str:
        self.files[name] = serialize_document(doc)
        return name

    def op(self, kind, argv, arrays=None, **expect) -> Op:
        op = Op(f"{len(self.ops):02d}-{kind}", [str(a) for a in argv], kind, expect)
        self.ops.append(op)
        if arrays is not None:
            self.arrays[op.id] = arrays
        return op

    def check(self, argv, verdicts=1):
        return self.op("check", ["--json", "check", *argv], exit=0, verdicts=verdicts)

    def violation(self, argv, sample):
        return self.op(
            "violation", ["--json", "check", *argv], exit=1, verdicts=1, sample=sample
        )

    def synth_morphism(self, doc_name, raw, c0, out):
        expected = _morphism(raw["F1"], raw["F2"], c0)
        return self.op(
            "synth-morphism",
            ["--json", "synthesize", "morphism", doc_name, "--f1", "F1", "--f2", "F2",
             "--c0", _matrix_arg(c0), "--name", "MS", "--out", out],
            arrays={"MS": expected},
            exit=0, out=out, source=doc_name, written=["MS"],
        )

    def synth_hermitian(self, doc_name, f, c0, c, out):
        j, g = _structure(f, c0, c)
        return self.op(
            "synth-hermitian",
            ["--json", "synthesize", "hermitian", doc_name, "--factor", "F1",
             "--c0", _matrix_arg(c0), "--c", _matrix_arg(c), "--name", "HS", "--out", out],
            arrays={"HS_j": j, "HS_g": g},
            exit=0, out=out, source=doc_name, written=["HS_j", "HS_g"],
        )

    def synth_transport(self, doc_name, raw, out, p, q):
        return self.op(
            "synth-transport",
            ["--json", "synthesize", "transport", doc_name, "--field", "J",
             "--metric", "G", "--name", "TS", "--out", out],
            arrays={"J": raw["J"], "G": raw["G"]},
            exit=0, out=out, source=doc_name, written=["TS"],
            **_defect("synth-transport", p, q),
        )

    def solve(self, doc_name, raw, p, q):
        if p % 2 == 0 and q % 2 == 0:
            return self.op(
                "solve",
                ["--json", "solve", "hermitian", doc_name, "--field", "J", "--metric", "G"],
                arrays={"J": raw["J"], "G": raw["G"]},
                exit=0, signature=[p, q], **_defect("solve", p, q),
            )
        return self.op(
            "solve-odd",
            ["--json", "solve", "hermitian", doc_name, "--field", "J", "--metric", "G"],
            exit=2, signature=[p, q], starts=64,
        )

    def fuzz(self, fuzz_seed, dim, samples, trials, parallel, same_as=None):
        argv = ["fuzz", "--seed", fuzz_seed, "--dim", dim, "--samples", samples,
                "--trials", trials]
        if parallel:
            argv = ["--parallel", *argv]
        header = f"seed {fuzz_seed}  dim {dim}  samples {samples}  trials {trials}"
        return self.op("fuzz", argv, exit=0, header=header, same_as=same_as)

    def build(self) -> Inputs:
        return Inputs(self.files, self.ops, self.arrays)


# -- workloads -------------------------------------------------------------


def small_docs(b: _InputSet) -> None:
    """Every check, synthesis and solve kind on S <= 8 documents."""
    d2, raw2 = full_doc(b.rng(1), 8, 2)
    d4, raw4 = full_doc(b.rng(2), 6, 4)
    a = b.write("small_n2.json", d2)
    c = b.write("small_n4.json", d4)
    dodd, _ = _hermitian_doc(b.rng(3), 4, 3, 1)
    odd = b.write("small_odd.json", dodd)
    rng = b.rng(4)

    b.check(["groupoid", a], verdicts=2)
    b.check(["groupoid", c, "--factor", "F1"])
    b.check(["consistency", a, "--morphism", "M", "--t1", "F1", "--t2", "F2"])
    b.check(["section", c, "--morphism", "M", "--t1", "F1", "--t2", "F2"])
    b.check(["section", a, "--section", "A", "--factor", "F1"])
    b.check(["almost-complex", c, "--field", "J"])
    b.check(["almost-complex", a, "--field", "J", "--factor", "F1"])
    b.check(["homogeneity", c, "--factor", "F2"])
    b.check(["additivity", a, "--factor", "F1"])
    b.check(["finsler", c, "--metric", "G", "--factor", "F1"])
    b.check(["bilinear", a, "--metric", "G", "--factor", "F1"])
    b.check(["hermitian", c, "--field", "J", "--metric", "G"])
    b.synth_morphism(a, raw2, _invertible(rng, 2), "out_small_morphism.json")
    c0, cc = _conjugators(rng, 4, 0)
    b.synth_hermitian(c, raw4["F1"], c0, cc, "out_small_hermitian.json")
    b.synth_transport(a, raw2, "out_small_transport.json", 2, 0)
    b.solve(c, raw4, 4, 0)
    b.solve(odd, None, 3, 1)
    serial = b.fuzz(b.seed, 2, 6, 20, parallel=False)
    b.fuzz(b.seed, 2, 6, 20, parallel=True, same_as=serial.id)


def large_paths(b: _InputSet) -> None:
    """Pairwise, triple and probe loops at large S, n = 4."""
    n = 4
    big, raw = full_doc(b.rng(1), 256, n)
    l256 = b.write("large_256.json", big)
    grp = _doc(160, n)
    _add(grp, "factor", "F", _factor(b.rng(2), 160, n))
    l160 = b.write("large_160.json", grp)
    fin, _ = full_doc(b.rng(3), 48, n)
    l48 = b.write("large_48.json", fin)
    probe, _ = full_doc(b.rng(4), 24, n)
    l24 = b.write("large_24.json", probe)

    # planted violations: one perturbed morphism sample, one perturbed metric
    # sample; every pair involving that sample, and no other, is off
    rng = b.rng(5)
    bad, bad_raw = full_doc(b.rng(6), 96, n)
    k_m, k_g = (int(x) for x in rng.integers(0, 96, size=2))
    m = bad_raw["M"].copy()
    m[k_m] += PERTURB * np.linalg.norm(m[k_m]) * rng.standard_normal((n, n))
    _add(bad, "morphism", "MV", m)
    g = bad_raw["G"].copy()
    e = rng.standard_normal((n, n))
    g[k_g] += PERTURB * np.linalg.norm(g[k_g]) * 0.5 * (e + e.T)
    _add(bad, "metric", "GV", g)
    lbad = b.write("large_violations.json", bad)

    b.check(["consistency", l256, "--morphism", "M", "--t1", "F1", "--t2", "F2"])
    b.check(["section", l256, "--morphism", "M", "--t1", "F1", "--t2", "F2"])
    b.check(["bilinear", l256, "--metric", "G", "--factor", "F1"])
    b.check(["almost-complex", l256, "--field", "J", "--factor", "F1"])
    b.check(["groupoid", l160])
    b.check(["finsler", l48, "--metric", "G", "--factor", "F1"])
    b.check(["homogeneity", l24, "--factor", "F1"])
    b.check(["additivity", l24, "--factor", "F1"])
    b.check(["section", l24, "--section", "A", "--factor", "F1"])
    b.violation(["consistency", lbad, "--morphism", "MV", "--t1", "F1", "--t2", "F2"], k_m)
    b.violation(["bilinear", lbad, "--metric", "GV", "--factor", "F1"], k_g)
    b.synth_morphism(l256, raw, _invertible(b.rng(7), n), "out_large_morphism.json")


#: feasible and odd-parity signatures of the solve workload
FEASIBLE = ((4, 0), (2, 2), (4, 2), (2, 4), (4, 4), (8, 0))
ODD = ((3, 1), (3, 3), (5, 1))


def hermitian_solve(b: _InputSet) -> None:
    """The Hermitian solve at S = 256 on feasible and odd-parity inputs."""
    s = 256
    for tag, (p, q) in enumerate(FEASIBLE + ODD, start=1):
        doc, raw = _hermitian_doc(b.rng(tag), s, p, q)
        b.solve(b.write(f"solve_{p}{q}.json", doc), raw, p, q)
    doc, raw = _hermitian_doc(b.rng(20), 64, 2, 2)
    b.synth_transport(b.write("transport_64.json", doc), raw, "out_transport.json", 2, 2)
    big, raw = full_doc(b.rng(21), s, 4)
    c0, c = _conjugators(b.rng(22), 4, 0)
    b.synth_hermitian(b.write("hermitian_256.json", big), raw["F1"], c0, c,
                      "out_hermitian.json")


#: fuzz size per process: 50 trials at dim 4 and S = 16
FUZZ = {"dim": 4, "samples": 16, "trials": 50}


def fuzz_trials(b: _InputSet) -> None:
    """Many small constructor and kernel calls, serial and thread-pooled,
    on two fuzz seeds so that a run holds a dozen processes."""
    for fuzz_seed in (b.seed, b.seed + 1):
        serial = b.fuzz(fuzz_seed, parallel=False, **FUZZ)
        b.fuzz(fuzz_seed, parallel=True, same_as=serial.id, **FUZZ)


WORKLOADS = {
    "small_docs": small_docs,
    "large_paths": large_paths,
    "hermitian_solve": hermitian_solve,
    "fuzz_trials": fuzz_trials,
}


def generate(workload: str, seed: int) -> Inputs:
    """All files and ops of one workload; equal seeds give equal bytes."""
    b = _InputSet(seed)
    WORKLOADS[workload](b)
    return b.build()


def warmup_doc() -> str:
    """A two-sample document for the untimed warm-up process."""
    doc = _doc(2, 2)
    _add(doc, "factor", "F", np.stack([np.eye(2), np.eye(2)]))
    return serialize_document(doc)

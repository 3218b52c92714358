"""The traced run: per-module metrics from in-process spans, and a sweep.

One traced run of a workload
1. times ``import bundletk.cli`` with ``python -X importtime``;
2. runs each of the workload's ops once as a ``btk`` process;
3. runs the same ops in process through ``bundletk.cli.main`` with spans
   off, on, and off again; the spans-on pass minus the faster spans-off
   pass is the tracing overhead, and process wall minus in-process time is
   the process overhead.  The per-layer metrics come from the spans-on pass;
4. only when that pass leaves some metric's functions idle (``hermitian`` on
   ``large_paths``, say), runs the ``small_docs`` ops once more in process
   with spans on and reports those metrics from that pass alone, named as
   such in the summary and the record;
5. sweeps the kernels over S x n (see ``sweep``).

Spans and the full record are written when the run ends.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import bundletk
import bundletk.cli as cli
import bundletk.document as dm
import bundletk.fuzzing as fz
import bundletk.hermitian as he
import bundletk.morphism as mo
import bundletk.runner as runner
import bundletk.structures as st
import bundletk.transport as tr
from bundletk.document import parse_document, serialize_document
from envinfo import environment
from inputs import full_doc, generate
from oracle import SOLVES, Oracle, Outcome
from proc import judge, out_bytes, timed_loop
from spans import Tracer, layer, outermost, self_times

LAYERS = ("cli", "runner", "document", "transport", "morphism", "structures",
          "hermitian", "fuzzing")

#: sweep grid of the traced run
SWEEP_S = (16, 64, 200)
SWEEP_N = (2, 4, 8)
#: largest computed groupoid residual array (S^3 n^2 doubles) the sweep
#: builds; the largest cell the workloads run is S=160, n=4 at 524 MB and a
#: 1.2 GB peak.  Larger cells are recorded as skipped with their bytes.
GROUPOID_BUDGET = 600_000_000

PAIR_CHECKS = ("structures.check_ac_consistency", "structures.check_bilinear_consistency",
               "structures.check_finsler_consistency")
BLACKBOX_CHECKS = ("structures.check_homogeneity", "structures.check_additivity",
                   "structures.check_section_addition")

# -- instrumentation -------------------------------------------------------


def _grid_pairs(key):
    def hook(tracer, args, kwargs, result):
        first = args[0]
        grid = first.base.source_grid if key == "morphism.pairs" else first.grid
        tracer.count(key, len(grid) ** 2)

    return hook


def _groupoid_hook(tracer, args, kwargs, result):
    t = args[0]
    if isinstance(t, tr.LinearTransport):
        s, n = len(t.grid), t.fiber.dim
        tracer.count("transport.triples", s**3)
        tracer.peak("transport.groupoid_bytes", s**3 * n * n * 8)


def _fuzz_name(args, kwargs):
    return "fuzzing.fuzz_parallel" if kwargs.get("parallel") else "fuzzing.fuzz"


def _fuzz_hook(tracer, args, kwargs, result):
    if not kwargs.get("parallel"):
        tracer.count("fuzzing.serial_trials", result.trials)


def _counting_as_general(tracer):
    """Mirror of ``transport.as_general`` whose map counts its calls."""

    def as_general(transport):
        def apply(i, j, v):
            tracer.count("structures.map_calls")
            return transport.apply(i, j, v)

        return tr.GeneralTransport(transport.grid, transport.fiber, apply)

    return as_general


def _targets(tracer: Tracer) -> dict:
    def span(name, hook=None, memory=False):
        return lambda fn: tracer.wrap(name, fn, hook, memory)

    targets = {
        (dm, "parse_document"): span(
            "document.parse",
            lambda t, a, k, r: t.count("document.parse_bytes", len(a[0]))),
        (dm, "serialize_document"): span(
            "document.serialize",
            lambda t, a, k, r: t.count("document.serialize_bytes", len(r))),
        (runner, "run_check"): span("runner.run_check"),
        (runner, "synthesize"): span("runner.synthesize"),
        (runner, "solve_hermitian_doc"): span("runner.solve"),
        (tr, "verify_groupoid"): span("transport.verify_groupoid", _groupoid_hook, True),
        (tr.LinearTransport, "matrix_stack"): span("transport.matrix_stack"),
        (tr, "as_general"): lambda fn: _counting_as_general(tracer),
        (mo, "check_consistency"): span("morphism.check_consistency",
                                        _grid_pairs("morphism.pairs")),
        (mo, "check_section_transported"): span("morphism.check_section",
                                                _grid_pairs("morphism.pairs")),
        (mo, "synthesize_consistent"): span("morphism.synthesize"),
        (st, "check_almost_complex"): span("structures.check_almost_complex"),
        (he, "signature_normalize"): span("hermitian.signature_normalize"),
        (he, "check_signature_constancy"): span("hermitian.check_signature_constancy"),
        (he, "solve_P"): span("hermitian.solve_P"),
        (he, "solve_Z_system"): span("hermitian.solve_Z_system"),
        (he, "infeasibility_certificate"): span(
            "hermitian.certificate",
            lambda t, a, k, r: t.count("hermitian.certificate_starts", r.starts)),
        (he, "hermitian_from_transport"): span("hermitian.from_transport"),
        (he, "solve_hermitian"): span("hermitian.solve_hermitian"),
        (he, "transport_from_hermitian"): span("hermitian.transport_from_hermitian"),
        (fz, "fuzz"): span(_fuzz_name, _fuzz_hook),
        (fz, "run_trial"): span("fuzzing.run_trial"),
    }
    for name in PAIR_CHECKS:
        targets[(st, name.split(".")[1])] = span(name, _grid_pairs("structures.pairs"))
    for name in BLACKBOX_CHECKS:
        targets[(st, name.split(".")[1])] = span(name)
    for method in ("factor", "transport", "morphism", "metric", "almost_complex_field",
                   "section"):
        targets[(dm.BundleDocument, method)] = span("document.build")
    return targets


NAMESPACES = (bundletk, cli, runner, dm, tr, mo, st, he, fz, dm.BundleDocument,
              tr.LinearTransport)


# -- passes ----------------------------------------------------------------


def run_in_process(main, argv, where):
    """One op through ``bundletk.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(where)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # an escaped exception is a failed op, as in a process
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - t0
        os.chdir(here)
    return code, out.getvalue().encode(), err.getvalue().encode(), elapsed


def in_process_pass(name, inputs, where, oracle, tracer=None):
    """Every op of ``inputs``, in process; (op, seconds, outcome) each."""
    results, outputs = [], {}
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    for op in inputs.ops:
        if tracer is not None:
            tracer.op = f"{name}/{op.id}"
        code, out, err, elapsed = run_in_process(main, op.argv, where)
        outputs[op.id] = out
        results.append((op, elapsed, oracle.check(op, code, out, err, out_bytes(op, where),
                                                  outputs)))
    return results


def import_times(env) -> dict:
    """Cumulative import times of ``bundletk.cli`` (which includes the
    package) and of ``bundletk.hermitian``, median of three interpreters."""
    cli_ms, herm_ms = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bundletk.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name.startswith("bundletk"):
                    cum[name] = int(parts[1]) / 1000.0
        cli_ms.append(cum["bundletk.cli"])
        herm_ms.append(cum["bundletk.hermitian"])
    return {"cli.import_ms": statistics.median(cli_ms),
            "hermitian.import_ms": statistics.median(herm_ms)}


def _timed(call):
    t0 = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - t0) * 1000.0


def sweep(seed: int) -> list:
    """Kernel times over S x n on consistent documents.  A cell whose
    groupoid array exceeds GROUPOID_BUDGET skips only the groupoid check."""
    cells = []
    for s in SWEEP_S:
        for n in SWEEP_N:
            doc, _ = full_doc(np.random.default_rng([seed, 1000 + s, n]), s, n)
            cell = {"S": s, "n": n, "pairs": s * s, "groupoid_bytes": s**3 * n * n * 8}
            text, cell["serialize_ms"] = _timed(lambda: serialize_document(doc))
            cell["document_bytes"] = len(text)
            doc, cell["parse_ms"] = _timed(lambda: parse_document(text))
            (t1, t2, m, g, j), cell["build_ms"] = _timed(lambda: (
                doc.transport("F1"), doc.transport("F2"), doc.morphism("M"),
                doc.metric("G"), doc.almost_complex_field("J")))
            _, cell["matrix_stack_ms"] = _timed(t1.matrix_stack)
            checks = {
                "consistency": lambda: mo.check_consistency(m, t1, t2),
                "bilinear": lambda: st.check_bilinear_consistency(g, t1),
                "ac": lambda: st.check_ac_consistency(j, t1),
            }
            if cell["groupoid_bytes"] <= GROUPOID_BUDGET:
                checks["groupoid"] = lambda: tr.verify_groupoid(t1)
            else:
                cell["groupoid_skipped"] = True
            for key, call in checks.items():
                if key == "groupoid":
                    tracemalloc.start()
                report, cell[f"{key}_ms"] = _timed(call)
                if key == "groupoid":
                    cell["groupoid_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                cell[f"{key}_passed"] = report.passed
            for key in ("consistency", "bilinear", "ac"):
                cell[f"{key}_us_per_pair"] = cell[f"{key}_ms"] * 1000.0 / (s * s)
            cells.append(cell)
    return cells


# -- metrics ---------------------------------------------------------------


def _main_thread(spans, names) -> list:
    return [s for s in spans if s[0] in names and s[6]]


def _total_ms(spans) -> float | None:
    """Summed duration of ``spans``; None when there are none."""
    return sum(s[2] - s[1] for s in spans) * 1000.0 if spans else None


def _sum_ms(spans, names) -> float | None:
    return _total_ms(_main_thread(spans, names))


def _ratio(a, b) -> float | None:
    """a / b; None when a is None or b is None or 0."""
    return None if a is None or not b else a / b




def layer_metrics(tracer: Tracer, results) -> dict:
    """Per-layer metrics of one traced pass.  A metric whose functions did
    not run in the pass is None, not 0."""
    spans, c, m = tracer.spans, tracer.counts, {}

    def counted(key, names):
        return c[key] if _main_thread(spans, names) else None

    builds = outermost(spans, {"document.build"})
    m["document.parse_ms"] = _sum_ms(spans, {"document.parse"})
    m["document.parse_bytes"] = counted("document.parse_bytes", {"document.parse"})
    m["document.serialize_ms"] = _sum_ms(spans, {"document.serialize"})
    m["document.serialize_bytes"] = counted("document.serialize_bytes", {"document.serialize"})
    m["document.build_ms"] = _total_ms(builds)
    m["document.entities_built"] = len(builds) or None
    groupoid = {"transport.verify_groupoid"}
    m["transport.verify_groupoid_ms"] = _sum_ms(spans, groupoid)
    m["transport.matrix_stack_ms"] = _sum_ms(spans, {"transport.matrix_stack"})
    m["transport.triples"] = c["transport.triples"] or None
    m["transport.ns_per_triple"] = _ratio(m["transport.verify_groupoid_ms"],
                                          c["transport.triples"] / 1e6)
    m["transport.groupoid_bytes"] = tracer.peaks["transport.groupoid_bytes"] or None
    m["transport.groupoid_peak_mb"] = _ratio(
        tracer.peaks["transport.verify_groupoid.peak_bytes"] or None, 2**20)
    pair_names = {"morphism.check_consistency", "morphism.check_section"}
    m["morphism.check_consistency_ms"] = _sum_ms(spans, {"morphism.check_consistency"})
    m["morphism.check_section_ms"] = _sum_ms(spans, {"morphism.check_section"})
    m["morphism.synthesize_ms"] = _sum_ms(spans, {"morphism.synthesize"})
    m["morphism.pairs"] = counted("morphism.pairs", pair_names)
    m["morphism.us_per_pair"] = _ratio(_sum_ms(spans, pair_names), c["morphism.pairs"] / 1000.0)
    m["structures.pair_checks_ms"] = _sum_ms(spans, set(PAIR_CHECKS))
    m["structures.blackbox_checks_ms"] = _sum_ms(spans, set(BLACKBOX_CHECKS))
    m["structures.pairs"] = counted("structures.pairs", set(PAIR_CHECKS))
    m["structures.us_per_pair"] = _ratio(m["structures.pair_checks_ms"],
                                         c["structures.pairs"] / 1000.0)
    m["structures.map_calls"] = counted("structures.map_calls", set(BLACKBOX_CHECKS))
    m["hermitian.signature_ms"] = _total_ms(outermost(
        spans, {"hermitian.check_signature_constancy", "hermitian.signature_normalize"}))
    m["hermitian.solve_P_ms"] = _sum_ms(spans, {"hermitian.solve_P"})
    m["hermitian.solve_Z_ms"] = _sum_ms(spans, {"hermitian.solve_Z_system"})
    m["hermitian.certificate_ms"] = _sum_ms(spans, {"hermitian.certificate"})
    m["hermitian.certificate_starts"] = counted("hermitian.certificate_starts",
                                                {"hermitian.certificate"})
    m["hermitian.from_transport_ms"] = _sum_ms(spans, {"hermitian.from_transport"})
    solves = [outcome for op, _, outcome in results if op.kind in SOLVES]
    m["hermitian.solve_failed"] = sum(not o.ok for o in solves) if solves else None
    trials = [(s[2] - s[1]) * 1000.0 for s in _main_thread(spans, {"fuzzing.run_trial"})]
    m["fuzzing.run_trial_ms"] = statistics.median(trials) if trials else None
    serial = _sum_ms(spans, {"fuzzing.fuzz"})
    m["fuzzing.trials_per_s"] = _ratio(c["fuzzing.serial_trials"] * 1000.0 if serial else None,
                                       serial)
    m["fuzzing.parallel_ratio"] = _ratio(_sum_ms(spans, {"fuzzing.fuzz_parallel"}), serial)
    m["runner.run_check_ms"] = _sum_ms(spans, {"runner.run_check"})
    m["runner.synthesize_ms"] = _sum_ms(spans, {"runner.synthesize"})
    m["runner.solve_ms"] = _sum_ms(spans, {"runner.solve"})
    own: dict = {}
    for span, t in self_times(spans):
        own[layer(span[0])] = own.get(layer(span[0]), 0.0) + t
    for name in LAYERS:
        m[f"{name}.self_ms"] = own[name] * 1000.0 if name in own else None
    return m


def traced_pass(name, inputs, where, oracle):
    """One in-process pass with spans on; (tracer, results)."""
    tracer = Tracer()
    with tracer.patch(NAMESPACES, _targets(tracer)):
        results = in_process_pass(name, inputs, where, oracle, tracer)
    return tracer, results


def traced_run(args, base, env, units: dict) -> dict:
    inputs = generate(args.workload, args.seed)
    where = base / args.workload
    inputs.write(where)
    oracle = Oracle(inputs)

    imports = import_times(env)

    procs = timed_loop(inputs, where, env, 0)
    failures = [("process", f["op"], Outcome(False, f["reason"], f["known_defect"]))
                for f in judge(oracle, procs)]
    process_wall = {r["op"].id: r["wall_s"] for r in procs}
    attempted = len(procs)

    # spans off, on, off: the faster spans-off pass is the one not paying
    # for first calls in this process
    first = in_process_pass(args.workload, inputs, where, oracle)
    tracer, traced = traced_pass(args.workload, inputs, where, oracle)
    again = in_process_pass(args.workload, inputs, where, oracle)
    plain = min(first, again, key=lambda results: sum(r[1] for r in results))
    plain_s = sum(r[1] for r in plain)
    traced_s = sum(r[1] for r in traced)
    passes = [("in-process", args.workload, first), ("traced", args.workload, traced),
              ("in-process", args.workload, again)]

    metrics = dict(imports)
    in_proc = {op.id: t for op, t, _ in plain}
    metrics["cli.process_overhead_ms"] = statistics.median(
        (process_wall[k] - in_proc[k]) * 1000.0 for k in process_wall
    )
    metrics.update(layer_metrics(tracer, traced))
    metrics["trace.overhead_ms"] = (traced_s - plain_s) * 1000.0
    metrics = {k: metrics[k] for k in units}

    # metrics of functions this workload never calls come from small_docs
    idle = [k for k, v in metrics.items() if v is None]
    if idle and args.workload != "small_docs":
        cov_inputs = generate("small_docs", args.seed)
        cov_where = base / "small_docs"
        cov_inputs.write(cov_where)
        cov_tracer, cov = traced_pass("small_docs", cov_inputs, cov_where, Oracle(cov_inputs))
        passes.append(("traced", "small_docs", cov))
        cov_metrics = layer_metrics(cov_tracer, cov)
        for key in idle:
            metrics[key] = cov_metrics[key]
    no_activity = [k for k, v in metrics.items() if v is None]
    for key in no_activity:
        metrics[key] = 0.0
    for mode, name, results in passes:
        for op, _, outcome in results:
            attempted += 1
            if not outcome.ok:
                failures.append((mode, f"{name}/{op.id}", outcome))

    cells, sweep_ms = _timed(lambda: sweep(args.seed))
    for cell in cells:
        for key in ("groupoid", "consistency", "bilinear", "ac"):
            if cell.get(f"{key}_passed") is False:
                failures.append(("sweep", f"S={cell['S']} n={cell['n']} {key}",
                                 Outcome(False, "consistent input failed the check")))

    unexplained = [f for f in failures if not f[2].known_defect]
    env_info = environment()
    lines = [
        f"traced run  workload {args.workload}  seed {args.seed}",
        f"  in-process passes: {plain_s:.3f} s spans off, {traced_s:.3f} s spans on, "
        f"{len(tracer.spans)} spans; sweep {sweep_ms / 1000:.2f} s",
    ]
    for key, value in metrics.items():
        note = ("  (small_docs ops: idle on this workload)" if key in idle and
                key not in no_activity else "  (no activity)" if key in no_activity else "")
        lines.append(f"  {key:<32} {value:>14.4f} {units[key]}{note}")
    for where_, op_id, outcome in failures:
        tag = "known defect" if outcome.known_defect else "FAILED"
        lines.append(f"    {tag} ({where_}): {op_id}: {outcome.reason}")
    lines.append("  sweep (S, n): groupoid ms / peak MB, consistency / bilinear / ac us per pair")
    for cell in cells:
        if "groupoid_ms" in cell:
            grp = f"{cell['groupoid_ms']:8.1f} / {cell['groupoid_peak_mb']:7.1f}"
        else:
            grp = f"skipped ({cell['groupoid_bytes'] / 1e9:.2f} GB computed)"
        lines.append(
            f"    S={cell['S']:<4} n={cell['n']}  {grp:<26} "
            f"{cell['consistency_us_per_pair']:6.2f} / {cell['bilinear_us_per_pair']:6.2f} / "
            f"{cell['ac_us_per_pair']:6.2f}"
        )
    lines += cross_check(metrics, process_wall, inputs, tracer)
    lines.append("  environment " + json.dumps(env_info))

    (base / "spans.json").write_text(json.dumps(
        [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "error": s[5],
          "main_thread": s[6]} for s in tracer.spans]), encoding="utf-8")
    (base / "record.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "inputs_sha256": inputs.digest(),
        "environment": env_info, "metrics": metrics,
        "metrics_from_small_docs": [k for k in idle if k not in no_activity],
        "metrics_without_activity": no_activity, "sweep": cells,
        "process_wall_ms": {k: v * 1000.0 for k, v in process_wall.items()},
        "failures": [{"where": w, "op": o, "reason": f.reason, "known_defect": f.known_defect}
                     for w, o, f in failures],
    }, indent=1), encoding="utf-8")
    print("\n".join(lines))
    return {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(unexplained),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def cross_check(metrics, process_wall, inputs, tracer) -> list:
    """This run's numbers beside the baseline figures quoted in ROADMAP.md."""
    checks = [process_wall[op.id] * 1000.0 for op in inputs.ops if op.kind == "check"]
    certs = [(s[2] - s[1]) * 1000.0 for s in tracer.spans if s[0] == "hermitian.certificate"]
    lines = ["  cross-check against the ROADMAP baseline:"]
    if checks:
        lines.append(f"    btk check process on this workload's documents, median "
                     f"{statistics.median(checks):.0f} ms (baseline ~490 ms for check "
                     "groupoid on minimal.json)")
    lines.append(f"    pairwise checks {metrics['morphism.us_per_pair']:.2f} us/pair (morphism), "
                 f"{metrics['structures.us_per_pair']:.2f} us/pair (structures); baseline ~7 us")
    if certs:
        lines.append(f"    odd-parity certificates {min(certs):.0f}-{max(certs):.0f} ms "
                     "(baseline 60-850 ms)")
    lines.append(f"    import: bundletk.cli {metrics['cli.import_ms']:.0f} ms, of which "
                 f"hermitian {metrics['hermitian.import_ms']:.0f} ms (baseline ~290 ms scipy)")
    return lines

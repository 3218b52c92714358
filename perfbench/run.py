"""bundletk benchmark: ``btk`` processes on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload large_paths --seed 1 --seconds 15 --trace 0

With ``--trace 0`` one client runs the workload's ``btk`` processes in a
closed loop (the next starts when the previous one exits), over the op list
again and again until ``--seconds`` have passed (at least one whole pass),
and prints the end-to-end metrics: the user-space instructions the processes
retire (counters.py), their peak memory and the set-up time, which
BENCHMARK.json bounds, and their wall times, which it does not.  With
``--trace 1`` it runs the traced in-process pass and the scaling sweep
instead (see layers.py) and prints the per-layer metrics.
The last line of stdout is one JSON object; a summary, the environment and
every metric with its unit come before it.  Spans and the full record are
written under perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from counters import CounterUnavailable, instructions_counter
from proc import btk_env, judge, run_btk, timed_loop

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

#: set-ups per run; setup_s is their median
SETUPS = 5

#: cmd_tail_ms is the highest percentile of the run's process wall times with
#: at least this many processes beyond it
TAIL_BEYOND = 10


# Modules that import bundletk are imported inside the functions that use
# them: bundletk comes from the checkout's src, which main() puts on sys.path
# after checking that it is there.


def setup(workload: str, seed: int, base: Path, k: int, env: dict):
    """Generate and write the inputs, then run one warm-up process."""
    from inputs import generate, warmup_doc

    t0 = time.perf_counter()
    inputs = generate(workload, seed)
    where = base / f"setup{k}"
    inputs.write(where)
    (where / "warmup.json").write_text(warmup_doc(), encoding="utf-8")
    warm = run_btk(["check", "groupoid", "warmup.json"], where, env, "warmup")
    return inputs, where, time.perf_counter() - t0, warm["code"] == 0


def digest_elsewhere(workload: str, seed: int, env: dict) -> str:
    """sha256 of the inputs as a fresh interpreter generates them."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from inputs import generate; "
            "print(generate(sys.argv[2], int(sys.argv[3])).digest())")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), workload, str(seed)],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.stdout.strip()


def set_up_all(workload, seed, base, env, count):
    """``count`` independent set-ups; the determinism self-test requires
    byte-identical files and op lists from all of them, and the same digest
    from a separate interpreter.  The ops run in the first set-up's
    directory; the others are removed."""
    runs = [setup(workload, seed, base, k, env) for k in range(count)]
    inputs, where = runs[0][0], runs[0][1]
    problems = []
    if len({r[0].digest() for r in runs} | {digest_elsewhere(workload, seed, env)}) != 1:
        problems.append("same seed gave different inputs")
    for r in runs[1:]:
        for name in inputs.files:
            if (r[1] / name).read_bytes() != (where / name).read_bytes():
                problems.append(f"{name} differs between set-ups")
    if not all(r[3] for r in runs):
        problems.append("warm-up process failed")
    for r in runs[1:]:
        shutil.rmtree(r[1])
    return inputs, where, [r[2] for r in runs], problems


def tail(walls: list):
    """(value, percentile): the highest percentile of ``walls`` with at
    least TAIL_BEYOND values beyond it, or the largest value of a shorter
    list."""
    ranked = sorted(walls)
    if len(ranked) <= TAIL_BEYOND:
        return ranked[-1], 100.0
    k = len(ranked) - TAIL_BEYOND - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def per_op_medians(procs, key: str) -> dict:
    """op id -> median of ``key`` over that op's processes in the run."""
    values: dict = {}
    for r in procs:
        values.setdefault(r["op"].id, []).append(r[key])
    return {k: statistics.median(v) for k, v in values.items()}


def end_to_end(args, base: Path, env: dict, units: dict) -> dict:
    from envinfo import environment
    from oracle import Oracle

    inputs, where, setup_times, problems = set_up_all(
        args.workload, args.seed, base, env, SETUPS
    )
    procs = timed_loop(inputs, where, env, args.seconds)
    failures = judge(Oracle(inputs), procs)
    unexplained = [f for f in failures if not f["known_defect"]]

    walls = [r["wall_s"] * 1000.0 for r in procs]
    op_walls = per_op_medians(procs, "wall_s")
    op_instructions = per_op_medians(procs, "instructions")
    tail_ms, tail_pct = tail(walls)
    passes = procs[-1]["pass"] + 1
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_ginstr": sum(op_instructions.values()) / 1e9,
        "cmd_p50_minstr": statistics.median(op_instructions.values()) / 1e6,
        "peak_rss_mb": max(r["rss_mb"] for r in procs),
        "wall_s": sum(op_walls.values()),
        "cmd_p50_ms": statistics.median(walls),
        "cmd_tail_ms": tail_ms,
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  closed loop, 1 client",
        f"  {len(procs)} btk processes in {args.seconds} s, {passes} passes over "
        f"{len(inputs.ops)} ops (the last may be partial)",
        f"  inputs sha256 {inputs.digest()}",
        f"  setup_s        {metrics['setup_s']:.4f} s    median of {SETUPS} set-ups "
        f"{[round(t, 4) for t in setup_times]}",
        f"  pass_ginstr    {metrics['pass_ginstr']:.4f} Ginstr  user-space instructions "
        "of one pass, each op at its median count in the run",
        f"  cmd_p50_minstr {metrics['cmd_p50_minstr']:.2f} Minstr  median over the "
        f"{len(op_instructions)} ops of each op's median count",
        "  wall times (printed, not in BENCHMARK.json; they move with the host's load):",
        f"  wall_s         {metrics['wall_s']:.4f} s    one pass, each op at its median "
        "process time in the run",
        f"  cmd_p50_ms     {metrics['cmd_p50_ms']:.2f} ms   over {len(walls)} processes",
        f"  cmd_tail_ms    {tail_ms:.2f} ms   p{tail_pct:.1f} over {len(walls)} processes, "
        f"{sum(w > tail_ms for w in walls)} beyond it",
        f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB   largest ru_maxrss",
        f"  fail_ratio     {len(unexplained) / len(procs):.4f}      {len(unexplained)} of "
        f"{len(procs)} processes",
        f"  known defects  {len(failures) - len(unexplained)} of {len(procs)} processes "
        "showed a listed defect of the Hermitian solve",
    ]
    for f in failures:
        tag = "known defect" if f["known_defect"] else "FAILED"
        lines.append(f"    {tag}: {f['op']} (pass {f['pass']}): {f['reason']}")
    lines += [f"    problem: {p}" for p in problems]
    env_info = environment()
    lines.append("  environment " + json.dumps(env_info))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs_sha256": inputs.digest(),
        "environment": env_info,
        "ops": [op.as_dict() for op in inputs.ops],
        "processes": [
            {"op": r["op"].id, "pass": r["pass"], "wall_ms": r["wall_s"] * 1000.0,
             "instructions": r["instructions"], "rss_mb": r["rss_mb"], "exit": r["code"],
             "ok": r["ok"]}
            for r in procs
        ],
        "op_median_ms": {k: v * 1000.0 for k, v in op_walls.items()},
        "op_median_instructions": op_instructions,
        "setup_s": setup_times,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "tail_percentile": tail_pct,
    }
    (base / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    return {
        "correct": not problems and not unexplained,
        "attempted": len(procs),
        "failed": len(unexplained),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("small_docs", "large_paths", "hermitian_solve", "fuzz_trials"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bundletk" / "cli.py").is_file():
        print(f"perfbench: no bundletk sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    try:
        os.close(instructions_counter(os.getpid()))
    except CounterUnavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    base = WORK / args.workload / f"seed{args.seed}-trace{args.trace}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    env = btk_env(SRC)
    if args.trace:
        from layers import traced_run

        result = traced_run(args, base, env, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        result = end_to_end(args, base, env, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Running ``btk`` processes from the checkout's sources, and judging them."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from counters import instructions_counter, read_and_close

#: the ``btk`` console script, run from the checkout's sources
BTK = "import sys; from bundletk.cli import main; sys.exit(main())"


def btk_env(src: Path) -> dict:
    """The caller's environment with ``src`` first on PYTHONPATH; BLAS
    thread settings are passed through as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_btk(argv, cwd: Path, env: dict, tag: str = "op") -> dict:
    """One ``btk`` process, timed from start to exit, with its user-space
    instructions (counters.py) and its rusage from wait4.

    The child is forked by hand and waits on a pipe until its instruction
    counter is attached; the counter starts at the child's exec."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    go_read, go_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(go_write)
            for target, path in ((1, out_path), (2, err_path)):
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(fd, target)
                os.close(fd)
            os.chdir(cwd)
            if os.read(go_read, 1):
                os.execve(sys.executable, [sys.executable, "-c", BTK, *argv], env)
        finally:
            os._exit(127)
    os.close(go_read)
    try:
        counter = instructions_counter(pid)
    except BaseException:
        os.close(go_write)  # the child reads end of file and exits
        os.waitpid(pid, 0)
        raise
    t0 = time.perf_counter()
    os.write(go_write, b"x")
    os.close(go_write)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "instructions": read_and_close(counter),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": os.waitstatus_to_exitcode(status),
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def out_bytes(op, where: Path):
    """The file a synthesize op wrote, or None."""
    out = op.expect.get("out")
    if out is None or not (where / out).exists():
        return None
    return (where / out).read_bytes()


def timed_loop(inputs, where: Path, env: dict, seconds: float):
    """Closed loop, one client: the op list in order, over and over, until
    ``seconds`` have passed and at least one whole pass has run.  The last
    pass may stop part way through."""
    procs = []
    begin = time.perf_counter()
    while len(procs) < len(inputs.ops) or time.perf_counter() - begin < seconds:
        op = inputs.ops[len(procs) % len(inputs.ops)]
        res = run_btk(op.argv, where, env, "op")
        res["out"] = out_bytes(op, where)
        res["op"] = op
        res["pass"] = len(procs) // len(inputs.ops)
        procs.append(res)
    return procs


def judge(oracle, procs):
    """Oracle verdict per process, outside the timed loop."""
    by_pass: dict = {}
    for res in procs:
        by_pass.setdefault(res["pass"], {})[res["op"].id] = res["stdout"]
    failures = []
    for res in procs:
        outcome = oracle.check(
            res["op"], res["code"], res["stdout"], res["stderr"], res["out"],
            by_pass[res["pass"]],
        )
        res["ok"] = outcome.ok
        if not outcome.ok:
            failures.append({
                "op": res["op"].id, "pass": res["pass"], "reason": outcome.reason,
                "known_defect": outcome.known_defect,
            })
    return failures

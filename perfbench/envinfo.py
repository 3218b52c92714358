"""The machine and library versions a measurement was taken on.

BLAS threads are recorded as found, never set: from the environment
variables that control them and from the OpenBLAS library numpy loaded.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _proc_field(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy as np

    site = os.path.dirname(os.path.dirname(np.__file__))
    pattern = os.path.join(site, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }

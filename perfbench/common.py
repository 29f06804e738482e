"""Helpers shared by run.py, its child process and the fixture sweep."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("algebra", "cli", "cumulant", "harness", "localtime", "reportio", "rng",
           "scenery", "trigpoly", "walk")


def import_program():
    """Import rwscenery and its modules from this checkout's ``src`` only.

    Raises ImportError when the checkout holds no program, so the benchmark
    fails instead of timing some other installed copy.
    """
    if not (SRC / "rwscenery" / "__init__.py").is_file():
        raise ImportError(f"no rwscenery sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rwscenery

    if Path(rwscenery.__file__).resolve().parent != (SRC / "rwscenery").resolve():
        raise ImportError(f"rwscenery imported from {rwscenery.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module(f"rwscenery.{name}")
    return rwscenery


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    """Interpreter, numpy/scipy/BLAS build, thread variables and machine load.

    Thread variables are recorded as found and never set, so a result that
    depends on the BLAS thread count shows up instead of being pinned away.
    """
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }

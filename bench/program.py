"""Load the program under test from the checkout and describe the machine.

Importing this module pins BLAS to one thread (before numpy is imported) and
puts ``<checkout>/src`` first on ``sys.path``.  :func:`load` imports ``cgdm``
from there and exits non-zero when the checkout has no program, so the
benchmark never measures an installed copy by mistake.
"""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # numpy is imported only after this module
    os.environ[_var] = "1"

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load():
    """Import ``cgdm`` from the checkout; exit 2 if it is missing or foreign."""
    package = SRC / "cgdm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"benchmark: no program at {package}")
    try:
        import cgdm
    except ImportError as err:
        sys.exit(f"benchmark: cannot import cgdm from {SRC}: {err}")
    if Path(cgdm.__file__).resolve().parent != package.resolve():
        sys.exit(f"benchmark: imported cgdm from {cgdm.__file__}, not {package}")
    return cgdm


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }

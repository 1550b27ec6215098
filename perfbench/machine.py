"""Record of the machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads")


def _openblas_threads() -> "int | None":
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in _OPENBLAS_GETTERS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches() -> "dict[str, str]":
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    for d in sorted(base.glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            out[f"L{level} {kind}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return out


def _cpu_model() -> "str | None":
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> "str | None":
    """HEAD of the checkout when it is a git work tree, read from files."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root: Path) -> dict:
    """Call after numpy and scipy are imported, so their BLAS is loaded."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        "git_commit": _git_commit(root),
    }

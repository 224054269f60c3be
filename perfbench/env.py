"""Provenance of a benchmark result: machine, interpreter, numpy and BLAS."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the highest-level cache of cpu0, as sysfs reports it."""
    best = None
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def blas_threads() -> tuple[int | None, str]:
    """Thread count the loaded OpenBLAS reports, else the capped env var."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in BLAS_THREAD_SYMBOLS:
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter(), symbol
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return (int(value) if value else None), "OPENBLAS_NUM_THREADS"


def provenance(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = blas_threads()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_source": source,
        "platform": platform.platform(),
    }

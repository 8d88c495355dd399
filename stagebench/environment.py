"""Process settings that make timings repeat: BLAS threads and malloc.

BLAS: the thread-count variables only take effect if they are set before
the BLAS library is loaded, so `pin_blas` must run before the first numpy
import of the process.  `effective_threads` asks the loaded OpenBLAS itself,
found among the shared objects mapped into this process.

malloc: glibc serves large blocks (numpy temporaries of a batch-32 forward
pass are megabytes) with fresh mmaps, which the kernel page-faults and
zeroes on first touch, until a free raises its dynamic mmap threshold.
Whether and when that happens depends on the process's allocation history,
and the same forward pass ran 1.6x slower in some processes than in others.
`pin_malloc` fixes both thresholds so large blocks are reused from the heap
in every process.
"""

from __future__ import annotations

import ctypes
import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Symbol names of openblas_get_num_threads across the builds numpy ships with.
GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_THRESHOLD = 1 << 30


def pin_blas(threads: int = 1) -> None:
    for name in THREAD_VARIABLES:
        os.environ[name] = str(threads)


def pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds; False where mallopt is missing or refuses."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)) and bool(
        mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD))


def _loaded_openblas() -> list[str]:
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in paths:
                paths.append(path)
    return paths


def effective_threads() -> int:
    """Thread count reported by the loaded OpenBLAS, or -1 if it cannot be read."""
    try:
        paths = _loaded_openblas()
    except OSError:
        return -1
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return -1

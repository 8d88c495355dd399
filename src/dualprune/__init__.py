"""Dual-importance unstructured pruning for a small decoder-only transformer.

The pipeline: pretrain a toy byte-level transformer, score general weight
importance on open-domain calibration data, blend it with domain-specific
gradients into dual importance scores, select unstructured masks, and
evaluate the pruned model.  The API lives in the submodules (`dualprune.model`,
`dualprune.importance`, ...): the package root binds only those modules, so each
public name has one import path.

Importing the package makes three process-wide settings, none of which any
result depends on; a RuntimeWarning names each of the first two that cannot
be applied:

* OpenBLAS runs on one thread, since a multi-threaded GEMM sums in an order
  that depends on the thread count and results must be reproducible
  bit-for-bit.
* glibc's malloc keeps one arena and fixes its mmap and trim thresholds at
  1 GiB (`_MALLOC_POLICY`), so the pool's threads share one heap and the
  megabyte temporaries of a pass are reused from it rather than mapped and
  page-faulted afresh each time.
* `model.EVAL_POOL` is made, with one worker per usable CPU
  (`model.EVAL_WORKERS`); its threads start on its first task.

The batches of an evaluation pass (`model.mean_corpus_loss`), the chunks of
a per-sample gradient pass (`importance.next_token_gradients`) and the row
blocks of every batch loss (`model.row_block_loss`) run on that pool.  A row
block's one call runs its forward pass and, under a tape, its reverse pass
too, so `tensor.backward` never schedules work.  Each of those functions
says how its work is scheduled and why its results do not depend on the
number of workers.
"""

import ctypes as _ctypes
import os as _os
import warnings as _warnings

# openblas_set_num_threads under the symbol names of the builds numpy ships with.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

# (name, glibc's mallopt parameter, value) of each malloc setting made at import.
_MALLOC_POLICY = (
    ("M_ARENA_MAX", -8, 1),
    ("M_MMAP_THRESHOLD", -3, 1 << 30),
    ("M_TRIM_THRESHOLD", -1, 1 << 30),
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in _os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _pin_blas_threads() -> None:
    for path in _loaded_openblas():
        lib = _ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [_ctypes.c_int]
                setter.restype = None
                setter(1)
                return
    _warnings.warn("dualprune: found no OpenBLAS thread setter, so BLAS is not pinned to one "
                   "thread and results may differ between thread counts", RuntimeWarning,
                   stacklevel=2)


def _pin_malloc(mallopt) -> None:
    """Apply `_MALLOC_POLICY` with glibc's `mallopt` (None where the C library
    has none); a RuntimeWarning names each setting that is missing or refused."""
    if mallopt is not None:
        mallopt.argtypes = [_ctypes.c_int, _ctypes.c_int]
        mallopt.restype = _ctypes.c_int
    unset = [name for name, param, value in _MALLOC_POLICY if mallopt is None or not mallopt(param, value)]
    if unset:
        _warnings.warn(f"dualprune: could not set malloc's {', '.join(unset)}, so passes may run "
                       "slower or hold more memory, with the same results", RuntimeWarning,
                       stacklevel=2)


from . import container, corpus, errors, evaluation, importance, model, pruning, tensor

__version__ = "0.1.0"

_pin_blas_threads()  # after the imports above have loaded numpy and its BLAS
_pin_malloc(getattr(_ctypes.CDLL(None), "mallopt", None))  # before the pool's threads start

"""Dual-importance unstructured pruning for a small decoder-only transformer.

The pipeline: pretrain a toy byte-level transformer, score general weight
importance on open-domain calibration data, blend it with domain-specific
gradients into dual importance scores, select unstructured masks, and
evaluate the pruned model.  The API lives in the submodules (`dualprune.model`,
`dualprune.importance`, ...): the package root binds only those modules, so each
public name has one import path.

Results must be reproducible bit-for-bit, and a multi-threaded GEMM sums in
an order that depends on the thread count.  So every pass, and every GEMM in
it, stays on one BLAS thread: on import the OpenBLAS that numpy loaded is
pinned to one thread, and a RuntimeWarning says so when no OpenBLAS thread
setter is found.  The independent batches of an evaluation pass
(`model.mean_corpus_loss`), the chunks of a per-sample gradient pass
(`importance.next_token_gradients`), the row blocks of the exact removal
oracle's passes (`importance.brute_force_importance`) and the row blocks of
every batch loss (`model.batch_next_token_loss`, so of every SGD step) run
concurrently on one thread pool with one worker per usable CPU.  Their
losses or gradients are reduced in corpus order, and a gradient that sums
over a batch's rows is reduced once on the rows of all its blocks, so the
results do not depend on the number of workers.  A pass made inside a pool
task takes back the blocks no worker has started and runs them itself, so
nested passes cannot deadlock the pool; a caller outside the pool waits for
the workers, so no more passes run at once than the pool has workers.
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


from . import container, corpus, errors, evaluation, importance, model, pruning, tensor

__version__ = "0.1.0"

_pin_blas_threads()  # after the imports above have loaded numpy and its BLAS

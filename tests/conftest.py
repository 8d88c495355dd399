"""Fixtures shared by the test modules."""

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import dualprune


@pytest.fixture(scope="session")
def package_env():
    """The environment for a subprocess that imports this package from this checkout."""
    src = str(Path(dualprune.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def eval_pool(monkeypatch):
    """`use(workers, pool=None)` puts `pool` in place of the process-wide eval
    pool, reporting `workers` workers, and returns it; by default a new pool
    of `workers` threads, shut down after the test."""
    pools = []

    def use(workers, pool=None):
        if pool is None:
            pool = ThreadPoolExecutor(workers)
            pools.append(pool)
        monkeypatch.setattr(dualprune.model, "EVAL_POOL", pool)
        monkeypatch.setattr(dualprune.model, "EVAL_WORKERS", workers)
        return pool

    yield use
    for pool in pools:
        pool.shutdown()

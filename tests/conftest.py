"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import dualprune


@pytest.fixture
def eval_pool(monkeypatch):
    """Puts a pool of the given size, and its worker count, in place of the
    process-wide eval pool's."""
    pools = []

    def use(workers):
        pool = ThreadPoolExecutor(workers)
        pools.append(pool)
        monkeypatch.setattr(dualprune.model, "_eval_pool", lambda: pool)
        monkeypatch.setattr(dualprune.model, "_eval_pool_workers", workers)

    yield use
    for pool in pools:
        pool.shutdown()

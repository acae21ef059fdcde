"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance
from repro.core.costs import QuadraticCost, AbsCost
from repro.workloads import diurnal_loads, instance_from_loads
from repro.workloads import random_convex_instance  # noqa: F401 (re-export)


def hinge_instance(centers, m: int, beta: float, slope: float = 1.0) -> Instance:
    """Instance of hinge rows |x - c| — the Section 5 building block."""
    fs = [AbsCost(float(c), slope) for c in centers]
    return Instance.from_functions(fs, m, beta)


def bowl_instance(centers, m: int, beta: float, a: float = 1.0) -> Instance:
    """Instance of quadratic bowls centered on a trajectory."""
    fs = [QuadraticCost(a, float(c)) for c in centers]
    return Instance.from_functions(fs, m, beta)


def trace_instance(seed: int = 0, T: int = 96, peak: float = 12.0,
                   beta: float = 4.0) -> Instance:
    """Small diurnal-trace instance used by integration tests."""
    rng = np.random.default_rng(seed)
    loads = diurnal_loads(T, peak=peak, rng=rng)
    m = int(np.ceil(peak * 1.3))
    return instance_from_loads(loads, m=m, beta=beta)


@pytest.fixture(autouse=True)
def _isolate_executor_state():
    """Shield tests from each other's executor/fault-harness state.

    The worker pool is module-global and persists across tests; a test
    that grows it (or leaves fault-injecting workers behind) changes
    how later tests schedule chunks — the full-suite-only flake in
    ``test_parallel_rows_bit_identical_under_both_backends``.  Tear
    down any pool a test created and always clear fault-plan state.

    The pinned-down cross-test coupling behind that flake is wider
    than the pool object itself: pool workers fork a *snapshot* of the
    parent — its ``REPRO_*`` environment (kernel selection, fault
    plan), its sweep memo and its instance memo — so any
    test that leaks one of those changes what later-forked workers
    compute relative to the in-process reference run.  Restore the
    environment knobs and drop the per-process memos after every test;
    both are cheap (the memos are tiny LRUs) and make each test's
    forks start from the same parent state.
    """
    import os

    from repro import kernels
    from repro.runner import executor, faults, instancestore
    env_keys = (kernels.ENV_VAR, faults.ENV_VAR)
    env_before = {key: os.environ.get(key) for key in env_keys}
    pool_before = executor._POOL
    yield
    faults.deactivate()
    faults.reset()
    for key, value in env_before.items():
        if value is None:
            os.environ.pop(key, None)
        elif os.environ.get(key) != value:
            os.environ[key] = value
    kernels.clear_sweep_cache()
    instancestore.clear_memo()
    if executor._POOL is not None and executor._POOL is not pool_before:
        executor.shutdown_pool()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(params=[0, 1, 2, 3])
def small_random_instance(request) -> Instance:
    """Four seeded small instances (brute-force verifiable)."""
    g = np.random.default_rng(100 + request.param)
    T = int(g.integers(2, 6))
    m = int(g.integers(1, 5))
    beta = float(g.uniform(0.3, 3.0))
    return random_convex_instance(g, T, m, beta)

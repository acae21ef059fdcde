"""Tests for the zero-rebuild execution layer: the mmap instance store,
the per-process build memo, and the persistent worker pool."""

import os

import numpy as np
import pytest

from repro.offline.restricted import restricted_cost_matrix
from repro.runner import (EngineConfig, GridSpec, InstanceStore, RunStats,
                          build_instance, get_instance, run_grid,
                          shutdown_pool)
from repro.runner import executor as executor_mod
from repro.runner import instancestore
from repro.runner.instancestore import StoredRestrictedInstance, store_key


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test sees an empty per-process memo."""
    instancestore.clear_memo()
    yield
    instancestore.clear_memo()


GRID = GridSpec(scenarios=("diurnal", "sawtooth"),
                algorithms=("lcp", "threshold", "memoryless"),
                seeds=(0, 1), sizes=(20,))


class TestStorePayloads:
    def test_general_roundtrip_bit_identical(self, tmp_path):
        store = InstanceStore(tmp_path)
        coords = ("diurnal", "general", 24, 3)
        fresh = build_instance("diurnal", 24, 3)
        store.put(coords, fresh)
        loaded = store.load(coords)
        assert loaded.beta == fresh.beta
        np.testing.assert_array_equal(np.asarray(loaded.F), fresh.F)
        # mmap-backed: the matrix is a read-only memory map, not a copy
        assert isinstance(np.asarray(loaded.F).base, np.memmap) \
            or isinstance(loaded.F, np.memmap)

    def test_restricted_roundtrip(self, tmp_path):
        store = InstanceStore(tmp_path)
        coords = ("restricted-diurnal", "restricted", 16, 1)
        ri = build_instance("restricted-diurnal", 16, 1,
                            pipeline="restricted")
        store.put(coords, ri)
        loaded = store.load(coords)
        assert isinstance(loaded, StoredRestrictedInstance)
        assert (loaded.T, loaded.m, loaded.beta) == (ri.T, ri.m, ri.beta)
        np.testing.assert_array_equal(np.asarray(loaded.loads), ri.loads)
        np.testing.assert_array_equal(np.asarray(loaded.costs),
                                      restricted_cost_matrix(ri))

    def test_hetero_roundtrip(self, tmp_path):
        store = InstanceStore(tmp_path)
        coords = ("hetero-fleet", "hetero", 12, 0)
        hi = build_instance("hetero-fleet", 12, 0, pipeline="hetero")
        store.put(coords, hi)
        loaded = store.load(coords)
        assert (loaded.beta1, loaded.beta2) == (hi.beta1, hi.beta2)
        np.testing.assert_array_equal(np.asarray(loaded.F), hi.F)

    def test_load_missing_returns_none(self, tmp_path):
        assert InstanceStore(tmp_path).load(("diurnal", "general", 8, 0)) \
            is None

    def test_corrupt_meta_returns_none(self, tmp_path):
        store = InstanceStore(tmp_path)
        coords = ("diurnal", "general", 8, 0)
        store.put(coords, build_instance("diurnal", 8, 0))
        (store.dir(coords) / "meta.json").write_text("{not json")
        assert store.load(coords) is None
        # get_instance falls back to a live build
        inst = get_instance(coords, tmp_path)
        assert inst.T == 8

    def test_materialize_once(self, tmp_path):
        store = InstanceStore(tmp_path)
        coords = ("diurnal", "general", 8, 0)
        assert store.materialize(coords) is True
        assert store.materialize(coords) is False  # already present
        assert store.has(coords)
        info = store.stats()
        assert info["entries"] == 1 and info["bytes"] > 0

    def test_store_keys_distinct_per_coordinate(self):
        keys = {store_key(("diurnal", "general", T, s))
                for T in (8, 16) for s in (0, 1)}
        assert len(keys) == 4


class TestGetInstance:
    def test_memo_prevents_second_build(self, monkeypatch):
        calls = []
        import repro.runner.scenarios as scen
        orig = scen.build_instance
        monkeypatch.setattr(scen, "build_instance",
                            lambda *a, **k: calls.append(a) or orig(*a, **k))
        coords = ("diurnal", "general", 10, 0)
        a = get_instance(coords)
        b = get_instance(coords)
        assert a is b and len(calls) == 1

    def test_memo_lru_bound(self):
        previous = instancestore.set_memo_size(2)
        try:
            for seed in range(4):
                get_instance(("diurnal", "general", 8, seed))
            assert len(instancestore._MEMO) == 2
        finally:
            instancestore.set_memo_size(previous)

    def test_memo_bounded_by_resident_bytes(self):
        previous = instancestore._MEMO_BYTES
        instancestore._MEMO_BYTES = 1  # any built instance exceeds this
        try:
            for seed in range(3):
                get_instance(("diurnal", "general", 16, seed))
            # the byte bound keeps at most one oversized entry resident
            assert len(instancestore._MEMO) == 1
        finally:
            instancestore._MEMO_BYTES = previous

    def test_mmap_backed_entries_count_as_free(self, tmp_path):
        store = InstanceStore(tmp_path)
        coords = ("diurnal", "general", 16, 0)
        store.put(coords, build_instance("diurnal", 16, 0))
        loaded = store.load(coords)
        assert instancestore._resident_nbytes(loaded) == 0
        assert instancestore._resident_nbytes(
            build_instance("diurnal", 16, 0)) > 0

    def test_memo_disabled_rebuilds(self):
        previous = instancestore.set_memo_size(0)
        try:
            before = instancestore.build_stats()["inst_builds"]
            get_instance(("diurnal", "general", 8, 0))
            get_instance(("diurnal", "general", 8, 0))
            after = instancestore.build_stats()["inst_builds"]
            assert after - before == 2
        finally:
            instancestore.set_memo_size(previous)


class TestRunGridWithStore:
    def test_rows_identical_to_rebuild_path(self, tmp_path):
        plain = run_grid(GRID)
        instancestore.clear_memo()
        stored = run_grid(GRID, EngineConfig(store_dir=tmp_path))
        assert stored == plain  # bit-identical, including float fields

    def test_each_instance_built_exactly_once_end_to_end(self, tmp_path):
        stats = RunStats()
        run_grid(GRID, EngineConfig(store_dir=tmp_path), stats=stats)
        # 2 scenarios x 2 seeds = 4 distinct instances; 12 jobs
        assert stats.inst_materialized == 4
        assert stats.inst_builds == 4
        assert stats.inst_loads == 4   # each solve mmap-loads it once
        # a second run (fresh memo) never builds again
        instancestore.clear_memo()
        stats2 = RunStats()
        run_grid(GRID, EngineConfig(store_dir=tmp_path), stats=stats2)
        assert stats2.inst_materialized == 0
        assert stats2.inst_builds == 0
        assert stats2.inst_loads == 4

    def test_store_with_cache_and_parallel(self, tmp_path):
        cache = tmp_path / "cache"
        store = tmp_path / "store"
        rows1 = run_grid(GRID, EngineConfig(cache_dir=cache, store_dir=store))
        instancestore.clear_memo()
        rows4 = run_grid(GRID,
                         EngineConfig(n_jobs=4, store_dir=store, force=True,
                                      cache_dir=cache))
        assert rows1 == rows4
        shutdown_pool()

    def test_restricted_and_hetero_through_store(self, tmp_path):
        spec = GridSpec(scenarios=("restricted-diurnal", "hetero-fleet"),
                        algorithms=("restricted", "lcp", "dp_hetero",
                                    "greedy_hetero"),
                        seeds=(0,), sizes=(16,))
        with pytest.raises(ValueError):
            run_grid(spec)  # mixed pipelines vs scenarios fail fast
        spec_r = GridSpec(scenarios=("restricted-diurnal",),
                          algorithms=("restricted", "lcp"),
                          seeds=(0, 1), sizes=(16,))
        spec_h = GridSpec(scenarios=("hetero-fleet",),
                          algorithms=("dp_hetero", "greedy_hetero"),
                          seeds=(0,), sizes=(16,))
        for spec in (spec_r, spec_h):
            plain = run_grid(spec)
            instancestore.clear_memo()
            assert run_grid(spec, EngineConfig(store_dir=tmp_path)) == plain


def _worker_pid(_):
    return os.getpid()


class TestPersistentPool:
    def test_pool_reused_across_calls(self):
        from repro.runner.engine import parallel_map
        shutdown_pool()
        pids1 = set(parallel_map(_worker_pid, range(8), n_jobs=2))
        pool1 = executor_mod._POOL
        workers1 = set(pool1._processes)
        pids2 = set(parallel_map(_worker_pid, range(8), n_jobs=2))
        assert executor_mod._POOL is pool1          # same executor object
        assert set(pool1._processes) == workers1    # same worker processes
        assert (pids1 | pids2) <= workers1          # jobs ran on them
        shutdown_pool()

    def test_pool_reused_across_run_grid_calls(self, tmp_path):
        shutdown_pool()
        run_grid(SMALL_POOL, EngineConfig(n_jobs=2))
        pool1 = executor_mod._POOL
        run_grid(SMALL_POOL,
                 EngineConfig(n_jobs=2, store_dir=tmp_path, force=True))
        assert executor_mod._POOL is pool1
        shutdown_pool()

    def test_pool_grows_never_shrinks(self):
        from repro.runner.engine import parallel_map
        shutdown_pool()
        parallel_map(_worker_pid, range(4), n_jobs=2)
        assert executor_mod._POOL_WORKERS == 2
        parallel_map(_worker_pid, range(8), n_jobs=4)
        assert executor_mod._POOL_WORKERS == 4
        parallel_map(_worker_pid, range(4), n_jobs=2)
        assert executor_mod._POOL_WORKERS == 4  # kept, not shrunk
        shutdown_pool()
        assert (executor_mod._POOL is None
                and executor_mod._POOL_WORKERS == 0)

    def test_shutdown_then_fresh_pool(self):
        from repro.runner.engine import parallel_map
        shutdown_pool()
        pids1 = set(parallel_map(_worker_pid, range(4), n_jobs=2))
        shutdown_pool()
        pids2 = set(parallel_map(_worker_pid, range(4), n_jobs=2))
        assert pids1.isdisjoint(pids2)  # genuinely new processes
        shutdown_pool()


SMALL_POOL = GridSpec(scenarios=("diurnal",),
                      algorithms=("lcp", "threshold"),
                      seeds=(0, 1), sizes=(16,))


class TestVectorizedRestricted:
    def test_matrix_matches_scalar_reference(self):
        ri = build_instance("restricted-diurnal", 20, 2,
                            pipeline="restricted")
        F = restricted_cost_matrix(ri)
        assert F.shape == (ri.T, ri.m + 1)
        import math
        for t in range(ri.T):
            lo = max(int(math.ceil(float(ri.loads[t]) - 1e-12)), 0)
            for j in range(ri.m + 1):
                if j < lo:
                    assert F[t, j] == np.inf
                else:
                    assert F[t, j] == ri.operating_cost(t + 1, j)

    def test_scalar_only_cost_falls_back(self):
        import math
        from repro.workloads import restricted_from_loads

        def scalar_f(z):
            return math.exp(z)  # raises TypeError on arrays

        ri = restricted_from_loads([0.0, 1.4, 2.2], m=4, beta=2.0,
                                   f=scalar_f)
        F = restricted_cost_matrix(ri)
        for t in range(3):
            for j in range(5):
                if j >= math.ceil(ri.loads[t] - 1e-12):
                    assert F[t, j] == pytest.approx(
                        ri.operating_cost(t + 1, j))

    def test_cost_undefined_at_zero_never_probed_infeasibly(self):
        """f is only evaluated on feasible utilizations — a scalar-only
        cost undefined at 0 must not crash on infeasible cells."""
        from repro.offline import solve_restricted
        from repro.workloads import restricted_from_loads

        def picky_f(z):
            if not isinstance(z, float) or z <= 0:
                raise ValueError("defined on scalar z > 0 only")
            return 1.0 / z

        # floor 2 at t=0 makes state 1 infeasible; t=1 allows z > 0 only
        ri = restricted_from_loads([1.5, 0.5], m=3, beta=1.0, f=picky_f)
        F = restricted_cost_matrix(ri)
        assert F[0, 0] == np.inf and F[0, 1] == np.inf
        assert F[0, 2] == ri.operating_cost(1, 2)
        assert solve_restricted(ri).cost > 0

    def test_tiny_load_keeps_state_zero_feasible(self):
        """Loads below the feasibility tolerance behave like zero, as
        the scalar tabulation always did."""
        from repro.offline import solve_restricted
        from repro.workloads import restricted_from_loads
        ri = restricted_from_loads([5e-13, 0.0], m=3, beta=2.0)
        F = restricted_cost_matrix(ri)
        assert F[0, 0] == 0.0 and F[1, 0] == 0.0
        res = solve_restricted(ri)
        assert list(res.schedule) == [0, 0] and res.cost == 0.0

    def test_solver_consumes_stored_view(self, tmp_path):
        from repro.offline import solve_restricted
        ri = build_instance("restricted-diurnal", 16, 0,
                            pipeline="restricted")
        store = InstanceStore(tmp_path)
        coords = ("restricted-diurnal", "restricted", 16, 0)
        store.put(coords, ri)
        view = store.load(coords)
        res_view = solve_restricted(view)
        res_full = solve_restricted(ri)
        assert res_view.cost == res_full.cost
        np.testing.assert_array_equal(res_view.schedule, res_full.schedule)

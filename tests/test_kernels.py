"""Scalar vs vectorized kernel equivalence.

The contract (docs/KERNELS.md): the vectorized whole-table kernels are
**bit-identical** to the per-step scalar reference — same bound
trajectories, same optimum float, same replayed schedules and costs —
for every sweep-sharing algorithm, the backward solver, and whole
engine grids across pipelines.
"""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import scalar as scalar_kernel
from repro.kernels import vectorized as vector_kernel
from repro.offline import solve_backward_lcp, solve_dp
from repro.offline.backward import prefix_bounds
from repro.online import run_online, run_online_many
from repro.online.workfunction import WorkFunctions
from repro.runner import EngineConfig, GridSpec, RunStats, run_grid
from repro.runner.registry import _REGISTRY, get_spec
from repro.runner.scenarios import build_instance


def _random_instances():
    """A spread of shapes: tiny horizons, flat ties, real scenarios."""
    rng = np.random.default_rng(7)
    for trial in range(8):
        T = int(rng.integers(1, 40))
        m = int(rng.integers(0, 9))
        beta = float(rng.uniform(0.2, 6.0))
        yield rng.uniform(0.0, 10.0, size=(T, m + 1)), beta
    # plateaus: many exact argmin ties exercise first/last tie-breaking
    yield np.zeros((12, 6)), 1.5
    yield np.tile([3.0, 1.0, 1.0, 1.0, 5.0], (9, 1)), 2.0
    for scenario, T, seed in (("diurnal", 96, 0), ("sawtooth", 64, 1),
                              ("bursty", 128, 2)):
        inst = build_instance(scenario, T, seed)
        yield np.asarray(inst.F), float(inst.beta)


class TestSweepEquivalence:
    def test_sweep_bit_identical(self):
        """lo/hi/opt agree exactly between kernels on every shape."""
        for F, beta in _random_instances():
            s = scalar_kernel.sweep_workfunction(F, beta)
            v = vector_kernel.sweep_workfunction(F, beta)
            assert np.array_equal(s.lo, v.lo)
            assert np.array_equal(s.hi, v.hi)
            assert s.opt == v.opt  # bitwise, no tolerance

    def test_sweep_matches_per_step_workfunctions(self):
        """Protocol-level bound equality: the whole-table trajectories
        equal the per-step ``WorkFunctions.bounds()`` stream."""
        for F, beta in _random_instances():
            v = vector_kernel.sweep_workfunction(F, beta)
            wf = WorkFunctions(F.shape[1] - 1, beta)
            for t in range(F.shape[0]):
                wf.update(F[t])
                lo, hi = wf.bounds()
                assert (v.lo[t], v.hi[t]) == (lo, hi), f"t={t}"

    def test_opt_is_dp_optimum_bitwise(self):
        """The final work-function row's minimum *is* the Section 2 DP
        optimum — the identity the engine's optimum solve relies on."""
        for scenario, T, seed in (("diurnal", 96, 0), ("onoff", 200, 4)):
            inst = build_instance(scenario, T, seed)
            dp = solve_dp(inst, return_schedule=False).cost
            for name in kernels.KERNELS:
                with kernels.use(name):
                    sweep = kernels.sweep_workfunction(inst.F, inst.beta)
                assert sweep.opt == dp

    def test_empty_table(self):
        for name in kernels.KERNELS:
            with kernels.use(name):
                sweep = kernels.sweep_workfunction(
                    np.zeros((0, 4)), 1.0)
            assert sweep.lo.size == 0 and sweep.hi.size == 0
            assert sweep.opt == 0.0


class TestDispatch:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.active() == "vector"

    def test_env_selects_scalar(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "scalar")
        assert kernels.active() == "scalar"

    def test_unknown_kernel_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "cuda")
        with pytest.raises(ValueError):
            kernels.active()
        with pytest.raises(ValueError):
            kernels.set_kernel("cuda")

    def test_use_restores_prior_selection(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "scalar")
        with kernels.use("vector"):
            assert kernels.active() == "vector"
        assert kernels.active() == "scalar"

    def test_cached_sweep_memoizes_per_kernel(self):
        kernels.clear_sweep_cache()
        inst = build_instance("diurnal", 24, 0)
        with kernels.use("vector"):
            first = kernels.cached_sweep("k", inst.F, inst.beta)
            again = kernels.cached_sweep("k", inst.F, inst.beta)
        assert again is first  # memo hit
        with kernels.use("scalar"):
            other = kernels.cached_sweep("k", inst.F, inst.beta)
        assert other is not first  # keyed by active kernel too
        assert np.array_equal(other.lo, first.lo)
        kernels.clear_sweep_cache()


class TestBatchedKernel:
    """The per-process sweep memo: LRU eviction and hit/miss counters
    (the class keeps its historical name so the test ids stay put)."""

    def test_memo_evicts_least_recent_past_capacity(self, monkeypatch):
        monkeypatch.setattr(kernels, "_SWEEP_CACHE_SIZE", 2)
        kernels.clear_sweep_cache()
        tab = np.ones((6, 4))

        def memoized(key):
            return ("vector", key) in kernels._SWEEP_CACHE

        with kernels.use("vector"):
            for k in range(3):
                kernels.cached_sweep(("m", k), tab, 1.0)
            assert not memoized(("m", 0))
            kernels.cached_sweep(("m", 1), tab, 1.0)   # refresh 1
            kernels.cached_sweep(("m", 3), tab, 1.0)   # evicts 2
            assert memoized(("m", 1))
            assert not memoized(("m", 2))
            assert memoized(("m", 3))
        kernels.clear_sweep_cache()

    def test_sweep_stats_count_hits_and_misses(self):
        kernels.clear_sweep_cache()
        tab = np.ones((6, 4))
        before = kernels.sweep_stats()
        with kernels.use("vector"):
            kernels.cached_sweep(("st", 0), tab, 1.0)
            kernels.cached_sweep(("st", 0), tab, 1.0)
            kernels.cached_sweep(("st", 0), tab, 1.0)
            kernels.cached_sweep(("st", 1), tab, 1.0)
        after = kernels.sweep_stats()
        assert after["sweep_memo_misses"] - before["sweep_memo_misses"] == 2
        assert after["sweep_memo_hits"] - before["sweep_memo_hits"] == 2
        kernels.clear_sweep_cache()


def _sharing_online_names():
    return [name for name, spec in _REGISTRY.items()
            if spec.shares_workfunction and spec.kind == "online"]


class TestReplayEquivalence:
    """Every sweep-sharing algorithm and every fast-path baseline
    replays bit-identically under both kernels."""

    FAST_PATH_BASELINES = ("threshold", "memoryless", "followmin",
                          "never-off", "randomized")

    def _replay(self, name, inst, kernel):
        with kernels.use(kernel):
            return run_online(inst, get_spec(name).make())

    @pytest.mark.parametrize("scenario,T,seed",
                             [("diurnal", 96, 0), ("sawtooth", 64, 1),
                              ("onoff", 200, 2)])
    def test_sharers_and_baselines_bit_identical(self, scenario, T, seed):
        inst = build_instance(scenario, T, seed)
        names = _sharing_online_names() + list(self.FAST_PATH_BASELINES)
        for name in names:
            s = self._replay(name, inst, "scalar")
            v = self._replay(name, inst, "vector")
            assert v.cost == s.cost, name
            assert np.array_equal(v.schedule, s.schedule), name

    def test_run_online_many_bit_identical(self):
        inst = build_instance("bursty", 128, 3)
        names = _sharing_online_names() + list(self.FAST_PATH_BASELINES)
        results = {}
        for kernel in kernels.KERNELS:
            with kernels.use(kernel):
                results[kernel] = run_online_many(
                    inst, [get_spec(n).make() for n in names])
        for name, s, v in zip(names, results["scalar"],
                              results["vector"]):
            assert v.cost == s.cost, name
            assert np.array_equal(v.schedule, s.schedule), name

    def test_lookahead_consumer_falls_back_identically(self):
        from repro.online import LCP
        inst = build_instance("diurnal", 48, 1)
        outs = {}
        for kernel in kernels.KERNELS:
            with kernels.use(kernel):
                outs[kernel] = run_online_many(
                    inst, [LCP(lookahead=3), LCP()])
        for s, v in zip(outs["scalar"], outs["vector"]):
            assert v.cost == s.cost
            assert np.array_equal(v.schedule, s.schedule)

    def test_lcp_bounds_log_matches_kernel_trajectory(self):
        """Protocol-level equality at the replay seam: the per-step
        ``bounds_log`` equals the kernel's whole-table trajectory."""
        from repro.online import LCP
        inst = build_instance("sawtooth", 64, 0)
        logs = {}
        for kernel in kernels.KERNELS:
            alg = LCP(record_bounds=True)
            with kernels.use(kernel):
                run_online(inst, alg)
            logs[kernel] = alg.bounds_log
        sweep = kernels.sweep_workfunction(inst.F, inst.beta)
        expected = list(zip(sweep.lo.tolist(), sweep.hi.tolist()))
        for kernel in kernels.KERNELS:
            assert logs[kernel] == expected, kernel


class TestBackwardSolver:
    def test_backward_lcp_bit_identical(self):
        for scenario, T, seed in (("diurnal", 96, 0), ("onoff", 200, 4)):
            inst = build_instance(scenario, T, seed)
            outs = {}
            for kernel in kernels.KERNELS:
                with kernels.use(kernel):
                    outs[kernel] = solve_backward_lcp(inst)
            assert outs["vector"].cost == outs["scalar"].cost
            assert np.array_equal(outs["vector"].schedule,
                                  outs["scalar"].schedule)

    def test_precomputed_bounds_short_circuit(self):
        inst = build_instance("diurnal", 48, 0)
        sweep = kernels.sweep_workfunction(inst.F, inst.beta)
        direct = solve_backward_lcp(inst)
        handed = solve_backward_lcp(inst, bounds=sweep)
        assert handed.cost == direct.cost
        assert np.array_equal(handed.schedule, direct.schedule)

    def test_prefix_bounds_roundtrip(self):
        inst = build_instance("sawtooth", 32, 2)
        lo, hi = prefix_bounds(inst)
        sweep = kernels.sweep_workfunction(inst.F, inst.beta)
        assert np.array_equal(lo, sweep.lo)
        assert np.array_equal(hi, sweep.hi)
        assert (lo <= hi).all()  # Lemma 6


class TestRestrictedKernels:
    """The restricted solver's forward/backward passes ride the kernel
    dispatch: scalar and vector must agree bitwise on cost
    *and* schedule, including the feasibility-tolerance edge cases."""

    def _instances(self):
        from repro.core.instance import RestrictedInstance
        rng = np.random.default_rng(13)
        for trial in range(4):
            T = int(rng.integers(1, 50))
            m = int(rng.integers(1, 8))
            yield RestrictedInstance(
                beta=float(rng.uniform(0.3, 4.0)), m=m,
                f=lambda z: z ** 2 + 0.25,
                loads=rng.uniform(0.0, m, size=T))
        # loads sitting exactly on (and within 1e-13 of) integer
        # feasibility floors: the 1e-12 ceil tolerance must round the
        # same way in every path
        m = 4
        base = rng.integers(0, m + 1, size=30).astype(np.float64)
        eps = rng.choice([0.0, 1e-13, -1e-13, 1e-12, -1e-12], size=30)
        yield RestrictedInstance(
            beta=1.0, m=m, f=lambda z: z ** 2 + 0.25,
            loads=np.clip(base + eps, 0.0, m))
        # full load every step (schedule forced to m) and zero load
        yield RestrictedInstance(beta=2.0, m=3,
                                 f=lambda z: z + 1.0,
                                 loads=np.full(12, 3.0))
        yield RestrictedInstance(beta=2.0, m=3, f=lambda z: z + 1.0,
                                 loads=np.zeros(12))

    def test_solver_bit_identical_across_kernels(self):
        from repro.offline import solve_restricted
        for k, ri in enumerate(self._instances()):
            outs = {}
            for name in kernels.KERNELS:
                with kernels.use(name):
                    outs[name] = solve_restricted(ri)
            assert outs["vector"].cost == outs["scalar"].cost, k
            assert np.array_equal(outs["vector"].schedule,
                                  outs["scalar"].schedule), k
            floors = np.maximum(np.ceil(np.asarray(ri.loads) - 1e-12), 0)
            assert (outs["scalar"].schedule >= floors).all(), k

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_infeasible_cells_never_evaluated(self, kernel):
        """A non-broadcasting ``f`` sees only feasible utilizations:
        the masked cells' placeholder 0.0 never reaches it."""
        from repro.core.instance import RestrictedInstance
        from repro.offline import solve_restricted
        seen = []

        def f(z):
            if not np.isscalar(z) and getattr(z, "ndim", 1) != 0:
                raise TypeError("scalar only")  # defeat broadcasting
            seen.append(float(z))
            return float(z) + 1.0

        loads = np.array([2.0, 3.0, 1.0, 0.0, 2.5])
        ri = RestrictedInstance(beta=1.0, m=3, f=f, loads=loads)
        with kernels.use(kernel):
            out = solve_restricted(ri)
        floors = np.ceil(loads - 1e-12)
        assert (out.schedule >= floors).all()
        # every recorded utilization is feasible (z <= 1 up to the
        # load tolerance), so no masked placeholder was priced
        assert seen and max(seen) <= 1.0 + 1e-9

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_infeasible_instance_raises(self, kernel):
        """A precomputed cost table with an all-infeasible column (only
        reachable through the duck-typed ``costs`` seam —
        ``RestrictedInstance`` validates ``loads <= m``) raises in
        every kernel."""
        from repro.offline import solve_restricted

        class Infeasible:
            T, m, beta = 3, 2, 1.0
            costs = np.array([[0.0, 1.0, 2.0],
                              [np.inf, np.inf, np.inf],
                              [0.0, 1.0, 2.0]])

        with kernels.use(kernel):
            with pytest.raises(ValueError, match="no feasible"):
                solve_restricted(Infeasible())


class TestEngineGrids:
    """Whole grids — every pipeline, sharers + backward solver mixed —
    produce bit-identical rows under every kernel."""

    GRIDS = {
        "general": GridSpec(
            scenarios=("diurnal", "sawtooth"),
            algorithms=("lcp", "eager-lcp", "threshold", "memoryless",
                        "followmin", "never-off", "backward_lcp", "dp"),
            seeds=(0, 1), sizes=(24,)),
        "restricted": GridSpec(
            scenarios=("restricted-diurnal",),
            algorithms=("restricted", "lcp", "eager-lcp"),
            seeds=(0,), sizes=(16,)),
        "hetero": GridSpec(
            scenarios=("hetero-fleet",),
            algorithms=("dp_hetero", "greedy_hetero"),
            seeds=(0,), sizes=(16,)),
        "lookahead": GridSpec(
            scenarios=("diurnal",),
            algorithms=("lcp", "eager-lcp", "backward_lcp"),
            seeds=(0,), sizes=(32,), lookahead=2),
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS), ids=sorted(GRIDS))
    def test_grid_rows_bit_identical(self, grid):
        spec = self.GRIDS[grid]
        rows = {}
        for kernel in kernels.KERNELS:
            kernels.clear_sweep_cache()
            with kernels.use(kernel):
                rows[kernel] = run_grid(spec)
        kernels.clear_sweep_cache()
        assert rows["vector"] == rows["scalar"]

    def test_grid_multi_seed_multi_size(self):
        """Instances of mixed (T, m) shapes in one grid: rows stay
        bit-identical to the scalar reference, serial and parallel
        alike."""
        spec = GridSpec(
            scenarios=("diurnal",),
            algorithms=("lcp", "eager-lcp", "backward_lcp", "threshold",
                        "dp"),
            seeds=(0, 1, 2), sizes=(16, 24))
        rows = {}
        for kernel in kernels.KERNELS:
            kernels.clear_sweep_cache()
            with kernels.use(kernel):
                rows[kernel] = run_grid(spec)
        kernels.clear_sweep_cache()
        with kernels.use("vector"):
            parallel = run_grid(spec, config=EngineConfig(n_jobs=2))
        kernels.clear_sweep_cache()
        assert rows["vector"] == rows["scalar"]
        assert parallel == rows["scalar"]

    def test_grid_stats_surface_sweep_memo_counters(self):
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "eager-lcp", "backward_lcp"),
                        seeds=(0, 1), sizes=(24,))
        stats = RunStats()
        kernels.clear_sweep_cache()
        with kernels.use("vector"):
            run_grid(spec, stats=stats)
        kernels.clear_sweep_cache()
        assert stats.sweep_memo_misses == 2   # one per instance
        # the optimum's sweep is reused by each instance's shared replay
        assert stats.sweep_memo_hits == 2

    def test_fused_chunks_share_one_sweep_with_backward(self):
        """With the vectorized kernel, a worker task serves the LCP
        family, the backward solver *and* the instance's optimum from a
        single memoized sweep per instance."""
        calls = 0
        real = vector_kernel.sweep_workfunction

        def counting(costs, beta):
            nonlocal calls
            calls += 1
            return real(costs, beta)

        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "eager-lcp", "backward_lcp"),
                        seeds=(0,), sizes=(24,))
        kernels.clear_sweep_cache()
        vector_kernel.sweep_workfunction = counting
        try:
            with kernels.use("vector"):
                rows = run_grid(spec)
        finally:
            vector_kernel.sweep_workfunction = real
            kernels.clear_sweep_cache()
        assert len(rows) == 3
        assert calls == 1  # one instance -> one sweep, shared by all

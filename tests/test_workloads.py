"""Tests for the synthetic workload generators and trace builders."""

import math

import numpy as np
import pytest

from repro.core.costs import (AffineEnergyCost, QueueingDelayCost,
                              SLAHingeCost, SumCost, is_convex_table)
from repro.core.instance import Instance
from repro.runner.scenarios import TRACE_FAMILIES
from repro.workloads import (bursty_loads, capacity_for, constant_loads,
                             default_server_cost, diurnal_loads,
                             hotmail_like_loads, instance_from_loads,
                             msr_like_loads, onoff_loads, peak_to_mean_ratio,
                             random_walk_loads, restricted_from_loads,
                             sawtooth_loads)


class TestGenerators:
    @pytest.mark.parametrize("gen,kwargs", [
        (diurnal_loads, dict(peak=10.0)),
        (bursty_loads, dict(peak=10.0)),
        (random_walk_loads, dict(peak=10.0)),
        (onoff_loads, dict(peak=10.0)),
        (msr_like_loads, dict(peak=10.0)),
        (hotmail_like_loads, dict(peak=10.0)),
    ])
    def test_shape_and_nonnegativity(self, gen, kwargs):
        loads = gen(200, rng=np.random.default_rng(0), **kwargs)
        assert loads.shape == (200,)
        assert np.all(loads >= 0)

    @pytest.mark.parametrize("gen,kwargs", [
        (diurnal_loads, dict(peak=10.0)),
        (bursty_loads, dict(peak=10.0)),
        (random_walk_loads, dict(peak=10.0)),
        (onoff_loads, dict(peak=10.0)),
        (msr_like_loads, dict(peak=10.0)),
        (hotmail_like_loads, dict(peak=10.0)),
    ])
    def test_seed_determinism(self, gen, kwargs):
        a = gen(100, rng=np.random.default_rng(7), **kwargs)
        b = gen(100, rng=np.random.default_rng(7), **kwargs)
        np.testing.assert_array_equal(a, b)

    def test_diurnal_period_structure(self):
        loads = diurnal_loads(48, peak=10.0, period=24, noise=0.0)
        # Trough at t=0, peak mid-period.
        assert loads[12] > loads[0]
        assert loads[0] == pytest.approx(loads[24])

    def test_diurnal_base_frac(self):
        loads = diurnal_loads(48, peak=10.0, base_frac=0.5, noise=0.0)
        assert loads.min() == pytest.approx(5.0, abs=1e-6)
        assert loads.max() == pytest.approx(10.0, abs=1e-6)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            diurnal_loads(10, peak=-1.0)
        with pytest.raises(ValueError):
            diurnal_loads(10, peak=1.0, base_frac=1.5)

    def test_sawtooth_shape(self):
        loads = sawtooth_loads(10, peak=9.0, period=10)
        np.testing.assert_allclose(loads, np.arange(10.0))

    def test_constant(self):
        np.testing.assert_allclose(constant_loads(5, 3.0), 3.0)
        with pytest.raises(ValueError):
            constant_loads(5, -1.0)

    def test_random_walk_reflects_at_bounds(self):
        loads = random_walk_loads(500, peak=5.0, step_frac=0.3,
                                  rng=np.random.default_rng(3))
        assert np.all(loads >= 0) and np.all(loads <= 5.0)

    def test_onoff_two_levels(self):
        loads = onoff_loads(300, peak=8.0, base_frac=0.25,
                            rng=np.random.default_rng(4))
        assert set(np.round(loads, 6)) <= {2.0, 8.0}

    def test_pmr_targets(self):
        """MSR-like traces are smoother than Hotmail-like ones."""
        rng = np.random.default_rng(5)
        msr = peak_to_mean_ratio(msr_like_loads(24 * 14, rng=rng))
        hot = peak_to_mean_ratio(hotmail_like_loads(24 * 14,
                                                    rng=np.random.default_rng(5)))
        assert 1.2 < msr < 3.5
        assert hot > msr

    def test_pmr_validation(self):
        with pytest.raises(ValueError):
            peak_to_mean_ratio(np.zeros(5))


class TestBuilders:
    def test_capacity_for(self):
        assert capacity_for(np.array([4.0, 7.9]), slack=1.25) == 10
        assert capacity_for(np.array([0.0])) == 1

    def test_instance_rows_convex(self):
        loads = diurnal_loads(30, peak=6.0, rng=np.random.default_rng(1))
        inst = instance_from_loads(loads, m=8, beta=3.0, sla_penalty=2.0)
        assert inst.T == 30 and inst.m == 8
        for t in range(30):
            assert is_convex_table(inst.F[t])

    def test_instance_rejects_undersized_m(self):
        with pytest.raises(ValueError):
            instance_from_loads(np.array([5.0]), m=4, beta=1.0)

    def test_energy_delay_tension(self):
        """Cost decreases then increases around the sweet spot."""
        inst = instance_from_loads(np.array([4.0]), m=12, beta=1.0,
                                   energy=1.0, delay_weight=8.0)
        row = inst.F[0]
        j = int(np.argmin(row))
        assert 4 <= j <= 12
        assert row[0] > row[j] or row[0] == pytest.approx(row[j])

    def test_restricted_builder(self):
        loads = diurnal_loads(20, peak=5.0, rng=np.random.default_rng(2))
        ri = restricted_from_loads(loads, m=6, beta=2.0)
        assert ri.T == 20
        inst = ri.to_general()
        res_schedule = np.full(20, 6)
        assert ri.is_feasible(res_schedule)
        for t in range(20):
            assert is_convex_table(inst.F[t])

    def test_default_server_cost_convex_increasing(self):
        f = default_server_cost()
        zs = np.linspace(0, 1, 11)
        vals = np.array([f(z) for z in zs])
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.diff(vals, n=2) >= -1e-12)


def _per_step_instance(loads, m, beta, *, energy=1.0, delay_weight=2.0,
                       sla_penalty=0.0):
    """The per-step reference: one ``SumCost`` row object per load,
    tabulated one at a time."""
    loads = np.asarray(loads, dtype=np.float64)
    if np.any(loads > m):
        raise ValueError("m must be at least the peak load")
    fs = []
    for lam in loads:
        parts = [AffineEnergyCost(energy),
                 QueueingDelayCost(float(lam), weight=delay_weight)]
        if sla_penalty > 0:
            parts.append(SLAHingeCost(float(lam), sla_penalty))
        fs.append(SumCost(*parts))
    return Instance.from_functions(fs, m, beta)


def _assert_same_bytes(loads, m, **kwargs):
    got = instance_from_loads(loads, m=m, beta=3.0, **kwargs)
    want = _per_step_instance(loads, m, 3.0, **kwargs)
    assert got.F.shape == want.F.shape
    assert got.F.tobytes() == want.F.tobytes()


_FAMILY_LOADS = {"diurnal": diurnal_loads, "msr-like": msr_like_loads,
                 "hotmail-like": hotmail_like_loads,
                 "bursty": bursty_loads, "onoff": onoff_loads}


class TestWholeTableTabulation:
    """``instance_from_loads`` tabulates the whole ``(T, m+1)`` table in
    one broadcast; every byte must equal the per-step ``SumCost`` rows."""

    def test_families_cover_the_catalog(self):
        assert sorted(_FAMILY_LOADS) == sorted(TRACE_FAMILIES)

    @pytest.mark.parametrize("T", [1, 200, 1000])
    @pytest.mark.parametrize("family", sorted(_FAMILY_LOADS))
    def test_trace_families_byte_identical(self, family, T):
        for seed in range(3):
            loads = _FAMILY_LOADS[family](
                T, peak=24.0, rng=np.random.default_rng(seed))
            m = capacity_for(loads)
            for delay_weight in (2.0, 10.0):
                for sla_penalty in (0.0, 2.0):
                    _assert_same_bytes(loads, m, delay_weight=delay_weight,
                                       sla_penalty=sla_penalty)

    def test_loads_where_libm_pow_is_not_the_exact_square(self):
        """The delay term squares ``ceil(load) - load + 1`` as a Python
        float, i.e. through libm ``pow``, which does not always return
        the correctly rounded product NumPy's square computes.  Loads
        where the two disagree catch a tabulation that squares in NumPy."""
        rng = np.random.default_rng(0)
        loads = [lam for lam in rng.uniform(0.0, 24.0, 20_000).tolist()
                 if (d := math.ceil(lam) - lam + 1.0) ** 2 != d * d]
        if not loads:
            pytest.skip("libm pow squares exactly on this platform")
        for delay_weight in (2.0, 10.0):
            _assert_same_bytes(loads, 24, delay_weight=delay_weight)

    @pytest.mark.parametrize("loads,m", [
        ([0.0, 0.0, 0.0], 4),
        ([0.0], 0),
        ([1.0, 2.0, 3.0, 7.0], 7),
        ([7.0, 0.0, 6.5, 7.0], 7),
        ([0.5, 1e-12, 6.999999999, 3.0], 7),
        ([], 5),
    ])
    def test_edge_loads_byte_identical(self, loads, m):
        for sla_penalty in (0.0, 2.0):
            _assert_same_bytes(np.array(loads), m, delay_weight=10.0,
                               sla_penalty=sla_penalty)
        _assert_same_bytes(np.array(loads), m, energy=0.0, delay_weight=0)

    @pytest.mark.parametrize("loads,m,kwargs", [
        ([1.0, -0.5], 4, {}),
        ([1.0, 2.0], 4, {"delay_weight": -1.0}),
        ([1.0, 2.0], 4, {"energy": -1.0}),
        ([1.0, 4.5], 4, {}),
        ([5.0], 4, {"energy": -1.0}),
    ])
    def test_same_errors_as_per_step(self, loads, m, kwargs):
        with pytest.raises(ValueError) as want:
            _per_step_instance(np.array(loads), m, 3.0, **kwargs)
        with pytest.raises(ValueError, match=str(want.value)):
            instance_from_loads(np.array(loads), m=m, beta=3.0, **kwargs)

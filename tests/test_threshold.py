"""Tests for the 2-competitive fractional threshold algorithm and its
competitive certificate (the potential argument sketched in the
``repro.online.threshold`` module docstring)."""

import numpy as np
import pytest

from repro.analysis import optimal_cost
from repro.core.instance import Instance
from repro.online import AlgorithmB, ThresholdFractional, run_online
from repro.offline import solve_dp
from tests.conftest import (hinge_instance, random_convex_instance,
                            trace_instance)


class TestTwoCompetitive:
    def test_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            inst = random_convex_instance(rng, int(rng.integers(1, 25)),
                                          int(rng.integers(1, 12)),
                                          float(rng.uniform(0.2, 5)))
            res = run_online(inst, ThresholdFractional(validate=True))
            assert res.cost <= 2 * optimal_cost(inst) + 1e-7

    def test_strong_bound_with_min_slack(self):
        """The analysis actually shows cost <= 2 OPT - sum_t min f_t."""
        rng = np.random.default_rng(101)
        for _ in range(25):
            inst = random_convex_instance(rng, int(rng.integers(1, 15)),
                                          int(rng.integers(1, 9)),
                                          float(rng.uniform(0.2, 4)))
            res = run_online(inst, ThresholdFractional())
            slack = float(inst.F.min(axis=1).sum())
            assert res.cost <= 2 * optimal_cost(inst) - slack + 1e-7

    def test_traces(self):
        for seed in range(4):
            inst = trace_instance(seed=seed, T=60, peak=8.0, beta=4.0)
            res = run_online(inst, ThresholdFractional())
            assert res.cost <= 2 * optimal_cost(inst) + 1e-7

    def test_hinge_oscillation(self):
        inst = hinge_instance([0, 6, 0, 6, 0, 6, 0], m=6, beta=2.0)
        res = run_online(inst, ThresholdFractional())
        assert res.cost <= 2 * optimal_cost(inst) + 1e-9


class TestMechanics:
    def test_threshold_profile_monotone(self):
        rng = np.random.default_rng(102)
        inst = random_convex_instance(rng, 20, 10, 1.0)
        algo = ThresholdFractional(validate=True)
        algo.reset(inst.m, inst.beta)
        for t in range(inst.T):
            algo.step(inst.F[t])
            q = algo.thresholds
            assert np.all(np.diff(q) <= 1e-12)
            assert np.all(q >= 0) and np.all(q <= 1)

    def test_state_is_threshold_sum(self):
        rng = np.random.default_rng(103)
        inst = random_convex_instance(rng, 10, 6, 1.0)
        algo = ThresholdFractional()
        algo.reset(inst.m, inst.beta)
        for t in range(inst.T):
            x = algo.step(inst.F[t])
            assert x == pytest.approx(algo.thresholds.sum())

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 40])
    def test_run_table_leaves_the_stepped_profile(self, m):
        """The whole-table path ends on the very threshold profile,
        state and x-bar bytes that stepping row by row reaches."""
        rng = np.random.default_rng(110 + m)
        inst = random_convex_instance(rng, 60, m, 0.7)
        stepped, table = ThresholdFractional(), ThresholdFractional()
        stepped.reset(inst.m, inst.beta)
        table.reset(inst.m, inst.beta)
        xs = np.array([stepped.step(inst.F[t]) for t in range(inst.T)])
        assert table.run_table(inst.F).tobytes() == xs.tobytes()
        assert table.thresholds.tobytes() == stepped.thresholds.tobytes()
        assert table.state == stepped.state
        assert xs.max() > 0.0  # the profile did move

    def test_charge_half_step_size(self):
        """A hinge of slope eps moves each charged threshold by eps/beta
        (= eps/2 for beta = 2, the paper's algorithm-B step)."""
        inst = Instance(beta=2.0, F=np.array([[0.5, 0.0]]))  # slope -0.5
        algo = ThresholdFractional()
        algo.reset(1, 2.0)
        x = algo.step(inst.F[0])
        assert x == pytest.approx(0.25)

    def test_flat_function_no_move(self):
        algo = ThresholdFractional()
        algo.reset(4, 1.0)
        x = algo.step(np.full(5, 3.0))
        assert x == 0.0

    def test_matches_algorithm_B_on_two_state(self):
        """On m = 1 the threshold rule IS algorithm B (Section 5.2.1)."""
        rng = np.random.default_rng(104)
        rows = []
        for _ in range(200):
            eps = rng.uniform(0.01, 0.3)
            rows.append([0.0, eps] if rng.random() < 0.5 else [eps, 0.0])
        inst = Instance(beta=2.0, F=np.array(rows))
        a = run_online(inst, ThresholdFractional())
        b = run_online(inst, AlgorithmB())
        np.testing.assert_allclose(a.schedule, b.schedule, atol=1e-12)
        assert a.cost == pytest.approx(b.cost)


class TestPotentialCertificate:
    """Per-step potential inequality of the threshold rule, checked on the
    two-state game: ALG_t + Phi_t - Phi_{t-1} <= 2 OPT_t, with
    Phi = (beta/2) (d + d^2), d = |q - o|, against an integral OPT."""

    def _steps(self, rows, beta, opt_schedule):
        q = 0.0
        o_prev = 0
        phi_prev = 0.0
        for row, o in zip(rows, opt_schedule):
            g = row[1] - row[0]
            q_new = min(max(q - g / beta, 0.0), 1.0)
            alg = (1 - q_new) * row[0] + q_new * row[1] \
                + (beta / 2) * abs(q_new - q)
            opt = row[int(o)] + (beta / 2) * abs(int(o) - o_prev)
            d = abs(q_new - int(o))
            phi = (beta / 2) * (d + d * d)
            yield alg, opt, phi - phi_prev
            q, o_prev, phi_prev = q_new, int(o), phi

    def test_inequality_on_random_two_state_games(self):
        rng = np.random.default_rng(105)
        for _ in range(30):
            T = int(rng.integers(2, 40))
            beta = float(rng.uniform(0.5, 4))
            rows = []
            for _ in range(T):
                eps = rng.uniform(0.0, beta)  # slopes up to beta
                rows.append([0.0, eps] if rng.random() < 0.5 else [eps, 0.0])
            rows = np.array(rows)
            inst = Instance(beta=beta, F=rows)
            opt_schedule = solve_dp(inst).schedule
            for alg, opt, dphi in self._steps(rows, beta, opt_schedule):
                assert alg + dphi <= 2 * opt + 1e-9

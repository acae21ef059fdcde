"""E12 — ablations of the algorithms' design choices.

* The binary-search refinement loop does real work (coarse grid alone and
  truncated refinement are suboptimal at high rates);
* windows must be centered on the optimal coarse schedule (Lemma 5) —
  refining around a greedy schedule fails;
* the empirical slack of the half-window (xi in {-1,0,1}) is recorded;
* LCP's laziness matters: the eager variant (always jump to a bound)
  loses to LCP on oscillating traces.
"""

import numpy as np

from repro._util import argmin_first
from repro.analysis import optimal_cost
from repro.offline import solve_dp, window_states, windowed_dp
from repro.online import EagerLCP, run_online
from repro.runner import GridSpec, build_instance, run_grid
from repro.runner.scenarios import TRACE_FAMILIES

from conftest import random_convex_instance, record

import sys
import pathlib
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tests"))
from test_offline_binary_search import (_binary_search_span1,  # noqa: E402
                                        _binary_search_truncated)


def test_e12_refinement_ablation(benchmark):
    rng = np.random.default_rng(41)
    trials = 60
    fails = {"coarse_only": 0, "skip_last": 0, "span1": 0,
             "greedy_center": 0}
    for _ in range(trials):
        T = int(rng.integers(2, 8))
        m = int(rng.integers(8, 33))
        inst = random_convex_instance(rng, T, m,
                                      float(rng.uniform(0.2, 3.0)))
        opt = solve_dp(inst, return_schedule=False).cost
        if _binary_search_truncated(inst, keep_iterations=1) > opt + 1e-9:
            fails["coarse_only"] += 1
        if _binary_search_truncated(inst, skip_last=True) > opt + 1e-9:
            fails["skip_last"] += 1
        if _binary_search_span1(inst) > opt + 1e-9:
            fails["span1"] += 1
        greedy = np.array([argmin_first(inst.F[t]) for t in range(T)],
                          dtype=np.int64)
        _, c = windowed_dp(inst, window_states(greedy, 1, inst.m))
        if c > opt + 1e-9:
            fails["greedy_center"] += 1
    rows = [{"variant": k, "suboptimal_rate_%": 100 * v / trials}
            for k, v in fails.items()]
    record("E12_refinement", rows,
           title="E12: binary-search ablations (suboptimality rates)")
    assert fails["coarse_only"] > trials // 3
    assert fails["skip_last"] > trials // 6
    assert fails["greedy_center"] > trials // 6
    inst = random_convex_instance(rng, 64, 256, 2.0)
    from repro.offline import solve_binary_search
    benchmark(solve_binary_search, inst)


def test_e12_rounding_kernel_ablation(benchmark):
    """Replacing the Section-4 Markov kernel with independent per-step
    rounding preserves the operating expectation (Lemma 19) but breaks
    the switching identity (Lemma 20): expected switching blows up and
    2-competitiveness is lost on fractional plateaus."""
    from repro.core.instance import Instance
    from repro.online import (ThresholdFractional, expected_cost_exact,
                              expected_cost_independent, run_online)

    T = 200
    rows_f = [[2.0 * 0.5, 0.0]] + [[0.01, 0.01]] * (T - 1)
    inst = Instance(beta=2.0, F=np.array(rows_f))
    fr = run_online(inst, ThresholdFractional())
    opt = optimal_cost(inst)
    markov = expected_cost_exact(inst, fr.schedule)
    indep = expected_cost_independent(inst, fr.schedule)
    rows = [
        {"kernel": "markov (Section 4)", "E_operating": markov["operating"],
         "E_switching": markov["switching"],
         "E_total_over_opt": markov["total"] / opt},
        {"kernel": "independent", "E_operating": indep["operating"],
         "E_switching": indep["switching"],
         "E_total_over_opt": indep["total"] / opt},
    ]
    record("E12_rounding_kernel", rows,
           title="E12: rounding-kernel ablation")
    assert markov["total"] <= 2 * opt + 1e-7
    assert indep["total"] > 2 * opt
    benchmark(expected_cost_independent, inst, fr.schedule)


def test_e12_laziness_ablation(benchmark):
    """LCP vs the eager variant across trace families: laziness wins in
    aggregate (that is the 'lazy' in Lazy Capacity Provisioning).

    Engine-backed: one ``run_grid`` over the five trace families — the
    shared offline optimum per family is solved once."""
    grid_rows = run_grid(GridSpec(scenarios=TRACE_FAMILIES,
                                  algorithms=("lcp", "eager-lcp"),
                                  seeds=(0,), sizes=(168,)))
    per_alg = {}
    for g in grid_rows:
        per_alg.setdefault(g["algorithm"], {})[g["scenario"]] = g
    rows = []
    lcp_total = eager_total = opt_total = 0.0
    for name in TRACE_FAMILIES:
        lcp_row = per_alg["lcp"][name]
        eager_row = per_alg["eager-lcp"][name]
        lcp_total += lcp_row["cost"]
        eager_total += eager_row["cost"]
        opt_total += lcp_row["opt"]
        rows.append({"workload": name, "lcp_over_opt": lcp_row["ratio"],
                     "eager_over_opt": eager_row["ratio"]})
    rows.append({"workload": "TOTAL", "lcp_over_opt": lcp_total / opt_total,
                 "eager_over_opt": eager_total / opt_total})
    record("E12_laziness", rows, title="E12: laziness ablation")
    assert lcp_total <= eager_total
    inst = build_instance("onoff", 168)
    benchmark(run_online, inst, EagerLCP())

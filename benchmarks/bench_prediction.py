"""E10 — Theorem 10: prediction windows do not break the lower bounds.

Two regenerated series:

* on the dilated adversarial sequences (each adaptive function committed
  as a block of n*w copies at weight 1/(n*w)), LCP(w)'s ratio stays near
  the no-window ratio for every window length w — lookahead is starved;
* on natural diurnal traces, the same window *does* help — the bound is
  about worst cases, not typical ones (this contrast is the practical
  message of Section 5.4).
"""

from repro.analysis import optimal_cost
from repro.lower_bounds import (DeterministicDiscreteAdversary,
                                play_dilated_game, play_game)
from repro.online import LCP, run_online

from conftest import record, trace_suite


def test_e10_dilation_starves_lookahead(benchmark):
    eps = 0.1
    blocks = 3000
    base = play_game(DeterministicDiscreteAdversary(eps), LCP(), blocks)
    rows = [{"w": 0, "repeat": 1, "ratio": base.ratio}]
    for w in (1, 2, 4):
        repeat = 4 * w
        res = play_dilated_game(DeterministicDiscreteAdversary(eps),
                                LCP(lookahead=w), blocks=blocks,
                                repeat=repeat)
        rows.append({"w": w, "repeat": repeat, "ratio": res.ratio})
    record("E10_dilation", rows,
           title="E10: LCP(w) on dilated adversarial sequences")
    for row in rows[1:]:
        assert row["ratio"] >= base.ratio - 0.35
    benchmark(play_dilated_game, DeterministicDiscreteAdversary(eps),
              LCP(lookahead=2), blocks=300, repeat=8)


def test_e10_window_helps_on_traces(benchmark):
    """Series: window-algorithm cost over OPT vs w on diurnal traces —
    decreasing for every controller (LCP(w), RHC, AFHC).

    Engine-backed: one ``run_grid`` per window length; the three seeds'
    offline optima are hoisted once per instance and shared by all three
    controllers."""
    from repro.runner import GridSpec, build_instance, run_grid
    rows = []
    for w in (0, 2, 6, 12):
        grid_rows = run_grid(GridSpec(scenarios=("diurnal",),
                                      algorithms=("lcp", "rhc", "afhc"),
                                      seeds=(0, 1, 2), sizes=(168,),
                                      lookahead=w))
        totals = {a: sum(r["cost"] for r in grid_rows
                         if r["algorithm"] == a)
                  for a in ("lcp", "rhc", "afhc")}
        opt_total = sum(r["opt"] for r in grid_rows
                        if r["algorithm"] == "lcp")
        rows.append({"w": w,
                     "lcp_over_opt": totals["lcp"] / opt_total,
                     "rhc_over_opt": totals["rhc"] / opt_total,
                     "afhc_over_opt": totals["afhc"] / opt_total})
    record("E10_window_on_traces", rows,
           title="E10: prediction window value on diurnal traces")
    for key in ("lcp_over_opt", "rhc_over_opt", "afhc_over_opt"):
        assert rows[-1][key] <= rows[0][key] + 1e-9, key
        assert all(r[key] <= 3.0 + 1e-7 for r in rows), key
    inst = build_instance("diurnal", 168, 2)
    benchmark(run_online, inst, LCP(lookahead=12))


def test_e10_forecast_noise_decays_window_value(benchmark):
    """Series: the window's value under forecast noise — perfect
    forecasts recover most of the gap to OPT, useless ones none."""
    from repro.workloads import forecast_runner
    rows = []
    for noise in (0.0, 0.2, 1.0, 4.0):
        total = opt_total = 0.0
        for seed in range(3):
            name, inst = trace_suite(T=168, seed=seed)[0]
            total += forecast_runner(inst, LCP(lookahead=12), noise=noise,
                                     rng=seed).cost
            opt_total += optimal_cost(inst)
        rows.append({"noise": noise, "cost_over_opt": total / opt_total})
    record("E10_forecast_noise", rows,
           title="E10: window value under forecast noise (LCP, w=12)")
    assert rows[0]["cost_over_opt"] <= rows[-1]["cost_over_opt"] + 1e-9
    for row in rows:
        assert row["cost_over_opt"] <= 3.0 + 1e-7
    name, inst = trace_suite(T=168, seed=0)[0]
    benchmark(forecast_runner, inst, LCP(lookahead=12), noise=0.2, rng=0)

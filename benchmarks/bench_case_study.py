"""E11 — the Lin et al.-style case study the paper's introduction invokes.

Regenerates the "value of right-sizing" table: cost savings of the
optimal offline schedule, LCP and the rounded 2-competitive algorithm
relative to static provisioning, across trace families and switching
costs.  Expected shape (Lin et al. Sections V-VI): savings are positive
and substantial on high-PMR traces, shrink as beta grows, and the online
algorithms capture part but not all of the offline savings.

The (trace x beta) sweep runs as an engine grid: `case-msr` /
`case-hotmail` scenarios with the switching cost on the grid's
``params`` axis, `static`/`lcp`/`randomized` fanned out per instance
and the offline optimum hoisted once per instance.
"""

import numpy as np

from repro.online import LCP, run_online
from repro.runner import GridSpec, build_instance, run_grid
from repro.runner.scenarios import case_study_loads
from repro.workloads import peak_to_mean_ratio

from conftest import record

_BETAS = (1.0, 4.0, 16.0)
_TRACES = {"case-msr": "msr-like", "case-hotmail": "hotmail-like"}


def _savings_rows(grid_rows):
    """Pivot engine rows into one savings row per (trace, beta)."""
    by_cell: dict = {}
    for r in grid_rows:
        by_cell.setdefault((r["scenario"], r["beta"], r["seed"]),
                           {})[r["algorithm"]] = r
    out = []
    for (scenario, beta, seed), cell in by_cell.items():
        static = cell["static"]["cost"]
        opt = cell["static"]["opt"]
        loads = case_study_loads(scenario, 24 * 7, seed)
        out.append({
            "trace": _TRACES[scenario], "PMR": peak_to_mean_ratio(loads),
            "beta": beta, "seed": seed,
            "opt_saving_%": 100 * (1 - opt / static),
            "lcp_saving_%": 100 * (1 - cell["lcp"]["cost"] / static),
            "rand_saving_%":
                100 * (1 - cell["randomized"]["cost"] / static),
        })
    return out


def test_e11_savings_table(benchmark):
    spec = GridSpec(scenarios=tuple(_TRACES),
                    algorithms=("static", "lcp", "randomized"),
                    seeds=(0,), sizes=(24 * 7,),
                    params=tuple({"beta": b} for b in _BETAS))
    rows = sorted(_savings_rows(run_grid(spec)),
                  key=lambda r: (r["trace"], r["beta"]))
    record("E11_savings",
           [{k: v for k, v in r.items() if k != "seed"} for r in rows],
           title="E11: right-sizing savings vs static provisioning")
    # Shape: offline savings positive everywhere and decreasing in beta.
    for trace in _TRACES.values():
        sub = [r for r in rows if r["trace"] == trace]
        assert all(r["opt_saving_%"] > 0 for r in sub)
        assert sub[0]["opt_saving_%"] >= sub[-1]["opt_saving_%"] - 1e-9
        # Online algorithms never beat offline.
        for r in sub:
            assert r["lcp_saving_%"] <= r["opt_saving_%"] + 1e-9
    inst = build_instance("case-hotmail", 24 * 7, 0, params={"beta": 4.0})
    benchmark(run_online, inst, LCP())


def test_e11_beta_envelope(benchmark):
    """OPT(beta) is a concave nondecreasing envelope whose slope is the
    optimal power-up count — the structural sensitivity behind 'savings
    shrink as beta grows'."""
    from repro.analysis import beta_sweep, is_concave_sequence
    inst = build_instance("case-hotmail", 24 * 7, 0, params={"beta": 1.0})
    betas = np.linspace(0.25, 24.0, 12)
    rows = beta_sweep(inst, betas)
    record("E11_beta_envelope",
           [{"beta": r["beta"], "opt_cost": r["opt_cost"],
             "power_ups": r["power_ups"],
             "switching_share": r["switching_share"]} for r in rows],
           title="E11: OPT(beta) envelope")
    costs = [r["opt_cost"] for r in rows]
    ups = [r["power_ups"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))
    assert is_concave_sequence(costs)
    assert all(b <= a + 1e-9 for a, b in zip(ups, ups[1:]))
    benchmark(beta_sweep, inst, [1.0, 4.0])


def test_e11_higher_pmr_bigger_savings(benchmark):
    """Spikier traces leave more idle capacity on the table, so
    right-sizing saves more (Lin et al.'s PMR observation)."""
    spec = GridSpec(scenarios=tuple(_TRACES),
                    algorithms=("static", "lcp", "randomized"),
                    seeds=(0, 1, 2), sizes=(24 * 7,),
                    params=({"beta": 4.0},))
    cells = _savings_rows(run_grid(spec))
    rows = []
    for trace in _TRACES.values():
        sub = [r for r in cells if r["trace"] == trace]
        rows.append({
            "trace": trace,
            "mean_PMR": float(np.mean([r["PMR"] for r in sub])),
            "mean_opt_saving_%":
                float(np.mean([r["opt_saving_%"] for r in sub])),
        })
    record("E11_pmr", rows, title="E11: savings grow with PMR")
    assert rows[1]["mean_PMR"] > rows[0]["mean_PMR"]
    assert rows[1]["mean_opt_saving_%"] > rows[0]["mean_opt_saving_%"]
    from repro.online import solve_static
    inst = build_instance("case-msr", 24 * 7, 0, params={"beta": 4.0})
    benchmark(solve_static, inst)

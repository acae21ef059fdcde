"""E13 — closing the loop: abstract optimization vs simulated cost.

The paper's cost functions abstract energy and service delay.  This
added validation experiment runs the Section-2 optimum (computed on the
bridged instance) through the job-level simulator and measures *real*
energy and latency:

* the optimized schedule beats static provisioning in simulated cost;
* the abstract objective is strongly rank-correlated with the simulated
  one across schedules;
* the β knob maps onto transition energy: higher transition energy makes
  the optimizer switch less.

The rollouts run as `game`-pipeline engine jobs: the `sim-diurnal`
scenario materializes the trace and the bridged cost matrix once, the
simulated cost of the optimal schedule is hoisted as the pipeline
baseline, and `sim-opt`/`sim-lcp`/`sim-static` policies fan out and
replay through the simulator.
"""

import numpy as np

from repro.core.schedule import cost as abstract_cost
from repro.offline import solve_dp
from repro.runner import GridSpec, run_grid
from repro.simulator import (ServerPowerModel, bridge_instance,
                             poisson_job_trace, replay_schedule,
                             simulated_cost)
from repro.workloads import diurnal_loads

from conftest import record


def _trace(T=168, peak=12.0, seed=0):
    rng = np.random.default_rng(seed)
    rate = diurnal_loads(T, peak=peak, rng=rng)
    return poisson_job_trace(rate, rng=rng)


def test_e13_optimizer_beats_static_in_simulation(benchmark):
    spec = GridSpec(scenarios=("sim-diurnal",),
                    algorithms=("sim-opt", "sim-lcp", "sim-static"),
                    seeds=(0, 1, 2), sizes=(168,))
    cells: dict = {}
    for r in run_grid(spec):
        cells.setdefault(r["seed"], {})[r["algorithm"]] = r["cost"]
    rows = [{"seed": seed, "sim_opt": sims["sim-opt"],
             "sim_lcp": sims["sim-lcp"], "sim_static": sims["sim-static"],
             "saving_%": 100 * (1 - sims["sim-opt"] / sims["sim-static"])}
            for seed, sims in sorted(cells.items())]
    record("E13_simulated", rows,
           title="E13: simulated cost of optimized vs static schedules")
    for row in rows:
        assert row["sim_opt"] < row["sim_static"]
    trace = _trace(seed=0)
    inst = bridge_instance(trace, 18, beta=6.0)
    benchmark(solve_dp, inst)


def test_e13_abstract_tracks_simulated(benchmark):
    from scipy.stats import spearmanr
    trace = _trace(T=72, peak=10.0, seed=5)
    m = 15
    inst = bridge_instance(trace, m, beta=4.0)
    rng = np.random.default_rng(7)
    abstract, simulated = [], []
    for _ in range(40):
        level = int(rng.integers(1, m + 1))
        sched = np.clip(level + rng.integers(-2, 3, size=trace.T), 0, m)
        abstract.append(abstract_cost(inst, sched.astype(float)))
        simulated.append(simulated_cost(sched, trace, m))
    rho = float(spearmanr(abstract, simulated).statistic)
    record("E13_correlation", [{
        "schedules": 40, "spearman_rho": rho,
    }], title="E13: abstract vs simulated cost correlation")
    assert rho > 0.8
    benchmark(simulated_cost, np.full(trace.T, 10), trace, m)


def test_e13_transition_energy_freezes_schedules(benchmark):
    """Higher power-up energy (mapped into beta) yields fewer switches in
    the optimized schedule and fewer transition joules in simulation."""
    trace = _trace(T=168, peak=12.0, seed=2)
    m = 18
    rows = []
    for trans in (0.5, 4.0, 32.0):
        power = ServerPowerModel(transition_energy=trans)
        inst = bridge_instance(trace, m, beta=max(trans, 1e-6), power=power)
        sched = solve_dp(inst).schedule
        log = replay_schedule(sched, trace, m, power=power)
        changes = int(np.count_nonzero(np.diff(
            np.concatenate([[0], sched]))))
        rows.append({"transition_energy": trans, "schedule_changes": changes,
                     "sim_transition_energy":
                         float(sum(s.transition_energy for s in log.steps))})
    record("E13_transition_sweep", rows,
           title="E13: transition energy vs switching activity")
    assert rows[0]["schedule_changes"] >= rows[-1]["schedule_changes"]
    power = ServerPowerModel()
    benchmark(replay_schedule, np.full(trace.T, 10), trace, m)

"""Bridge between the simulator and the paper's abstract cost model.

``bridge_instance`` tabulates, for every step and every possible active
count ``j``, the *one-step* simulated cost (energy + weighted latency)
assuming the backlog is drained each step — a memoryless surrogate of
the simulator.  The result is a valid convex instance (convexified by
increment sorting where queueing makes the raw table slightly
non-convex) whose optimal schedules can then be *replayed* through the
real simulator.

This closes the loop the paper's model opens: Section 2's offline
algorithm runs on the bridged instance, and ``replay_schedule`` measures
what that schedule actually costs in the simulator — energy, latency,
backlog — so the abstraction can be validated (benchmark E13: optimized
schedules beat static provisioning in *simulated* cost, and abstract
cost tracks simulated cost).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.instance import Instance
from .datacenter import DataCenter, ServerPowerModel, SimLog
from .jobs import JobTrace

__all__ = ["SimPolicy", "SimulatorGame", "bridge_instance",
           "replay_schedule", "simulated_cost"]


_MAX_DELAY_FACTOR = 10.0


def _one_step_cost(power: ServerPowerModel, j: int, work: float,
                   latency_weight: float) -> float:
    """Expected one-step cost with ``j`` ready servers and fresh ``work``.

    The latency term uses the M/G/1-style sojourn inflation
    ``1/(1 - rho)`` (capped): a myopic "half a step per served unit"
    estimate badly underestimates the *compounding* backlog the real
    simulator accumulates when utilization approaches 1, which would
    make the optimizer under-provision.  The cap keeps the table finite
    and bounds the convexification error.
    """
    capacity = j * power.service_rate
    served = min(work, capacity)
    leftover = work - served
    busy = served / power.service_rate if power.service_rate > 0 else 0.0
    energy = busy * power.busy_power + (j - busy) * power.idle_power
    if capacity > 0:
        rho = min(work / capacity, 1.0)
        delay = min(1.0 / (1.0 - rho), _MAX_DELAY_FACTOR) if rho < 1.0 \
            else _MAX_DELAY_FACTOR
    else:
        delay = _MAX_DELAY_FACTOR
    # Served work waits ~half a step inflated by congestion; work that
    # cannot be served this step waits at least a full inflated step.
    latency = 0.5 * served * delay + leftover * (1.0 + delay)
    return energy + latency_weight * latency


def bridge_instance(trace: JobTrace | np.ndarray, m: int, beta: float, *,
                    power: ServerPowerModel | None = None,
                    latency_weight: float = 2.0,
                    smoothing: int = 1) -> Instance:
    """Tabulate the simulator's one-step costs into a convex instance.

    ``trace`` may be a :class:`JobTrace` or a plain work array; the
    controller-visible load is the ``smoothing``-window moving average
    (1 = clairvoyant per-step work).  Sleep power of the ``m - j``
    inactive servers is added so absolute costs are comparable with the
    simulator's energy accounting.
    """
    power = power or ServerPowerModel()
    if isinstance(trace, JobTrace):
        work = trace.smoothed_loads(smoothing)
    else:
        work = np.asarray(trace, dtype=np.float64)
    T = work.shape[0]
    F = np.empty((T, m + 1), dtype=np.float64)
    for t in range(T):
        row = np.array([_one_step_cost(power, j, float(work[t]),
                                       latency_weight)
                        for j in range(m + 1)])
        row += power.sleep_power * (m - np.arange(m + 1))
        # Queueing kinks can leave tiny non-convexities at the
        # served/unserved boundary; restore convexity by sorting the
        # increments (does not move the values off the true table by
        # more than the kink size).
        inc = np.sort(np.diff(row))
        row = np.concatenate([[row[0]], row[0] + np.cumsum(inc)])
        row -= min(row.min(), 0.0)
        F[t] = row
    return Instance(beta=beta, F=F)


def replay_schedule(schedule, trace: JobTrace | np.ndarray, m: int, *,
                    power: ServerPowerModel | None = None) -> SimLog:
    """Run a schedule through the real simulator against the trace."""
    work = trace.work if isinstance(trace, JobTrace) else np.asarray(
        trace, dtype=np.float64)
    dc = DataCenter(m, power or ServerPowerModel())
    return dc.run(np.asarray(schedule), work)


def simulated_cost(schedule, trace: JobTrace | np.ndarray, m: int, *,
                   power: ServerPowerModel | None = None,
                   latency_weight: float = 2.0) -> float:
    """Scalar simulated objective of a schedule (energy + w * latency)."""
    log = replay_schedule(schedule, trace, m, power=power)
    return log.total_cost(latency_weight)


# ----------------------------------------------------------------------
# Engine adapters: simulator rollouts as `game`-pipeline instances.
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimulatorGame:
    """One E13 rollout as a `game`-pipeline instance.

    Holds the realized work trace and the bridged cost matrix — the
    expensive ``O(T m)`` tabulation — so the instance store can
    materialize both once (``store_payload``) and every policy job
    reopens them via mmap.  ``baseline`` is the simulated cost of the
    Section-2 optimal schedule: it is the pipeline's hoisted "optimum",
    so a policy row's ratio reads "simulated cost over the optimizer's
    simulated cost".
    """

    work: np.ndarray     # realized per-step service demand
    F: np.ndarray        # bridged (T, m+1) cost matrix
    m: int
    beta: float
    latency_weight: float = 2.0

    @property
    def T(self) -> int:
        return int(np.asarray(self.work).shape[0])

    def instance(self) -> Instance:
        """The abstract instance the optimizer/policies run on."""
        return Instance(beta=float(self.beta), F=np.asarray(self.F))

    def store_payload(self):
        return ({"work": np.asarray(self.work), "F": np.asarray(self.F)},
                {"m": int(self.m), "beta": float(self.beta),
                 "latency_weight": float(self.latency_weight)})

    @classmethod
    def from_payload(cls, arrays: dict, meta: dict) -> "SimulatorGame":
        return cls(work=arrays["work"], F=arrays["F"], m=meta["m"],
                   beta=meta["beta"],
                   latency_weight=meta["latency_weight"])

    def simulate(self, schedule) -> float:
        """Replay a schedule through the real simulator."""
        return simulated_cost(schedule, np.asarray(self.work), self.m,
                              latency_weight=self.latency_weight)

    def baseline(self) -> dict:
        """Optimum record: simulated cost (and switching count) of the
        optimal schedule.  The extra keys beyond opt/m/beta become the
        `sim-opt` row's columns — the engine synthesizes that row from
        this record instead of re-running the DP for the job."""
        from ..offline import solve_dp
        sched = solve_dp(self.instance()).schedule
        changes = int(np.count_nonzero(np.diff(
            np.concatenate([[0], sched]))))
        return {"opt": self.simulate(sched), "m": int(self.m),
                "beta": float(self.beta), "schedule_changes": changes}


@dataclasses.dataclass(frozen=True)
class SimPolicy:
    """A registered `game`-pipeline algorithm: compute a provisioning
    schedule on the bridged instance, replay it through the simulator.

    ``policy`` is ``"opt"`` (Section 2 DP), ``"lcp"`` (3-competitive
    online play) or ``"static"`` (best constant level in hindsight).
    Returns the engine row fragment; ``opt`` is ``None`` because the
    hoisted baseline already carries the pipeline optimum.
    """

    policy: str

    def schedule(self, game: "SimulatorGame") -> np.ndarray:
        inst = game.instance()
        if self.policy == "opt":
            from ..offline import solve_dp
            return solve_dp(inst).schedule
        if self.policy == "lcp":
            from ..online import LCP, run_online
            return run_online(inst, LCP()).schedule.astype(int)
        if self.policy == "static":
            from ..online import solve_static
            return solve_static(inst).schedule
        raise ValueError(f"unknown simulator policy {self.policy!r}")

    def __call__(self, game) -> dict:
        if not isinstance(game, SimulatorGame):
            raise TypeError(
                f"{type(game).__name__} is not a simulator game; sim-* "
                "policies only run on sim-* scenarios")
        sched = self.schedule(game)
        changes = int(np.count_nonzero(np.diff(
            np.concatenate([[0], np.asarray(sched)]))))
        return {"cost": game.simulate(sched), "opt": None,
                "schedule_changes": changes}

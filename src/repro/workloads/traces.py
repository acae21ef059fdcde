"""Turn load traces into problem instances.

Two encodings:

* :func:`instance_from_loads` — the **general model**: per-step convex
  cost built from an energy term (linear in active servers) plus an
  M/M/1-style latency penalty that explodes as capacity approaches the
  load, optionally an SLA hinge.  This is the cost structure Lin et al.
  motivate (energy + delay).
* :func:`restricted_from_loads` — the **restricted model** (eq. (2)):
  a single per-server utilization cost ``f`` shared by all steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.costs import tabulate_energy_delay
from ..core.instance import Instance, RestrictedInstance

__all__ = [
    "instance_from_loads",
    "restricted_from_loads",
    "default_server_cost",
    "capacity_for",
]


def capacity_for(loads: np.ndarray, slack: float = 1.25) -> int:
    """A data-center size comfortably above the trace's peak."""
    peak = float(np.max(np.asarray(loads, dtype=np.float64)))
    return max(int(math.ceil(peak * slack)), 1)


def instance_from_loads(loads, m: int, beta: float, *,
                        energy: float = 1.0, delay_weight: float = 2.0,
                        sla_penalty: float = 0.0) -> Instance:
    """General-model instance from a load trace.

    ``f_t(x) = energy * x + delay_weight * QueueingDelay(load_t)(x)
    [+ sla_penalty * (load_t - x)^+]`` — convex in ``x`` (sum of convex
    parts), non-negative, and exhibiting the tension the paper studies:
    few servers are cheap on energy but expensive on latency.

    The whole ``(T, m+1)`` table comes from one broadcast
    (:func:`~repro.core.costs.tabulate_energy_delay`), byte-identical to
    tabulating the per-step ``SumCost`` of those parts row by row.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if np.any(loads > m):
        raise ValueError("m must be at least the peak load")
    F = tabulate_energy_delay(loads, m, energy=energy,
                              delay_weight=delay_weight,
                              sla_penalty=sla_penalty)
    return Instance(beta=beta, F=F)


def default_server_cost(e0: float = 1.0, e1: float = 1.0):
    """Per-server utilization cost ``f(z) = e0 + e1 * z^2`` (convex,
    increasing on [0, 1]) for the restricted model."""

    def f(z: float) -> float:
        return e0 + e1 * z * z

    return f


def restricted_from_loads(loads, m: int, beta: float,
                          f=None) -> RestrictedInstance:
    """Restricted-model instance (eq. (2)) from a load trace."""
    if f is None:
        f = default_server_cost()
    return RestrictedInstance(beta=beta, m=m, f=f,
                              loads=np.asarray(loads, dtype=np.float64))

"""Lemma 11: the backward-recursion optimal schedule.

The paper characterizes an optimal offline solution *backwards in time*:
with ``x-hat_{T+1} = 0``,

``x-hat_t = [x-hat_{t+1}]^{x^U_t}_{x^L_t}``    (projection into the LCP
bounds of the prefix ``f_1..f_t``),

is optimal (Lemma 11).  This is the optimal schedule the Section 3
analysis compares LCP against: it moves as late as possible, mirroring
LCP's laziness from the other end of time.

The solver runs one forward pass collecting ``(x^L_t, x^U_t)`` for every
prefix (``O(T m)``, through the :mod:`repro.kernels` sweep dispatch) and
one backward clamping pass (``O(T)``).  On engine grids the forward
sweep is the same one the instance's offline optimum and the shared
LCP replay consume, so a ``bounds=`` trajectory may be handed in and
the sweep paid once per instance.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..core.instance import Instance
from ..core.schedule import cost
from .result import OfflineResult

__all__ = ["solve_backward_lcp", "prefix_bounds"]


def prefix_bounds(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``(x^L_t, x^U_t)`` for every prefix ``t = 1..T`` (Section 3.1)."""
    sweep = kernels.sweep_workfunction(instance.F, instance.beta)
    return sweep.lo, sweep.hi


def solve_backward_lcp(instance: Instance, *, bounds=None) -> OfflineResult:
    """Optimal schedule via Lemma 11's backward recursion.

    ``bounds`` may pass a precomputed :class:`repro.kernels.SweepResult`
    (the engine's shared per-instance sweep); otherwise one sweep is
    run here through the selected kernel.
    """
    T = instance.T
    if T == 0:
        return OfflineResult(schedule=np.zeros(0, dtype=np.int64), cost=0.0,
                             method="backward_lcp")
    if bounds is not None:
        lo, hi = bounds.lo, bounds.hi
    else:
        lo, hi = prefix_bounds(instance)
    x = kernels.backward_clamp(lo, hi)
    return OfflineResult(schedule=x, cost=float(cost(instance, x)),
                         method="backward_lcp")

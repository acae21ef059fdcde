"""Online algorithm protocol and replay harness.

An online algorithm sees the tabulated cost function ``f_t`` (one row of
the instance's cost matrix) and must commit to a state ``x_t`` before
``f_{t+1}`` is revealed.  Algorithms with a prediction window ``w``
additionally receive the next ``w`` rows (Section 5.4).

Fractional algorithms return float states in ``[0, m]`` and are evaluated
against the continuous extension ``P-bar``; integral algorithms return
integer states.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import kernels
from ..core.instance import Instance
from ..core.schedule import cost as schedule_cost

__all__ = ["OnlineAlgorithm", "OnlineResult", "run_online",
           "run_online_many"]


class OnlineAlgorithm:
    """Base class for online algorithms.

    Subclasses set :attr:`name`, :attr:`fractional` and
    :attr:`lookahead`, implement :meth:`reset` and :meth:`step`, and may
    keep arbitrary internal state between steps.

    Algorithms of the LCP family additionally set
    :attr:`consumes_bounds` and implement :meth:`step_bounds`: their
    decision at time ``tau`` is a pure function of the work-function
    bounds ``(x^L_tau, x^U_tau)`` (plus their own previous state), so a
    single ``O(T m)`` :class:`~repro.online.workfunction.WorkFunctions`
    sweep can serve every such algorithm replayed on the same instance
    (:func:`run_online_many`).
    """

    name: str = "online"
    #: whether :meth:`step` returns fractional states
    fractional: bool = False
    #: prediction-window length ``w`` (rows passed via ``future``)
    lookahead: int = 0
    #: whether the step decision factors through the LCP bounds
    #: ``(x^L, x^U)`` — enables the shared work-function replay
    consumes_bounds: bool = False

    def reset(self, m: int, beta: float) -> None:
        """Prepare for a fresh instance with states ``0..m``."""
        raise NotImplementedError

    def step(self, f_row: np.ndarray, future: np.ndarray | None = None):
        """Process the next cost function and return the chosen state.

        ``f_row`` is the tabulated ``f_t`` on ``0..m``; ``future`` holds
        the next ``min(w, remaining)`` rows when ``lookahead > 0``.
        """
        raise NotImplementedError

    def step_bounds(self, lo: int, hi: int):
        """Commit the step from externally computed bounds (only for
        algorithms with :attr:`consumes_bounds`)."""
        raise NotImplementedError(
            f"{self.name} does not consume work-function bounds")

    def run_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Commit a whole trajectory from precomputed per-step bounds.

        Used by the replay harness when the vectorized kernel supplies
        the full ``(x^L_t, x^U_t)`` trajectory at once (only for
        algorithms with :attr:`consumes_bounds`).  The default simply
        loops :meth:`step_bounds`, so any consumer is automatically
        bit-identical to its per-step replay; subclasses may override
        with a tighter loop.
        """
        out = np.empty(len(lo),
                       dtype=np.float64 if self.fractional else np.int64)
        for t, (b_lo, b_hi) in enumerate(zip(np.asarray(lo).tolist(),
                                             np.asarray(hi).tolist())):
            out[t] = self.step_bounds(b_lo, b_hi)
        return out

    def run_table(self, F: np.ndarray):
        """Optional whole-trajectory fast path over the full cost table.

        Called by the replay harness (after :meth:`reset`, instead of
        the per-step loop) when the vectorized kernel is active.
        Implementations must return the full state trajectory as an
        array **bit-identical** to stepping :meth:`step` row by row, or
        ``None`` to decline — the harness then falls back to the
        per-step loop (a declining implementation must return before
        mutating any internal state).  Algorithms whose decisions depend on unrevealed
        rows must not implement this (the harness never passes future
        information the per-step protocol would not have revealed).
        """
        return None

    @property
    def state(self):
        """Most recent state (``x_{t-1}``); defined after :meth:`reset`."""
        return self._state

    def _set_state(self, x) -> None:
        self._state = x


@dataclasses.dataclass(frozen=True)
class OnlineResult:
    """Replay result: schedule, its cost, and bookkeeping."""

    schedule: np.ndarray
    cost: float
    name: str
    fractional: bool

    def __post_init__(self):
        s = np.ascontiguousarray(np.asarray(self.schedule, dtype=np.float64))
        s.setflags(write=False)
        object.__setattr__(self, "schedule", s)


def _checked_state(algorithm: OnlineAlgorithm, x, t: int, m: int):
    """Validate and clip one committed state (shared by both replays)."""
    if algorithm.fractional:
        xf = float(x)
        if not -1e-9 <= xf <= m + 1e-9:
            raise ValueError(
                f"{algorithm.name} left [0, m] at t={t + 1}: {xf}")
        return min(max(xf, 0.0), float(m))
    xi = int(x)
    if not 0 <= xi <= m:
        raise ValueError(
            f"{algorithm.name} left [0, m] at t={t + 1}: {xi}")
    return xi


def _priced(instance: Instance, algorithm: OnlineAlgorithm,
            xs: np.ndarray) -> OnlineResult:
    """Price a committed schedule with eq. (1) — via the continuous
    extension for fractional algorithms."""
    total = schedule_cost(instance, xs.astype(np.float64),
                          integral=not algorithm.fractional)
    return OnlineResult(schedule=xs, cost=total, name=algorithm.name,
                        fractional=algorithm.fractional)


def _checked_schedule(algorithm: OnlineAlgorithm, xs, m: int) -> np.ndarray:
    """Validate and clip a whole fast-path trajectory at once.

    Vectorized twin of :func:`_checked_state`: same tolerance, same
    clipping, and the same error message (anchored at the first
    offending step) when an algorithm leaves ``[0, m]``.
    """
    if algorithm.fractional:
        xs = np.asarray(xs, dtype=np.float64)
        bad = (xs < -1e-9) | (xs > m + 1e-9) | np.isnan(xs)
        if bad.any():
            t = int(bad.argmax())
            raise ValueError(
                f"{algorithm.name} left [0, m] at t={t + 1}: {float(xs[t])}")
        return np.clip(xs, 0.0, float(m))
    xs = np.asarray(xs, dtype=np.int64)
    bad = (xs < 0) | (xs > m)
    if bad.any():
        t = int(bad.argmax())
        raise ValueError(
            f"{algorithm.name} left [0, m] at t={t + 1}: {int(xs[t])}")
    return xs


def _fast_trajectory(instance: Instance, algorithm: OnlineAlgorithm,
                     bounds) -> np.ndarray | None:
    """One algorithm's whole-trajectory fast path, or ``None``.

    Active only under the vectorized kernel (``REPRO_KERNEL=scalar``
    restores the per-step reference loops end to end).  Consumers of
    work-function bounds replay from a shared kernel sweep (``bounds``,
    computed here when the caller has none); other algorithms may offer
    :meth:`OnlineAlgorithm.run_table`.  The algorithm must already be
    reset.
    """
    if algorithm.consumes_bounds and algorithm.lookahead == 0:
        if bounds is None:
            bounds = kernels.sweep_workfunction(instance.F, instance.beta)
        return _checked_schedule(
            algorithm, algorithm.run_bounds(bounds.lo, bounds.hi),
            instance.m)
    xs = algorithm.run_table(instance.F)
    if xs is None:
        return None
    return _checked_schedule(algorithm, xs, instance.m)


def _replay_loop(instance: Instance, algorithms, outs) -> None:
    """The per-step reference replay (shared work-function sweep).

    Fills one preallocated schedule array per algorithm.  Algorithms
    must already be reset; consumers share a single
    :class:`~repro.online.workfunction.WorkFunctions` maintenance, with
    window-extended bounds computed once per distinct window length per
    step.
    """
    T, m = instance.T, instance.m
    wf = None
    if any(a.consumes_bounds for a in algorithms):
        from .lcp import lookahead_bounds
        from .workfunction import WorkFunctions
        wf = WorkFunctions(m, instance.beta)
    for t in range(T):
        f_row = instance.F[t]
        if wf is not None:
            wf.update(f_row)
        bounds: dict[int, tuple[int, int]] = {}
        for algorithm, out in zip(algorithms, outs):
            w = algorithm.lookahead
            future = instance.F[t + 1:t + 1 + w] if w > 0 else None
            if algorithm.consumes_bounds:
                eff = (w if w > 0 and future is not None
                       and future.shape[0] > 0 else 0)
                if eff not in bounds:
                    bounds[eff] = (lookahead_bounds(wf, future) if eff
                                   else wf.bounds())
                x = algorithm.step_bounds(*bounds[eff])
            else:
                x = algorithm.step(f_row, future)
            out[t] = _checked_state(algorithm, x, t, m)


def run_online(instance: Instance, algorithm: OnlineAlgorithm, *,
               bounds=None) -> OnlineResult:
    """Replay an instance through an online algorithm.

    The algorithm sees rows of ``instance.F`` one at a time (plus its
    prediction window, if any) and the resulting schedule is priced with
    eq. (1) — via the continuous extension for fractional algorithms.

    Under the vectorized kernel (:func:`repro.kernels.is_vectorized`,
    i.e. ``"vector"``, the default) algorithms that consume
    work-function bounds replay from one whole-table kernel sweep —
    ``bounds`` may pass a precomputed
    :class:`repro.kernels.SweepResult` (e.g. the
    engine's per-instance memo) — and algorithms offering
    :meth:`OnlineAlgorithm.run_table` commit their whole trajectory in
    one call.  Both fast paths are bit-identical to the per-step loop
    (enforced by ``tests/test_kernels.py``); ``REPRO_KERNEL=scalar``
    disables them.
    """
    T, m = instance.T, instance.m
    algorithm.reset(m, instance.beta)
    if kernels.is_vectorized():
        xs = _fast_trajectory(instance, algorithm, bounds)
        if xs is not None:
            return _priced(instance, algorithm, xs)
    xs = np.empty(T, dtype=np.float64 if algorithm.fractional else np.int64)
    _replay_loop(instance, [algorithm], [xs])
    return _priced(instance, algorithm, xs)


def run_online_many(instance: Instance, algorithms, *,
                    bounds=None) -> list[OnlineResult]:
    """Replay several online algorithms over one instance in one pass.

    Algorithms with :attr:`OnlineAlgorithm.consumes_bounds` (the LCP
    family) share a single work-function sweep: the ``O(T m)``
    maintenance of ``hat-C^L_tau`` — the dominant kernel of the
    Section 3 discrete algorithms — is paid once per *instance* instead
    of once per *job*, and each consumer commits its steps from the
    same ``(x^L, x^U)`` trajectory.  Under a vectorized kernel the
    sweep is one whole-table kernel call (or the precomputed ``bounds``
    handed in by the engine) and other algorithms may take their
    :meth:`OnlineAlgorithm.run_table` fast path; everything else —
    including every algorithm when ``REPRO_KERNEL=scalar`` — is stepped
    in the per-step reference loop.  Algorithms with a prediction
    window get the window-extended bounds, computed once per distinct
    window length per step.

    Results are bit-identical to replaying each algorithm through
    :func:`run_online` separately: the bounds are deterministic
    functions of the revealed prefix, and validation and pricing are
    shared code paths.
    """
    algorithms = list(algorithms)
    if not algorithms:
        return []
    T, m = instance.T, instance.m
    for algorithm in algorithms:
        algorithm.reset(m, instance.beta)
    xs = [np.empty(T, dtype=np.float64 if a.fractional else np.int64)
          for a in algorithms]
    slow_idx = list(range(len(algorithms)))
    if kernels.is_vectorized():
        slow_idx = []
        for i, algorithm in enumerate(algorithms):
            if (bounds is None and algorithm.consumes_bounds
                    and algorithm.lookahead == 0):
                bounds = kernels.sweep_workfunction(instance.F,
                                                    instance.beta)
            fast = _fast_trajectory(instance, algorithm, bounds)
            if fast is None:
                slow_idx.append(i)
            else:
                xs[i] = fast
    if slow_idx:
        _replay_loop(instance, [algorithms[i] for i in slow_idx],
                     [xs[i] for i in slow_idx])
    return [_priced(instance, algorithm, x)
            for algorithm, x in zip(algorithms, xs)]

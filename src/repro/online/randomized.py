"""Randomized rounding of fractional schedules (Section 4).

Given a fractional schedule ``x-bar_1..x-bar_T`` (e.g. produced online by
:class:`repro.online.threshold.ThresholdFractional`), the paper rounds
each state to ``floor(x-bar_t)`` or ``ceil*(x-bar_t) := floor(x-bar_t)+1``
with a Markov kernel chosen so that (Lemmas 18–20):

* ``P[x_t = ceil*(x-bar_t)] = frac(x-bar_t)``            (Lemma 18)
* ``E[f_t(x_t)]            = f-bar_t(x-bar_t)``          (Lemma 19)
* ``E[beta (x_t - x_{t-1})^+] = beta (x-bar_t - x-bar_{t-1})^+``  (Lemma 20)

hence the expected cost of the integral schedule equals the fractional
cost *exactly*, and rounding a 2-competitive fractional schedule yields a
2-competitive randomized algorithm (Theorem 3).

This module provides the online wrapper (:class:`RandomizedRounding`),
an offline sampler (:func:`sample_rounding`), and an **exact** evaluator
(:func:`exact_rounding_distribution`, :func:`expected_cost_exact`) that
propagates the two-point state distribution in closed form — the test
suite verifies the three lemmas above without Monte Carlo error.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.instance import Instance
from ..core.schedule import interp_operating
from .base import OnlineAlgorithm

__all__ = [
    "ceil_star",
    "transition_prob_up",
    "sample_rounding",
    "independent_rounding",
    "expected_cost_independent",
    "RandomizedRounding",
    "RoundingDistribution",
    "exact_rounding_distribution",
    "expected_cost_exact",
]

_SNAP = 1e-9


def _snap(x: float) -> float:
    """Snap to the nearest integer within floating-point slack.

    The rounding kernel branches on ``floor``/``frac``; accumulated float
    error in a fractional schedule must not flip a state into the wrong
    unit cell.
    """
    r = round(x)
    return float(r) if abs(x - r) <= _SNAP else float(x)


def ceil_star(x: float) -> int:
    """``ceil*(x) = floor(x) + 1`` — the paper's upper state (Section 4.1);
    note ``ceil*(n) = n + 1`` for integral ``n``."""
    return int(np.floor(_snap(x))) + 1


def transition_prob_up(xbar_prev: float, xbar_t: float, x_prev: int) -> float:
    """``P[x_t = ceil*(x-bar_t) | x_{t-1} = x_prev]`` per Section 4.1.

    ``x_prev`` must lie in ``{floor(x-bar_{t-1}), ceil*(x-bar_{t-1})}``
    (the support maintained by the chain).  The projection
    ``x-bar'_{t-1} = [x-bar_{t-1}]`` into ``[floor(x-bar_t),
    ceil*(x-bar_t)]`` measures positions within the current unit cell; the
    clamped-from-above case uses the in-cell position (= 1), which is the
    reading of ``frac`` that makes Lemma 18's invariant hold in all cases.
    """
    xbar_prev = _snap(xbar_prev)
    xbar_t = _snap(xbar_t)
    lower = float(math.floor(xbar_t))
    upper = lower + 1.0
    xp = min(max(xbar_prev, lower), upper)  # the projection x-bar'_{t-1}
    if xbar_prev <= xbar_t:
        # Increasing step: keep the upper state if already there,
        # otherwise power up with probability p-up.
        if x_prev >= upper:
            return 1.0
        denom = 1.0 - (xp - lower)
        return float((xbar_t - xp) / denom)
    # Decreasing step: keep the lower state if already there, otherwise
    # power down with probability p-down.
    if x_prev <= lower:
        return 0.0
    pos = xp - lower  # in-cell position of the projected previous state
    if pos <= 0.0:  # pragma: no cover - impossible for a decreasing step
        raise AssertionError("degenerate decreasing rounding step")
    p_down = (xp - xbar_t) / pos
    return float(1.0 - p_down)


def sample_rounding(xbars: np.ndarray, rng: np.random.Generator,
                    m: int | None = None) -> np.ndarray:
    """Sample an integral schedule from a fractional one (Section 4.1)."""
    xbars = np.asarray(xbars, dtype=np.float64)
    out = np.empty(xbars.shape[0], dtype=np.int64)
    x_prev = 0
    xbar_prev = 0.0
    for t, xbar in enumerate(xbars):
        p = transition_prob_up(xbar_prev, float(xbar), x_prev)
        lower = int(np.floor(_snap(float(xbar))))
        x_prev = lower + 1 if rng.random() < p else lower
        if m is not None and x_prev > m:  # only reachable with p == 0
            raise AssertionError("rounded state left the state space")
        out[t] = x_prev
        xbar_prev = float(xbar)
    return out


def independent_rounding(xbars: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ablation: round every step independently (``up`` w.p. ``frac``).

    Satisfies Lemma 18 trivially but destroys Lemma 20 — neighbouring
    states decorrelate, so the expected switching cost blows up by
    ``O(frac (1-frac))`` per step even when the fractional schedule is
    constant.  Kept to demonstrate why the paper's Markovian kernel is
    necessary for Theorem 3 (ablation E12).
    """
    xbars = np.asarray(xbars, dtype=np.float64)
    out = np.empty(xbars.shape[0], dtype=np.int64)
    for t, xbar in enumerate(xbars):
        lower = int(np.floor(_snap(float(xbar))))
        frac = _snap(float(xbar)) - lower
        out[t] = lower + 1 if rng.random() < frac else lower
    return out


def expected_cost_independent(instance: Instance,
                              xbars: np.ndarray) -> dict:
    """Closed-form expected cost of :func:`independent_rounding`.

    Operating cost matches the fractional schedule (Lemma 19 only needs
    the marginals), but the expected switching cost is computed over the
    *product* distribution of consecutive states — the quantity the
    Markov kernel is designed to suppress.
    """
    xbars = np.asarray(xbars, dtype=np.float64)
    F = instance.F
    m = instance.m
    op = 0.0
    sw = 0.0
    prev_states = np.array([0, 1])
    prev_probs = np.array([1.0, 0.0])
    for t in range(xbars.shape[0]):
        x = _snap(float(xbars[t]))
        lo = int(np.floor(x))
        p = x - lo
        f_lo = F[t, min(lo, m)]
        f_up = F[t, lo + 1] if lo + 1 <= m else 0.0
        if lo + 1 > m and p > 1e-9:
            raise AssertionError("upper state above m with mass")
        op += (1.0 - p) * f_lo + p * f_up
        states = np.array([lo, lo + 1])
        probs = np.array([1.0 - p, p])
        for a, pa in zip(prev_states, prev_probs):
            for b, pb in zip(states, probs):
                sw += pa * pb * max(int(b) - int(a), 0)
        prev_states, prev_probs = states, probs
    sw *= instance.beta
    return {"operating": op, "switching": sw, "total": op + sw}


class RandomizedRounding(OnlineAlgorithm):
    """Online wrapper: fractional algorithm + Section 4.1 rounding.

    The kernel only needs ``x-bar_{t-1}``, ``x-bar_t`` and the previous
    integral state, so the rounding is implementable online.  The wrapped
    algorithm's fractional trajectory is kept in :attr:`fractional_log`
    (its cost equals the exact expected cost of this algorithm, by
    Lemmas 19–20).
    """

    fractional = False

    def __init__(self, inner: OnlineAlgorithm,
                 rng: np.random.Generator | int | None = None):
        if not inner.fractional:
            raise ValueError("inner algorithm must be fractional")
        self._inner = inner
        self._rng = np.random.default_rng(rng)
        self.name = f"rounded({inner.name})"
        self.lookahead = inner.lookahead
        self.fractional_log: list[float] = []

    def reset(self, m: int, beta: float) -> None:
        self._inner.reset(m, beta)
        self._m = m
        self._xbar_prev = 0.0
        self._set_state(0)
        self.fractional_log = []

    def step(self, f_row: np.ndarray, future: np.ndarray | None = None) -> int:
        xbar = float(self._inner.step(f_row, future))
        self.fractional_log.append(xbar)
        p = transition_prob_up(self._xbar_prev, xbar, self.state)
        lower = math.floor(_snap(xbar))
        x = lower + 1 if self._rng.random() < p else lower
        self._xbar_prev = xbar
        self._set_state(x)
        return x

    def run_table(self, F: np.ndarray):
        """Whole-trajectory rounding over the inner fast path.

        Takes ``x-bar`` from the inner algorithm's own ``run_table``
        and draws every uniform at once: for PCG64 ``rng.random(T)``
        yields the same doubles, and leaves the same generator state,
        as ``T`` scalar ``random()`` calls.  The rounding chain itself
        stays a scalar loop through :func:`transition_prob_up`, so the
        schedule, :attr:`fractional_log` and the final state are those
        of stepping :meth:`step` row by row.  Declines — before
        touching any state or the generator — under a prediction
        window or when the inner algorithm declines.
        """
        if self.lookahead > 0:
            return None
        xbars = self._inner.run_table(F)
        if xbars is None:
            return None
        log = np.asarray(xbars, dtype=np.float64).tolist()
        draws = self._rng.random(len(log)).tolist()
        out = np.empty(len(log), dtype=np.int64)
        xbar_prev, x = self._xbar_prev, self.state
        for t, (xbar, u) in enumerate(zip(log, draws)):
            p = transition_prob_up(xbar_prev, xbar, x)
            lower = math.floor(_snap(xbar))
            x = lower + 1 if u < p else lower
            out[t] = x
            xbar_prev = xbar
        self.fractional_log.extend(log)
        self._xbar_prev = xbar_prev
        self._set_state(x)
        return out


@dataclasses.dataclass(frozen=True)
class RoundingDistribution:
    """Exact two-point state distribution of the rounding chain.

    ``lowers[t]``/``uppers[t]`` are the support ``{floor, ceil*}`` of
    ``x_t`` and ``p_upper[t] = P[x_t = uppers[t]]``;
    ``expected_up[t] = E[(x_t - x_{t-1})^+]``.
    """

    lowers: np.ndarray
    uppers: np.ndarray
    p_upper: np.ndarray
    expected_up: np.ndarray


def exact_rounding_distribution(xbars: np.ndarray) -> RoundingDistribution:
    """Propagate the rounding chain's distribution in closed form.

    Exactness makes Lemma 18 (``p_upper == frac``) and Lemma 20
    (``expected_up == (Dx-bar)^+``) directly checkable.
    """
    xbars = np.asarray(xbars, dtype=np.float64)
    T = xbars.shape[0]
    lowers = np.empty(T, dtype=np.int64)
    uppers = np.empty(T, dtype=np.int64)
    p_upper = np.empty(T, dtype=np.float64)
    expected_up = np.empty(T, dtype=np.float64)
    # Distribution of x_{t-1} over its two-point support.
    prev_states = np.array([0, 0], dtype=np.int64)
    prev_probs = np.array([1.0, 0.0])
    xbar_prev = 0.0
    for t in range(T):
        xbar = _snap(float(xbars[t]))
        lo = int(np.floor(xbar))
        up = lo + 1
        p_new = 0.0
        e_up = 0.0
        for a, pa in zip(prev_states, prev_probs):
            if pa == 0.0:
                continue
            p = transition_prob_up(xbar_prev, xbar, int(a))
            p_new += pa * p
            e_up += pa * (p * max(up - int(a), 0) +
                          (1.0 - p) * max(lo - int(a), 0))
        lowers[t], uppers[t] = lo, up
        p_upper[t] = p_new
        expected_up[t] = e_up
        prev_states = np.array([lo, up], dtype=np.int64)
        prev_probs = np.array([1.0 - p_new, p_new])
        xbar_prev = xbar
    return RoundingDistribution(lowers=lowers, uppers=uppers,
                                p_upper=p_upper, expected_up=expected_up)


def expected_cost_exact(instance: Instance, xbars: np.ndarray) -> dict:
    """Exact expected cost of the rounded schedule, plus the fractional
    cost it must equal (Theorem 3's accounting).

    Returns a dict with keys ``operating``, ``switching``, ``total``
    (expectations over the rounding) and ``fractional_total`` (cost of the
    fractional schedule under the continuous extension).
    """
    xbars = np.asarray(xbars, dtype=np.float64)
    dist = exact_rounding_distribution(xbars)
    F = instance.F
    m = instance.m
    T = instance.T
    op = 0.0
    for t in range(T):
        lo, up, p = int(dist.lowers[t]), int(dist.uppers[t]), dist.p_upper[t]
        f_lo = F[t, min(lo, m)]
        # The upper state can be m+1 only with probability 0.
        if up > m:
            if p > 1e-9:
                raise AssertionError("upper state above m with mass")
            f_up = 0.0
        else:
            f_up = F[t, up]
        op += (1.0 - p) * f_lo + p * f_up
    sw = instance.beta * float(np.sum(dist.expected_up))
    frac_op = float(np.sum(interp_operating(F, xbars)))
    d = np.diff(np.concatenate([[0.0], xbars]))
    frac_sw = instance.beta * float(np.sum(np.maximum(d, 0.0)))
    return {
        "operating": op,
        "switching": sw,
        "total": op + sw,
        "fractional_operating": frac_op,
        "fractional_switching": frac_sw,
        "fractional_total": frac_op + frac_sw,
    }

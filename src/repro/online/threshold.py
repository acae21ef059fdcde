"""2-competitive fractional online algorithm (threshold "charge-half" rule).

This is the repository's proof-carrying substitute for the algorithm of
Bansal et al. [7] that Section 4 of the paper uses as a black box; the
rule and its competitive argument are sketched below.

State: a threshold profile ``q in [0,1]^m`` with ``q_s`` interpreted as
the probability that at least ``s`` servers are active; the fractional
point is ``x-bar_t = sum_s q_s``.  On arrival of ``f_t`` with increments
``g_s = f_t(s) - f_t(s-1)`` the rule is

``q_s <- clamp_[0,1]( q_s - g_s / beta )``.

Interpretation: threshold ``s`` plays a two-state server-on/server-off
game; when the "on" side is charged (``g_s > 0``) mass moves off, and
vice versa, at rate ``1/beta`` per unit of charged cost — exactly the
``eps/2`` steps of the paper's algorithm B (Section 5.2.1) when
``beta = 2`` and the hinge functions ``phi_0/phi_1`` arrive.  Convexity
of ``f_t`` makes ``g`` nondecreasing, which preserves the monotonicity
``q_1 >= q_2 >= ...`` (a valid threshold profile).  A per-threshold
potential argument (``Phi = (beta/2) (d + d^2)`` with ``d = |q_s - o_s|``
the distance to an integral optimum, checked step by step in
``tests/test_threshold.py``) shows the induced fractional
schedule costs at most twice the offline optimum; the randomized rounding
of Section 4 then converts it into an integral 2-competitive algorithm.
"""

from __future__ import annotations

import numpy as np

from .base import OnlineAlgorithm

__all__ = ["ThresholdFractional"]


class ThresholdFractional(OnlineAlgorithm):
    """Fractional 2-competitive online algorithm (threshold rule)."""

    fractional = True
    name = "threshold"

    def __init__(self, *, validate: bool = False):
        #: assert the monotone-threshold invariant after every step
        self._validate = validate

    def reset(self, m: int, beta: float) -> None:
        self.m = m
        self.beta = beta
        self._q = np.zeros(m, dtype=np.float64)
        self._set_state(0.0)

    @property
    def thresholds(self) -> np.ndarray:
        """Current threshold profile ``q`` (copy)."""
        return self._q.copy()

    def step(self, f_row: np.ndarray, future: np.ndarray | None = None) -> float:
        g = np.diff(np.asarray(f_row, dtype=np.float64))
        self._q -= g / self.beta
        np.clip(self._q, 0.0, 1.0, out=self._q)
        if self._validate and self._q.size > 1:
            if np.any(np.diff(self._q) > 1e-9):
                raise AssertionError("threshold profile lost monotonicity")
        x = float(self._q.sum())
        self._set_state(x)
        return x

    def run_table(self, F: np.ndarray):
        """Whole-trajectory threshold rule.

        The per-threshold drifts ``g_s / beta`` are one table-wide
        ``diff`` + divide into ``G``; the clamped accumulation across
        time is inherently sequential, but shrinks to three in-place
        array calls per step that overwrite row ``t`` of ``G`` with the
        profile ``q`` after step ``t`` — elementwise the same operations
        (and so the same floats) as :meth:`step`.  ``x-bar`` is then one
        row-wise ``add.reduce``: the same pairwise sum per contiguous
        row as ``q.sum()``.  Declines under ``validate=True`` to keep
        the per-step monotonicity assertion.
        """
        if self._validate:
            return None
        F = np.asarray(F, dtype=np.float64)
        G = np.diff(F, axis=1)
        np.divide(G, self.beta, out=G)
        # clip(q, 0, 1) == minimum(maximum(q, 0), 1) exactly (pure
        # selections, no rounding); raw ufuncs skip the dispatch
        # wrappers in this loop
        subtract, vmax, vmin = np.subtract, np.maximum, np.minimum
        q = self._q
        for row in G:
            subtract(q, row, out=row)
            vmax(row, 0.0, out=row)
            vmin(row, 1.0, out=row)
            q = row
        out = np.add.reduce(G, axis=1)
        if len(G):
            self._q[...] = q
            self._set_state(float(out[-1]))
        return out

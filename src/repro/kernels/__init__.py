"""Work-function kernels: scalar reference vs whole-table vectorized.

The two hot recurrences of the reproduction — the ``hat-C^L`` work-
function sweep behind the Section 3 LCP bounds and Lemma 11's backward
projection — exist in two interchangeable implementations:

* :mod:`repro.kernels.scalar` — the original per-step loop over
  :class:`~repro.online.workfunction.WorkFunctions`, kept as the
  executable reference semantics;
* :mod:`repro.kernels.vectorized` — a fused whole-table sweep that
  writes the full ``(T, m+1)`` work-function table with a handful of
  in-place ufunc calls per step and extracts every per-step bound pair
  with two table-wide ``argmin`` passes;
* :mod:`repro.kernels.batched` — the same op sequence lifted to a
  ``(B, T, m+1)`` stack of same-shape instances, so one kernel launch
  amortizes ufunc-dispatch overhead across ``B`` co-scheduled
  instances (:func:`sweep_workfunction_many` groups through
  :func:`cached_sweep_many`).

All three produce **bit-identical** results — the batched kernel per
slice (no floating-point operation is reordered; see
``docs/KERNELS.md`` for the derivation and the equivalence contract,
enforced by ``tests/test_kernels.py``).

Selection is process-wide through the ``REPRO_KERNEL`` environment
variable (``"vector"``, the default, ``"batched"``, or ``"scalar"``),
read on every dispatch so forked pool workers and mid-process
:func:`use` blocks agree.  The scalar setting also disables the
whole-trajectory fast paths of the online replay layer
(:mod:`repro.online.base`), restoring the pre-kernel per-step code
paths end to end; ``"batched"`` keeps every vector fast path
(:func:`is_vectorized`) and additionally stacks same-shape sweeps.

A small per-process memo (:func:`cached_sweep`, 16 sweeps) lets the
engine's phase-1 optimum computation and phase-2 shared replay reuse
one sweep per instance; :func:`sweep_stats` exposes monotonic per-
process hit/miss counters and :func:`clear_sweep_cache` drops the memo
for benchmark hygiene.
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

__all__ = [
    "KERNELS",
    "SweepResult",
    "active",
    "backward_clamp",
    "backward_lcp",
    "cached_sweep",
    "cached_sweep_many",
    "clear_sweep_cache",
    "is_vectorized",
    "peek_sweep",
    "set_kernel",
    "sweep_stats",
    "sweep_workfunction",
    "sweep_workfunction_many",
    "use",
]

#: environment variable selecting the kernel implementation
ENV_VAR = "REPRO_KERNEL"

#: recognized kernel names
KERNELS = ("vector", "scalar", "batched")

_DEFAULT = "vector"


class SweepResult(NamedTuple):
    """Whole-trajectory output of one work-function sweep.

    ``lo[t]``/``hi[t]`` are the LCP bounds ``(x^L_{t+1}, x^U_{t+1})``
    of every prefix (Section 3.1) and ``opt`` is the offline optimum
    ``min_x hat-C^L_T(x)`` — bit-identical to
    :func:`repro.offline.dp.solve_dp`'s cost, because the ``hat-C^L``
    recurrence *is* the DP recurrence (see ``docs/KERNELS.md``).
    """

    lo: np.ndarray
    hi: np.ndarray
    opt: float


def active() -> str:
    """Currently selected kernel name (one of :data:`KERNELS`).

    Read from the environment on every call so the selection survives
    process forks and :func:`use` blocks without module-level state.
    """
    name = os.environ.get(ENV_VAR, _DEFAULT)
    if name not in KERNELS:
        raise ValueError(
            f"{ENV_VAR}={name!r} is not a known kernel; choose from "
            f"{KERNELS}")
    return name


def set_kernel(name: str) -> None:
    """Select the kernel process-wide (exported via ``os.environ`` so
    pool workers forked later inherit the choice)."""
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")
    os.environ[ENV_VAR] = name


@contextlib.contextmanager
def use(name: str):
    """Context manager pinning the kernel selection within a block."""
    before = os.environ.get(ENV_VAR)
    set_kernel(name)
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = before


def is_vectorized() -> bool:
    """Whether the active kernel runs the whole-table fast paths.

    True for ``"vector"`` and ``"batched"`` (the batched kernel *is*
    the vector kernel for single instances, plus stacking); False only
    for the ``"scalar"`` reference.  Gates the engine's shared-sweep
    machinery and the online layer's whole-trajectory replay.
    """
    return active() != "scalar"


def sweep_workfunction(costs: np.ndarray, beta: float) -> SweepResult:
    """One ``O(T m)`` work-function sweep over a ``(T, m+1)`` cost table.

    Dispatches to the selected kernel; all return bit-identical
    :class:`SweepResult` values (asserted by ``tests/test_kernels.py``).
    Under ``"batched"`` a single instance runs the vector kernel — the
    batched op sequence restricted to one lane is exactly that kernel.
    """
    if active() == "scalar":
        from . import scalar
        return scalar.sweep_workfunction(costs, beta)
    from . import vectorized
    return vectorized.sweep_workfunction(costs, beta)


def sweep_workfunction_many(costs, betas) -> list:
    """Sweep a stack of same-shape instances.

    ``costs`` is ``(B, T, m+1)``, ``betas`` length-``B``.  Under the
    ``"batched"`` kernel this is one stacked pass; under ``"vector"``
    and ``"scalar"`` it degenerates to per-instance sweeps.  Either
    way the results are bit-identical per slice.
    """
    if active() == "batched":
        from . import batched
        return batched.sweep_workfunction_many(costs, betas)
    return [sweep_workfunction(c, b) for c, b in zip(costs, betas)]


def backward_clamp(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Lemma 11's backward projection pass.

    With ``x-hat_{T+1} = 0``, clamp backwards:
    ``x-hat_t = [x-hat_{t+1}]^{hi_t}_{lo_t}``.  Shared by both kernels
    (the pass is ``O(T)`` scalar work on integer bounds).
    """
    T = len(lo)
    x = np.empty(T, dtype=np.int64)
    nxt = 0
    llo, lhi = np.asarray(lo).tolist(), np.asarray(hi).tolist()
    for t in range(T - 1, -1, -1):
        b_lo, b_hi = llo[t], lhi[t]
        if nxt < b_lo:
            nxt = b_lo
        elif nxt > b_hi:
            nxt = b_hi
        x[t] = nxt
    return x


def backward_lcp(costs: np.ndarray, beta: float) -> np.ndarray:
    """Lemma 11 optimal schedule of a ``(T, m+1)`` cost table.

    One forward sweep for the prefix bounds (through the selected
    kernel) plus the shared backward clamp.
    """
    sweep = sweep_workfunction(costs, beta)
    return backward_clamp(sweep.lo, sweep.hi)


# ----------------------------------------------------------------------
# Per-process sweep memo: the engine's phase 1 (offline optimum) and
# phase 2 (shared LCP-family replay + backward solver) both need the
# same sweep of the same instance; keying it by instance coordinates
# lets whichever phase runs first in a worker pay for it once.
# ----------------------------------------------------------------------

_SWEEP_CACHE: OrderedDict = OrderedDict()
_SWEEP_CACHE_SIZE = 16

# Monotonic per-process counters; consumers (run_grid) take before/after
# deltas, mirroring the instance-store stats pattern.
_SWEEP_STATS = {"sweep_memo_hits": 0, "sweep_memo_misses": 0}


def _memo_store(full_key, result: SweepResult) -> None:
    _SWEEP_CACHE[full_key] = result
    while len(_SWEEP_CACHE) > _SWEEP_CACHE_SIZE:
        _SWEEP_CACHE.popitem(last=False)


def peek_sweep(key, *, touch: bool = True) -> SweepResult | None:
    """Return the memoized sweep for ``key`` under the active kernel,
    or ``None`` — never computes, never counts a miss.  Lets callers
    that would otherwise rebuild the cost table (e.g. the restricted
    phase-1 path) skip the rebuild when a prefetch already paid.
    ``touch=False`` makes it a pure membership probe: no LRU
    refresh, no hit counted (the prefetch pass filters with it)."""
    full_key = (active(), key)
    hit = _SWEEP_CACHE.get(full_key)
    if hit is not None and touch:
        _SWEEP_CACHE.move_to_end(full_key)
        _SWEEP_STATS["sweep_memo_hits"] += 1
    return hit


def cached_sweep(key, costs: np.ndarray, beta: float) -> SweepResult:
    """Memoized :func:`sweep_workfunction` keyed by ``key`` (hashable,
    e.g. the engine's instance coordinates) and the active kernel."""
    full_key = (active(), key)
    hit = _SWEEP_CACHE.get(full_key)
    if hit is not None:
        _SWEEP_CACHE.move_to_end(full_key)
        _SWEEP_STATS["sweep_memo_hits"] += 1
        return hit
    result = sweep_workfunction(costs, beta)
    _SWEEP_STATS["sweep_memo_misses"] += 1
    _memo_store(full_key, result)
    return result


def cached_sweep_many(items) -> list:
    """Memoized batch lookup: ``items`` is a sequence of
    ``(key, costs, beta)`` triples.

    Hits come straight from the memo; under the ``"batched"`` kernel
    the misses are grouped by table shape and each same-shape group
    runs as one stacked :func:`sweep_workfunction_many` launch (ragged
    shapes and singletons fall back to per-instance sweeps).  Every
    computed sweep lands in the memo, so the per-job paths that follow
    (phase-1 optimum, shared replay, backward solver) hit.
    """
    kernel = active()
    out: list = [None] * len(items)
    by_key: dict = {}
    for i, (key, _costs, _beta) in enumerate(items):
        full_key = (kernel, key)
        hit = _SWEEP_CACHE.get(full_key)
        if hit is not None:
            _SWEEP_CACHE.move_to_end(full_key)
            _SWEEP_STATS["sweep_memo_hits"] += 1
            out[i] = hit
        else:
            # Deduplicate repeated keys within one call; the first
            # occurrence computes, the rest share its result below.
            by_key.setdefault(key, []).append(i)
    if by_key:
        by_shape: dict = {}
        for idxs in by_key.values():
            rep = idxs[0]
            table = np.asarray(items[rep][1], dtype=np.float64)
            by_shape.setdefault(table.shape, []).append((idxs, table))
        for shape, group in by_shape.items():
            if kernel == "batched" and len(group) > 1:
                stack = np.stack([table for _idxs, table in group])
                betas = [items[idxs[0]][2] for idxs, _table in group]
                from . import batched
                sweeps = batched.sweep_workfunction_many(stack, betas)
            else:
                sweeps = [
                    sweep_workfunction(table, items[idxs[0]][2])
                    for idxs, table in group
                ]
            for (idxs, _table), sweep in zip(group, sweeps):
                _SWEEP_STATS["sweep_memo_misses"] += 1
                _memo_store((kernel, items[idxs[0]][0]), sweep)
                for i in idxs:
                    out[i] = sweep
    return out


def sweep_stats() -> dict:
    """Snapshot of the monotonic per-process memo counters
    (``sweep_memo_hits``/``sweep_memo_misses``)."""
    return dict(_SWEEP_STATS)


def clear_sweep_cache() -> None:
    """Drop the per-process sweep memo (benchmark/test hygiene).
    Counters are monotonic and unaffected — consumers take deltas."""
    _SWEEP_CACHE.clear()

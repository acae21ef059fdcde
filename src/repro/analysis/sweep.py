"""Parameter-sweep harness used by the benchmarks.

A sweep is the cartesian product of parameter axes; each grid point is
evaluated by a user function returning a dict of measurements, and the
results are collected as a list of flat row dicts ready for
:mod:`repro.analysis.tables`.

Evaluation rides the batch engine's shared pipelined executor
(:func:`repro.runner.executor.run_pipeline` — the same
double-buffer / in-order-drain loop ``run_grid`` runs on): an
``EngineConfig`` with ``n_jobs > 1`` fans grid points out over the
engine's *persistent* process pool (the function must then be
picklable, i.e. module-level) in fused chunks — several points per
worker round-trip — and up to ``pipeline_depth`` batches stay in
flight, so the pool keeps working while the parent flushes finished
batches' rows to the sink.  The
pool is shared with ``run_grid`` and ``repro lowerbound`` and survives
across sweeps, so many small sweeps don't pay a pool fork each.
A ``cache_dir`` (a directory, or a ready-made
:class:`~repro.runner.jobcache.JobCache` — e.g. one opened on the
SQLite backend) stores each point's measurements in the engine's
per-job content-addressed cache, keyed by the function's qualified name
and the point — extending a sweep's axes re-evaluates only the new
points.  Cached measurements must be JSON-serializable (numpy scalars
are converted); don't cache wall-clock timings you mean to re-measure.
For named (scenario x algorithm) grids with ratio aggregation, prefer
:func:`repro.runner.run_grid`.
"""

from __future__ import annotations

import itertools
from concurrent.futures import Future
from typing import Callable, Mapping, Sequence

from ..runner.executor import (EngineConfig, PipelineBatch, RunStats,
                               chunk_list, iter_batches, run_args,
                               run_pipeline, submit_task)
from ..runner.jobcache import JobCache, content_key, jsonify

__all__ = ["sweep"]

#: bump when the sweep cache record shape changes
_SWEEP_CACHE_VERSION = 1


class _EvalChunk:
    """Picklable fused evaluator: one worker round-trip runs a whole
    chunk of grid points through ``fn(**point)``."""

    def __init__(self, fn: Callable[..., Mapping]):
        self.fn = fn

    def __call__(self, points: list[dict]) -> list[dict]:
        return [dict(self.fn(**point)) for point in points]


def _point_key(fn: Callable, point: dict) -> str:
    qualname = getattr(fn, "__qualname__", None)
    fn_id = f"{getattr(fn, '__module__', '?')}.{qualname}"
    if qualname is None or "<lambda>" in fn_id or "<locals>" in fn_id:
        # lambdas/closures share qualnames and partials have none at
        # all, so two different functions would silently share records
        raise ValueError(
            "cache_dir requires a module-level function (lambdas, "
            "closures and partials have ambiguous cache identities): "
            f"{fn_id if qualname is not None else fn!r}")
    return content_key({"kind": "sweep", "version": _SWEEP_CACHE_VERSION,
                        "fn": fn_id, "point": point})


class _SweepBatch(PipelineBatch):
    """One admitted batch of sweep points on the shared executor.

    ``advance`` harvests finished chunk futures — canonicalizing each
    measurement through the JSON form when caching, so hit and miss
    rows are indistinguishable, and writing the per-point cache the
    moment a chunk lands (a killed sweep must not recompute points it
    already paid for).  ``flush`` merges points with measurements and
    writes the sink in grid-product order; ``salvage`` persists
    completed-but-unharvested chunks on abort.
    """

    __slots__ = ("cache", "sink", "batch", "size", "results", "futures")

    def __init__(self, cache, sink, batch: list,
                 futures: list[tuple[list, Future]]):
        self.cache = cache
        self.sink = sink
        self.batch = batch
        self.size = len(batch)
        self.results: list = [None] * len(batch)
        self.futures = futures

    def _harvest(self, chunk, future) -> None:
        for (i, _point, key), result in zip(chunk, future.result()):
            self.results[i] = (jsonify(result) if self.cache is not None
                               else result)
            if self.cache is not None:
                self.cache.put("sweep", key, result)

    def advance(self) -> bool:
        progressed = False
        remaining = []
        for chunk, future in self.futures:
            if not future.done():
                remaining.append((chunk, future))
                continue
            self._harvest(chunk, future)
            progressed = True
        self.futures = remaining
        return progressed

    def done(self) -> bool:
        return not self.futures

    def unfinished_futures(self) -> list[Future]:
        return [f for _c, f in self.futures if not f.done()]

    def flush(self) -> int:
        for point, result in zip(self.batch, self.results):
            clash = set(point) & set(result)
            if clash:
                raise ValueError(
                    f"measurement keys collide with grid: {clash}")
            self.sink.write({**point, **result})
        return len(self.batch)

    def flushable(self) -> bool:
        return all(r is not None for r in self.results)

    def salvage(self) -> None:
        remaining = []
        for chunk, future in self.futures:
            if not (future.done() and not future.cancelled()):
                remaining.append((chunk, future))
                continue
            try:
                self._harvest(chunk, future)
            except Exception:
                remaining.append((chunk, future))
        self.futures = remaining


def sweep(fn: Callable[..., Mapping], grid: Mapping[str, Sequence],
          config: EngineConfig | None = None, *,
          stats: RunStats | None = None):
    """Evaluate ``fn(**point)`` on every point of the parameter grid.

    ``grid`` maps parameter names to value lists; the returned rows merge
    the grid point with ``fn``'s measurement dict (measurements win on
    key collisions being forbidden).  Execution is configured by
    ``config``, an :class:`~repro.runner.executor.EngineConfig`
    (``None`` = the defaults; ``store_dir``, ``force`` and the retry
    fields do not apply to sweeps).  ``n_jobs > 1`` evaluates points on
    the persistent process pool; row order is always the grid-product
    order.  With ``cache_dir``, previously evaluated points are read
    back from the per-point cache.  ``stats`` is a
    :class:`~repro.runner.executor.RunStats` whose ``hits`` /
    ``misses`` and scheduler counters accumulate in place; a
    ``config`` or ``stats`` of any other type raises
    :class:`TypeError` before the sink is opened.

    Like :func:`repro.runner.run_grid`, a sweep streams *and
    pipelines* — on the same shared scheduling loop
    (:func:`repro.runner.executor.run_pipeline`): points run in bounded
    batches of ``batch_size`` (``None`` = one batch) dispatched as
    fused chunks of ``chunk_jobs`` (``None`` auto-sizes), up to
    ``pipeline_depth`` batches stay in flight on the pool, and rows
    flow into a :mod:`repro.runner.sinks` ``sink`` — always in
    grid-product order — as each batch finishes.  The default
    ``sink=None`` collects and returns the historical ``list[dict]``;
    a file-backed sink keeps parent memory at O(depth x batch) and
    ``sweep`` returns ``sink.result()``.
    """
    from ..runner.sinks import ListSink
    config, run_stats = run_args(config, stats)
    if config.pipeline_depth < 1:
        raise ValueError("pipeline_depth must be >= 1")
    names = list(grid.keys())
    points = (dict(zip(names, values))
              for values in itertools.product(*(grid[n] for n in names)))
    cache = (config.cache_dir if isinstance(config.cache_dir, JobCache)
             else JobCache(config.cache_dir)
             if config.cache_dir is not None else None)
    sink = ListSink() if config.sink is None else config.sink

    def plan(batch: list) -> _SweepBatch:
        pending: list[tuple[int, dict, str]] = []
        results_known: list[tuple[int, dict]] = []
        for i, point in enumerate(batch):
            key = _point_key(fn, point) if cache is not None else ""
            cached = (cache.get("sweep", key)
                      if cache is not None else None)
            if cached is not None:
                results_known.append((i, cached))
                run_stats.hits += 1
            else:
                pending.append((i, point, key))
        run_stats.misses += len(pending)
        futures = [
            (chunk, submit_task(_EvalChunk(fn),
                                [p for _, p, _ in chunk], config.n_jobs))
            for chunk in chunk_list(pending, config.n_jobs,
                                    config.chunk_jobs)]
        st = _SweepBatch(cache, sink, batch, futures)
        for i, cached in results_known:
            st.results[i] = cached
        return st

    sink.open()
    try:
        run_pipeline(iter_batches(points, config.batch_size), plan,
                     pipeline_depth=config.pipeline_depth,
                     stats=run_stats)
    finally:
        sink.close()
    return sink.result()

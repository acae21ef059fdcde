"""Parameter-sweep harness used by the benchmarks.

A sweep is the cartesian product of parameter axes; each grid point is
evaluated by a user function returning a dict of measurements, and the
results are collected as a list of flat row dicts ready for
:mod:`repro.analysis.tables`.

Points are evaluated one batch at a time: the batch's uncached points
go through one :func:`repro.runner.executor.parallel_map` call, so an
``EngineConfig`` with ``n_jobs > 1`` fans them out over the engine's
*persistent* process pool (the function must then be picklable, i.e.
module-level).  The pool is shared with ``run_grid`` and ``repro
lowerbound`` and survives across sweeps, so many small sweeps don't
pay a pool fork each.  A ``cache_dir`` (a directory, or a ready-made
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

import functools
import itertools
from typing import Callable, Mapping, Sequence

from ..runner.executor import (EngineConfig, RunStats, iter_batches,
                               parallel_map, run_args)
from ..runner.jobcache import JobCache, content_key, jsonify

__all__ = ["sweep"]

#: bump when the sweep cache record shape changes
_SWEEP_CACHE_VERSION = 1


def _evaluate(fn: Callable[..., Mapping], point: dict) -> dict:
    """One grid point's measurements (module-level, so a
    ``functools.partial`` of it pickles whenever ``fn`` does)."""
    return dict(fn(**point))


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


def sweep(fn: Callable[..., Mapping], grid: Mapping[str, Sequence],
          config: EngineConfig | None = None, *,
          stats: RunStats | None = None):
    """Evaluate ``fn(**point)`` on every point of the parameter grid.

    ``grid`` maps parameter names to value lists; the returned rows merge
    the grid point with ``fn``'s measurement dict (measurements win on
    key collisions being forbidden).  Row order is always the
    grid-product order.

    Execution is configured by ``config``, an
    :class:`~repro.runner.executor.EngineConfig` (``None`` = the
    defaults), of which four fields apply to sweeps:

    * ``n_jobs`` — ``> 1`` evaluates a batch's points on the persistent
      process pool;
    * ``cache_dir`` — previously evaluated points are read back from
      the per-point cache, and new ones written to it;
    * ``batch_size`` — points run in bounded batches (``None`` = one
      batch);
    * ``sink`` — a :mod:`repro.runner.sinks` sink the rows flow into
      as each batch finishes.  The default ``sink=None`` collects and
      returns the historical ``list[dict]``; a file-backed sink keeps
      parent memory at O(batch) and ``sweep`` returns
      ``sink.result()``.

    ``store_dir``, ``force``, ``pipeline_depth``, ``chunk_jobs``, the
    retry fields and ``fault_plan`` do not apply to sweeps (they are
    still validated).  Each batch's new measurements are cached before
    its first row reaches the sink, so a sweep killed while writing
    resumes without recomputing them; when ``fn`` raises, the sweep
    stops and the failing batch's uncached points are lost.

    ``stats`` is a :class:`~repro.runner.executor.RunStats` whose
    ``hits`` / ``misses``, ``batches`` and ``rows_written`` accumulate
    in place; a ``config`` or ``stats`` of any other type raises
    :class:`TypeError`, and a non-positive batch, depth or chunk size
    :class:`ValueError`, before the sink is opened.
    """
    from ..runner.sinks import ListSink
    config, run_stats = run_args(config, stats)
    names = list(grid.keys())
    points = (dict(zip(names, values))
              for values in itertools.product(*(grid[n] for n in names)))
    cache = (config.cache_dir if isinstance(config.cache_dir, JobCache)
             else JobCache(config.cache_dir)
             if config.cache_dir is not None else None)
    sink = ListSink() if config.sink is None else config.sink
    evaluate = functools.partial(_evaluate, fn)
    sink.open()
    try:
        for batch in iter_batches(points, config.batch_size):
            run_stats.batches += 1
            results: list = [None] * len(batch)
            if cache is not None:
                keys = [_point_key(fn, point) for point in batch]
                results = [cache.get("sweep", key) for key in keys]
            misses = [i for i, result in enumerate(results)
                      if result is None]
            run_stats.hits += len(batch) - len(misses)
            run_stats.misses += len(misses)
            measured = parallel_map(evaluate, [batch[i] for i in misses],
                                    config.n_jobs)
            for i, result in zip(misses, measured):
                if cache is not None:
                    cache.put("sweep", keys[i], result)
                    # the JSON form, so hit and miss rows are identical
                    result = jsonify(result)
                results[i] = result
            for point, result in zip(batch, results):
                clash = set(point) & set(result)
                if clash:
                    raise ValueError(
                        f"measurement keys collide with grid: {clash}")
                sink.write({**point, **result})
            run_stats.rows_written += len(batch)
    finally:
        sink.close()
    return sink.result()

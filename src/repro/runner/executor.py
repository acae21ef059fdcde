"""Execution substrate shared by every run entry point.

* :class:`EngineConfig` / :class:`RunStats` — the execution
  configuration and the typed stats counters that
  :func:`~repro.runner.engine.run_grid`,
  :func:`~repro.analysis.sweep.sweep` and the lease-queue worker loop
  (:func:`~repro.runner.leasequeue.work`) take and report;
  :func:`run_args` validates both before any sink, cache or queue
  opens.
* :class:`RetryPolicy` — worker-side backoff for failing jobs.
* The persistent module-level :class:`~concurrent.futures.\
ProcessPoolExecutor` (fork-else-spawn, grown never shrunk), with
  :func:`submit_task` (inline for ``n_jobs <= 1``), the
  order-preserving :func:`parallel_map` and eager-validating
  :func:`iter_batches`.

The grid engine keeps its own double-buffered batch window
(:class:`repro.runner.engine._GridRun`) on :func:`submit_task`;
``analysis.sweep`` evaluates one batch at a time with
:func:`parallel_map`.
"""

from __future__ import annotations

import atexit
import dataclasses
import itertools
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor

from . import faults

__all__ = [
    "DEFAULT_PIPELINE_DEPTH",
    "EngineConfig",
    "RetryPolicy",
    "RunStats",
    "iter_batches",
    "parallel_map",
    "pool_generation",
    "respawn_pool",
    "run_args",
    "shutdown_pool",
    "submit_task",
]

#: how many batches the grid engine keeps in flight at once
DEFAULT_PIPELINE_DEPTH = 2


# ----------------------------------------------------------------------
# Execution configuration and typed stats.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Execution configuration shared by every run entry point.

    The one way to configure a run:
    :func:`~repro.runner.engine.run_grid`,
    :func:`~repro.analysis.sweep.sweep` and the lease-queue worker loop
    (:func:`~repro.runner.leasequeue.work`) take a ``config=``
    instance (``None`` means the defaults) and no execution keyword
    arguments.  Frozen: derive variants with :func:`dataclasses.replace`.

    ``cache_dir`` may be a directory path or a ready-made
    :class:`~repro.runner.jobcache.JobCache`; ``sink`` a
    :class:`~repro.runner.sinks.ResultSink` (``None`` collects rows in
    memory); ``batch_size=None`` runs one batch; ``chunk_jobs`` is the
    number of jobs fused into one worker task (``None`` auto-sizes;
    the grid engine rounds it up to whole instances, so ``1`` gives one
    instance per task).

    The fault-tolerance knobs: a failing job is retried up to
    ``max_retries`` times (deterministic exponential backoff starting
    at ``retry_backoff`` seconds) before it is quarantined as a
    ``status="failed"`` row; a dead worker pool is respawned up to
    ``max_pool_restarts`` times per run; ``fault_plan`` installs a
    :class:`~repro.runner.faults.FaultPlan` (or its dict/JSON form)
    for the run — the chaos-testing seam.
    """

    n_jobs: int = 1
    cache_dir: object = None
    store_dir: object = None
    force: bool = False
    sink: object = None
    batch_size: int | None = None
    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH
    chunk_jobs: int | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    max_pool_restarts: int = 3
    fault_plan: object = None


@dataclasses.dataclass
class RunStats:
    """Typed execution counters every run entry point reports.

    One instance may be threaded through several runs — e.g. every
    lease a worker drains — and keeps accumulating: counts add up,
    peaks (``max_pending``, ``inflight_max``) take the maximum.
    """

    #: per-job cache hits / executed jobs (``run_grid``)
    job_hits: int = 0
    job_misses: int = 0
    #: per-instance optimum cache hits / fresh solves
    opt_hits: int = 0
    opt_solved: int = 0
    #: instances newly written to the store this run
    inst_materialized: int = 0
    #: instance-resolution counts (see ``instancestore.build_stats``),
    #: summed over every process that ran a grid task
    inst_builds: int = 0
    inst_loads: int = 0
    inst_memo_hits: int = 0
    #: sweep-memo counts (see ``kernels.sweep_stats``), summed the
    #: same way
    sweep_memo_hits: int = 0
    sweep_memo_misses: int = 0
    #: scheduler counters: the grid engine's batch window maintains all
    #: five, a sweep only ``batches`` and ``rows_written``
    batches: int = 0
    max_pending: int = 0
    rows_written: int = 0
    overlapped_batches: int = 0
    inflight_max: int = 0
    #: sweep-point cache counters (:func:`repro.analysis.sweep.sweep`)
    hits: int = 0
    misses: int = 0
    #: lease-queue worker counters (:func:`repro.runner.leasequeue.work`)
    leases_claimed: int = 0
    leases_reclaimed: int = 0
    leases_completed: int = 0
    leases_lost: int = 0
    #: fault-tolerance counters: job attempts retried after a failure,
    #: jobs quarantined as ``status="failed"`` rows, dead worker pools
    #: respawned, and best-effort cache writes that were dropped
    retries: int = 0
    quarantined: int = 0
    pool_restarts: int = 0
    cache_put_failures: int = 0
    #: SQLITE_BUSY contention absorbed by ``jobcache.with_busy_retry``
    #: (a parent-process delta: only the parent touches the cache)
    sqlite_busy_retries: int = 0

    def merge_max(self, name: str, value: int) -> None:
        """Fold a peak observation into counter ``name`` (max, not +=)."""
        setattr(self, name, max(getattr(self, name), value))


def run_args(config, stats) -> tuple[EngineConfig, RunStats]:
    """The ``(config, stats)`` pair a run entry point executes with.

    ``None`` selects the defaults (a fresh :class:`RunStats` when the
    caller does not collect counters).  Anything else that is not an
    :class:`EngineConfig` / :class:`RunStats` raises :class:`TypeError`,
    and a ``batch_size``, ``pipeline_depth`` or ``chunk_jobs`` below 1
    raises :class:`ValueError` — entry points call this first, so a bad
    argument fails before any sink, cache or queue is opened (and before
    a worker claims a lease it could not run).
    """
    if config is None:
        config = EngineConfig()
    elif not isinstance(config, EngineConfig):
        raise TypeError(f"config must be an EngineConfig or None, "
                        f"got {type(config).__name__}")
    if stats is None:
        stats = RunStats()
    elif not isinstance(stats, RunStats):
        raise TypeError(f"stats must be a RunStats or None, "
                        f"got {type(stats).__name__}")
    if config.batch_size is not None and config.batch_size < 1:
        raise ValueError(f"batch_size must be positive or None, "
                         f"got {config.batch_size!r}")
    if config.pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, "
                         f"got {config.pipeline_depth!r}")
    if config.chunk_jobs is not None and config.chunk_jobs < 1:
        raise ValueError(f"chunk_jobs must be positive or None, "
                         f"got {config.chunk_jobs!r}")
    return config, stats


# ----------------------------------------------------------------------
# Retry policy (worker-side backoff for failing jobs).
# ----------------------------------------------------------------------

#: injectable sleeper — tests replace it to assert backoff schedules
#: without paying wall-clock time (and results never embed a timestamp,
#: so retries cannot perturb row contents)
_SLEEP = time.sleep


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a failing job is retried before quarantine.

    Picklable and carried inside the engine's task payloads, so retries
    run *in the worker process that failed* — which keeps the
    per-process fault-injection counters (and therefore transient-fault
    chaos tests) deterministic.
    """

    max_retries: int = 2
    backoff: float = 0.05
    backoff_max: float = 2.0


def backoff_delay(policy: RetryPolicy, attempt: int) -> float:
    """Deterministic exponential backoff before retry ``attempt + 1``:
    ``backoff * 2**(attempt-1)``, capped at ``backoff_max``."""
    return min(policy.backoff * (2.0 ** (attempt - 1)),
               policy.backoff_max)


def retry_sleep(policy: RetryPolicy, attempt: int) -> None:
    """Sleep the backoff delay through the injectable ``_SLEEP``."""
    delay = backoff_delay(policy, attempt)
    if delay > 0:
        _SLEEP(delay)


# ----------------------------------------------------------------------
# Persistent worker pool.
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_GENERATION = 0


def _pool_worker_init() -> None:
    """Runs in every pool worker at fork/spawn: mark the process so
    ``exit``-kind injected faults may SIGKILL it (the parent and the
    inline path never honor them)."""
    faults.mark_worker()


def _get_pool(n_jobs: int) -> ProcessPoolExecutor:
    """The module-level executor, grown (never shrunk) to ``n_jobs``."""
    global _POOL, _POOL_WORKERS, _POOL_GENERATION
    if _POOL is not None and _POOL_WORKERS < n_jobs:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
    if _POOL is None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        _POOL = ProcessPoolExecutor(max_workers=n_jobs, mp_context=ctx,
                                    initializer=_pool_worker_init)
        _POOL_WORKERS = n_jobs
        _POOL_GENERATION += 1
    return _POOL


def pool_generation() -> int:
    """Identity of the current pool incarnation.  A consumer records
    the generation next to each submitted future; on
    ``BrokenProcessPool`` it hands that generation to
    :func:`respawn_pool` so only the *first* observer of a given dead
    pool retires it (and counts one restart)."""
    return _POOL_GENERATION


def respawn_pool(generation: int) -> bool:
    """Retire the pool incarnation ``generation`` so the next
    submission forks a fresh one.  Returns ``True`` for the first
    caller to observe that generation's death; later callers (other
    in-flight tasks of the same dead pool) get ``False`` and must not
    count another restart."""
    global _POOL_GENERATION
    if generation != _POOL_GENERATION:
        return False
    _POOL_GENERATION += 1  # later observers of the dead pool mismatch
    shutdown_pool()
    return True


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent; also runs at
    interpreter exit).  The next parallel call starts a fresh pool.

    In-flight pipelined futures are drained cleanly: queued-but-
    unstarted tasks are cancelled (``cancel_futures=True``) and running
    ones are awaited, so a Ctrl-C mid-pipeline never leaves orphaned
    tasks executing against a torn-down parent.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def submit_task(fn, arg, n_jobs: int) -> Future:
    """Run ``fn(arg)`` — inline (returning an already-completed future)
    for ``n_jobs <= 1``, else on the persistent pool.  The inline path
    raises synchronously, like the historical serial engine, and keeps
    module-level ``fn`` internals monkeypatchable by tests."""
    if n_jobs <= 1:
        future: Future = Future()
        future.set_result(fn(arg))
        return future
    return _get_pool(n_jobs).submit(fn, arg)


atexit.register(shutdown_pool)


def parallel_map(fn, items, n_jobs: int = 1, chunksize: int | None = None):
    """Order-preserving map, in-process or on the persistent pool.

    ``fn`` and the items must be picklable for ``n_jobs > 1`` (module
    -level functions and plain data).  The pool outlives the call — it
    is reused by the engine's worker tasks, by every subsequent grid,
    and by ``analysis/sweep`` and ``repro lowerbound`` — so pool
    startup is amortized across the many small grids the benches run.
    The in-process path is a plain ``map`` so tests can monkeypatch
    ``fn``'s module-level dependencies.
    """
    items = list(items)
    if n_jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    n_jobs = min(n_jobs, len(items))
    if chunksize is None:
        chunksize = max(1, len(items) // (4 * n_jobs))
    try:
        return list(_get_pool(n_jobs).map(fn, items, chunksize=chunksize))
    except Exception:
        # a dead/broken pool must not poison later calls — drop it so
        # the next parallel_map starts fresh, then surface the error
        shutdown_pool()
        raise


# ----------------------------------------------------------------------
# Batching.
# ----------------------------------------------------------------------


def iter_batches(iterable, size: int | None):
    """Iterate lists of up to ``size`` items (everything when ``None``).

    ``size`` is validated *eagerly*, before the first item of
    ``iterable`` is consumed — a bad ``batch_size`` surfaces at the
    call site (before any sink is opened or job generated), not at the
    first ``next()`` of a lazily-evaluated generator.
    """
    if size is not None and size < 1:
        raise ValueError("batch_size must be positive")
    return _iter_batches(iterable, size)


def _iter_batches(iterable, size: int | None):
    if size is None:
        batch = list(iterable)
        if batch:
            yield batch
        return
    it = iter(iterable)
    while True:
        batch = list(itertools.islice(it, size))
        if not batch:
            return
        yield batch

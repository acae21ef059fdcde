"""Reusable pipelined batch executor: one double-buffer/drain loop.

Historically :func:`repro.runner.engine.run_grid` and
:func:`repro.analysis.sweep.sweep` each carried their own copy of the
same scheduling loop: admit bounded batches of work, keep up to
``pipeline_depth`` of them in flight on the persistent process pool,
flush each completed batch's rows to the result sink *in admission
order*, and — on abort — cancel outstanding futures, persist the
chunks that did finish to the job cache, and still flush fully
completed head batches so a killed run keeps a clean row prefix.

This module is that loop, factored once:

* :class:`PipelineBatch` — the consumer contract: one admitted batch's
  stage machine (``advance``/``done``), the futures the scheduler may
  block on, in-order ``flush`` to the sink, and best-effort
  ``salvage`` of completed work on abort.
* :func:`run_pipeline` — the scheduler: pulls batches from a lazy
  iterator through a ``plan`` callback, bounds in-flight depth, pumps
  stage machines, flushes done heads in order, and drains on any
  exception.  The ``overlapped_batches`` / ``inflight_max`` /
  ``max_pending`` counters that prove overlap and O(batch) parent
  memory are maintained here, identically for every consumer.
* :class:`EngineConfig` / :class:`RunStats` — the shared execution
  configuration and the typed stats counters all consumers report.
* The persistent module-level :class:`~concurrent.futures.\
ProcessPoolExecutor` (fork-else-spawn, grown never shrunk), with
  :func:`submit_task` (inline for ``n_jobs <= 1``), fused
  :func:`chunk_list` dispatch and eager-validating :func:`iter_batches`.

Consumers: the grid engine (:mod:`repro.runner.engine`), the parameter
sweep (:mod:`repro.analysis.sweep`) and the multi-host lease-queue
worker loop (:mod:`repro.runner.leasequeue`), which replays leased job
ranges through :func:`~repro.runner.engine.run_grid` on this loop.
"""

from __future__ import annotations

import atexit
import collections
import dataclasses
import itertools
import multiprocessing
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)

from . import faults

__all__ = [
    "DEFAULT_PIPELINE_DEPTH",
    "EngineConfig",
    "PipelineBatch",
    "RetryPolicy",
    "RunStats",
    "chunk_list",
    "iter_batches",
    "parallel_map",
    "pool_generation",
    "respawn_pool",
    "run_args",
    "run_pipeline",
    "shutdown_pool",
    "submit_task",
]

#: how many batches the pipelined core keeps in flight at once
DEFAULT_PIPELINE_DEPTH = 2


# ----------------------------------------------------------------------
# Execution configuration and typed stats.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Execution configuration shared by every executor consumer.

    The one way to configure a run:
    :func:`~repro.runner.engine.run_grid`,
    :func:`~repro.analysis.sweep.sweep` and the lease-queue worker loop
    (:func:`~repro.runner.leasequeue.work`) take a ``config=``
    instance (``None`` means the defaults) and no execution keyword
    arguments.  Frozen: derive variants with :func:`dataclasses.replace`.

    ``cache_dir`` may be a directory path or a ready-made
    :class:`~repro.runner.jobcache.JobCache`; ``sink`` a
    :class:`~repro.runner.sinks.ResultSink` (``None`` collects rows in
    memory); ``batch_size=None`` runs one batch; ``chunk_jobs=None``
    auto-sizes fused dispatch (``1`` disables fusion).

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
    #: per-instance optimum cache hits / fresh solves (phase 1)
    opt_hits: int = 0
    opt_solved: int = 0
    #: instances newly written to the store this run (phase 0)
    inst_materialized: int = 0
    #: instance-resolution deltas (see ``instancestore.build_stats``)
    inst_builds: int = 0
    inst_loads: int = 0
    inst_memo_hits: int = 0
    #: sweep-memo deltas (see ``kernels.sweep_stats``); parent-process
    #: view, like the instance-resolution counters above
    sweep_memo_hits: int = 0
    sweep_memo_misses: int = 0
    #: scheduler counters, maintained by :func:`run_pipeline`
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
    #: (parent-process delta, like the sweep-memo counters above)
    sqlite_busy_retries: int = 0

    def merge_max(self, name: str, value: int) -> None:
        """Fold a peak observation into counter ``name`` (max, not +=)."""
        setattr(self, name, max(getattr(self, name), value))


def run_args(config, stats) -> tuple[EngineConfig, RunStats]:
    """The ``(config, stats)`` pair a run entry point executes with.

    ``None`` selects the defaults (a fresh :class:`RunStats` when the
    caller does not collect counters).  Anything else that is not an
    :class:`EngineConfig` / :class:`RunStats` raises :class:`TypeError`
    — entry points call this first, so a wrong type fails before any
    sink, cache or queue is opened.
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

    Picklable and carried inside the fused chunk payloads, so retries
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
    in-flight chunks of the same dead pool) get ``False`` and must not
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
    is reused by both engine phases, by every subsequent grid, and by
    ``analysis/sweep`` and ``repro lowerbound`` — so pool startup is
    amortized across the many small grids the benches run.  The
    in-process path is a plain ``map`` so tests can monkeypatch ``fn``'s
    module-level dependencies.
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
# Batching and fused-chunk dispatch.
# ----------------------------------------------------------------------


def chunk_list(items, n_jobs: int, chunk_jobs: int | None) -> list[list]:
    """Split ``items`` into contiguous chunks for fused dispatch.

    ``chunk_jobs=None`` auto-sizes: in-process everything fuses into
    one chunk (maximal sharing, no IPC to amortize anyway); on the pool
    roughly two chunks per worker balance round-trip amortization
    against load balancing.  ``chunk_jobs=1`` disables fusion (the
    pre-pipeline per-job dispatch).
    """
    items = list(items)
    if not items:
        return []
    if chunk_jobs is not None:
        size = max(1, int(chunk_jobs))
    elif n_jobs <= 1:
        size = len(items)
    else:
        size = max(1, -(-len(items) // (2 * n_jobs)))
    return [items[i:i + size] for i in range(0, len(items), size)]


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


# ----------------------------------------------------------------------
# The double-buffer / in-order-drain scheduling loop.
# ----------------------------------------------------------------------


class PipelineBatch:
    """One admitted batch of work: the :func:`run_pipeline` contract.

    A consumer's ``plan`` callback returns one instance per admitted
    batch; the scheduler then repeatedly calls :meth:`advance`, blocks
    on :meth:`unfinished_futures` when nothing progressed, and calls
    :meth:`flush` once the batch — and every batch admitted before it —
    is :meth:`done`.  On abort the scheduler cancels
    :meth:`all_futures`, gives each batch a best-effort
    :meth:`salvage`, and still flushes :meth:`flushable` head batches
    so a killed run keeps a clean in-order row prefix.
    """

    #: number of result rows the batch will flush (memory accounting)
    size = 0

    def advance(self) -> bool:
        """Move the batch's stage machine; return True on progress."""
        return False

    def done(self) -> bool:
        """True once every row of the batch is ready to flush."""
        raise NotImplementedError

    def unfinished_futures(self) -> list[Future]:
        """Futures the scheduler may need to block on."""
        return []

    def all_futures(self) -> list[Future]:
        """Every future the batch ever submitted (cancelled on abort)."""
        return self.unfinished_futures()

    def flush(self) -> int:
        """Write the batch's rows to the sink; return the row count.

        Called exactly once, in admission order, only after
        :meth:`done` (normal path) or :meth:`flushable` (abort path).
        """
        return 0

    def flushable(self) -> bool:
        """True when an aborted run may still flush this batch."""
        return self.done()

    def salvage(self) -> None:
        """Abort path: persist completed-but-unharvested work
        (best-effort cache writes; exceptions are swallowed)."""
        return None


def run_pipeline(batches, plan, *, pipeline_depth: int =
                 DEFAULT_PIPELINE_DEPTH, stats: RunStats | None = None
                 ) -> RunStats:
    """Drive batches of work through the double-buffered pipeline.

    ``batches`` is a (lazy) iterable of batch payloads; ``plan(batch)``
    admits one payload and returns its :class:`PipelineBatch`.  Up to
    ``pipeline_depth`` batches stay in flight: while the head batch's
    futures run, later batches are already admitted and submitting
    work, and each completed head flushes — in admission order — before
    any later batch.  When no batch progresses, the scheduler blocks on
    the union of unfinished futures (``FIRST_COMPLETED``).

    On any exception (including ``KeyboardInterrupt``) the in-flight
    window is drained: every future is cancelled, each batch salvages
    completed work into its cache, and fully completed head batches
    still flush in order — unless the sink itself failed, in which case
    nothing more is written (kill+resume relies on a clean row prefix).

    Maintains ``stats.batches``, ``stats.rows_written``,
    ``stats.max_pending`` (peak pending rows across the window),
    ``stats.overlapped_batches`` (admissions while an earlier batch
    still had unfinished futures) and ``stats.inflight_max``; returns
    the :class:`RunStats` it updated.
    """
    if pipeline_depth < 1:
        raise ValueError("pipeline_depth must be >= 1")
    stats = RunStats() if stats is None else stats
    batches_iter = iter(batches)
    inflight: collections.deque[PipelineBatch] = collections.deque()
    sink_ok = [True]   # False once a flush itself refused rows

    def flush_head() -> None:
        st = inflight.popleft()
        try:
            stats.rows_written += st.flush()
        except BaseException:
            # a sink that refuses rows must stop ALL flushing — the
            # abort drain must not write later batches after a torn
            # one (kill+resume relies on a clean row prefix)
            sink_ok[0] = False
            raise

    def pump() -> bool:
        """Advance every in-flight batch; flush completed heads in
        admission order (the sink sees rows in job order)."""
        progressed = False
        for st in list(inflight):
            while st.advance():
                progressed = True
        while inflight and inflight[0].done():
            flush_head()
            progressed = True
        return progressed

    def drain() -> None:
        """Abort path: cancel outstanding work, persist what finished,
        and flush fully completed head batches in order."""
        for st in inflight:
            for future in st.all_futures():
                future.cancel()
        for st in inflight:   # best-effort: completed chunks still count
            try:
                st.salvage()
            except Exception:
                pass
        while sink_ok[0] and inflight and inflight[0].flushable():
            try:
                flush_head()
            except BaseException:
                break

    exhausted = False
    try:
        while True:
            while not exhausted and len(inflight) < pipeline_depth:
                batch = next(batches_iter, None)
                if batch is None:
                    exhausted = True
                    break
                if any(b.unfinished_futures() for b in inflight):
                    stats.overlapped_batches += 1
                stats.batches += 1
                inflight.append(plan(batch))
                stats.merge_max("inflight_max", len(inflight))
                stats.merge_max("max_pending",
                                sum(b.size for b in inflight))
                pump()
            if not inflight:
                if exhausted:
                    break
                continue
            if not pump():
                futures = [f for st in inflight
                           for f in st.unfinished_futures()]
                if not futures:  # pragma: no cover - defensive
                    raise RuntimeError("pipeline stalled without "
                                       "outstanding work")
                wait(futures, return_when=FIRST_COMPLETED)
    except BaseException:
        drain()
        raise
    return stats

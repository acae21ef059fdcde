"""Pipelined batch engine for experiment grids.

A :class:`GridSpec` names the cartesian product of
(scenario x algorithm x seed x horizon x params); the engine *streams*
it: job coordinates are generated lazily, submitted in bounded batches
(``batch_size``), and finished rows flow — in job order — into a
pluggable result sink (:mod:`repro.runner.sinks`), so a million-job
grid holds O(``pipeline_depth`` x batch) pending records in the parent
instead of the whole table.  Each batch runs through three phases —
in-process or on a persistent process pool with fused chunking:

* **Phase 0 — materialization.**  With a ``store_dir``, each distinct
  ``(scenario, pipeline, T, inst_seed)`` instance is built exactly once
  and its dense payload written to the content-addressed
  :class:`~repro.runner.instancestore.InstanceStore`; later phases (and
  every other grid sharing the store) reopen it read-only via ``mmap``
  instead of re-tabulating cost matrices.  Without a store only a
  small per-process memo (8 instances) saves rebuilds: once a chunk
  covers more than 8 instances, phase 1, the phase-2 shared replay and
  the phase-2 solo jobs each build every instance again — 3 builds
  per instance (docs/ARCHITECTURE.md §2).
* **Phase 1 — instances.**  Each distinct instance's offline optimum is
  solved exactly once, however many algorithms the grid runs on it.
  Optima are persisted when a cache directory is given, so a grid with
  ``A`` algorithms pays roughly ``1/A`` of the naive per-job cost.
* **Phase 2 — algorithms.**  Algorithm jobs fan out in *fused chunks*
  (``chunk_jobs`` jobs per worker round-trip, amortizing pickle/IPC),
  each reusing its instance's hoisted optimum; jobs of one instance
  whose algorithms consume work-function bounds (the LCP family) are
  replayed together from one shared ``O(T m)`` sweep
  (:func:`repro.online.base.run_online_many`).  A batch's rows are
  flushed to the sink — in job order — as soon as the batch completes
  *and* every earlier batch has flushed, and each job's row is written
  to the per-job cache the moment its chunk finishes — so a killed grid
  resumes from the cache paying only the jobs it never finished.

The double-buffer / in-order-drain scheduling itself lives in
:mod:`repro.runner.executor` (:func:`~repro.runner.executor.\
run_pipeline`), shared with :func:`repro.analysis.sweep.sweep` and the
multi-host lease-queue worker loop: this module contributes the grid
*consumer* — the three-phase stage machine each admitted batch runs
(:class:`_BatchState` driven by :class:`_GridRun`).  Up to
``pipeline_depth`` batches are in flight at once, so while batch N's
phase-2 chunks run, the parent is already generating batch N+1 and
submitting its phase-0 materializations and phase-1 solves — workers
never idle waiting for the parent to build the next batch.  The
``overlapped_batches`` and ``inflight_max`` stats counters prove the
overlap (both stay at 0/1 on the in-process path, where each batch
completes synchronously).

Three properties make this the substrate for every large experiment:

* **Determinism** — a job is reproducible from its coordinates alone:
  the scenario instance is seeded from ``(scenario, seed)`` and any
  algorithm randomness from a stable hash of the full coordinates, so
  ``n_jobs=1`` and ``n_jobs=8`` produce bit-identical rows — with or
  without the instance store (``np.save`` round-trips float64 exactly).
  The ``job_slice`` parameter hands a *contiguous sub-range* of the
  grid to one caller — the seam multi-host lease workers split a grid
  on — and slicing never changes a row's contents or order.
* **Caching** — results persist per *job* in a content-addressed store
  (:class:`~repro.runner.jobcache.JobCache`, JSON-dir or SQLite
  backend): one record per job key, plus one per instance optimum.
  Overlapping grids share work, and extending a grid by one seed
  executes only the new seed's jobs.
* **Pool reuse** — all phases share the executor's persistent
  module-level ``ProcessPoolExecutor`` (fork-else-spawn, grown never
  shrunk), reused across phases, grids and callers
  (``analysis/sweep``, ``repro lowerbound``, :func:`parallel_map`), so
  the many small grids the benches run don't pay a pool fork each;
  :func:`shutdown_pool` tears it down explicitly (and at interpreter
  exit), cancelling queued-but-unstarted tasks so an interrupted
  pipeline never leaks orphaned work.  Jobs are handed to workers in
  contiguous chunks to amortize IPC, while row order always matches
  job order.

Algorithms are resolved through :mod:`repro.runner.registry`; the
registry entry's ``pipeline`` selects the instance representation, so
restricted-model (``restricted``), heterogeneous (``dp_hetero``,
``static_hetero``, ``greedy_hetero``) and game (``game-*``/``sim-*``
players on the Section 5 adversaries and E13 simulator rollouts)
entries run under the same engine — and land in the same aggregate
tables — as the general-model algorithms.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import os
import traceback
import zlib
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from .. import kernels
from . import faults, instancestore, jobcache
from .executor import (EngineConfig, PipelineBatch, RetryPolicy, RunStats,
                       chunk_list, iter_batches, parallel_map,
                       pool_generation, respawn_pool, retry_sleep,
                       run_args, run_pipeline, shutdown_pool, submit_task)
from .instancestore import InstanceStore, get_instance
from .jobcache import JobCache, content_key
from .sinks import ListSink

__all__ = [
    "GridSpec",
    "EngineConfig",
    "RunStats",
    "run_grid",
    "aggregate_rows",
    "job_key",
    "instance_key",
    "JobCache",
    "parallel_map",
    "shutdown_pool",
]

#: bump when row contents / seeding change, to invalidate stale caches
#: (v5: memoryless f-bar evaluation shared between the per-step and the
#: vectorized-kernel paths, which may shift cached costs by ulps)
ENGINE_VERSION = 5

_JOB_FIELDS = ("scenario", "algorithm", "T", "inst_seed", "seed",
               "lookahead", "params")


def _canonical_params(entry) -> str:
    """One ``params``-axis entry as a canonical JSON string (the form
    job tuples, cache keys and worker tasks carry)."""
    if isinstance(entry, str):
        entry = json.loads(entry)
    if not isinstance(entry, dict):
        raise ValueError(f"params entries must be dicts, got {entry!r}")
    return json.dumps(entry, sort_keys=True)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A grid of experiment jobs.

    ``seeds`` seed the scenario builder (one instance per seed) unless
    ``instance_seed`` is set, in which case every job shares the one
    instance and the seeds only drive algorithm randomness — the shape
    Monte-Carlo experiments need.  ``algorithms`` may name online
    algorithms, offline solvers and game players interchangeably; all
    are resolved through :mod:`repro.runner.registry`.

    ``params`` is an extra axis of scenario-parameter dicts (each kept
    as a canonical JSON string), crossed with the other axes and passed
    to the scenario builder as keyword arguments — the shape the
    lower-bound eps grids (``{"eps": 0.1}``) and the case study's beta
    sweep (``{"beta": 4.0}``) need.  The default is one empty dict, so
    parameterless grids are unchanged.
    """

    scenarios: tuple[str, ...]
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    sizes: tuple[int, ...] = (168,)
    lookahead: int = 0
    instance_seed: int | None = None
    params: tuple = ("{}",)

    def __post_init__(self):
        """Canonicalize the axes and validate that none is empty."""
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "sizes", tuple(int(t) for t in self.sizes))
        object.__setattr__(self, "lookahead", int(self.lookahead))
        object.__setattr__(self, "params",
                           tuple(_canonical_params(p) for p in self.params))
        if not (self.scenarios and self.algorithms and self.seeds
                and self.sizes and self.params):
            raise ValueError("grid axes must all be non-empty")
        if any(s < 0 for s in self.seeds) or (
                self.instance_seed is not None and self.instance_seed < 0):
            raise ValueError("seeds must be non-negative")
        if any(t < 1 for t in self.sizes):
            raise ValueError("sizes must be positive horizons")
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")

    def to_dict(self) -> dict:
        """JSON-canonical form (lists, not tuples)."""
        d = {k: list(v) if isinstance(v, tuple) else v
             for k, v in dataclasses.asdict(self).items()}
        d["engine_version"] = ENGINE_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> GridSpec:
        """Rebuild a spec from :meth:`to_dict` output (the form the
        lease queue and the sinks persist).  Keys that are not spec
        fields — e.g. the embedded ``engine_version`` — are ignored;
        validating the version against the running engine is the
        caller's job (:meth:`repro.runner.leasequeue.LeaseQueue.spec`
        does)."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})

    def cache_key(self) -> str:
        """Stable content hash of the spec (used as a display id; the
        result cache is keyed per job, not per grid)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def iter_jobs(self):
        """Generate job coordinate tuples lazily, in deterministic
        order.  A job's instance coordinates vary slowest within one
        (T, scenario, params, seed) block — every job of one instance
        is contiguous, which is what lets the streaming core keep only
        a small window of solved optima alive."""
        for T in self.sizes:
            for scenario in self.scenarios:
                for params in self.params:
                    for seed in self.seeds:
                        inst_seed = (seed if self.instance_seed is None
                                     else self.instance_seed)
                        for algorithm in self.algorithms:
                            yield (scenario, algorithm, T, inst_seed,
                                   seed, self.lookahead, params)

    def jobs(self) -> list[tuple]:
        """Expand into job coordinate tuples, in deterministic order."""
        return list(self.iter_jobs())

    def __len__(self) -> int:
        """Number of jobs the spec expands to (product of the axes)."""
        return (len(self.scenarios) * len(self.algorithms)
                * len(self.seeds) * len(self.sizes) * len(self.params))


def _job_seed(job: tuple) -> int:
    """Stable per-job algorithm seed (hash() is salted; crc32 is not)."""
    scenario, algorithm, T, inst_seed, seed, lookahead, params = job
    blob = (f"{scenario}|{algorithm}|{T}|{inst_seed}|{seed}|{lookahead}"
            f"|{params}")
    return zlib.crc32(blob.encode())


def job_key(job: tuple) -> str:
    """Content-addressed cache key of one grid job."""
    return content_key({"kind": "job",
                        "engine_version": ENGINE_VERSION,
                        **dict(zip(_JOB_FIELDS, job))})


def _instance_coords(job: tuple) -> tuple:
    """The phase-0/1 coordinates a job's instance is built from."""
    from .registry import get_spec
    scenario, algorithm, T, inst_seed, _seed, _lookahead, params = job
    return (scenario, get_spec(algorithm).pipeline, T, inst_seed, params)


def instance_key(coords: tuple) -> str:
    """Content-addressed cache key of one instance's offline optimum."""
    scenario, pipeline, T, inst_seed, params = \
        instancestore.split_coords(coords)
    return content_key({"kind": "instance",
                        "engine_version": ENGINE_VERSION,
                        "scenario": scenario, "pipeline": pipeline,
                        "T": T, "inst_seed": inst_seed, "params": params})


def _solve_instance(task: tuple) -> dict:
    """Phase-1 job: resolve one instance, solve its offline optimum once.

    ``task`` is ``(coords, store_root)``; must stay module-level (pool
    pickling).  Returns the per-instance record reused by every phase-2
    job on the same instance.  Game instances delegate to their own
    ``baseline()`` — adaptive games have no algorithm-independent
    optimum (``opt`` is ``None``), simulator games hoist the simulated
    cost of the optimal schedule.
    """
    coords, store_root = task
    pipeline = coords[1]
    inst = get_instance(coords, store_root)
    if pipeline == "game":
        return inst.baseline()
    if pipeline == "general":
        if kernels.is_vectorized():
            # One memoized kernel sweep serves this optimum *and* the
            # phase-2 shared replay / backward solver on the same
            # instance (the final work-function row's minimum is the
            # Section 2 DP optimum, bit-identically — the recurrences
            # are the same ufunc sequence; see docs/KERNELS.md).
            opt = kernels.cached_sweep(coords, inst.F, inst.beta).opt
        else:
            from ..analysis import optimal_cost
            opt = optimal_cost(inst)
        m, beta = inst.m, inst.beta
    elif pipeline == "restricted":
        if kernels.is_vectorized():
            # The restricted forward DP is the work-function recurrence
            # on the masked cost table, so the sweep's final-row
            # minimum is solve_restricted's cost bit-identically — and
            # a batched-prefetch pass may already have memoized it
            # (peek first to skip rebuilding the cost table).
            sweep = kernels.peek_sweep(coords)
            if sweep is None:
                from ..offline.restricted import restricted_cost_matrix
                sweep = kernels.cached_sweep(
                    coords, restricted_cost_matrix(inst), inst.beta)
            opt = sweep.opt
            if opt == float("inf"):
                raise ValueError(
                    "restricted instance has no feasible schedule")
        else:
            from ..offline import solve_restricted
            opt = solve_restricted(inst).cost
        m, beta = inst.m, inst.beta
    else:  # hetero: report the pooled fleet size and the type-1 beta
        from ..extensions import solve_dp_hetero
        opt = solve_dp_hetero(inst)[2]
        m, beta = inst.m1 + inst.m2, inst.beta1
    return {"opt": float(opt), "m": int(m), "beta": float(beta)}


def _base_row(job: tuple, spec, inst_record: dict) -> dict:
    """The row columns shared by every pipeline.

    The job's ``params``-axis entries ride along as columns (core
    columns win name collisions, e.g. a ``beta`` override is reported
    as the instance's realized ``beta``), so :func:`aggregate_rows` can
    group on any swept parameter — the E11-style per-beta tables come
    straight out of one grid.
    """
    scenario, algorithm, T, _inst_seed, seed, _lookahead, params = job
    row = {
        "scenario": scenario, "algorithm": algorithm,
        "pipeline": spec.pipeline, "T": T,
        "m": inst_record["m"], "beta": inst_record["beta"], "seed": seed,
    }
    if params != "{}":
        for key, value in json.loads(params).items():
            row.setdefault(key, value)
    return row


def _online_row(job: tuple, spec, inst_record: dict, cost: float) -> dict:
    """Assemble one cost-vs-optimum result row (shared by the per-job
    and the shared-replay paths — online jobs and extras-free offline
    sharers alike — so both produce byte-identical rows)."""
    opt = inst_record["opt"]
    return {
        **_base_row(job, spec, inst_record),
        "cost": float(cost), "opt": float(opt),
        "ratio": float(cost / opt) if opt > 0 else float("inf"),
    }


def _run_job(task: tuple) -> dict:
    """Phase-2 job: run one algorithm against its hoisted optimum.

    ``task`` is ``(job, inst_record, store_root)`` with the record
    produced by :func:`_solve_instance`; must stay module-level (pool
    pickling).
    """
    from .registry import get_spec, pipeline_optimum
    job, inst_record, store_root = task
    scenario, algorithm, T, inst_seed, seed, lookahead, params = job
    spec = get_spec(algorithm)
    if algorithm == pipeline_optimum(spec.pipeline) or (
            spec.pipeline == "game" and spec.optimal
            and inst_record.get("opt") is not None):
        # the phase-1 baseline *is* this entry's result (e.g. sim-opt):
        # synthesize the row — record keys beyond opt/m/beta are its
        # extra columns — instead of repeating the identical solve
        extras = {k: v for k, v in inst_record.items()
                  if k not in ("opt", "m", "beta")}
        return {
            **_base_row(job, spec, inst_record),
            "cost": inst_record["opt"],
            "opt": inst_record["opt"], "ratio": 1.0, **extras,
        }
    inst = get_instance((scenario, spec.pipeline, T, inst_seed, params),
                        store_root)
    extras: dict = {}
    if spec.pipeline == "game":
        out = spec.make(lookahead=lookahead, seed=_job_seed(job))(inst)
        cost = out.pop("cost")
        played_opt = out.pop("opt")
        extras = out
        opt = (inst_record["opt"] if inst_record.get("opt") is not None
               else played_opt)
    elif spec.pipeline == "hetero":
        cost, opt = spec.make()(inst)[2], inst_record["opt"]
    elif spec.kind == "online":
        from ..online.base import run_online
        alg = spec.make(lookahead=lookahead, seed=_job_seed(job))
        bounds = None
        if (spec.shares_workfunction and alg.consumes_bounds
                and alg.lookahead == 0 and kernels.is_vectorized()):
            # reuse (or seed) the per-process sweep memo phase 1 filled
            bounds = kernels.cached_sweep(_instance_coords(job),
                                          inst.F, inst.beta)
        return _online_row(job, spec, inst_record,
                           run_online(inst, alg, bounds=bounds).cost)
    elif spec.shares_workfunction and kernels.is_vectorized():
        # offline sweep sharer (backward_lcp): hand it the memoized
        # per-instance bound trajectory instead of a fresh sweep
        bounds = kernels.cached_sweep(_instance_coords(job),
                                      inst.F, inst.beta)
        cost, opt = (spec.make()(inst, bounds=bounds).cost,
                     inst_record["opt"])
    else:
        cost, opt = spec.make()(inst).cost, inst_record["opt"]
    return {
        **_base_row(job, spec, inst_record),
        "cost": float(cost), "opt": float(opt),
        "ratio": float(cost / opt) if opt > 0 else float("inf"),
        **extras,
    }


# ----------------------------------------------------------------------
# Fused multi-job tasks: one worker round-trip executes a whole chunk,
# amortizing pickle/IPC, and co-scheduled LCP-family jobs on the same
# instance share a single work-function sweep.
# ----------------------------------------------------------------------


def _prefetch_sweeps(entries) -> None:
    """Seed the sweep memo for a chunk's instances in one batched pass.

    ``entries`` is an iterable of ``(coords, store_root)`` pairs.  Under
    ``REPRO_KERNEL=batched``, the general and restricted instances among
    them are stacked by table shape and swept through
    :func:`repro.kernels.cached_sweep_many` — one kernel launch per
    same-shape group — so the per-item paths that follow (phase-1
    optimum, shared replay, backward solver) hit the memo.  A no-op
    under every other kernel.  Purely an accelerator: an instance that
    fails to resolve here is skipped, and the per-item path surfaces
    the error with its full retry/quarantine accounting.
    """
    if kernels.active() != "batched":
        return
    items = []
    for coords, store_root in dict.fromkeys(entries):
        if kernels.peek_sweep(coords, touch=False) is not None:
            continue
        try:
            inst = get_instance(coords, store_root)
            if coords[1] == "general":
                items.append((coords, inst.F, inst.beta))
            elif coords[1] == "restricted":
                from ..offline.restricted import restricted_cost_matrix
                items.append((coords, restricted_cost_matrix(inst),
                              inst.beta))
        except Exception:
            continue
    if items:
        kernels.cached_sweep_many(items)


def _sharing_coords(job: tuple):
    """The instance coordinates a job can share a work-function sweep
    on, or ``None`` when its algorithm keeps per-job state.

    Sharers are the general-pipeline entries flagged
    ``shares_workfunction`` in the registry: the online LCP family
    (bound consumers) and the offline ``backward_lcp`` solver, whose
    Lemma 11 forward pass is the same sweep.
    """
    from .registry import get_spec
    spec = get_spec(job[1])
    if spec.pipeline == "general" and spec.shares_workfunction:
        return _instance_coords(job)
    return None


def _run_shared(tasks: list[tuple]) -> list[dict]:
    """Serve several sweep-sharing jobs on one instance from a single
    ``O(T m)`` work-function sweep — bit-identical to running each
    through :func:`_run_job` (asserted by the test suite).

    Online consumers replay through
    :func:`~repro.online.base.run_online_many`; offline sharers (the
    ``backward_lcp`` solver) receive the same bound trajectory via
    their ``bounds=`` parameter.  Under the vectorized kernel the
    trajectory comes from the per-process memo phase 1 already filled;
    under the scalar reference each path keeps its own per-step sweep.
    """
    from .registry import get_spec
    from ..online.base import run_online_many
    job0, _rec0, store_root = tasks[0]
    coords = _instance_coords(job0)
    inst = get_instance(coords, store_root)
    bounds = (kernels.cached_sweep(coords, inst.F, inst.beta)
              if kernels.is_vectorized() else None)
    rows: list = [None] * len(tasks)
    online_idx = [i for i, (job, _rec, _root) in enumerate(tasks)
                  if get_spec(job[1]).kind == "online"]
    if online_idx:
        algorithms = [get_spec(tasks[i][0][1]).make(
            lookahead=tasks[i][0][5], seed=_job_seed(tasks[i][0]))
            for i in online_idx]
        results = run_online_many(inst, algorithms, bounds=bounds)
        for i, res in zip(online_idx, results):
            job, rec, _root = tasks[i]
            rows[i] = _online_row(job, get_spec(job[1]), rec, res.cost)
    for i, (job, rec, _root) in enumerate(tasks):
        if rows[i] is not None:
            continue
        solver = get_spec(job[1]).make()
        out = (solver(inst, bounds=bounds) if bounds is not None
               else solver(inst))
        rows[i] = _online_row(job, get_spec(job[1]), rec, out.cost)
    return rows


# ----------------------------------------------------------------------
# Fault tolerance: per-job error capture, worker-side retry with
# deterministic backoff, and quarantine rows for jobs that stay broken.
# A failing job must never abort the grid — it becomes a structured
# ``status="failed"`` row and the remaining jobs complete untouched.
# ----------------------------------------------------------------------


def _job_token(job: tuple) -> str:
    """The fault-injection token of one job (``faults.fire`` matching)."""
    return "|".join(str(part) for part in job)


def _coords_token(coords: tuple) -> str:
    """The fault-injection token of one instance's coordinates."""
    return "|".join(str(part) for part in coords)


#: the per-failure columns a quarantine row (or failed record) carries
_FAILURE_KEYS = ("error", "error_message", "error_digest")


def _failure_info(exc: BaseException) -> dict:
    """Structured description of a captured exception: type name,
    truncated message and a short traceback digest (full tracebacks do
    not belong in result rows, but the digest identifies recurrences)."""
    tb = "".join(traceback.format_exception(type(exc), exc,
                                            exc.__traceback__))
    return {"error": type(exc).__name__,
            "error_message": str(exc)[:300],
            "error_digest": hashlib.sha256(tb.encode()).hexdigest()[:12]}


def _quarantine_row(job: tuple, phase: str, failure: dict,
                    attempts: int) -> dict:
    """The ``status="failed"`` row a quarantined job contributes.

    Carries the job's identity columns (so sinks, merges and ``repro
    work retry-failed`` can address it) with ``cost``/``opt``/``ratio``
    nulled — :func:`aggregate_rows` skips failed rows entirely.
    """
    from .registry import get_spec
    scenario, algorithm, T, _inst_seed, seed, _lookahead, params = job
    row = {
        "scenario": scenario, "algorithm": algorithm,
        "pipeline": get_spec(algorithm).pipeline, "T": T,
        "m": None, "beta": None, "seed": seed,
        "cost": None, "opt": None, "ratio": None,
        "status": "failed", "phase": phase, "attempts": int(attempts),
    }
    for key in _FAILURE_KEYS:
        row[key] = failure.get(key)
    if params != "{}":
        for key, value in json.loads(params).items():
            row.setdefault(key, value)
    return row


def _solve_with_retry(coords, store_root, policy: RetryPolicy):
    """Solve one instance's optimum, retrying transient failures.

    Returns ``(record, retries)``; a terminally failing solve yields a
    ``{"status": "failed", ...}`` record that quarantines every
    dependent job without running it (and is never cached, so the next
    run retries the solve).
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            faults.fire("solve_instance", _coords_token(coords))
            return _solve_instance((coords, store_root)), attempt - 1
        except Exception as exc:
            if attempt > policy.max_retries:
                return {"status": "failed", **_failure_info(exc),
                        "attempts": attempt}, attempt - 1
            retry_sleep(policy, attempt)


def _solve_chunk_retry(task: tuple) -> dict:
    """Fused, fault-tolerant phase-1 chunk.  ``task`` is
    ``(coords_list, store_root, policy)``; returns an envelope
    ``{"records": [...], "retries": n}`` so the parent can account
    retries without timestamps ever entering a record."""
    coords_list, store_root, policy = task
    _prefetch_sweeps((coords, store_root) for coords in coords_list)
    records, retries = [], 0
    for coords in coords_list:
        rec, r = _solve_with_retry(coords, store_root, policy)
        records.append(rec)
        retries += r
    return {"records": records, "retries": retries}


def _attempt_items(tasks, idxs, rows, done, errors) -> None:
    """Execute the chunk items ``idxs`` once, capturing per-item
    failures.  Sweep-sharing groups still replay together; a failure
    inside a shared replay degrades that group to per-item execution,
    so one poison job cannot fail its co-batched siblings."""
    groups: dict[tuple, list[int]] = {}
    solo: list[int] = []
    for i in idxs:
        coords = _sharing_coords(tasks[i][0])
        if coords is not None:
            groups.setdefault(coords, []).append(i)
        else:
            solo.append(i)
    fired: set[int] = set()
    for gidxs in groups.values():
        if len(gidxs) < 2:
            solo.extend(gidxs)
            continue
        ok = []
        for i in gidxs:
            fired.add(i)
            try:
                faults.fire("run_job", _job_token(tasks[i][0]))
                ok.append(i)
            except Exception as exc:
                errors[i] = exc
        shared_rows = None
        if len(ok) > 1:
            try:
                shared_rows = _run_shared([tasks[i] for i in ok])
            except Exception:
                shared_rows = None  # degrade to per-item execution
        if shared_rows is not None:
            for i, row in zip(ok, shared_rows):
                rows[i], done[i] = row, True
        else:
            solo.extend(ok)
    for i in solo:
        try:
            if i not in fired:
                faults.fire("run_job", _job_token(tasks[i][0]))
            rows[i] = _run_job(tasks[i])
            done[i] = True
        except Exception as exc:
            errors[i] = exc


def _run_chunk_retry(task: tuple) -> dict:
    """Fused, fault-tolerant phase-2 chunk.  ``task`` is
    ``(tasks, policy)`` where each item is the ``(job, inst_record,
    store_root)`` task :func:`_run_job` takes; returns ``{"rows": [...],
    "retries": n}``.

    A failing item is retried (exponential backoff, in this worker so
    per-process fault counters stay deterministic) up to
    ``policy.max_retries`` times, then quarantined; successful rows —
    including successful-after-retry ones — are byte-identical to a
    fault-free run's, so retries never perturb the result set.  Items
    whose phase-1 record already failed are quarantined immediately.
    """
    tasks, policy = task
    if tasks:
        faults.fire("worker_exit", _job_token(tasks[0][0]))
    n = len(tasks)
    rows: list = [None] * n
    done = [False] * n
    errors: list = [None] * n
    attempts = [0] * n
    retries = 0
    pending = []
    for i, (job, rec, _root) in enumerate(tasks):
        if isinstance(rec, dict) and rec.get("status") == "failed":
            rows[i] = _quarantine_row(job, "solve_instance", rec,
                                      rec.get("attempts", 0))
            done[i] = True
        else:
            pending.append(i)
    _prefetch_sweeps(
        (coords, tasks[i][2]) for i in pending
        if (coords := _sharing_coords(tasks[i][0])) is not None)
    attempt = 0
    while pending:
        attempt += 1
        for i in pending:
            attempts[i] = attempt
        _attempt_items(tasks, pending, rows, done, errors)
        failed = [i for i in pending if not done[i]]
        pending = failed
        if not failed or attempt > policy.max_retries:
            break
        retries += len(failed)
        retry_sleep(policy, attempt)
    for i in pending:
        rows[i] = _quarantine_row(tasks[i][0], "run_job",
                                  _failure_info(errors[i]), attempts[i])
    return {"rows": rows, "retries": retries}


def _validate_pipelines(spec: GridSpec) -> None:
    """Fail fast (in the parent) when the grid pairs an algorithm with a
    scenario that cannot build its pipeline's instance representation."""
    from .registry import get_spec
    from .scenarios import get_scenario
    for scenario in spec.scenarios:
        supported = get_scenario(scenario).pipelines
        for algorithm in spec.algorithms:
            pipeline = get_spec(algorithm).pipeline
            if pipeline not in supported:
                raise ValueError(
                    f"algorithm {algorithm!r} needs the {pipeline!r} "
                    f"pipeline but scenario {scenario!r} only builds "
                    f"{supported}")
    _validate_params(spec)


def _validate_params(spec: GridSpec) -> None:
    """Fail fast (in the parent) when a grid's ``params`` axis names a
    keyword no builder of its scenarios accepts — a configuration
    error, so it must raise up front instead of quarantining every job
    at run time."""
    import inspect
    from .registry import get_spec
    from .scenarios import get_scenario
    param_keys = {key for blob in spec.params
                  for key in json.loads(blob)}
    if not param_keys:
        return
    pipelines = {get_spec(a).pipeline for a in spec.algorithms}
    for scenario in spec.scenarios:
        scn = get_scenario(scenario)
        for pipeline in pipelines:
            builder = {"general": scn.build,
                       "restricted": scn.build_restricted,
                       "hetero": scn.build_hetero,
                       "game": scn.build_game}.get(pipeline)
            if builder is None:
                continue
            try:
                sig = inspect.signature(builder)
            except (TypeError, ValueError):
                continue  # unintrospectable builder: let it run
            if any(p.kind == inspect.Parameter.VAR_KEYWORD
                   for p in sig.parameters.values()):
                continue
            unknown = param_keys - set(sig.parameters)
            if unknown:
                raise ValueError(
                    f"scenario {scenario!r} rejected params "
                    f"{sorted(unknown)!r}: not accepted by its "
                    f"{pipeline!r} builder")


class _RecordWindow:
    """Bounded LRU of solved instance records.

    Job order keeps every job of one instance contiguous
    (:meth:`GridSpec.iter_jobs`), so a window a little larger than the
    batch's distinct-instance count is enough for the streaming core to
    never re-solve an optimum it just solved — while a million-instance
    grid still holds O(batch) records in the parent.
    """

    def __init__(self):
        self._data: dict = collections.OrderedDict()
        self._bound = 64

    def fit(self, need: int) -> None:
        self._bound = max(self._bound, 2 * need)

    def get(self, coords):
        rec = self._data.get(coords)
        if rec is not None:
            self._data.move_to_end(coords)
        return rec

    def put(self, coords, rec) -> None:
        self._data[coords] = rec
        self._data.move_to_end(coords)
        while len(self._data) > self._bound:
            self._data.popitem(last=False)


class _Promise:
    """One instance's offline optimum, somewhere between *planned* and
    *solved*.  The owning batch fills in ``(future, pos)`` when it
    submits its phase-1 chunk and ``record`` at harvest; a later batch
    that needs the same instance (job order keeps them adjacent, so
    only batch boundaries overlap) borrows the promise instead of
    re-submitting the solve."""

    __slots__ = ("future", "pos", "record")

    def __init__(self):
        self.future: Future | None = None
        self.pos: int | None = None
        self.record: dict | None = None

    def ready(self) -> bool:
        return self.record is not None or (
            self.future is not None and self.future.done())

    def result(self) -> dict:
        if self.record is None:
            out = self.future.result()
            if isinstance(out, dict):  # _solve_chunk_retry envelope
                out = out["records"]
            self.record = out[self.pos]
        return self.record


#: batch pipeline stages, in order
_MAT, _SOLVE, _RUN, _DONE = range(4)


class _BatchState(PipelineBatch):
    """One in-flight batch's progress through the three phases.

    The stage machine itself (cache lookups, phase submissions,
    harvests) lives on the owning :class:`_GridRun`; this object holds
    the per-batch bookkeeping and satisfies the
    :class:`~repro.runner.executor.PipelineBatch` contract the shared
    scheduler drives.
    """

    __slots__ = ("run", "batch", "size", "rows", "pending", "stage",
                 "mat_futures", "mat_borrowed", "to_solve",
                 "own_promises", "borrowed", "records", "run_futures",
                 "solve_chunks")

    def __init__(self, run: "_GridRun", batch: list):
        self.run = run
        self.batch = batch
        self.size = len(batch)
        self.rows: list = [None] * len(batch)
        self.pending: list[tuple[int, tuple, str]] = []
        self.stage = _MAT
        self.mat_futures: list[tuple[list, Future]] = []
        self.mat_borrowed: list[Future] = []
        self.to_solve: list[tuple] = []
        self.own_promises: dict[tuple, _Promise] = {}
        self.borrowed: dict[tuple, _Promise] = {}
        self.records: dict[tuple, dict] = {}
        self.run_futures: list[tuple[list, Future]] = []
        #: mutable [coords_chunk, future] pairs — the future slot is
        #: rewired when a broken pool forces a chunk resubmission, and
        #: cleared (None) once the chunk's envelope is accounted
        self.solve_chunks: list[list] = []

    def advance(self) -> bool:
        return self.run.advance(self)

    def done(self) -> bool:
        return self.stage == _DONE

    def unfinished_futures(self) -> list[Future]:
        """Futures the scheduler may need to block on."""
        futures = [f for _c, f in self.mat_futures if not f.done()]
        futures += [f for f in self.mat_borrowed if not f.done()]
        futures += [p.future for p in self.own_promises.values()
                    if p.future is not None and not p.future.done()]
        futures += [f for _chunk, f in self.run_futures if not f.done()]
        return futures

    def all_futures(self) -> list[Future]:
        futures = [f for _c, f in self.mat_futures]
        futures += [p.future for p in self.own_promises.values()
                    if p.future is not None]
        futures += [f for _chunk, f in self.run_futures]
        return futures

    def flush(self) -> int:
        self.run.sink.write_many(self.rows)
        return len(self.rows)

    def flushable(self) -> bool:
        return all(r is not None for r in self.rows)

    def salvage(self) -> None:
        self.run.salvage(self)


class _GridRun:
    """Shared context of one :func:`run_grid` call.

    The grid *consumer* of :func:`~repro.runner.executor.run_pipeline`:
    plans each admitted batch (cache lookups, phase-0 submission) and
    moves its :class:`_BatchState` through the three-phase stage
    machine, sharing the optimum window, cross-batch solve promises and
    in-flight materialization dedupe across the whole run.
    """

    def __init__(self, spec: GridSpec, config: EngineConfig, cache,
                 sink, stats: RunStats, store_root):
        """Bind one run's spec, config, cache, sink and counters."""
        self.spec = spec
        self.config = config
        self.cache = cache
        self.sink = sink
        self.stats = stats
        self.store_root = store_root
        self.n_jobs = config.n_jobs
        self.chunk_jobs = config.chunk_jobs
        self.force = config.force
        self.window = _RecordWindow()
        self.promises: dict[tuple, _Promise] = {}
        self.materializing: dict[tuple, Future] = {}
        self.policy = RetryPolicy(max_retries=config.max_retries,
                                  backoff=config.retry_backoff)
        #: pool generation each in-flight future was submitted under
        self.future_gen: dict[Future, int] = {}
        #: pool respawns charged to THIS run (``stats`` may accumulate
        #: across runs — the lease-queue worker reuses one RunStats —
        #: so the per-run bound needs its own counter)
        self.pool_restarts = 0
        from .scenarios import get_scenario
        self.storable = {name: get_scenario(name).storable
                         for name in spec.scenarios}

    def _submit(self, fn, payload) -> Future:
        """Submit one chunk, recording the pool generation so a later
        ``BrokenProcessPool`` can be attributed to the right pool
        incarnation (and the chunk resubmitted on a fresh one)."""
        try:
            future = submit_task(fn, payload, self.n_jobs)
        except BrokenProcessPool:
            # the pool died between harvests: retire it and retry the
            # submission once on the respawned pool
            self._pool_failure(pool_generation())
            future = submit_task(fn, payload, self.n_jobs)
        if self.n_jobs > 1:
            self.future_gen[future] = pool_generation()
        return future

    def _pool_failure(self, gen: int | None) -> None:
        """A worker died (``BrokenProcessPool``): retire the dead pool
        incarnation so the next submission forks a fresh one.  Only the
        first observer of a generation counts a restart; the per-run
        bound turns a crash loop into a hard error instead of hanging."""
        if respawn_pool(pool_generation() if gen is None else gen):
            self.pool_restarts += 1
            self.stats.pool_restarts += 1
        if self.pool_restarts > self.config.max_pool_restarts:
            raise RuntimeError(
                f"worker pool died {self.pool_restarts} times in one "
                f"run (max_pool_restarts="
                f"{self.config.max_pool_restarts}); giving up")

    def _cache_put(self, kind: str, key: str, record) -> None:
        """Best-effort cache write: quarantined records are never
        cached (re-runs must retry them) and a failing cache write —
        real or injected — is absorbed and counted, never fatal (the
        record is already in hand; only re-runs pay for the loss)."""
        if self.cache is None or (isinstance(record, dict)
                                  and record.get("status") == "failed"):
            return
        try:
            faults.fire("cache_put", key)
            self.cache.put(kind, key, record)
        except Exception:
            self.stats.cache_put_failures += 1

    def _resubmit_solve(self, st: "_BatchState", broken: Future) -> bool:
        """Resubmit the phase-1 chunk whose future ``broken`` was lost
        to a dead pool, rewiring the chunk's unresolved promises to the
        new future (borrowing batches observe the rewire for free)."""
        for entry in st.solve_chunks:
            chunk_coords, future = entry
            if future is not broken:
                continue
            gen = self.future_gen.pop(broken, None)
            self._pool_failure(gen)
            fresh = self._submit(_solve_chunk_retry,
                                 (chunk_coords, self.store_root,
                                  self.policy))
            entry[1] = fresh
            for pos, coords in enumerate(chunk_coords):
                promise = st.own_promises[coords]
                if promise.record is None:
                    promise.future, promise.pos = fresh, pos
            return True
        return False

    def plan(self, batch: list) -> _BatchState:
        """Admit one batch: cache lookups, then submit phase 0 (and,
        via :meth:`advance`, everything that is already unblocked)."""
        st = _BatchState(self, batch)
        cache, force = self.cache, self.force
        for i, job in enumerate(batch):
            key = job_key(job)
            row = (cache.get("jobs", key)
                   if cache is not None and not force else None)
            if row is not None:
                st.rows[i] = row
                self.stats.job_hits += 1
            else:
                st.pending.append((i, job, key))
        self.stats.job_misses += len(st.pending)
        if not st.pending:
            st.stage = _DONE
            return st
        need = dict.fromkeys(_instance_coords(job)
                             for _, job, _ in st.pending)
        self.window.fit(len(need) * self.config.pipeline_depth)
        for coords in need:
            promise = self.promises.get(coords)
            if promise is not None:   # an earlier batch is solving it
                st.borrowed[coords] = promise
                continue
            rec = self.window.get(coords)
            if rec is None and cache is not None and not force:
                rec = cache.get("instances", instance_key(coords))
                if rec is not None:
                    self.window.put(coords, rec)
                    self.stats.opt_hits += 1
            if rec is not None:
                st.records[coords] = rec
            else:
                st.to_solve.append(coords)
                self.promises[coords] = st.own_promises[coords] = \
                    _Promise()
        # Phase 0: materialize each distinct pending instance once
        # (scenarios with dense payloads only).  Borrowed instances are
        # the previous batch's responsibility, and a materialization an
        # earlier in-flight batch already submitted is *waited on*, not
        # re-submitted — overlap must not duplicate instance builds.
        if self.store_root is not None:
            store = InstanceStore(self.store_root)
            missing = []
            for coords in need:
                if coords in st.borrowed or not self.storable[coords[0]]:
                    continue
                shared = self.materializing.get(coords)
                if shared is not None:
                    st.mat_borrowed.append(shared)
                elif not store.has(coords):
                    missing.append(coords)
            for chunk in chunk_list(missing, self.n_jobs,
                                    self.chunk_jobs):
                future = self._submit(instancestore._materialize_chunk,
                                      (chunk, self.store_root))
                st.mat_futures.append((chunk, future))
                for coords in chunk:
                    self.materializing[coords] = future
        return st

    def submit_solves(self, st: _BatchState) -> None:
        """Submit the batch's phase-1 optimum solves as fused chunks."""
        for chunk in chunk_list(st.to_solve, self.n_jobs,
                                self.chunk_jobs):
            future = self._submit(_solve_chunk_retry,
                                  (chunk, self.store_root, self.policy))
            st.solve_chunks.append([chunk, future])
            for pos, coords in enumerate(chunk):
                promise = st.own_promises[coords]
                promise.future, promise.pos = future, pos

    def submit_runs(self, st: _BatchState) -> None:
        """Submit the batch's phase-2 algorithm jobs as fused chunks."""
        for chunk in chunk_list(st.pending, self.n_jobs,
                                self.chunk_jobs):
            tasks = [(job, st.records[_instance_coords(job)],
                      self.store_root)
                     for _i, job, _key in chunk]
            st.run_futures.append(
                (chunk, self._submit(_run_chunk_retry,
                                     (tasks, self.policy))))

    def advance(self, st: _BatchState) -> bool:
        """Move one batch through its stage machine; True on progress."""
        progressed = False
        if st.stage == _MAT and all(
                f.done() for _c, f in st.mat_futures) and all(
                f.done() for f in st.mat_borrowed):
            for chunk_coords, future in st.mat_futures:
                try:
                    self.stats.inst_materialized += sum(
                        map(bool, future.result()))
                except BrokenProcessPool:
                    self._pool_failure(self.future_gen.get(future))
                except Exception:
                    # phase 0 is best-effort: a failed (or injected)
                    # materialization only costs the mmap shortcut —
                    # phases 1/2 rebuild the instance in-process
                    pass
                self.future_gen.pop(future, None)
                for coords in chunk_coords:
                    self.materializing.pop(coords, None)
            st.mat_futures = []
            st.mat_borrowed = []
            self.submit_solves(st)
            st.stage = _SOLVE
            progressed = True
        if st.stage == _SOLVE:
            # account each solve chunk's envelope once (and resubmit
            # chunks a dead pool lost) before touching any promise
            for entry in st.solve_chunks:
                _chunk_coords, future = entry
                if future is None or not future.done():
                    continue
                try:
                    env = future.result()
                except BrokenProcessPool:
                    self._resubmit_solve(st, future)
                    progressed = True
                    continue
                self.future_gen.pop(future, None)
                if isinstance(env, dict):
                    self.stats.retries += env.get("retries", 0)
                entry[1] = None  # accounted; promises keep their ref
                progressed = True
            for coords, promise in st.own_promises.items():
                # harvest is keyed on THIS batch's bookkeeping, not on
                # promise.record: a borrowing batch may have resolved
                # the promise first, and that must not skip the owner's
                # window/cache writes and opt_solved count
                if coords in st.records or not promise.ready():
                    continue
                try:
                    rec = promise.result()
                except BrokenProcessPool:
                    # the pool broke after the chunk loop above ran:
                    # resubmit now; the rewired future finishes later
                    self._resubmit_solve(st, promise.future)
                    progressed = True
                    continue
                st.records[coords] = rec
                self.window.put(coords, rec)
                self.stats.opt_solved += 1
                self._cache_put("instances", instance_key(coords), rec)
                self.promises.pop(coords, None)
                progressed = True
            if (all(coords in st.records
                    for coords in st.own_promises)
                    and all(p.ready() for p in st.borrowed.values())):
                try:
                    for coords, promise in st.borrowed.items():
                        st.records[coords] = promise.result()
                except BrokenProcessPool:
                    # the owning batch (always earlier in pump order)
                    # resubmits and rewires; wait for the fresh future
                    pass
                else:
                    self.submit_runs(st)
                    st.stage = _RUN
                    progressed = True
        if st.stage == _RUN:
            remaining = []
            for chunk, future in st.run_futures:
                if not future.done():
                    remaining.append((chunk, future))
                    continue
                try:
                    env = future.result()
                except BrokenProcessPool:
                    # the chunk was in flight on a pool that died:
                    # respawn (bounded) and resubmit only this chunk
                    self._pool_failure(self.future_gen.pop(future, None))
                    tasks = [(job, st.records[_instance_coords(job)],
                              self.store_root)
                             for _i, job, _key in chunk]
                    remaining.append(
                        (chunk, self._submit(_run_chunk_retry,
                                             (tasks, self.policy))))
                    progressed = True
                    continue
                self.future_gen.pop(future, None)
                rows = env["rows"] if isinstance(env, dict) else env
                if isinstance(env, dict):
                    self.stats.retries += env.get("retries", 0)
                for (i, _job, key), row in zip(chunk, rows):
                    st.rows[i] = row
                    if isinstance(row, dict) and \
                            row.get("status") == "failed":
                        self.stats.quarantined += 1
                    else:
                        self._cache_put("jobs", key, row)
                progressed = True
            st.run_futures = remaining
            if not remaining:
                st.stage = _DONE
                progressed = True
        return progressed

    def salvage(self, st: _BatchState) -> None:
        """Abort path: harvest completed-but-unflushed phase-2 chunks.

        Rows land in the batch (so completed head batches still flush)
        and — best-effort — in the job cache: a killed grid must not
        recompute chunks it already paid for.
        """
        remaining = []
        for chunk, future in st.run_futures:
            if not (future.done() and not future.cancelled()):
                remaining.append((chunk, future))
                continue
            try:
                harvested = future.result()
            except Exception:
                remaining.append((chunk, future))
                continue
            rows = (harvested["rows"] if isinstance(harvested, dict)
                    else harvested)
            for (i, _job, key), row in zip(chunk, rows):
                st.rows[i] = row
                if isinstance(row, dict) and \
                        row.get("status") == "failed":
                    continue
                if self.cache is not None:
                    try:
                        self.cache.put("jobs", key, row)
                    except Exception:
                        pass
        st.run_futures = remaining


def run_grid(spec: GridSpec, config: EngineConfig | None = None, *,
             stats: RunStats | None = None,
             job_slice: tuple[int, int] | None = None):
    """Stream every job of a grid through the pipelined three-phase
    engine.

    Execution is configured by ``config``, an :class:`EngineConfig`
    (``None`` = the defaults), whose fields are named below.  Jobs are
    generated lazily and executed in bounded batches of ``batch_size``
    (``None`` = one batch); each batch's finished rows are flushed — in
    job order — to the result ``sink`` (:mod:`repro.runner.sinks`).
    With the default ``sink=None`` an in-memory
    :class:`~repro.runner.sinks.ListSink` collects the rows and
    ``run_grid`` returns the historical ``list[dict]``; with a
    file-backed sink the parent holds at most O(``pipeline_depth`` x
    ``batch_size``) pending rows (the ``max_pending`` stat reports the
    observed peak) and ``run_grid`` returns ``sink.result()``.

    With ``n_jobs > 1`` batches are *double-buffered* on the persistent
    pool (:func:`~repro.runner.executor.run_pipeline` — the scheduling
    loop shared with ``analysis/sweep`` and the lease-queue worker):
    up to ``pipeline_depth`` batches are in flight, so batch N+1's
    phase-0 materializations and phase-1 solves are submitted while
    batch N's phase-2 chunks still run — the pool stays saturated end
    to end instead of idling at three serial barriers per batch.  Phase
    dispatch is *fused*: ``chunk_jobs`` jobs ride one worker round-trip
    (``None`` auto-sizes, ``1`` disables fusion), and LCP-family jobs
    sharing an instance are replayed from one shared work-function
    sweep.  Rows are bit-identical for every
    ``(n_jobs, batch_size, pipeline_depth, chunk_jobs)`` combination.

    With ``cache_dir``, each job's row (and each instance's optimum) is
    read from the per-job content-addressed cache when present (unless
    ``force``) and written back the moment its chunk completes — so
    re-running any overlapping grid only executes the jobs it has not
    seen before, and a grid killed mid-run resumes paying only the
    unfinished jobs.  ``cache_dir`` may also be a ready-made
    :class:`JobCache` (e.g. one opened on the SQLite backend).  With
    ``store_dir``, phase 0 materializes each distinct pending instance
    into the shared :class:`~repro.runner.instancestore.InstanceStore`
    exactly once; phases 1 and 2 then mmap the payloads instead of
    rebuilding.

    ``job_slice=(start, stop)`` runs only that contiguous sub-range of
    the grid's job order — the seam the multi-host lease queue splits
    a grid on.  Slicing never changes a row's contents: every job is
    still seeded from its coordinates alone, so the concatenation of
    disjoint slices is bit-identical to the unsliced run.

    ``stats`` is a :class:`RunStats` the run's counters accumulate
    into in place (pass the same object across calls to total a
    worker's leases): ``job_hits``, ``job_misses``, ``opt_hits``,
    ``opt_solved``, ``batches``, ``max_pending`` (peak result rows held
    in the parent at once — bounded by ``pipeline_depth x
    batch_size``), ``rows_written``, ``overlapped_batches`` (batches
    admitted while an earlier batch still had unfinished worker tasks —
    0 on the serial path, > 0 proves pipeline overlap),
    ``inflight_max`` (peak simultaneously admitted batches),
    ``inst_materialized`` (instances newly written to the store this
    call, wherever the build ran), plus this process's
    instance-resolution deltas ``inst_builds`` (scenario builds — with
    a store, at most one per distinct instance end-to-end),
    ``inst_loads`` (store mmap loads) and ``inst_memo_hits``.  A
    ``config`` or ``stats`` of any other type raises
    :class:`TypeError` before the sink is opened.
    """
    config, run_stats = run_args(config, stats)
    cache = (config.cache_dir if isinstance(config.cache_dir, JobCache)
             else JobCache(config.cache_dir)
             if config.cache_dir is not None else None)
    store_root = (None if config.store_dir is None
                  else str(config.store_dir))
    _validate_pipelines(spec)
    if config.pipeline_depth < 1:
        raise ValueError("pipeline_depth must be >= 1")
    jobs = spec.iter_jobs()
    if job_slice is not None:
        start, stop = job_slice
        if not 0 <= start <= stop <= len(spec):
            raise ValueError(f"job_slice {job_slice!r} out of range "
                             f"for a {len(spec)}-job grid")
        jobs = itertools.islice(jobs, start, stop)
    batches_iter = iter_batches(jobs, config.batch_size)
    inst_stats_before = instancestore.build_stats()
    sweep_stats_before = kernels.sweep_stats()
    busy_stats_before = jobcache.busy_stats()
    sink = ListSink() if config.sink is None else config.sink
    run = _GridRun(spec, config, cache, sink, run_stats, store_root)
    fault_plan = (None if config.fault_plan is None
                  else faults.as_plan(config.fault_plan))
    prev_fault_env = os.environ.get(faults.ENV_VAR)
    if fault_plan is not None:
        # workers inherit the plan through the environment: tear the
        # pool down so faulted runs get freshly forked workers, and
        # again afterwards so no fault-injecting worker outlives us
        os.environ[faults.ENV_VAR] = fault_plan.to_json()
        faults.reset()   # fresh counters, like the freshly forked workers
        faults.activate(fault_plan)
        shutdown_pool()
    sink.open(spec.to_dict())
    try:
        run_pipeline(batches_iter, run.plan,
                     pipeline_depth=config.pipeline_depth,
                     stats=run_stats)
    finally:
        run.promises.clear()
        run.materializing.clear()
        sink.close()
        if fault_plan is not None:
            faults.deactivate()
            if prev_fault_env is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = prev_fault_env
            shutdown_pool()
    inst_stats = instancestore.build_stats()
    for key in inst_stats:
        setattr(run_stats, key, getattr(run_stats, key)
                + inst_stats[key] - inst_stats_before[key])
    sweep_stats = kernels.sweep_stats()
    for key in sweep_stats:
        setattr(run_stats, key, getattr(run_stats, key)
                + sweep_stats[key] - sweep_stats_before[key])
    busy_stats = jobcache.busy_stats()
    for key in busy_stats:
        setattr(run_stats, key, getattr(run_stats, key)
                + busy_stats[key] - busy_stats_before[key])
    return sink.result()


def aggregate_rows(rows, by=("scenario", "algorithm", "T")) -> list[dict]:
    """Aggregate rows into mean/max competitive ratios per group.

    Groups preserve first-appearance order; each aggregate row carries
    the group keys plus ``n``, ``mean_ratio``, ``max_ratio`` and
    ``mean_cost``.  ``T`` is a default key so multi-size grids never
    average costs across horizons; when every row shares one horizon
    the column is constant and harmless.

    ``by`` is *param-aware*: any row column works, including the
    ``params``-axis columns the engine merges into each row (``beta``,
    ``eps``, ...), so ``by=("scenario", "algorithm", "T", "beta")``
    emits the E11-style per-beta tables from one grid (the CLI exposes
    this as ``--group-by``).  A key missing from a row groups under
    ``None`` rather than failing, so heterogeneous tables (e.g. game
    rows next to general rows) still aggregate.

    Quarantined rows (``status="failed"``) carry no cost/ratio and are
    skipped, so a grid with failures still aggregates its survivors.
    """
    by = tuple(by)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("status") == "failed":
            continue
        groups.setdefault(tuple(row.get(k) for k in by), []).append(row)
    out = []
    for key, members in groups.items():
        ratios = [r["ratio"] for r in members]
        out.append({
            **dict(zip(by, key)),
            "n": len(members),
            "mean_ratio": sum(ratios) / len(ratios),
            "max_ratio": max(ratios),
            "mean_cost": sum(r["cost"] for r in members) / len(members),
        })
    return out

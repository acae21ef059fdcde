"""Instance-major batch engine for experiment grids.

A :class:`GridSpec` names the cartesian product of
(scenario x algorithm x seed x horizon x params); the engine *streams*
it: job coordinates are generated lazily, admitted in bounded batches
(``batch_size``), and finished rows flow — in job order — into a
pluggable result sink (:mod:`repro.runner.sinks`), so a million-job
grid holds O(``pipeline_depth`` x batch) pending records in the parent
instead of the whole table.

Work is *instance-major*: a batch's pending jobs are grouped by the
instance they run on, and one worker task kind
(:func:`_run_instances`) takes whole instances — in-process or on the
persistent process pool.  For each instance it holds, the task

* **materializes** it — with a ``store_dir``, the dense payload is
  written once to the content-addressed
  :class:`~repro.runner.instancestore.InstanceStore`, which the solve,
  the jobs and every other grid sharing the store reopen read-only via
  ``mmap`` instead of re-tabulating cost matrices;
* **solves** its offline optimum, unless the parent already holds it
  (the record window or the ``instances`` cache) — once per instance,
  however many algorithms the grid runs on it;
* **runs** all of the batch's pending jobs on it against that optimum.
  Jobs whose algorithms consume work-function bounds (the LCP family)
  replay together (:func:`repro.online.base.run_online_many`) from the
  same memoized ``O(T m)`` sweep the optimum came from.

So each instance is built (or loaded) once and swept once per run,
with or without a store.  A batch's rows are flushed — in job order —
as soon as the batch completes *and* every earlier batch has flushed,
and each job's row is written to the per-job cache the moment its task
is harvested — so a killed grid resumes from the cache paying only the
jobs it never finished.

The double-buffer / in-order-drain window is :class:`_GridRun`'s (the
multi-host lease-queue worker replays each leased range through
:func:`run_grid`, so it runs on the same window).  Up to
``pipeline_depth`` batches are in flight at once, so while batch N's
tasks run the parent already admits batch N+1 — workers never idle
waiting for the parent.  At most one in-flight task holds any one
instance: a batch boundary that cuts an instance's jobs makes the
later group wait for the earlier task's harvest, then reuse its
optimum and stored payload.  The ``overlapped_batches`` and
``inflight_max`` stats counters prove the overlap (both stay at 0/1 on
the in-process path, where each batch completes synchronously).

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
* **Pool reuse** — every task runs on the executor's persistent
  module-level ``ProcessPoolExecutor`` (fork-else-spawn, grown never
  shrunk), reused across batches, grids and callers
  (``analysis/sweep``, ``repro lowerbound``, :func:`parallel_map`), so
  the many small grids the benches run don't pay a pool fork each;
  :func:`shutdown_pool` tears it down explicitly (and at interpreter
  exit), cancelling queued-but-unstarted tasks so an interrupted
  pipeline never leaks orphaned work.  Whole instances are handed to
  workers in contiguous tasks of about ``chunk_jobs`` jobs to amortize
  IPC, while row order always matches job order.

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
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool

from .. import kernels
from . import faults, instancestore, jobcache
from .executor import (EngineConfig, RetryPolicy, RunStats, iter_batches,
                       parallel_map, pool_generation, respawn_pool,
                       retry_sleep, run_args, shutdown_pool, submit_task)
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
    """The coordinates of the instance a job runs on (the key the
    engine groups, materializes and solves instances by)."""
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
    """Resolve one instance and solve its offline optimum once.

    ``task`` is ``(coords, store_root)``; must stay module-level (tests
    patch it).  Returns the per-instance record reused by every job on
    the same instance.  Game instances delegate to their own
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
            # shared replay / backward solver of the jobs on the same
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
            # minimum is solve_restricted's cost bit-identically.
            from ..offline.restricted import restricted_cost_matrix
            opt = kernels.cached_sweep(
                coords, restricted_cost_matrix(inst), inst.beta).opt
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
    """Run one algorithm job against its instance's hoisted optimum.

    ``task`` is ``(job, inst_record, store_root)`` with the record
    produced by :func:`_solve_instance`; must stay module-level (tests
    patch it).
    """
    from .registry import get_spec, pipeline_optimum
    job, inst_record, store_root = task
    scenario, algorithm, T, inst_seed, seed, lookahead, params = job
    spec = get_spec(algorithm)
    if algorithm == pipeline_optimum(spec.pipeline) or (
            spec.pipeline == "game" and spec.optimal
            and inst_record.get("opt") is not None):
        # the instance's baseline *is* this entry's result (e.g. sim-opt):
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
            # reuse (or seed) the per-process sweep memo the solve filled
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
# Shared replay: co-scheduled LCP-family jobs on one instance share a
# single work-function sweep.
# ----------------------------------------------------------------------


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
    trajectory comes from the per-process memo the instance's solve
    already filled; under the scalar reference each path keeps its own
    per-step sweep.
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


def _attempt_items(tasks, idxs, rows, done, errors) -> None:
    """Execute the job tasks ``idxs`` once, capturing per-item
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


def _run_group(jobs: list, record: dict, store_root,
               policy: RetryPolicy) -> tuple[list, int]:
    """Run one instance's jobs against its optimum ``record``.

    Returns ``(rows, retries)`` with the rows in job order.  A failing
    job is retried (exponential backoff, in this worker so per-process
    fault counters stay deterministic) up to ``policy.max_retries``
    times, then quarantined; successful rows — including
    successful-after-retry ones — are byte-identical to a fault-free
    run's, so retries never perturb the result set.  A failed
    ``record`` quarantines every job without running it.
    """
    if record.get("status") == "failed":
        return [_quarantine_row(job, "solve_instance", record,
                                record.get("attempts", 0))
                for job in jobs], 0
    tasks = [(job, record, store_root) for job in jobs]
    rows: list = [None] * len(tasks)
    done = [False] * len(tasks)
    errors: list = [None] * len(tasks)
    pending = list(range(len(tasks)))
    attempt = retries = 0
    while pending:
        attempt += 1
        _attempt_items(tasks, pending, rows, done, errors)
        pending = [i for i in pending if not done[i]]
        if not pending or attempt > policy.max_retries:
            break
        retries += len(pending)
        retry_sleep(policy, attempt)
    for i in pending:
        rows[i] = _quarantine_row(tasks[i][0], "run_job",
                                  _failure_info(errors[i]), attempt)
    return rows, retries


def _work_counters() -> dict:
    """This process's monotonic instance-resolution and sweep-memo
    counters (:func:`~repro.runner.instancestore.build_stats`,
    :func:`repro.kernels.sweep_stats`)."""
    return {**instancestore.build_stats(), **kernels.sweep_stats()}


def _run_instances(task: tuple) -> dict:
    """The engine's one worker task: whole instances, end to end.

    ``task`` is ``(groups, store_root, policy)``; must stay
    module-level (pool pickling).  Each group is ``(coords, record,
    jobs)``: one instance's coordinates, its optimum record when the
    parent already holds one (else ``None``) and its pending jobs in
    job order.  For each group, in order:

    1. with a store, materialize a storable scenario's payload unless
       present — best-effort: a failure only costs the ``mmap``
       shortcut, so the solve and the jobs rebuild the instance;
    2. unless a record was passed, solve the optimum
       (:func:`_solve_with_retry`);
    3. run the jobs (:func:`_run_group`).

    Returns the envelope ``{"rows", "records", "retries",
    "materialized", "counters"}``: the rows in task order, each
    group's newly solved record (``None`` when one was passed), the
    retry and newly-materialized counts, and this process's deltas of
    :func:`_work_counters` — so the parent totals the work of every
    pool worker, and no timestamp ever enters a row.
    """
    from .scenarios import get_scenario
    groups, store_root, policy = task
    faults.fire("worker_exit", _job_token(groups[0][2][0]))
    before = _work_counters()
    store = None if store_root is None else InstanceStore(store_root)
    rows: list = []
    records: list = []
    retries = materialized = 0
    for coords, record, jobs in groups:
        if store is not None and get_scenario(coords[0]).storable:
            try:
                materialized += store.materialize(coords)
            except Exception:
                pass  # best-effort, see above
        solved = None
        if record is None:
            solved, r = _solve_with_retry(coords, store_root, policy)
            record, retries = solved, retries + r
        group_rows, r = _run_group(jobs, record, store_root, policy)
        rows += group_rows
        records.append(solved)
        retries += r
    after = _work_counters()
    return {"rows": rows, "records": records, "retries": retries,
            "materialized": materialized,
            "counters": {k: after[k] - before[k] for k in after}}


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


def chunk_list(items, n_jobs: int, chunk_jobs: int | None,
               weight=None) -> list[list]:
    """Split ``items`` into contiguous chunks of about ``chunk_jobs``
    jobs for fused dispatch.

    ``weight(item)`` is the number of jobs an item carries (default 1);
    a chunk closes once it holds ``chunk_jobs`` jobs, so chunks round
    up to whole items.  ``chunk_jobs=None`` auto-sizes: in-process
    everything fuses into one chunk (maximal sharing, no IPC to
    amortize anyway); on the pool roughly two chunks per worker balance
    round-trip amortization against load balancing.  ``chunk_jobs=1``
    gives one item per chunk.
    """
    items = list(items)
    weights = [1 if weight is None else weight(item) for item in items]
    if chunk_jobs is not None:
        size = chunk_jobs
    elif n_jobs <= 1:
        size = sum(weights)
    else:
        size = -(-sum(weights) // (2 * n_jobs))
    chunks: list[list] = []
    chunk: list = []
    filled = 0
    for item, w in zip(items, weights):
        chunk.append(item)
        filled += w
        if filled >= size:
            chunks.append(chunk)
            chunk, filled = [], 0
    if chunk:
        chunks.append(chunk)
    return chunks


@dataclasses.dataclass
class _BatchState:
    """One admitted batch: its rows (``None`` until known), its
    submitted, unharvested worker tasks ``(groups, payload, future)``
    and the groups whose instance an earlier batch's task still holds.

    A *group* is ``(coords, items)``: one instance's coordinates and
    its pending ``(position, job, key)`` items.
    """

    rows: list
    tasks: list = dataclasses.field(default_factory=list)
    waiting: list = dataclasses.field(default_factory=list)


def _unfinished(st: _BatchState) -> list[Future]:
    """The batch's submitted futures that have not finished yet."""
    return [f for _g, _p, f in st.tasks if not f.done()]


class _GridRun:
    """One :func:`run_grid` call's double-buffered batch window.

    Admits batches (job-cache lookups, grouping by instance, task
    submission), harvests their tasks' envelopes and flushes each
    completed batch to the sink in admission order, sharing the optimum
    window and the set of instances held by in-flight tasks across the
    whole run.  At most one in-flight task holds any one instance: a
    group whose instance is still in an earlier batch's unharvested
    task waits until that task is harvested, and then finds its optimum
    in the window and its payload in the store.
    """

    def __init__(self, config: EngineConfig, cache, sink,
                 stats: RunStats, store_root):
        """Bind one run's config, cache, sink and counters."""
        self.config = config
        self.cache = cache
        self.sink = sink
        self.stats = stats
        self.store_root = store_root
        self.n_jobs = config.n_jobs
        self.force = config.force
        self.window = _RecordWindow()
        #: instances held by submitted, unharvested tasks
        self.busy: set[tuple] = set()
        self.policy = RetryPolicy(max_retries=config.max_retries,
                                  backoff=config.retry_backoff)
        #: pool generation each in-flight future was submitted under
        self.future_gen: dict[Future, int] = {}
        #: pool respawns charged to THIS run (``stats`` may accumulate
        #: across runs — the lease-queue worker reuses one RunStats —
        #: so the per-run bound needs its own counter)
        self.pool_restarts = 0
        #: admitted, unflushed batches, oldest first
        self.inflight: collections.deque[_BatchState] = collections.deque()
        #: False once the sink itself refused rows
        self.sink_ok = True

    def execute(self, batches) -> None:
        """Drive ``batches`` (lists of jobs) through the window.

        Up to ``pipeline_depth`` batches are in flight: while the head
        batch's tasks run, later batches are already admitted and
        submitting work, and each completed head flushes — in admission
        order — before any later batch.  When no batch progresses, the
        parent blocks on the union of unfinished futures
        (``FIRST_COMPLETED``).  On any exception (including
        ``KeyboardInterrupt``) the window is drained (:meth:`drain`).
        """
        batches = iter(batches)
        exhausted = False
        try:
            while True:
                while (not exhausted
                       and len(self.inflight) < self.config.pipeline_depth):
                    batch = next(batches, None)
                    if batch is None:
                        exhausted = True
                    else:
                        self.admit(batch)
                if not self.inflight:
                    break
                if not self.pump():
                    futures = [f for st in self.inflight
                               for f in _unfinished(st)]
                    if not futures:  # pragma: no cover - defensive
                        raise RuntimeError("pipeline stalled without "
                                           "outstanding work")
                    wait(futures, return_when=FIRST_COMPLETED)
        except BaseException:
            self.drain()
            raise

    def admit(self, batch: list) -> None:
        """Admit one batch: job-cache lookups, then group the pending
        jobs by instance (first-appearance order) and submit them.

        Counts ``overlapped_batches`` (admitted while an earlier batch
        still had unfinished futures), ``batches``, ``inflight_max`` and
        ``max_pending`` (peak pending rows across the window)."""
        stats = self.stats
        if any(_unfinished(st) for st in self.inflight):
            stats.overlapped_batches += 1
        stats.batches += 1
        st = _BatchState([None] * len(batch))
        cache, force = self.cache, self.force
        groups: dict[tuple, list] = {}
        for i, job in enumerate(batch):
            key = job_key(job)
            row = (cache.get("jobs", key)
                   if cache is not None and not force else None)
            if row is not None:
                st.rows[i] = row
                stats.job_hits += 1
            else:
                groups.setdefault(_instance_coords(job), []).append(
                    (i, job, key))
                stats.job_misses += 1
        self.window.fit(len(groups) * self.config.pipeline_depth)
        st.waiting = list(groups.items())
        self._submit_ready(st)
        self.inflight.append(st)
        stats.merge_max("inflight_max", len(self.inflight))
        stats.merge_max("max_pending",
                        sum(len(b.rows) for b in self.inflight))
        self.pump()

    def pump(self) -> bool:
        """Advance every in-flight batch, then flush completed heads in
        admission order (the sink sees rows in job order); True on
        progress."""
        progressed = False
        for st in list(self.inflight):
            while self._advance(st):
                progressed = True
        while (self.inflight
               and not (self.inflight[0].tasks or self.inflight[0].waiting)):
            self.flush_head()
            progressed = True
        return progressed

    def flush_head(self) -> None:
        """Write the oldest batch's rows to the sink."""
        st = self.inflight.popleft()
        try:
            self.sink.write_many(st.rows)
        except BaseException:
            # a sink that refuses rows must stop ALL flushing — the
            # abort drain must not write later batches after a torn
            # one (kill+resume relies on a clean row prefix)
            self.sink_ok = False
            raise
        self.stats.rows_written += len(st.rows)

    def drain(self) -> None:
        """Abort path: cancel every future, harvest tasks that finished
        but were never harvested (so a killed grid does not recompute
        work it already paid for), then flush the completed head
        batches in order — unless the sink itself failed."""
        for st in self.inflight:
            for _groups, _payload, future in st.tasks:
                future.cancel()
        for st in self.inflight:   # best-effort: finished tasks still count
            try:
                for groups, _payload, future in st.tasks:
                    if (future.done() and not future.cancelled()
                            and future.exception() is None):
                        self._harvest(st, groups, future.result())
            except Exception:
                pass
        while (self.sink_ok and self.inflight
               and all(r is not None for r in self.inflight[0].rows)):
            try:
                self.flush_head()
            except BaseException:
                break

    def _submit(self, payload: list) -> Future:
        """Submit one task, recording the pool generation so a later
        ``BrokenProcessPool`` can be attributed to the right pool
        incarnation (and the task resubmitted on a fresh one)."""
        task = (payload, self.store_root, self.policy)
        try:
            future = submit_task(_run_instances, task, self.n_jobs)
        except BrokenProcessPool:
            # the pool died between harvests: retire it and retry the
            # submission once on the respawned pool
            self._pool_failure(pool_generation())
            future = submit_task(_run_instances, task, self.n_jobs)
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
        if self.cache is None or record.get("status") == "failed":
            return
        try:
            faults.fire("cache_put", key)
            self.cache.put(kind, key, record)
        except Exception:
            self.stats.cache_put_failures += 1

    def _record(self, coords):
        """The optimum record the parent already holds for ``coords``
        (the window, else the ``instances`` cache), or ``None``."""
        rec = self.window.get(coords)
        if rec is None and self.cache is not None and not self.force:
            rec = self.cache.get("instances", instance_key(coords))
            if rec is not None:
                self.window.put(coords, rec)
                self.stats.opt_hits += 1
        return rec

    def _submit_ready(self, st: _BatchState) -> bool:
        """Pack the batch's groups whose instance no in-flight task
        holds into tasks of ``chunk_jobs`` jobs (rounded up to whole
        instances) and submit them; True when any was submitted."""
        ready = [g for g in st.waiting if g[0] not in self.busy]
        if not ready:
            return False
        st.waiting = [g for g in st.waiting if g[0] in self.busy]
        for groups in chunk_list(ready, self.n_jobs,
                                 self.config.chunk_jobs,
                                 weight=lambda g: len(g[1])):
            payload = [(coords, self._record(coords),
                        [job for _i, job, _key in items])
                       for coords, items in groups]
            self.busy.update(coords for coords, _items in groups)
            st.tasks.append((groups, payload, self._submit(payload)))
        return True

    def _advance(self, st: _BatchState) -> bool:
        """Harvest the batch's finished tasks, then submit its groups
        that were waiting on them; True on progress."""
        progressed = False
        remaining = []
        for groups, payload, future in st.tasks:
            if not future.done():
                if self.future_gen.get(future) in (None, pool_generation()):
                    remaining.append((groups, payload, future))
                    continue
                # its pool was retired, and retiring waits for every task
                # the pool knew of: a task still pending was submitted
                # while the pool died and will never run — resubmit it
                self.future_gen.pop(future)
                remaining.append((groups, payload, self._submit(payload)))
                progressed = True
                continue
            progressed = True
            try:
                env = future.result()
            except BrokenProcessPool:
                # the task was in flight on a pool that died: respawn
                # (bounded) and resubmit only this task
                self._pool_failure(self.future_gen.pop(future, None))
                remaining.append((groups, payload, self._submit(payload)))
                continue
            self.future_gen.pop(future, None)
            self._harvest(st, groups, env)
        st.tasks = remaining
        return self._submit_ready(st) or progressed

    def _harvest(self, st: _BatchState, groups: list, env: dict) -> None:
        """Account one finished task's envelope: solved records into
        the window and the ``instances`` cache, rows into the batch and
        the ``jobs`` cache, counters into the run's stats.  Failed
        records reach the window only (later batches quarantine the
        same jobs) and quarantined rows are never cached."""
        for (coords, _items), rec in zip(groups, env["records"]):
            self.busy.discard(coords)
            if rec is not None:
                self.window.put(coords, rec)
                self.stats.opt_solved += 1
                self._cache_put("instances", instance_key(coords), rec)
        items = [item for _coords, group in groups for item in group]
        for (i, _job, key), row in zip(items, env["rows"]):
            st.rows[i] = row
            if row.get("status") == "failed":
                self.stats.quarantined += 1
            self._cache_put("jobs", key, row)
        self.stats.retries += env["retries"]
        self.stats.inst_materialized += env["materialized"]
        for name, delta in env["counters"].items():
            setattr(self.stats, name, getattr(self.stats, name) + delta)


def run_grid(spec: GridSpec, config: EngineConfig | None = None, *,
             stats: RunStats | None = None,
             job_slice: tuple[int, int] | None = None):
    """Stream every job of a grid through the pipelined engine.

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
    pool (:class:`_GridRun`'s window, which the lease-queue worker runs
    on too): up to ``pipeline_depth`` batches are in flight, so batch
    N+1's tasks are submitted while batch N's still run — the pool
    stays saturated end to end instead of idling at a barrier per
    batch.
    Each worker task takes whole instances (materialize, solve, run
    every pending job of the batch on it); ``chunk_jobs`` jobs, rounded
    up to whole instances, ride one worker round-trip (``None``
    auto-sizes — one task per batch in-process, about two per worker
    on the pool — and ``1`` gives one instance per task), and
    LCP-family jobs sharing an instance are replayed from one shared
    work-function sweep.  Rows are bit-identical for every
    ``(n_jobs, batch_size, pipeline_depth, chunk_jobs)`` combination.

    With ``cache_dir``, each job's row (and each instance's optimum) is
    read from the per-job content-addressed cache when present (unless
    ``force``) and written back the moment its task completes — so
    re-running any overlapping grid only executes the jobs it has not
    seen before, and a grid killed mid-run resumes paying only the
    unfinished jobs.  ``cache_dir`` may also be a ready-made
    :class:`JobCache` (e.g. one opened on the SQLite backend).  With
    ``store_dir``, each distinct pending instance is materialized into
    the shared :class:`~repro.runner.instancestore.InstanceStore`
    exactly once; its solve and jobs then mmap the payload instead of
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
    call), the instance-resolution counters ``inst_builds`` (scenario
    builds — at most one per distinct instance, with or without a
    store), ``inst_loads`` (store mmap loads) and ``inst_memo_hits``,
    and the sweep-memo counters ``sweep_memo_hits`` /
    ``sweep_memo_misses`` — these five summed over every process that
    ran a task, pool workers included.  A ``config`` or ``stats`` of
    any other type, or a ``batch_size``, ``pipeline_depth`` or
    ``chunk_jobs`` below 1, raises before the sink is opened.
    """
    config, run_stats = run_args(config, stats)
    cache = (config.cache_dir if isinstance(config.cache_dir, JobCache)
             else JobCache(config.cache_dir)
             if config.cache_dir is not None else None)
    store_root = (None if config.store_dir is None
                  else str(config.store_dir))
    _validate_pipelines(spec)
    jobs = spec.iter_jobs()
    if job_slice is not None:
        start, stop = job_slice
        if not 0 <= start <= stop <= len(spec):
            raise ValueError(f"job_slice {job_slice!r} out of range "
                             f"for a {len(spec)}-job grid")
        jobs = itertools.islice(jobs, start, stop)
    batches_iter = iter_batches(jobs, config.batch_size)
    busy_stats_before = jobcache.busy_stats()
    sink = ListSink() if config.sink is None else config.sink
    run = _GridRun(config, cache, sink, run_stats, store_root)
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
        run.execute(batches_iter)
    finally:
        sink.close()
        if fault_plan is not None:
            faults.deactivate()
            if prev_fault_env is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = prev_fault_env
            shutdown_pool()
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

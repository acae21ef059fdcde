"""Batch experiment runner: registry, scenario catalog, parallel engine.

The runner is the substrate every large-scale experiment stands on:

* :mod:`repro.runner.registry` — every offline solver and online
  algorithm under a stable name with the paper's taxonomy (variant,
  discrete/fractional, competitive ratio, lookahead support).
* :mod:`repro.runner.scenarios` — one named catalog of workload
  scenarios: the trace families of the experimental evaluation plus
  adversarial, random-convex and heterogeneous-cost instances.
* :mod:`repro.runner.executor` — the execution substrate: the
  persistent process pool (:func:`parallel_map`, task submission) and
  the :class:`EngineConfig` / :class:`RunStats` value objects the
  engine, ``analysis/sweep`` and the lease-queue worker all take.
* :mod:`repro.runner.engine` — expands a :class:`GridSpec` of
  (scenario x algorithm x seed x size) into jobs, groups them by
  instance and hands whole instances to one worker task kind —
  in-process or on a persistent process pool — that materializes the
  instance once, solves its offline optimum once and runs every
  pending job on it with deterministic per-job seeding, keeping up to
  ``pipeline_depth`` batches in flight; then aggregates competitive
  ratios.
* :mod:`repro.runner.leasequeue` — multi-host execution: a WAL-mode
  SQLite lease queue workers claim contiguous job ranges from
  (heartbeat, expiry, reclaim), plus the :func:`merge_results` step
  that reassembles per-worker rows into one bit-identical result set.
* :mod:`repro.runner.instancestore` — the shared mmap-backed store of
  materialized instance payloads (each instance tabulated once per
  store) plus a small per-process build memo.
* :mod:`repro.runner.jobcache` — the per-job content-addressed result
  store behind incremental grids (JSON-dir or single-file SQLite
  backend): one record per job / instance optimum, shared by every
  overlapping grid.
* :mod:`repro.runner.faults` — the deterministic fault-injection
  harness behind the chaos tests: a :class:`FaultPlan` names failures
  by (site, match, nth) and the instrumented seams raise — or kill the
  worker — exactly where a real failure would.
* :mod:`repro.runner.service` / :mod:`repro.runner.client` — the
  serving layer: a stdlib-HTTP ``repro serve`` daemon that answers
  cache hits instantly and enqueues only misses on the lease queue
  (admission control, structured errors, drain shutdown), plus the
  retrying :class:`ServiceClient` that talks to it.
"""

from .client import RequestError, ServiceClient, ServiceUnavailable
from .engine import (GridSpec, aggregate_rows, instance_key, job_key,
                     run_grid)
from .executor import (EngineConfig, RetryPolicy, RunStats, parallel_map,
                       shutdown_pool)
from .faults import FaultPlan, FaultSpec, InjectedFault
from .instancestore import InstanceStore, get_instance
from .jobcache import (JobCache, busy_stats, migrate_cache,
                       with_busy_retry)
from .leasequeue import (Lease, LeaseLost, LeaseQueue, failed_jobs,
                         grid_status, merge_results, retry_failed,
                         work)
from .service import GridService, ServiceError
from .registry import (PIPELINES, AlgorithmSpec, algorithm_names,
                       algorithm_table, game_names, get_spec,
                       make_algorithm, make_solver, pipeline_optimum,
                       solver_names)
from .scenarios import (Scenario, build_instance, get_scenario,
                        scenario_names, trace_suite)
from .sinks import (JsonlSink, ListSink, MergeError, ResultSink,
                    SqliteSink, make_sink, read_jsonl_rows,
                    read_sqlite_rows)

__all__ = [
    "AlgorithmSpec", "PIPELINES", "algorithm_names", "algorithm_table",
    "game_names", "get_spec", "make_algorithm", "make_solver",
    "pipeline_optimum", "solver_names",
    "Scenario", "build_instance", "get_scenario", "scenario_names",
    "trace_suite",
    "GridSpec", "InstanceStore", "JobCache", "aggregate_rows",
    "busy_stats", "get_instance", "instance_key", "job_key",
    "migrate_cache", "run_grid", "with_busy_retry",
    "EngineConfig", "RetryPolicy", "RunStats", "parallel_map",
    "shutdown_pool",
    "FaultPlan", "FaultSpec", "InjectedFault",
    "Lease", "LeaseLost", "LeaseQueue", "failed_jobs", "grid_status",
    "merge_results", "retry_failed", "work",
    "GridService", "RequestError", "ServiceClient", "ServiceError",
    "ServiceUnavailable",
    "JsonlSink", "ListSink", "MergeError", "ResultSink", "SqliteSink",
    "make_sink", "read_jsonl_rows", "read_sqlite_rows",
]

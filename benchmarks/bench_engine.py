"""Engine throughput benchmark: rebuild vs store vs pipeline vs cache.

Measures grid throughput (jobs/sec) of ``run_grid`` on a multi-algorithm
grid at several horizons, under five execution variants:

* ``rebuild``    — the pre-store behavior: the per-process memo is
  disabled, so every phase-1/phase-2 job re-tabulates its instance's
  cost matrix (what PR 2 shipped);
* ``mmap_store`` — phase 0 has materialized the instance store; jobs
  reopen the payload read-only via mmap (memo cleared between runs, so
  the measurement is load-from-store, not load-from-memory), with
  fusion disabled (``chunk_jobs=1``) — the PR 3 steady state;
* ``pipelined``  — the store plus double-buffered batches
  (``pipeline_depth=2``): batch N+1's phase 0/1 is submitted while
  batch N's phase 2 runs (with ``n_jobs=1`` this isolates the pipeline
  machinery's overhead — it must not lose to ``mmap_store``);
* ``fused``      — ``pipelined`` plus fused chunk dispatch: several
  jobs per worker round-trip, and LCP-family jobs on one instance
  replayed from a single shared work-function sweep;
* ``warm_cache`` — every row is served from the per-job result cache
  (the incremental-grid steady state);
* ``kernel``     — ``fused`` with the vectorized work-function kernels
  (``REPRO_KERNEL=vector``): whole-table sweeps, whole-trajectory
  replay fast paths, and one memoized sweep per instance shared by the
  phase-1 optimum, the LCP family and the backward solver;
* ``kernel_unfused`` — the vectorized kernels under per-job dispatch
  (``chunk_jobs=1``), isolating the kernels' contribution from chunk
  fusion (the per-process sweep memo still deduplicates sweeps);
* ``kernel_multi`` / ``batched`` — a *multi-instance* grid (six
  instance seeds, same algorithms) under the vector and batched
  kernels respectively, the whole grid in one batch: ``batched``
  stacks co-scheduled same-shape instances into single
  ``(B, T, m+1)`` sweep launches (``REPRO_KERNEL=batched``), so its
  gain over ``kernel_multi`` is pure launch amortization on an
  identical job set.

The legacy variants are pinned to ``REPRO_KERNEL=scalar`` so they keep
measuring the historical per-step code paths (and stay comparable
across runs); the ``kernel*`` variants measure the vectorized paths.
Every variant must produce bit-identical rows (the multi-instance
variants against each other — their job set is larger).

The report also carries a ``restricted_solver`` section timing
``solve_restricted`` under the scalar vs vectorized kernel on one
restricted instance per horizon — the whole-table rewrite of the
masked DP's forward/backward passes.

Results are written as machine-readable JSON (default
``BENCH_engine.json`` at the repo root) so the nightly regression
comparator (``benchmarks/compare_results.py``) can diff runs; per-
algorithm mean ratios ride along as a correctness fingerprint.

Run directly (not collected by pytest — no ``test_`` functions)::

    python benchmarks/bench_engine.py --sizes 1000,10000 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

DEFAULT_SIZES = (1_000, 10_000, 100_000)
#: lcp and eager-lcp lead so they share a batch (and therefore one
#: work-function sweep) under the ``fused`` variant's chunking
DEFAULT_ALGORITHMS = ("lcp", "eager-lcp", "threshold", "memoryless",
                      "followmin", "never-off")
VARIANTS = ("rebuild", "mmap_store", "pipelined", "fused", "warm_cache",
            "kernel", "kernel_unfused")
#: multi-instance variants, measured on the six-seed grid
MULTI_VARIANTS = ("kernel_multi", "batched")
MULTI_SEEDS = tuple(range(6))


def _run_variant(spec, variant: str, workdir: pathlib.Path,
                 n_jobs: int) -> dict:
    """Time one run_grid execution under one variant; returns a row."""
    from repro import kernels
    from repro.runner import EngineConfig, RunStats, run_grid, shutdown_pool
    from repro.runner import instancestore
    store_dir = workdir / "store"
    cache_dir = workdir / "cache"
    # chunk_jobs=1 pins the historical per-job dispatch so the legacy
    # variants keep measuring what they always measured
    kwargs: dict = {"chunk_jobs": 1}
    previous = None
    batched = max(1, len(spec) // 3)
    if variant == "rebuild":
        previous = instancestore.set_memo_size(0)
    elif variant == "mmap_store":
        kwargs["store_dir"] = store_dir
    elif variant == "pipelined":
        kwargs.update(store_dir=store_dir, batch_size=batched,
                      pipeline_depth=2)
    elif variant in ("fused", "kernel"):
        kwargs.update(store_dir=store_dir, batch_size=batched,
                      pipeline_depth=2, chunk_jobs=None)
    elif variant == "kernel_unfused":
        kwargs.update(store_dir=store_dir, batch_size=batched,
                      pipeline_depth=2)
    elif variant in MULTI_VARIANTS:
        # whole grid in one batch: the fused phase-1 chunk sees every
        # co-scheduled instance, so the batched kernel can stack all
        # same-shape sweeps into single launches
        kwargs.update(store_dir=store_dir, batch_size=len(spec),
                      pipeline_depth=2, chunk_jobs=None)
    else:
        kwargs["cache_dir"] = cache_dir
    kernel = ("batched" if variant == "batched"
              else "vector" if variant.startswith("kernel") else "scalar")
    best = None
    try:
        with kernels.use(kernel):
            for _repeat in range(3):  # best-of-3 damps scheduler noise
                instancestore.clear_memo()
                kernels.clear_sweep_cache()
                # drop the persistent pool so forked workers inherit the
                # variant's memo state instead of the warm-up run's
                # (matters for n_jobs > 1)
                shutdown_pool()
                stats = RunStats()
                start = time.perf_counter()
                rows = run_grid(spec,
                                EngineConfig(n_jobs=n_jobs, **kwargs),
                                stats=stats)
                elapsed = time.perf_counter() - start
                row = {"variant": variant, "jobs": len(rows),
                       "seconds": round(elapsed, 6),
                       "jobs_per_sec": round(len(rows) / elapsed, 3),
                       "inst_builds": stats.inst_builds,
                       "inst_loads": stats.inst_loads,
                       "rows": rows}
                if best is not None and best["rows"] != rows:
                    raise AssertionError(
                        f"variant {variant!r} rows differ between repeats")
                if best is None or row["seconds"] < best["seconds"]:
                    best = row
    finally:
        if previous is not None:
            instancestore.set_memo_size(previous)
    return best


def bench_engine(sizes=DEFAULT_SIZES, algorithms=DEFAULT_ALGORITHMS,
                 scenario: str = "diurnal", n_jobs: int = 1,
                 workdir=None) -> dict:
    """Run the three variants at every horizon; returns the report."""
    from repro.runner import EngineConfig, GridSpec, aggregate_rows, run_grid

    def measure(T: int, workdir: pathlib.Path) -> list[dict]:
        spec = GridSpec(scenarios=(scenario,), algorithms=tuple(algorithms),
                        seeds=(0,), sizes=(int(T),))
        multi = GridSpec(scenarios=(scenario,),
                         algorithms=tuple(algorithms),
                         seeds=MULTI_SEEDS, sizes=(int(T),))
        # warm the store and the result cache first (phase 0 / first run
        # are what 'cold' pays; the variants measure the steady state)
        for s in (spec, multi):
            run_grid(s, EngineConfig(n_jobs=n_jobs,
                                     store_dir=workdir / "store",
                                     cache_dir=workdir / "cache"))
        out = []
        references: dict = {}
        for variant in VARIANTS + MULTI_VARIANTS:
            vspec = multi if variant in MULTI_VARIANTS else spec
            row = _run_variant(vspec, variant, workdir, n_jobs)
            rows = row.pop("rows")
            reference = references.setdefault(id(vspec), rows)
            if rows != reference:
                raise AssertionError(
                    f"variant {variant!r} rows differ at T={T}")
            row["T"] = int(T)
            row["mean_ratio"] = {
                a["algorithm"]: round(a["mean_ratio"], 12)
                for a in aggregate_rows(rows)}
            out.append(row)
        return out

    results = []
    for T in sizes:
        if workdir is None:
            with tempfile.TemporaryDirectory() as tmp:
                results.extend(measure(T, pathlib.Path(tmp)))
        else:
            results.extend(measure(T, pathlib.Path(workdir)))
    by = {(r["T"], r["variant"]): r for r in results}
    speedup = {str(T): round(by[(T, "mmap_store")]["jobs_per_sec"]
                             / by[(T, "rebuild")]["jobs_per_sec"], 3)
               for T in sizes}
    speedup_fused = {str(T): round(by[(T, "fused")]["jobs_per_sec"]
                                   / by[(T, "mmap_store")]["jobs_per_sec"],
                                   3)
                     for T in sizes}
    speedup_kernel = {str(T): round(by[(T, "kernel")]["jobs_per_sec"]
                                    / by[(T, "fused")]["jobs_per_sec"], 3)
                      for T in sizes}
    # batched vs kernel: the headline launch-amortization gain over the
    # single-instance kernel variant (the committed baseline); batched
    # vs kernel_multi isolates it on an identical job set
    speedup_batched = {
        str(T): round(by[(T, "batched")]["jobs_per_sec"]
                      / by[(T, "kernel")]["jobs_per_sec"], 3)
        for T in sizes}
    speedup_batched_multi = {
        str(T): round(by[(T, "batched")]["jobs_per_sec"]
                      / by[(T, "kernel_multi")]["jobs_per_sec"], 3)
        for T in sizes}
    return {"bench": "engine_throughput", "version": 4,
            "scenario": scenario, "algorithms": list(algorithms),
            "n_jobs": n_jobs, "results": results,
            "speedup_store_vs_rebuild": speedup,
            "speedup_fused_vs_store": speedup_fused,
            "speedup_kernel_vs_fused": speedup_kernel,
            "speedup_batched_vs_kernel": speedup_batched,
            "speedup_batched_vs_kernel_multi": speedup_batched_multi,
            "restricted_solver": bench_restricted(sizes)}


def bench_restricted(sizes, scenario: str = "restricted-diurnal") -> dict:
    """Time ``solve_restricted`` under the scalar vs vectorized kernel
    (best-of-3) on one restricted instance per horizon."""
    from repro import kernels
    from repro.offline import solve_restricted
    from repro.runner.scenarios import build_instance
    out = {}
    for T in sizes:
        inst = build_instance(scenario, int(T), 0, pipeline="restricted")
        timings = {}
        for name in ("scalar", "vector"):
            with kernels.use(name):
                solve_restricted(inst)  # warm-up
                best = min(
                    _timed(lambda: solve_restricted(inst))
                    for _repeat in range(3))
            timings[f"{name}_seconds"] = round(best, 6)
        timings["speedup"] = round(timings["scalar_seconds"]
                                   / timings["vector_seconds"], 3)
        out[str(T)] = timings
    return out


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)),
                    help="comma list of horizons")
    ap.add_argument("--algorithms",
                    default=",".join(DEFAULT_ALGORITHMS),
                    help="comma list of registry names")
    ap.add_argument("--scenario", default="diurnal")
    ap.add_argument("--n-jobs", type=int, default=1)
    ap.add_argument("--out", default="BENCH_engine.json",
                    help="where to write the JSON report")
    args = ap.parse_args(argv)
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    algorithms = tuple(a.strip() for a in args.algorithms.split(",")
                       if a.strip())
    report = bench_engine(sizes=sizes, algorithms=algorithms,
                          scenario=args.scenario, n_jobs=args.n_jobs)
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2,
                                                 sort_keys=True) + "\n")
    for row in report["results"]:
        print(f"T={row['T']:>7} {row['variant']:<11} "
              f"{row['jobs_per_sec']:>8.2f} jobs/s "
              f"({row['seconds']:.2f}s, builds={row['inst_builds']})")
    print("speedup store vs rebuild:",
          report["speedup_store_vs_rebuild"])
    print("speedup kernel vs fused:",
          report["speedup_kernel_vs_fused"])
    print("speedup batched vs kernel:",
          report["speedup_batched_vs_kernel"])
    print("restricted solver:", report["restricted_solver"])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

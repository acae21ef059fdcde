"""The three workloads: ``horizon``, ``fanout`` and ``serve``.

Every run repeats its work in :data:`ROUNDS` rounds.  Each round sets
up from scratch (fresh job cache, cleared memos, new pool or service
processes, new instance store) and that set-up is timed, so
``setup_s`` is a median over rounds; the measured numbers pool every
round's samples.  The amount of work follows from ``--seconds`` and the
inputs from ``--seed`` only, so the rows digest of a seed never depends
on how fast the machine is.

In-process workloads have no HTTP front end of their own.  They
publish each finished grid to a ``repro serve`` replica that shares
the grid's job cache (every job is a cache hit) and read it back: that
closed loop is where their ``grid``, ``submit`` and ``status``
latencies come from, and the served rows must equal the in-process
rows.  Their ``jobs_per_s`` is the in-process ``run_grid`` rate.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import tempfile
import time
import uuid

import repro.runner as runner
from common import (ALGORITHMS, ROOT, ServiceProcess, WorkerProcess,
                    check_rows, rows_digest, spawn, tree_peak_rss_mb)
from repro import kernels
from repro.runner import (EngineConfig, GridSpec, LeaseQueue,
                          ServiceClient, instancestore, shutdown_pool)
from spans import Tracer, install, layer_metrics

ROUNDS = 3

#: horizon instance size; one grid (one instance, seven algorithms)
#: takes about HORIZON_GRID_S seconds on a 2-core x86 container, which
#: sizes the run from ``--seconds``
HORIZON_T = 25_000
HORIZON_GRID_S = 1.7
#: share of ``--seconds`` each in-process workload measures: horizon's
#: single-process compute is the most exposed to the host's speed
#: phases (tens of seconds long), so it measures longer; fanout, the
#: least exposed, pays for that
HORIZON_SHARE = 1.5
FANOUT_SHARE = 2 / 3
#: child processes that materialize a round's instances
MATERIALIZERS = 2
#: fanout grid shape and the seconds one grid takes at n_jobs=2
FANOUT_SCENARIOS = ("diurnal", "bursty", "msr-like")
FANOUT_SEEDS = 12
FANOUT_GRID_S = 0.8
#: each fanout grid is published under this many algorithm orderings
FANOUT_PUBLISH_ORDERS = 2
#: grids per round of the traced run's n_jobs=2 (executor) pass
FANOUT_POOL_GRIDS = 3
#: served grids per second of ``--seconds``; serve runs at least
#: MIN_SERVED grids and horizon publishes at least as many
SERVE_GRIDS_PER_S = 7
MIN_SERVED = 210

#: client poll interval while a served grid is pending (each poll
#: merges every envelope in the service; polling faster left the worker
#: fighting the service for two cores and doubled the run-to-run spread)
POLL_S = 0.02
#: instance seeds far from any measured one, for warm-up grids
WARM_SEED = 10**8


def _now() -> float:
    return time.perf_counter()


class Run:
    """State and results of one benchmark invocation."""

    def __init__(self, workload, seed, seconds, trace, tiny):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.run_id = f"{workload}-{seed}-{uuid.uuid4().hex[:8]}"
        self.dir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.tmp = self.dir / "tmp"
        self.rows: list = []
        self.problems: list[str] = []
        self.grid_ms: list[float] = []
        self.submit_ms: list[float] = []
        self.status_ms: list[float] = []
        self.polls = 0
        self.grid_rates: list[float] = []
        self.setups: list[float] = []
        self.rss_mb = 0.0
        self.requests = 0
        self.retries = 0
        self.failed_requests = 0
        self.quarantined = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.dumps: list[dict] = []
        self.trace_files: list[pathlib.Path] = []
        self.executor_dumps: list[dict] = []
        self.children: list = []
        self.facts: dict = {}

    # -- plumbing ------------------------------------------------------

    def __enter__(self) -> "Run":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        # temporary files (SQLite's included) stay inside the checkout
        os.environ["TMPDIR"] = str(self.tmp)
        tempfile.tempdir = None
        return self

    def __exit__(self, *exc) -> None:
        for child in self.children:
            child.kill()
            if isinstance(child, subprocess.Popen):
                child.wait()
        shutdown_pool()
        shutil.rmtree(self.dir, ignore_errors=True)
        parent = self.dir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    def client(self, url):
        """A retrying client whose retries are counted (each retry is a
        failed attempt: a 429, a 5xx or a transport error)."""

        def counted_sleep(delay):
            self.retries += 1
            time.sleep(delay)
        return ServiceClient(url, sleep=counted_sleep)

    def request(self, fn, *args):
        self.requests += 1
        try:
            return fn(*args)
        except Exception:
            self.failed_requests += 1
            raise

    def trace_path(self, name: str) -> pathlib.Path | None:
        if not self.trace:
            return None
        path = self.dir / f"trace-{len(self.trace_files)}-{name}.json"
        self.trace_files.append(path)
        return path

    def service(self, rdir: pathlib.Path, cache, traced: bool):
        svc = ServiceProcess(rdir / "queue", cache, self.tmp,
                             self.trace_path("service") if traced else None,
                             self.run_id)
        self.children.append(svc)
        return svc, self.client(svc.url)

    def stop(self, svc) -> None:
        svc.stop()
        self.children.remove(svc)

    def snapshot_rss(self) -> None:
        self.rss_mb = max(self.rss_mb, tree_peak_rss_mb())

    def check(self, rows, spec, what: str) -> None:
        self.quarantined += sum(r.get("status") == "failed" for r in rows)
        self.problems += [f"{what}: {p}" for p in check_rows(rows, spec)]

    # -- the in-process grid loop --------------------------------------

    def grids(self, specs, config, publish=None, record=True,
              orders=1) -> list[float]:
        """Run ``specs`` one by one through ``run_grid`` (memos cleared
        before each); optionally publish each to ``(service, client)``
        under ``orders`` algorithm orderings.  Returns the seconds each
        ``run_grid`` call took."""
        times = []
        for spec in specs:
            instancestore.clear_memo()
            kernels.clear_sweep_cache()
            t0 = _now()
            rows = runner.run_grid(spec, config)
            dt = _now() - t0
            times.append(dt)
            self.check(rows, spec, f"grid {spec.cache_key()}")
            if record:
                self.rows.append(rows)
                self.grid_rates.append(len(spec) / dt)
            if publish is not None:
                for algs in itertools.islice(
                        itertools.permutations(spec.algorithms), orders):
                    self.publish(publish[1], spec, rows, algs, record)
        return times

    def publish(self, client, spec, rows, algs, record) -> None:
        """Submit ``spec`` with its algorithms in the order ``algs`` (a
        new grid id over the same, already cached jobs) and read it
        back: a closed loop from submit to merged rows in hand."""
        spec = dataclasses.replace(spec, algorithms=algs)
        by_job = {(r["scenario"], r["algorithm"], r["seed"]): r
                  for r in rows}
        expected = [by_job[job[0], job[1], job[4]]
                    for job in spec.iter_jobs()]
        t0 = _now()
        receipt = self.request(client.submit, spec)
        t1 = _now()
        status = self.request(client.status, receipt["grid"])
        t2 = _now()
        if record:
            self.grid_ms.append((t2 - t0) * 1e3)
            self.submit_ms.append((t1 - t0) * 1e3)
            self.status_ms.append((t2 - t1) * 1e3)
            self.polls += 1
        if receipt.get("enqueued") != 0 or status.get("rows") != expected:
            self.problems.append(f"grid {receipt['grid']}: served rows "
                                 "differ from the in-process rows")

    # -- the served grid loop ------------------------------------------

    def serve_grid(self, client, spec, record=True) -> float:
        """Closed loop: submit, poll until merged rows are in hand."""
        t_due = _now()
        receipt = self.request(client.submit, spec)
        t_sub = _now()
        polls, status_ms = 0, []
        deadline = t_due + 120.0
        while True:
            t0 = _now()
            status = self.request(client.status, receipt["grid"])
            status_ms.append((_now() - t0) * 1e3)
            polls += 1
            if status.get("state") in ("done", "degraded"):
                break
            if _now() > deadline:
                raise TimeoutError(f"grid {receipt['grid']} still pending")
            for child in self.children:
                if child.proc.poll() is not None:
                    raise RuntimeError(f"{child.proc.args[2]} process "
                                       f"exited {child.proc.returncode}")
            time.sleep(POLL_S)
        latency = _now() - t_due
        rows = status.get("rows") or []
        if status.get("state") != "done":
            self.problems.append(f"grid {receipt['grid']}: "
                                 f"{status.get('state')}")
        self.check(rows, spec, f"served grid {receipt['grid']}")
        if record:
            self.rows.append(rows)
            self.grid_ms.append(latency * 1e3)
            self.submit_ms.append((t_sub - t_due) * 1e3)
            self.status_ms += status_ms
            self.polls += polls
            self.grid_rates.append(len(spec) / latency)
        return latency

    # -- tracing -------------------------------------------------------

    def traced(self, fn, *args):
        """Run ``fn`` with every layer wrapped; returns (result, dump)."""
        tracer = Tracer(self.run_id, "bench")
        installed = install(tracer)
        try:
            result = fn(*args)
        finally:
            installed.remove()
        return result, tracer.export()


def _specs(scenarios, seed_lists, T):
    return [GridSpec(scenarios, ALGORITHMS, seeds=tuple(seeds), sizes=(T,))
            for seeds in seed_lists]


def _warm_up(config, n_seeds: int = 2, T: int = 100) -> None:
    """Run one grid on instances no measured grid uses: it imports every
    lazily loaded module, lays out the job cache and, at ``n_jobs=2``,
    forks the pool and brings it to its steady state."""
    runner.run_grid(_specs(FANOUT_SCENARIOS,
                    [range(WARM_SEED, WARM_SEED + n_seeds)], T)[0], config)
    instancestore.clear_memo()
    kernels.clear_sweep_cache()


def horizon(run: Run) -> None:
    """Seven algorithms on T=25k diurnal instances at ``n_jobs=1``.

    Set-up materializes the round's instances into a fresh instance
    store (in child processes, so the build's memory peak is not the
    measured one); the grids then load them by mmap and start from a
    cold job cache.  Each grid is published under enough algorithm
    orderings that the run serves at least MIN_SERVED grids.
    """
    T = 2000 if run.tiny else HORIZON_T
    per_round = 1 if run.tiny else max(
        2, round(HORIZON_SHARE * run.seconds / (ROUNDS * HORIZON_GRID_S)))
    orders = 2 if run.tiny else -(-MIN_SERVED // (ROUNDS * per_round))
    run.facts.update(T=T, grids_per_round=per_round, n_jobs=1,
                     orderings_per_grid=orders)
    for r in range(ROUNDS):
        rdir = run.dir / f"round-{r}"
        seeds = [run.seed * 1000 + r * per_round + i
                 for i in range(per_round)]
        specs = _specs(("diurnal",), [(s,) for s in seeds], T)
        store = rdir / "store"
        t0 = _now()
        makers = []
        for part in range(min(MATERIALIZERS, len(seeds))):
            coords = [["diurnal", "general", T, s, "{}"]
                      for s in seeds[part::MATERIALIZERS]]
            args = ["materialize", "--store", str(store), "--coords",
                    json.dumps(coords)]
            out = run.trace_path("materialize")
            if out is not None:
                args += ["--trace-out", str(out), "--run-id", run.run_id]
            makers.append(spawn(args, run.tmp))
            run.children.append(makers[-1])
        svc, client = run.service(rdir, rdir / "cache", run.trace)
        _warm_up(EngineConfig(n_jobs=1, cache_dir=rdir / "cache"))
        for proc in makers:
            if proc.wait(timeout=170) != 0:
                raise RuntimeError("instance materialization failed")
            run.children.remove(proc)
        run.setups.append(_now() - t0)
        config = EngineConfig(n_jobs=1, store_dir=store,
                              cache_dir=rdir / "cache")
        if run.trace:
            run.untraced_s += sum(run.grids(specs, EngineConfig(
                n_jobs=1, store_dir=store, cache_dir=rdir / "cache-u"),
                record=False))
            times, dump = run.traced(run.grids, specs, config, (svc, client),
                                     True, orders)
            run.traced_s += sum(times)
            run.dumps.append(dump)
        else:
            run.grids(specs, config, (svc, client), orders=orders)
        run.snapshot_rss()
        run.stop(svc)


def fanout(run: Run) -> None:
    """Seven algorithms on many cold T=200 instances of three trace
    families, at ``n_jobs=2`` on a warm pool, without an instance store.
    """
    T = 200
    n_seeds = 2 if run.tiny else FANOUT_SEEDS
    per_round = 1 if run.tiny else max(
        2, round(FANOUT_SHARE * run.seconds / (ROUNDS * FANOUT_GRID_S)))
    run.facts.update(T=T, grids_per_round=per_round, n_jobs=2,
                     instances_per_grid=n_seeds * len(FANOUT_SCENARIOS))

    def seed_lists(r, offset=0):
        base = run.seed * 10**6 + (2 * r + offset) * per_round * n_seeds
        return [range(base + g * n_seeds, base + (g + 1) * n_seeds)
                for g in range(per_round)]

    for r in range(ROUNDS):
        rdir = run.dir / f"round-{r}"
        specs = _specs(FANOUT_SCENARIOS, seed_lists(r), T)
        t0 = _now()
        shutdown_pool()
        svc, client = run.service(rdir, rdir / "cache", run.trace)
        _warm_up(EngineConfig(n_jobs=2, cache_dir=rdir / "cache"), n_seeds, T)
        run.setups.append(_now() - t0)
        if run.trace:
            # per-layer numbers come from an in-process n_jobs=1 pass
            # (its first half also runs untraced, for the overhead); a
            # few fresh grids at n_jobs=2 record the parent-side
            # executor spans
            half = specs[:(len(specs) + 1) // 2]
            run.untraced_s += sum(run.grids(half, EngineConfig(
                n_jobs=1, cache_dir=rdir / "cache-u"), record=False))
            times, dump = run.traced(
                run.grids, specs, EngineConfig(n_jobs=1,
                                               cache_dir=rdir / "cache"),
                (svc, client), True, FANOUT_PUBLISH_ORDERS)
            run.traced_s += sum(times[:len(half)])
            run.dumps.append(dump)
            pool_specs = _specs(FANOUT_SCENARIOS,
                                seed_lists(r, 1)[:FANOUT_POOL_GRIDS], T)
            _, dump = run.traced(
                run.grids, pool_specs,
                EngineConfig(n_jobs=2, cache_dir=rdir / "cache-p"), None,
                False)
            run.executor_dumps.append(dump)
        else:
            run.grids(specs, EngineConfig(n_jobs=2, cache_dir=rdir / "cache"),
                      (svc, client), orders=FANOUT_PUBLISH_ORDERS)
        run.snapshot_rss()
        shutdown_pool()
        run.stop(svc)


def serve(run: Run) -> None:
    """One closed-loop client against ``repro serve`` plus one worker.

    Grid ``i`` of a round is T=1000 diurnal over the seed window
    ``[b+i, b+i+4)``: three of its four instances were computed for
    earlier grids (job-cache hits answered by the submit probe), the
    fourth is enqueued and drained by the worker.  Grid 0 fills the
    window during set-up.
    """
    T = 200 if run.tiny else 1000
    per_round = 3 if run.tiny else -(-max(
        MIN_SERVED, SERVE_GRIDS_PER_S * run.seconds) // ROUNDS)
    run.facts.update(T=T, grids_per_round=per_round, worker_n_jobs=1)

    def pair(rdir, traced):
        # create the queue database first: two processes opening a fresh
        # one at the same moment can fail with "database is locked"
        # while switching it to WAL mode
        LeaseQueue(rdir / "queue").close()
        worker = WorkerProcess(
            rdir / "queue", rdir / "cache", run.tmp,
            run.trace_path("worker") if traced else None, run.run_id)
        run.children.append(worker)
        svc, client = run.service(rdir, rdir / "cache", traced)
        run.serve_grid(client, specs[0], record=False)
        return svc, client, worker

    def unpair(svc, worker):
        run.stop(svc)
        worker.stop()
        run.children.remove(worker)

    def loop(client, record=True):
        return sum(run.serve_grid(client, spec, record)
                   for spec in specs[1:])

    for r in range(ROUNDS):
        base = run.seed * 10**6 + r * 10**4
        specs = _specs(("diurnal",), [range(base + i, base + i + 4)
                                      for i in range(per_round + 1)], T)
        t0 = _now()
        svc, client, worker = pair(run.dir / f"round-{r}", False)
        run.setups.append(_now() - t0)
        first = len(run.rows)
        if run.trace:
            run.untraced_s += loop(client, record=False)
        else:
            loop(client)
            run.snapshot_rss()
        unpair(svc, worker)
        if run.trace:
            svc, client, worker = pair(run.dir / f"round-{r}-traced", True)
            spent, dump = run.traced(loop, client)
            run.traced_s += spent
            run.dumps.append(dump)
            unpair(svc, worker)
        # the merged rows of one grid per round must equal an in-process
        # run of the same spec
        pick = 1 + run.seed % per_round
        instancestore.clear_memo()
        kernels.clear_sweep_cache()
        local = runner.run_grid(specs[pick], EngineConfig(n_jobs=1))
        if run.rows[first + pick - 1] != local:
            run.problems.append(f"round {r}: served rows of grid {pick} "
                                "differ from an in-process run_grid")


WORKLOADS = {"horizon": horizon, "fanout": fanout, "serve": serve}


def end_to_end(run: Run, import_s: float) -> dict:
    """``name -> (value, unit, samples)`` of every end-to-end metric."""
    median = statistics.median
    p95 = statistics.quantiles(run.grid_ms, n=20, method="inclusive")[-1]
    return {
        "setup_s": (import_s + median(run.setups), "s", len(run.setups)),
        "jobs_per_s": (median(run.grid_rates), "1/s", len(run.grid_rates)),
        "grid_p50_ms": (median(run.grid_ms), "ms", len(run.grid_ms)),
        "grid_p95_ms": (p95, "ms", len(run.grid_ms)),
        "submit_p50_ms": (median(run.submit_ms), "ms", len(run.submit_ms)),
        "status_p50_ms": (median(run.status_ms), "ms", len(run.status_ms)),
        "peak_rss_mb": (run.rss_mb, "MB", 1),
    }


def per_layer(run: Run) -> dict:
    """``name -> (value, unit)`` of every per-layer metric."""
    dumps = list(run.dumps)
    for path in run.trace_files:
        dumps.append(json.loads(path.read_text()))
    metrics = layer_metrics(dumps)
    missing = sorted({m for d in dumps for m in d["missing"]})
    if missing:
        run.facts["untraced_entry_points"] = ",".join(missing)
    if run.executor_dumps:
        parent_side = layer_metrics(run.executor_dumps)
        for key in metrics:
            if key.startswith("executor."):
                metrics[key] = parent_side[key]
    metrics["client.retries"] = (run.retries, "count")
    metrics["client.polls_per_grid"] = (run.polls / len(run.submit_ms),
                                        "count")
    metrics["trace.overhead_pct"] = (
        100.0 * (run.traced_s / run.untraced_s - 1.0), "%")
    return metrics


def outcome(run: Run) -> tuple[int, int]:
    """``(attempted, failed)`` operations: result rows plus HTTP
    requests (each retry is a failed attempt)."""
    rows = sum(len(r) for r in run.rows)
    attempted = rows + run.requests + run.retries
    failed = run.quarantined + run.failed_requests + run.retries
    return attempted, failed


def digest(run: Run) -> str:
    return rows_digest(run.rows)

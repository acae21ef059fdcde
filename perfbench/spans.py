"""Span recorder for the traced benchmark run, and the layer wrappers.

Nothing in ``src/`` records time, so the traced run observes the
program from outside: :func:`install` replaces the public entry point
of each layer (named after the repo's modules) with a wrapper that
records one span per call.  A span is ``[id, parent, name, start, end,
tags]``; the parent is the innermost open span of the calling thread,
every process of one benchmark run shares a run id, and spans stay in
memory until :meth:`Tracer.dump` writes them once at the end.

Self time is derived afterwards (:func:`layer_metrics`): a span's
duration minus the part of its interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

from common import ALGORITHMS, OFFLINE

#: the layers, named after the repo's modules, in report order (the
#: entry points each one times are wrapped in :func:`install`)
LAYERS = ("scenarios", "instancestore", "kernels", "online", "offline",
          "schedule", "engine", "executor", "jobcache", "sinks",
          "leasequeue", "service", "client")

#: which end-to-end metric each layer metric should move, on which
#: workload: (layer metric prefix, end-to-end metric, workload)
MOVES = [
    ("kernels.", "jobs_per_s", "horizon"),
    ("online.", "jobs_per_s", "horizon"),
    ("kernels.table_mb", "peak_rss_mb", "horizon"),
    ("scenarios.", "jobs_per_s", "fanout"),
    ("scenarios.", "setup_s", "horizon"),
    ("instancestore.", "jobs_per_s", "fanout"),
    ("jobcache.put", "jobs_per_s", "fanout"),
    ("executor.", "jobs_per_s", "fanout"),
    ("jobcache.get", "submit_p50_ms", "serve"),
    ("service.", "submit_p50_ms", "serve"),
    ("leasequeue.grid_status", "status_p50_ms", "serve"),
    ("leasequeue.grid_status", "grid_p95_ms", "serve"),
    ("sinks.", "grid_p50_ms", "serve"),
    ("leasequeue.useful_claim_ratio", "grid_p50_ms", "serve"),
    ("leasequeue.worker_idle_polls", "grid_p50_ms", "serve"),
]

#: single entry points whose seconds are reported on their own, because
#: :data:`MOVES` names them apart from the rest of their layer (every
#: workload calls each of them, so none reads a constant zero)
ENTRY_SECONDS = ("jobcache.get", "jobcache.put", "leasequeue.grid_status")


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self, run_id: str, proc: str):
        self.run_id = run_id
        self.proc = proc
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        #: entry points :func:`install` could not find (renamed?)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span under the calling thread's innermost span."""
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, name,
                time.perf_counter(), None, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def leave(self, span: list) -> None:
        """Pop ``span`` off the thread's stack without ending it (an
        asynchronous span ends later, when its future completes)."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def end(self, span: list) -> None:
        """Close ``span`` now and pop it."""
        span[4] = time.perf_counter()
        self.leave(span)

    def wrap(self, fn, name: str, tags=None):
        """``fn`` recording one span per call; ``tags(args, kwargs,
        result)`` may attach attributes once the call returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(span)
                if tags is not None:
                    span[5] = tags(args, kwargs, result)
        return traced

    def export(self) -> dict:
        """Every finished span and the counters, as plain data."""
        return {"run_id": self.run_id, "proc": self.proc,
                "spans": [s for s in self.spans if s[4] is not None],
                "counters": dict(self.counters),
                "missing": list(self.missing)}

    def dump(self, path) -> None:
        """Write :meth:`export` as JSON (once, when the process ends)."""
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


class Installation:
    """The wrappers :func:`install` put in place, for :meth:`remove`."""

    def __init__(self, missing: list[str]):
        self._undo: list[tuple] = []
        self.missing = missing

    def function(self, module: str, attr: str, wrapped_of) -> None:
        """Replace ``module.attr`` everywhere a loaded ``repro`` module
        holds a reference to it (``from x import f`` copies included)."""
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}:{attr}")
            return
        wrapped = wrapped_of(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def method(self, cls, attr: str, wrapped_of) -> None:
        """Replace ``cls.attr`` when the class itself defines it."""
        original = vars(cls).get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}:{cls.__name__}.{attr}")
            return
        setattr(cls, attr, wrapped_of(original))
        self._undo.append((cls, attr, original))

    def remove(self) -> None:
        """Put every original back."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _first(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else (
        args[pos] if len(args) > pos else None)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer entry point of :data:`LAYERS` with ``tracer``."""
    # load every module that may hold a reference before patching
    import repro.core.schedule  # noqa: F401
    import repro.kernels  # noqa: F401
    import repro.offline  # noqa: F401
    import repro.online  # noqa: F401
    from repro.runner import registry
    from repro.runner.client import ServiceClient
    from repro.runner.instancestore import InstanceStore
    from repro.runner.jobcache import JobCache
    from repro.runner.leasequeue import LeaseQueue
    from repro.runner.service import GridService
    from repro.runner.sinks import ResultSink

    inst = Installation(tracer.missing)
    wrap = tracer.wrap

    def named(name, tags=None):
        return lambda fn: wrap(fn, name, tags)

    def key4(c):
        return "|".join(str(p) for p in tuple(c)[:4]) if c else ""

    inst.function("repro.runner.scenarios", "build_instance", named(
        "scenarios.build_instance",
        lambda a, k, r: {"inst": "|".join(str(x) for x in (
            _first(a, k, "name", 0), _first(a, k, "pipeline", 3)
            or "general", _first(a, k, "T", 1),
            _first(a, k, "seed", 2) or 0))}))
    inst.function("repro.runner.instancestore", "get_instance", named(
        "instancestore.get_instance",
        lambda a, k, r: {"inst": key4(_first(a, k, "coords", 0))}))
    inst.method(InstanceStore, "load", named("instancestore.load"))
    inst.method(InstanceStore, "materialize", named(
        "instancestore.materialize",
        lambda a, k, r: {"inst": key4(_first(a, k, "coords", 1))}))

    def sweep_tags(a, k, r):
        shape = getattr(_first(a, k, "costs", 0), "shape", (0, 0))
        return {"cells": int(shape[0]) * int(shape[-1])}
    inst.function("repro.kernels", "sweep_workfunction",
                  named("kernels.sweep_workfunction", sweep_tags))
    inst.function("repro.kernels", "cached_sweep",
                  named("kernels.cached_sweep"))

    classes = _online_classes(registry)

    def alg_of(algorithm):
        return classes.get(type(algorithm), getattr(algorithm, "name", "?"))
    inst.function("repro.online.base", "run_online", named(
        "online.run_online",
        lambda a, k, r: {"alg": alg_of(_first(a, k, "algorithm", 1))}))
    inst.function("repro.online.base", "run_online_many", named(
        "online.run_online_many",
        lambda a, k, r: {"algs": [alg_of(x) for x in
                                  _first(a, k, "algorithms", 1) or ()]}))
    for cls, name in classes.items():
        for attr in ("run_bounds", "run_table"):
            if attr in vars(cls):
                inst.method(cls, attr, named(
                    f"online.{attr}", lambda a, k, r, n=name: {"alg": n}))

    def make_of(original):
        def make(spec, *args, **kwargs):
            made = original(spec, *args, **kwargs)
            if spec.kind == "offline":
                return wrap(made, "offline.solve",
                            lambda a, k, r, n=spec.name: {"solver": n})
            return made
        return make
    inst.method(registry.AlgorithmSpec, "make", make_of)

    inst.function("repro.core.schedule", "cost", named("schedule.cost"))
    inst.function("repro.runner.engine", "run_grid", named("engine.run_grid"))

    def submit_of(fn):
        def submit_task(task_fn, arg, n_jobs):
            # the span runs from submission to the future's completion:
            # inline (n_jobs <= 1) that is the call itself, on the pool
            # it is the parent's view of queueing plus remote execution
            span = tracer.begin("executor.submit_task")
            try:
                future = fn(task_fn, arg, n_jobs)
            except BaseException:
                tracer.end(span)
                raise
            tracer.leave(span)

            def done(_f, span=span):
                span[4] = time.perf_counter()
            future.add_done_callback(done)
            return future
        return submit_task
    inst.function("repro.runner.executor", "submit_task", submit_of)
    inst.function("repro.runner.executor", "parallel_map",
                  named("executor.parallel_map"))

    inst.method(JobCache, "get", named(
        "jobcache.get", lambda a, k, r: {"hit": r is not None}))
    inst.method(JobCache, "put", named("jobcache.put"))
    for cls in _subclasses(ResultSink):
        if "write_many" in vars(cls):
            inst.method(cls, "write_many", named("sinks.write_many"))

    for attr in ("enqueue", "complete"):
        inst.method(LeaseQueue, attr, named(f"leasequeue.{attr}"))
    inst.method(LeaseQueue, "claim", named(
        "leasequeue.claim", lambda a, k, r: {"useful": r is not None}))
    for attr in ("grid_status", "merge_results", "work"):
        inst.function("repro.runner.leasequeue", attr,
                      named(f"leasequeue.{attr}"))

    def route(a, k, r):
        method, path = _first(a, k, "method", 1), _first(a, k, "path", 2)
        if path and path.startswith("/grids/"):
            path = "/grids/<id>"
        return {"route": f"{method} {path}"}
    inst.method(GridService, "handle", named("service.handle", route))
    inst.method(ServiceClient, "request", named("client.request"))
    return inst


def _online_classes(registry) -> dict:
    """Concrete online-algorithm class -> registry name, for the
    per-algorithm table (first registered name wins)."""
    out: dict = {}
    for name in ALGORITHMS:
        if name not in OFFLINE:
            out.setdefault(type(registry.get_spec(name).make()), name)
    return out


# ----------------------------------------------------------------------
# Aggregation: per-layer calls / busy / self seconds and the ratios.
# ----------------------------------------------------------------------


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix)."""
    return name.split(".", 1)[0]


def layer_metrics(dumps: list[dict]) -> dict:
    """Fold the span dumps of every process of one run into metrics.

    Per layer: ``calls`` (entries into the layer from outside it),
    ``busy_s`` (wall time with at least one of its calls open, summed
    over processes) and ``self_s`` (each span's duration minus the
    union of its children, summed).  Executor spans overlap (several
    futures in flight), so their ``self_s`` may exceed wall time.
    """
    out: dict = {}
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    per_alg = {name: 0.0 for name in ALGORITHMS}
    routes: dict = {}
    sweep_calls = sweep_hits = 0
    cells, table_cells = 0, 0
    gets = get_hits = claims = useful = 0
    builds = 0
    instances: set = set()
    entry_s = {name: 0.0 for name in ENTRY_SECONDS}
    for dump in dumps:
        spans = dump["spans"]
        by_id = {s[0]: s for s in spans}
        children: dict = {}
        for s in spans:
            children.setdefault(s[1], []).append(s)
        intervals: dict = {}
        for s in spans:
            sid, parent, name, t0, t1, tags = s
            tags = tags or {}
            layer = layer_of(name)
            kids = children.get(sid, [])
            covered = _union((max(k[3], t0), min(k[4], t1))
                             for k in kids if k[4] > t0 and k[3] < t1)
            if layer in self_s:
                self_s[layer] += (t1 - t0) - covered
                intervals.setdefault(layer, []).append((t0, t1))
                up = by_id.get(parent)
                if up is None or layer_of(up[2]) != layer:
                    calls[layer] += 1
            if name == "kernels.cached_sweep":
                sweep_calls += 1
                if not any(k[2] == "kernels.sweep_workfunction"
                           for k in kids):
                    sweep_hits += 1
            elif name == "kernels.sweep_workfunction":
                cells += tags.get("cells", 0)
                table_cells = max(table_cells, tags.get("cells", 0))
            elif name == "online.run_online":
                per_alg[tags.get("alg")] = (per_alg.get(tags.get("alg"), 0.0)
                                            + t1 - t0)
            elif name == "online.run_online_many":
                algs = list(tags.get("algs", ()))
                priced = 0
                for k in kids:
                    if k[2] in ("online.run_bounds", "online.run_table"):
                        alg = (k[5] or {}).get("alg")
                    elif k[2] == "schedule.cost" and priced < len(algs):
                        alg, priced = algs[priced], priced + 1
                    else:
                        continue
                    per_alg[alg] = per_alg.get(alg, 0.0) + k[4] - k[3]
            elif name == "offline.solve":
                solver = tags.get("solver")
                per_alg[solver] = per_alg.get(solver, 0.0) + t1 - t0
            elif name == "jobcache.get":
                gets += 1
                get_hits += bool(tags.get("hit"))
            elif name == "leasequeue.claim":
                claims += 1
                useful += bool(tags.get("useful"))
            elif name == "service.handle":
                r = tags.get("route", "?")
                routes[r] = routes.get(r, 0.0) + t1 - t0
            elif name == "scenarios.build_instance":
                builds += 1
            if "inst" in tags:
                instances.add(tags["inst"])
            if name in entry_s:
                entry_s[name] += t1 - t0
        for layer, ivs in intervals.items():
            busy[layer] += _union(ivs)
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.busy_s"] = (busy[layer], "s")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    instances.discard(None)
    out["instancestore.builds_per_instance"] = (
        builds / len(instances) if instances else 0.0, "ratio")
    out["kernels.memo_hit_ratio"] = (
        sweep_hits / sweep_calls if sweep_calls else 0.0, "ratio")
    out["kernels.cells"] = (cells, "cells-computed")
    out["kernels.table_mb"] = (table_cells * 8 / 2**20, "MB-computed")
    out["jobcache.hit_ratio"] = (get_hits / gets if gets else 0.0, "ratio")
    out["jobcache.busy_retries"] = (
        sum(d["counters"].get("busy_retries", 0) for d in dumps), "count")
    out["leasequeue.useful_claim_ratio"] = (
        useful / claims if claims else 0.0, "ratio")
    out["leasequeue.worker_idle_polls"] = (
        sum(d["counters"].get("idle_polls", 0) for d in dumps), "count")
    for name, seconds in entry_s.items():
        out[f"{name}_s"] = (seconds, "s")
    out["service.route.post_grids_s"] = (routes.get("POST /grids", 0.0), "s")
    out["service.route.get_grid_s"] = (
        routes.get("GET /grids/<id>", 0.0), "s")
    for name in ALGORITHMS:
        kind = "offline" if name in OFFLINE else "online"
        out[f"{kind}.{name}.s"] = (per_alg.get(name, 0.0), "s")
    return out

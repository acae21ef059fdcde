"""Child processes of the benchmark: the grid service, the lease-queue
worker and the instance-store materializer.

Each optionally records spans (``--trace-out``) with the same wrappers
as the benchmark process and writes them once, when it exits.  Run by
:mod:`common` as ``python perfbench/procs.py <role> ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from common import bootstrap
from spans import Tracer, install

#: how long the worker sleeps after a ``work()`` call that found nothing
IDLE_SLEEP = 0.005


def _serve(args, tracer) -> int:
    from repro import cli
    return cli.main(["serve", "--queue", args.queue, "--cache-dir",
                     args.cache_dir, "--port", "0"])


def _worker(args, tracer) -> int:
    """Call ``leasequeue.work`` again each time it returns, until the
    parent closes our stdin."""
    from repro.runner import EngineConfig, RunStats, leasequeue
    stop = threading.Event()

    def watch_stdin():
        sys.stdin.read()
        stop.set()
    threading.Thread(target=watch_stdin, daemon=True).start()
    config = EngineConfig(n_jobs=1, cache_dir=args.cache_dir)
    stats = RunStats()
    idle_polls = 0
    while not stop.is_set():
        before = stats.leases_claimed
        leasequeue.work(args.queue, worker="bench-worker", config=config,
                        stats=stats, poll=IDLE_SLEEP)
        if stats.leases_claimed == before:
            idle_polls += 1
            stop.wait(IDLE_SLEEP)
    if tracer is not None:
        tracer.counters["idle_polls"] = idle_polls
    return 0


def _materialize(args, tracer) -> int:
    from repro.runner import InstanceStore
    store = InstanceStore(args.store)
    for coords in json.loads(args.coords):
        store.materialize(tuple(coords))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="procs.py")
    parser.add_argument("role", choices=("serve", "worker", "materialize"))
    parser.add_argument("--queue")
    parser.add_argument("--cache-dir")
    parser.add_argument("--store")
    parser.add_argument("--coords")
    parser.add_argument("--trace-out")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)
    bootstrap()
    from repro.runner import jobcache
    tracer = None
    if args.trace_out:
        tracer = Tracer(args.run_id, args.role)
        install(tracer)
    busy_before = jobcache.busy_stats()["sqlite_busy_retries"]
    role = {"serve": _serve, "worker": _worker,
            "materialize": _materialize}[args.role]
    code = role(args, tracer)
    if tracer is not None:
        tracer.counters["busy_retries"] = (
            jobcache.busy_stats()["sqlite_busy_retries"] - busy_before)
        tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The repo benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload horizon --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  It generates the workload's inputs
from ``--seed``, runs them, checks every output row, prints a readable
report and, as its last line, one JSON object::

    {"correct": true, "attempted": n, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": u}, ...}}

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` reruns the same work with every layer's entry points
wrapped (see ``spans.py``) and prints the per-layer metrics, including
the tracing overhead.  ``--size tiny`` shrinks every workload for the
benchmark's own tests.  See ``perfbench/README.md`` for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import SourceMissing, bootstrap
from spans import MOVES


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("horizon", "fanout", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    t0 = time.perf_counter()
    try:
        bootstrap()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import repro.runner  # noqa: F401 - the import is part of set-up
    import_s = time.perf_counter() - t0

    from workloads import (WORKLOADS, Run, digest, end_to_end, outcome,
                           per_layer)
    with Run(args.workload, args.seed, args.seconds, bool(args.trace),
             args.size == "tiny") as run:
        WORKLOADS[args.workload](run)
        # child processes left their span dumps in the work directory,
        # which the context removes on exit
        layers = per_layer(run) if args.trace else None
    attempted, failed = outcome(run)
    correct = not run.problems and failed == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  trace {args.trace}  size {args.size}")
    print("  " + "  ".join(f"{k}={v}" for k, v in run.facts.items()))
    print(f"rows digest {digest(run)} over {len(run.rows)} grids")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} attempted: rows + HTTP requests)")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}")
    if args.trace:
        metrics = layers
        print("per-layer metrics (traced run)")
        for name, (value, unit) in metrics.items():
            moves = [f"{m} on {w}" for prefix, m, w in MOVES
                     if name.startswith(prefix)]
            note = f"  -> {', '.join(moves)}" if moves else ""
            print(f"  {name:40s} {_fmt(value):>12s} {unit}{note}")
    else:
        full = end_to_end(run, import_s)
        print("end-to-end metrics (untraced run)")
        for name, (value, unit, samples) in full.items():
            print(f"  {name:16s} {_fmt(value):>12s} {unit:4s} "
                  f"n={samples}")
        metrics = {name: (value, unit)
                   for name, (value, unit, _n) in full.items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

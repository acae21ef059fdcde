"""Shared plumbing: locating the source tree, child processes, memory
and the output checks every workload applies to its rows."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: every workload runs these seven registry entries on each instance
ALGORITHMS = ("lcp", "eager-lcp", "randomized", "threshold", "memoryless",
              "binary_search", "backward_lcp")

#: the offline solvers among them; both compute the exact optimum
OFFLINE = ("binary_search", "backward_lcp")

TOL = 1e-9


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def bootstrap() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and make sure
    ``repro`` resolves there (never to an installed copy elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SourceMissing(f"repro imported from {repro.__file__}, "
                            f"not from {SRC}")


def child_env(tmp: pathlib.Path) -> dict:
    """Environment for child processes: this source tree, temp files
    inside the benchmark's work directory, no inherited fault plans or
    kernel pins."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(args: list[str], tmp: pathlib.Path, **popen) -> subprocess.Popen:
    """Start ``perfbench/procs.py <args>`` as a child process."""
    return subprocess.Popen([sys.executable, str(HERE / "procs.py"), *args],
                            cwd=str(ROOT), env=child_env(tmp), **popen)


class ServiceProcess:
    """A ``repro serve`` child over one queue and job-cache directory."""

    def __init__(self, queue, cache, tmp, trace_out=None, run_id=""):
        args = ["serve", "--queue", str(queue), "--cache-dir", str(cache)]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out), "--run-id", run_id]
        self.proc = spawn(args, tmp, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"serving grids on (\S+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = match.group(1)

    def stop(self) -> None:
        """Drain shutdown through the API, then reap the process."""
        from repro.runner import RetryPolicy, ServiceClient
        from repro.runner import ServiceUnavailable
        try:
            try:
                ServiceClient(self.url, policy=RetryPolicy(
                    max_retries=0)).shutdown()
            except (ServiceUnavailable, http.client.HTTPException):
                # the drain may end the process before the handler
                # thread (a daemon) has written all of the reply; the
                # exit code below is what counts
                pass
            self.proc.communicate(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited {self.proc.returncode}")

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class WorkerProcess:
    """A lease-queue worker child; it stops when its stdin closes."""

    def __init__(self, queue, cache, tmp, trace_out=None, run_id=""):
        args = ["worker", "--queue", str(queue), "--cache-dir", str(cache)]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out), "--run-id", run_id]
        self.proc = spawn(args, tmp, stdin=subprocess.PIPE,
                          stdout=subprocess.DEVNULL)

    def stop(self) -> None:
        """Ask the worker to finish and reap it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant, in MiB
    (each process's high-water mark, summed)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += _vmhwm_kb(pid)
        todo.extend(children.get(pid, []))
    return total / 1024.0


def check_rows(rows, spec) -> list[str]:
    """The output checks; returns one message per violated check.

    Every row must belong to its job and succeed, cost at least the
    optimum, the exact offline solvers must hit the optimum, and each
    deterministic online algorithm must respect the competitive bound
    its registry entry declares.
    """
    from repro.runner.registry import get_spec
    jobs = spec.jobs()
    problems = []
    if len(rows) != len(jobs):
        problems.append(f"{len(rows)} rows for a {len(jobs)}-job grid")
    for job, row in zip(jobs, rows):
        alg = job[1]
        where = f"{job[0]}/{alg}/seed {job[4]}"
        if row.get("status") == "failed":
            problems.append(f"{where}: quarantined ({row.get('error')})")
            continue
        if (row.get("algorithm"), row.get("seed"), row.get("T")) != (
                alg, job[4], job[2]):
            problems.append(f"{where}: row belongs to another job")
            continue
        cost, opt, ratio = row["cost"], row["opt"], row["ratio"]
        if not cost >= opt * (1 - TOL):
            problems.append(f"{where}: cost {cost!r} below opt {opt!r}")
        if alg in OFFLINE and not abs(ratio - 1.0) <= TOL:
            problems.append(f"{where}: exact solver ratio {ratio!r}")
        entry = get_spec(alg)
        if (entry.kind == "online" and entry.competitive is not None
                and not entry.supports_seed
                and not ratio <= entry.competitive * (1 + TOL)):
            problems.append(f"{where}: ratio {ratio!r} breaks the "
                            f"{entry.competitive}-competitive bound")
    return problems


def rows_digest(all_rows) -> str:
    """Stable digest of every row a run produced, in order."""
    h = hashlib.sha256()
    for rows in all_rows:
        h.update(json.dumps(rows, sort_keys=True).encode())
    return h.hexdigest()[:16]

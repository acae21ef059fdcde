"""Tests of the benchmark itself (not collected by the repo's tier-1
run; the file name keeps pytest's default discovery away)::

    python -m pytest perfbench/selftest.py -q

Every workload runs at ``--size tiny`` in a subprocess, exactly as the
benchmark is invoked for real.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import ALGORITHMS, bootstrap, check_rows  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


_CACHE: dict = {}


def run(workload, seed, trace):
    """``(stdout lines, final JSON)`` of one tiny run (memoized)."""
    key = (workload, seed, trace)
    if key not in _CACHE:
        out = _run(workload, seed, trace)
        assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
        lines = out.stdout.strip().splitlines()
        _CACHE[key] = (lines, json.loads(lines[-1]))
    return _CACHE[key]


def digest(lines) -> str:
    return next(line.split()[2] for line in lines
                if line.startswith("rows digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    lines, result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        for m in declared:  # the report gives each one a sample count
            assert any(line.split()[:1] == [m["name"]] and " n=" in line
                       for line in lines), m["name"]
        assert all(result["metrics"][m["name"]]["value"] != 0
                   for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_instances_not_metric_names(workload):
    lines1, result1 = run(workload, 1, 0)
    lines2, result2 = run(workload, 2, 0)
    traced_lines, _ = run(workload, 1, 1)
    assert digest(lines1) != digest(lines2)
    assert digest(lines1) == digest(traced_lines)
    assert list(result1["metrics"]) == list(result2["metrics"])


def test_tampered_rows_fail_the_checks():
    bootstrap()
    from repro.runner import EngineConfig, GridSpec, run_grid
    spec = GridSpec(("diurnal",), ALGORITHMS, seeds=(5,), sizes=(60,))
    rows = run_grid(spec, EngineConfig(n_jobs=1))
    assert check_rows(rows, spec) == []

    def tampered(alg, **changes):
        out = [dict(r) for r in rows]
        i = next(i for i, r in enumerate(out) if r["algorithm"] == alg)
        out[i].update(changes)
        return check_rows(out, spec)

    opt = rows[0]["opt"]
    assert any("below opt" in p for p in
               tampered("lcp", cost=opt * 0.5, ratio=0.5))
    assert any("exact solver" in p for p in
               tampered("binary_search", cost=opt * 1.01, ratio=1.01))
    assert any("competitive bound" in p for p in
               tampered("threshold", cost=opt * 2.5, ratio=2.5))
    assert any("quarantined" in p for p in
               tampered("memoryless", status="failed"))
    assert check_rows(rows[:-1], spec)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("serve", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

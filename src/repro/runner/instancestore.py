"""Shared materialized-instance store and the per-process instance memo.

Building a scenario instance means tabulating its ``(T, m+1)`` cost
matrix (for the trace families one whole-table broadcast,
:func:`repro.core.costs.tabulate_energy_delay`).  The store
materializes each distinct ``(scenario, pipeline, T, inst_seed)``
instance exactly once and persists its dense payload as
content-addressed ``.npy`` files:

* ``general`` — the ``F`` cost matrix (+ ``beta``);
* ``restricted`` — the load trace and the masked feasible-cost table of
  :func:`repro.offline.restricted.restricted_cost_matrix` (+ ``m``,
  ``beta``);
* ``hetero`` — the ``(T, m1+1, m2+1)`` cost tensor (+ both betas).

The engine's worker task materializes an instance before solving it;
the solve, the instance's jobs and every later grid sharing the store
then reopen the payload with ``np.load(..., mmap_mode="r")``, so every
process of the persistent pool shares read-only pages instead of
re-tabulating — rebuild cost is paid once per store, not once per job
or per run.

Independently of any store, :func:`get_instance` keeps a small
per-process memo (8 instances by default) and counts actual scenario
builds in a per-process stats dict — the ``inst_builds`` counter
:func:`repro.runner.run_grid` sums over its tasks.  One engine task
handles an instance's solve and jobs back to back, so the memo only
has to hold the instance in hand: builds stay exactly once per
instance per run, with or without a store.

Payloads reconstruct bit-identically (``np.save`` round-trips float64
exactly), so rows computed through the store match the rebuild path and
``n_jobs=1`` vs ``n_jobs=N`` stays bit-identical.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import pathlib
import shutil

import numpy as np

from . import faults
from .jobcache import content_key

__all__ = [
    "InstanceStore",
    "StoredRestrictedInstance",
    "get_instance",
    "build_stats",
    "clear_memo",
    "set_memo_size",
    "split_coords",
    "store_key",
]

#: bump when the payload layout changes, to invalidate stale stores
STORE_VERSION = 2

#: default number of instances the per-process memo keeps alive
_DEFAULT_MEMO_SIZE = 8

#: default bound on the memo's *resident* bytes (mmap-backed payloads
#: count as zero — their pages are file-backed and OS-evictable); keeps
#: persistent pool workers from pinning hundreds of MB of built
#: instances after a large-T grid finishes
_DEFAULT_MEMO_BYTES = 128 * 1024 * 1024


def split_coords(coords: tuple) -> tuple:
    """Normalize instance coordinates to their five components.

    Coordinates are ``(scenario, pipeline, T, inst_seed[, params])``
    where ``params`` is the canonical-JSON string of the job's scenario
    parameters; the historical four-field form means no parameters.
    """
    scenario, pipeline, T, inst_seed, *rest = coords
    params = rest[0] if rest else "{}"
    return scenario, pipeline, int(T), int(inst_seed), params


def store_key(coords: tuple) -> str:
    """Content-addressed key of one instance payload."""
    scenario, pipeline, T, inst_seed, params = split_coords(coords)
    return content_key({"kind": "instance-payload",
                        "store_version": STORE_VERSION,
                        "scenario": scenario, "pipeline": pipeline,
                        "T": T, "inst_seed": inst_seed, "params": params})


@dataclasses.dataclass(frozen=True)
class StoredRestrictedInstance:
    """Restricted-model view reconstructed from the store.

    The precomputed masked cost table stands in for the per-server cost
    callable (which cannot be serialized);
    :func:`~repro.offline.restricted.solve_restricted` consumes the
    ``costs`` matrix directly.
    """

    beta: float
    m: int
    loads: np.ndarray
    costs: np.ndarray

    @property
    def T(self) -> int:
        """Horizon length (number of time steps)."""
        return self.loads.shape[0]


def _instance_payload(inst, pipeline: str) -> tuple[dict, dict] | None:
    """Split a built instance into ``(arrays, meta)`` for persistence,
    or ``None`` when the instance has no dense payload (adaptive games
    are replayed live, not materialized)."""
    if pipeline == "general":
        return {"F": inst.F}, {"beta": float(inst.beta)}
    if pipeline == "restricted":
        from ..offline.restricted import restricted_cost_matrix
        return ({"loads": inst.loads, "costs": restricted_cost_matrix(inst)},
                {"beta": float(inst.beta), "m": int(inst.m)})
    if pipeline == "hetero":
        return {"F": inst.F}, {"beta1": float(inst.beta1),
                               "beta2": float(inst.beta2)}
    if pipeline == "game":
        return inst.store_payload()
    raise ValueError(f"unknown pipeline {pipeline!r}")


def _instance_from_payload(pipeline: str, arrays: dict, meta: dict):
    """Rebuild the solver-facing instance object from a stored payload."""
    if pipeline == "general":
        from ..core.instance import Instance
        return Instance.from_matrix(arrays["F"], beta=meta["beta"])
    if pipeline == "restricted":
        return StoredRestrictedInstance(beta=meta["beta"], m=meta["m"],
                                        loads=arrays["loads"],
                                        costs=arrays["costs"])
    if pipeline == "game":
        from ..simulator.bridge import SimulatorGame
        return SimulatorGame.from_payload(arrays, meta)
    from ..extensions import HeterogeneousInstance
    return HeterogeneousInstance(beta1=meta["beta1"], beta2=meta["beta2"],
                                 F=arrays["F"])


class InstanceStore:
    """Content-addressed directory of materialized instance payloads.

    Layout: ``root/<key[:2]>/<key>/meta.json`` plus one ``<name>.npy``
    per payload array.  Writes go through a per-process temp directory
    and an atomic rename, so concurrent materializers of the same
    instance are safe — last writer wins with identical content.  A
    payload that fails to load is treated as missing (callers fall back
    to building the instance).
    """

    def __init__(self, root):
        """Anchor the store at directory ``root`` (created lazily)."""
        self.root = pathlib.Path(root)

    def dir(self, coords: tuple) -> pathlib.Path:
        """Directory of one instance's payload (whether or not present)."""
        key = store_key(coords)
        return self.root / key[:2] / key

    def has(self, coords: tuple) -> bool:
        """Whether a payload for ``coords`` is materialized."""
        return (self.dir(coords) / "meta.json").exists()

    def put(self, coords: tuple, inst) -> bool:
        """Materialize a built instance's payload (atomic rename).
        Returns ``False`` when the instance has no dense payload."""
        scenario, pipeline, T, inst_seed, params = split_coords(coords)
        payload = _instance_payload(inst, pipeline)
        if payload is None:
            return False
        arrays, meta = payload
        target = self.dir(coords)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        for name, arr in arrays.items():
            np.save(tmp / f"{name}.npy", np.asarray(arr))
        (tmp / "meta.json").write_text(json.dumps({
            "store_version": STORE_VERSION, "scenario": scenario,
            "pipeline": pipeline, "T": int(T), "inst_seed": int(inst_seed),
            "params": params, "arrays": sorted(arrays), "meta": meta},
            sort_keys=True))
        try:
            os.replace(tmp, target)
        except OSError:
            # concurrent materializer won the rename race; keep theirs
            shutil.rmtree(tmp, ignore_errors=True)
        return True

    def load(self, coords: tuple, *, mmap: bool = True):
        """Reconstruct the instance of ``coords``; ``None`` on miss or
        unreadable payload.  ``mmap=True`` opens arrays read-only via
        ``np.load(..., mmap_mode="r")`` so processes share pages."""
        target = self.dir(coords)
        try:
            info = json.loads((target / "meta.json").read_text())
            if (info.get("store_version") != STORE_VERSION
                    or info.get("pipeline") != coords[1]):
                return None
            arrays = {name: np.load(target / f"{name}.npy",
                                    mmap_mode="r" if mmap else None)
                      for name in info["arrays"]}
            return _instance_from_payload(coords[1], arrays, info["meta"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def materialize(self, coords: tuple) -> bool:
        """Build and persist ``coords`` unless present.
        Returns whether a payload was newly written (``False`` also for
        payload-free instances, e.g. adaptive games)."""
        if self.has(coords):
            return False
        faults.fire("materialize", "|".join(str(c) for c in coords))
        _STATS["inst_builds"] += 1
        return self.put(coords, _build_coords(coords))

    def stats(self) -> dict:
        """``{"entries", "bytes"}`` of the materialized payloads."""
        entries, size = 0, 0
        if self.root.is_dir():
            for meta in self.root.glob("*/*/meta.json"):
                entries += 1
                size += sum(p.stat().st_size
                            for p in meta.parent.iterdir())
        return {"entries": entries, "bytes": size}


def _build_coords(coords: tuple):
    """Build the scenario instance of normalized ``coords`` live."""
    import json as _json

    from .scenarios import build_instance
    scenario, pipeline, T, inst_seed, params = split_coords(coords)
    return build_instance(scenario, T, inst_seed, pipeline=pipeline,
                          params=_json.loads(params) if params else None)


# ----------------------------------------------------------------------
# Per-process memo: each process builds/loads any instance at most once.
# ----------------------------------------------------------------------

_MEMO: collections.OrderedDict = collections.OrderedDict()
_MEMO_SIZE = _DEFAULT_MEMO_SIZE
_MEMO_BYTES = _DEFAULT_MEMO_BYTES
_STATS = {"inst_builds": 0, "inst_loads": 0, "inst_memo_hits": 0}


def _resident_nbytes(inst) -> int:
    """Heap bytes an instance pins while memoized.  Arrays backed by a
    store mmap cost nothing: their pages are file-backed and the OS
    evicts them under pressure."""
    total = 0
    for name in ("F", "loads", "costs", "work"):
        arr = getattr(inst, name, None)
        if isinstance(arr, np.ndarray) and not (
                isinstance(arr, np.memmap)
                or isinstance(arr.base, np.memmap)):
            total += arr.nbytes
    return total


def _evict_memo() -> None:
    while len(_MEMO) > max(_MEMO_SIZE, 0) or (
            sum(b for _, b in _MEMO.values()) > _MEMO_BYTES
            and len(_MEMO) > 1):
        _MEMO.popitem(last=False)


def get_instance(coords: tuple, store_root=None):
    """The instance of ``coords``, memoized per process.

    Resolution order: process memo, then the instance store under
    ``store_root`` (mmap load), then a scenario build (counted in
    :func:`build_stats` as ``inst_builds``).  The memo is bounded both
    by entry count and by resident bytes, so persistent pool workers
    don't pin large built instances after a grid finishes.
    """
    memo_key = (coords, None if store_root is None else str(store_root))
    hit = _MEMO.get(memo_key)
    if hit is not None:
        _MEMO.move_to_end(memo_key)
        _STATS["inst_memo_hits"] += 1
        return hit[0]
    inst = None
    if store_root is not None:
        inst = InstanceStore(store_root).load(coords)
        if inst is not None:
            _STATS["inst_loads"] += 1
    if inst is None:
        inst = _build_coords(coords)
        _STATS["inst_builds"] += 1
    if _MEMO_SIZE > 0:
        _MEMO[memo_key] = (inst, _resident_nbytes(inst))
        _evict_memo()
    return inst


def build_stats() -> dict:
    """This process's counters: ``inst_builds`` (scenario builds),
    ``inst_loads`` (store mmap loads), ``inst_memo_hits``."""
    return dict(_STATS)


def clear_memo() -> None:
    """Drop the per-process memo (tests and benchmarks)."""
    _MEMO.clear()


def set_memo_size(size: int) -> int:
    """Resize the per-process memo; ``0`` disables it (the pre-store
    rebuild-per-call behavior benchmarks compare against).  Returns the
    previous size."""
    global _MEMO_SIZE
    previous, _MEMO_SIZE = _MEMO_SIZE, int(size)
    if _MEMO_SIZE <= 0:
        _MEMO.clear()
    else:
        _evict_memo()
    return previous

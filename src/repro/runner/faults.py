"""Deterministic fault injection for the execution engine.

The fault-tolerance layer (retry/quarantine in the engine, pool
respawn in the executor, first-wins merging in the lease queue) is only
trustworthy if its failure paths are *exercised deterministically*.
This module is the chaos harness: a :class:`FaultPlan` names faults by
``(site, match, nth)`` and the instrumented sites call :func:`fire`
with a descriptive token; when a spec matches, the site raises (or the
worker process dies) exactly where a real failure would.

Sites (each fired with a token the ``match`` substring selects on):

===============  ====================================================
``run_job``       one algorithm job attempt (token: job coords)
``solve_instance``one optimum solve attempt (token: coords)
``materialize``   one instance store write (token: coords)
``cache_put``     one job/optimum cache write (token: cache key)
``sink_write``    one sink batch flush (token: sink class name)
``worker_exit``   one engine worker task *start* (token: its first
                  job's coords), worker processes only — the process
                  SIGKILLs itself (pool-crash injection)
``sqlite_lock``   one SQLite cache-backend insert (token: cache key)
``queue_claim``   one lease-queue claim attempt (token: worker id)
``http_request``  one ServiceClient HTTP request (token: METHOD path)
===============  ====================================================

Determinism: each process counts matching invocations per
``(site, match)`` key, so ``nth=(1,)`` fails the first matching attempt
in a process and lets the in-process retry succeed — the canonical
*transient* fault — while ``nth=None`` fails every attempt (a *poison*
job).  Faults that must fire once **globally** (a worker crash would
otherwise recur on the resubmitted task) set ``once=True`` with a
``state_dir``: the first process to atomically create the marker file
wins.

Activation: :func:`activate` installs a plan in-process (what
``EngineConfig.fault_plan`` does), and the ``REPRO_FAULTS`` environment
variable carries the JSON form — re-read lazily per process, so pool
workers forked *after* the variable is set inherit the plan with no
extra plumbing (``run_grid`` tears the pool down around a faulted run
for exactly this reason).

With no active plan :func:`fire` is a near-free no-op; production runs
pay one ``None`` check per site.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sqlite3

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "activate",
    "as_plan",
    "counters",
    "deactivate",
    "fire",
    "mark_worker",
    "reset",
]

#: environment variable carrying a plan's JSON form to forked workers
ENV_VAR = "REPRO_FAULTS"

#: the instrumented sites a spec may target
FAULT_SITES = ("run_job", "solve_instance", "materialize", "cache_put",
               "sink_write", "worker_exit", "sqlite_lock",
               "queue_claim", "http_request")

#: what a triggered spec does: raise InjectedFault, raise a SQLite
#: lock error, or SIGKILL the worker process
FAULT_KINDS = ("error", "lock", "exit")


class InjectedFault(RuntimeError):
    """The error an ``error``-kind fault raises at its site."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One named fault: fire at ``site`` when ``match`` is a substring
    of the site's token, on the ``nth`` matching invocation(s) of this
    process (1-based; ``None`` = every invocation, i.e. poison)."""

    site: str
    match: str = ""
    nth: tuple[int, ...] | None = (1,)
    kind: str = "error"
    once: bool = False

    def __post_init__(self):
        """Validate site/kind and canonicalize ``nth`` to a tuple."""
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.nth is not None:
            object.__setattr__(self, "nth",
                               tuple(int(n) for n in self.nth))

    def to_dict(self) -> dict:
        """JSON-serializable form (:meth:`FaultPlan.to_json`)."""
        return {"site": self.site, "match": self.match,
                "nth": None if self.nth is None else list(self.nth),
                "kind": self.kind, "once": self.once}

    @classmethod
    def from_dict(cls, d: dict) -> FaultSpec:
        """Rebuild a spec from :meth:`to_dict` output."""
        nth = d.get("nth", (1,))
        return cls(site=d["site"], match=d.get("match", ""),
                   nth=None if nth is None else tuple(nth),
                   kind=d.get("kind", "error"),
                   once=bool(d.get("once", False)))


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` plus the shared
    ``state_dir`` that ``once=True`` specs coordinate through."""

    specs: tuple[FaultSpec, ...] = ()
    state_dir: str | None = None

    def __post_init__(self):
        """Coerce ``specs`` entries (dicts allowed) into FaultSpecs."""
        object.__setattr__(self, "specs", tuple(
            s if isinstance(s, FaultSpec) else FaultSpec.from_dict(s)
            for s in self.specs))

    def to_json(self) -> str:
        """The JSON form carried by the ``REPRO_FAULTS`` variable."""
        return json.dumps({"specs": [s.to_dict() for s in self.specs],
                           "state_dir": self.state_dir},
                          sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> FaultPlan:
        """Parse :meth:`to_json` output (also accepts a bare list of
        spec dicts, the hand-written CI form)."""
        data = json.loads(blob)
        if isinstance(data, list):
            data = {"specs": data}
        return cls(specs=tuple(FaultSpec.from_dict(d)
                               for d in data.get("specs", ())),
                   state_dir=data.get("state_dir"))


def as_plan(value) -> FaultPlan:
    """Coerce ``EngineConfig.fault_plan`` values — a ready
    :class:`FaultPlan`, a JSON string, a dict, or a list of spec
    dicts — into a :class:`FaultPlan`."""
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, str):
        return FaultPlan.from_json(value)
    if isinstance(value, dict):
        return FaultPlan(specs=tuple(value.get("specs", ())),
                         state_dir=value.get("state_dir"))
    return FaultPlan(specs=tuple(value))


# ----------------------------------------------------------------------
# Per-process state.
# ----------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_RAW: str | None = None
_ENV_PLAN: FaultPlan | None = None
_COUNTS: dict[tuple[str, str], int] = {}
_ONCE_LOCAL: set[tuple[str, int]] = set()
_IS_WORKER = False


def mark_worker() -> None:
    """Flag this process as a pool worker (pool initializer calls
    this).  Only marked processes honor ``exit``-kind faults — the
    parent and the inline ``n_jobs=1`` path must never SIGKILL
    themselves."""
    global _IS_WORKER
    _IS_WORKER = True


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` in this process (wins over ``REPRO_FAULTS``)."""
    global _ACTIVE
    _ACTIVE = plan


def deactivate() -> None:
    """Remove the in-process plan (``REPRO_FAULTS`` still applies)."""
    global _ACTIVE
    _ACTIVE = None


def reset() -> None:
    """Clear invocation counters and cached env state (test isolation)."""
    global _ENV_RAW, _ENV_PLAN
    _COUNTS.clear()
    _ONCE_LOCAL.clear()
    _ENV_RAW = None
    _ENV_PLAN = None


def counters() -> dict:
    """Copy of this process's ``(site, match) -> invocations`` counts."""
    return dict(_COUNTS)


def _plan_from_env() -> FaultPlan | None:
    """The plan carried by ``REPRO_FAULTS``, parsed lazily and cached
    by raw value — forked workers inherit the variable and build their
    own counters."""
    global _ENV_RAW, _ENV_PLAN
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if raw != _ENV_RAW:
        _ENV_RAW = raw
        _ENV_PLAN = FaultPlan.from_json(raw)
    return _ENV_PLAN


def active_plan() -> FaultPlan | None:
    """The plan :func:`fire` consults (explicit beats environment)."""
    return _ACTIVE if _ACTIVE is not None else _plan_from_env()


def _claim_once(plan: FaultPlan, index: int, site: str) -> bool:
    """Atomically claim a fire-once-globally fault.  With a
    ``state_dir`` the first process to create the marker file wins;
    without one the claim is per-process."""
    if plan.state_dir is None:
        key = (site, index)
        if key in _ONCE_LOCAL:
            return False
        _ONCE_LOCAL.add(key)
        return True
    os.makedirs(plan.state_dir, exist_ok=True)
    marker = os.path.join(plan.state_dir, f"fired-{index}-{site}")
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _trigger(spec: FaultSpec, site: str, token: str) -> None:
    """Carry out one matched fault."""
    if spec.kind == "lock":
        raise sqlite3.OperationalError(
            f"database is locked (injected at {site}: {token})")
    if spec.kind == "exit":
        if _IS_WORKER:
            os.kill(os.getpid(), signal.SIGKILL)
        return  # never kill the parent / the inline path
    raise InjectedFault(f"injected fault at {site}: {token}")


def fire(site: str, token: str = "") -> None:
    """Instrumentation hook: called by each fault site with a
    descriptive ``token``.  No-op without an active plan; otherwise
    counts the invocation per matching ``(site, match)`` key and
    triggers any spec whose ``nth`` (and ``once`` claim) is met."""
    plan = _ACTIVE if _ACTIVE is not None else _plan_from_env()
    if plan is None:
        return
    bumped: set[tuple[str, str]] = set()
    for index, spec in enumerate(plan.specs):
        if spec.site != site or spec.match not in token:
            continue
        key = (site, spec.match)
        if key not in bumped:
            _COUNTS[key] = _COUNTS.get(key, 0) + 1
            bumped.add(key)
        if spec.nth is not None and _COUNTS[key] not in spec.nth:
            continue
        if spec.once and not _claim_once(plan, index, site):
            continue
        _trigger(spec, site, token)

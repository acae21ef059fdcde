"""Named scenario catalog.

One place for every workload the experiments run on: the five synthetic
trace families of the evaluation (formerly duplicated as
``benchmarks/conftest.py:trace_suite``), deterministic stress patterns,
random convex instances, the adversarial hinge trace of the Theorem-4
game, a restricted-model (eq. (2)) encoding and a heterogeneous-cost mix.

Each :class:`Scenario` builds an :class:`~repro.core.instance.Instance`
from ``(T, seed)`` with deterministic per-scenario seeding, so a grid job
is fully reproducible from its ``(scenario, T, seed)`` coordinates alone
— the property the batch engine's process pool and result cache rely on.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Callable

import numpy as np

__all__ = [
    "Scenario",
    "scenario_names",
    "get_scenario",
    "build_instance",
    "trace_suite",
    "adversarial_hinge_instance",
    "TRACE_FAMILIES",
]

#: defaults matching the historical trace_suite construction
_PEAK = 24.0
_BETA = 4.0
_DELAY_WEIGHT = 10.0

#: the five families of the online-algorithm experiments (E4/E5/E10...)
TRACE_FAMILIES = ("diurnal", "msr-like", "hotmail-like", "bursty", "onoff")


def _scenario_rng(name: str, seed: int) -> np.random.Generator:
    """Independent, process-stable generator per (scenario, seed)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named instance builder: ``build(T, rng, **params) -> Instance``.

    ``build`` is the general-model builder; scenarios may additionally
    (or instead) carry builders for the engine's other pipelines —
    ``build_restricted`` returning a
    :class:`~repro.core.instance.RestrictedInstance`, ``build_hetero``
    returning a :class:`~repro.extensions.HeterogeneousInstance`, and
    ``build_game`` returning a game-pipeline instance (a
    :class:`~repro.lower_bounds.games.LowerBoundGame` or
    :class:`~repro.simulator.bridge.SimulatorGame`).  All builders of
    one scenario share the ``(scenario, seed)`` generator, so e.g. the
    restricted view and its general-model encoding are built from
    identical loads and their optima agree.

    ``params`` are the optional keyword knobs of a grid's ``params``
    axis (e.g. the adversary slope ``eps``, the case study's ``beta``);
    builders declare them with defaults so the scenario also builds with
    no parameters.  ``storable=False`` marks scenarios whose instances
    have no dense payload (adaptive games) so the engine never writes
    them to an instance store.
    """

    name: str
    build: Callable | None
    tags: tuple[str, ...]
    summary: str = ""
    build_restricted: Callable | None = None
    build_hetero: Callable | None = None
    build_game: Callable | None = None
    storable: bool = True

    @property
    def pipelines(self) -> tuple[str, ...]:
        """Engine pipelines this scenario can build instances for."""
        out = []
        if self.build is not None:
            out.append("general")
        if self.build_restricted is not None:
            out.append("restricted")
        if self.build_hetero is not None:
            out.append("hetero")
        if self.build_game is not None:
            out.append("game")
        return tuple(out)

    def instance(self, T: int, seed: int = 0, pipeline: str = "general",
                 params: dict | None = None):
        """Build the scenario's instance for a horizon, seed and
        optional parameter dict."""
        builder = {"general": self.build,
                   "restricted": self.build_restricted,
                   "hetero": self.build_hetero,
                   "game": self.build_game}.get(pipeline)
        if builder is None:
            raise ValueError(
                f"scenario {self.name!r} has no {pipeline!r} builder; it "
                f"supports {self.pipelines}")
        rng = _scenario_rng(self.name, seed)
        try:
            return builder(T, rng, **(params or {}))
        except TypeError as exc:
            raise ValueError(
                f"scenario {self.name!r} rejected params {params!r}: "
                f"{exc}") from None


def _from_loads(loads, *, beta: float = _BETA,
                delay_weight: float = _DELAY_WEIGHT):
    from ..workloads import capacity_for, instance_from_loads
    return instance_from_loads(loads, m=capacity_for(loads), beta=beta,
                               delay_weight=delay_weight)


def _build_diurnal(T, rng):
    from ..workloads import diurnal_loads
    return _from_loads(diurnal_loads(T, peak=_PEAK, rng=rng))


def _build_msr(T, rng):
    from ..workloads import msr_like_loads
    return _from_loads(msr_like_loads(T, peak=_PEAK, rng=rng))


def _build_hotmail(T, rng):
    from ..workloads import hotmail_like_loads
    return _from_loads(hotmail_like_loads(T, peak=_PEAK, rng=rng))


def _build_bursty(T, rng):
    from ..workloads import bursty_loads
    return _from_loads(bursty_loads(T, peak=_PEAK, rng=rng))


def _build_onoff(T, rng):
    from ..workloads import onoff_loads
    return _from_loads(onoff_loads(T, peak=_PEAK, rng=rng))


def _build_sawtooth(T, rng):
    from ..workloads import sawtooth_loads
    return _from_loads(sawtooth_loads(T, peak=_PEAK))


def _build_regime(T, rng):
    from ..workloads import regime_switching_loads
    return _from_loads(regime_switching_loads(T, peak=_PEAK, rng=rng))


def _build_random_convex(T, rng):
    from ..workloads import random_convex_instance
    beta = float(rng.uniform(0.5, 6.0))
    return random_convex_instance(rng, T, m=20, beta=beta)


def adversarial_hinge_instance(T: int, eps: float = 0.05):
    """The trace the Theorem-4 adversary produces against LCP, replayed
    non-adaptively: blocks of ~2/eps identical hinges, flipping right
    after LCP's laziness threshold (k*eps >= beta) so LCP pays waiting
    cost ~beta, then switching beta, every block."""
    from ..core.instance import Instance
    block = int(np.ceil(2.0 / eps)) + 1
    up_phase = (np.arange(T) // block) % 2 == 0
    rows = np.where(up_phase[:, None], [eps, 0.0], [0.0, eps])
    return Instance(beta=2.0, F=rows)


def _build_adversarial_hinge(T, rng):
    return adversarial_hinge_instance(T)


def _build_restricted_diurnal_ri(T, rng):
    """Restricted model (eq. (2)) on a diurnal trace, as the structural
    :class:`RestrictedInstance` the masked DP consumes."""
    from ..workloads import (capacity_for, diurnal_loads,
                             restricted_from_loads)
    loads = diurnal_loads(T, peak=_PEAK, rng=rng)
    return restricted_from_loads(loads, m=capacity_for(loads), beta=_BETA)


def _build_restricted_diurnal(T, rng):
    """Restricted model (eq. (2)) on a diurnal trace, encoded as a
    general instance via the perspective cost."""
    return _build_restricted_diurnal_ri(T, rng).to_general()


def _build_hetero_mix(T, rng):
    """Heterogeneous cost structure: per-step costs drawn from three
    convex families (queueing delay, quadratic bowl, SLA hinge) along one
    diurnal load trajectory — stresses algorithms whose analysis leans on
    the cost family staying fixed."""
    from ..core.costs import (AffineEnergyCost, QuadraticCost,
                              QueueingDelayCost, SLAHingeCost, SumCost)
    from ..core.instance import Instance
    from ..workloads import capacity_for, diurnal_loads
    loads = diurnal_loads(T, peak=_PEAK, rng=rng)
    m = capacity_for(loads)
    fs = []
    for t, lam in enumerate(loads):
        lam = float(lam)
        kind = t % 3
        if kind == 0:
            body = QueueingDelayCost(lam, weight=_DELAY_WEIGHT)
        elif kind == 1:
            body = QuadraticCost(0.5, lam)
        else:
            body = SLAHingeCost(lam, 8.0)
        fs.append(SumCost(AffineEnergyCost(1.0), body))
    return Instance.from_functions(fs, m, _BETA)


def _build_hetero_fleet(T, rng):
    """Two-type fleet (fast/hungry vs slow/frugal) on a diurnal trace —
    the instance family of the E14 extension benchmark."""
    from ..extensions import hetero_instance_from_loads
    from ..workloads import diurnal_loads
    loads = diurnal_loads(T, peak=8.0, base_frac=0.2, noise=0.05, rng=rng)
    return hetero_instance_from_loads(loads, m1=10, m2=12, beta1=4.0,
                                      beta2=1.0)


# ----------------------------------------------------------------------
# Game-pipeline scenarios: Section 5 lower-bound games and E13
# simulator rollouts as engine instances.
# ----------------------------------------------------------------------

def _lb_builder(kind):
    def build(T, rng, eps=0.1):
        from ..lower_bounds.games import LowerBoundGame
        return LowerBoundGame(kind=kind, eps=float(eps), max_steps=T)
    build.__name__ = f"_build_lb_{kind}"
    return build


_build_lb_deterministic = _lb_builder("deterministic")
_build_lb_continuous = _lb_builder("continuous")
_build_lb_restricted = _lb_builder("restricted")


def _build_sim_diurnal(T, rng, peak=12.0, m=18, beta=6.0):
    """E13 rollout: a Poisson job trace on a diurnal rate curve plus the
    bridged cost matrix the optimizer and policies run on."""
    from ..simulator import SimulatorGame, bridge_instance, poisson_job_trace
    from ..workloads import diurnal_loads
    trace = poisson_job_trace(diurnal_loads(T, peak=peak, rng=rng), rng=rng)
    inst = bridge_instance(trace, int(m), beta=float(beta))
    return SimulatorGame(work=trace.work, F=inst.F, m=int(m),
                         beta=float(beta))


# ----------------------------------------------------------------------
# Case-study scenarios (E11): Lin et al.-style traces with the
# switching cost exposed as a grid parameter.
# ----------------------------------------------------------------------

#: case-study scenario name -> its workloads generator name
_CASE_GENERATORS = {"case-msr": "msr_like_loads",
                    "case-hotmail": "hotmail_like_loads"}
_CASE_PEAK = 30.0


def case_study_loads(name: str, T: int, rng) -> "np.ndarray":
    """The load trace a case-study scenario derives its instance from.

    ``rng`` may be a seed or a generator; the E11 benchmark reuses this
    (with the scenario's ``(name, seed)`` generator) to report the PMR
    of exactly the trace the grid jobs ran on.
    """
    import repro.workloads as workloads
    if not hasattr(rng, "uniform"):
        rng = _scenario_rng(name, int(rng))
    return getattr(workloads, _CASE_GENERATORS[name])(T, peak=_CASE_PEAK,
                                                      rng=rng)


def _case_study(name):
    def build(T, rng, beta=4.0):
        return _from_loads(case_study_loads(name, T, rng),
                           beta=float(beta))
    build.__name__ = f"_build_{name.replace('-', '_')}"
    return build


_build_case_msr = _case_study("case-msr")
_build_case_hotmail = _case_study("case-hotmail")


_CATALOG: dict[str, Scenario] = {}

for _sc in (
    Scenario("diurnal", _build_diurnal, ("trace",),
             "sinusoidal day/night swing with noise"),
    Scenario("msr-like", _build_msr, ("trace",),
             "MSR-trace shape: PMR ~2 diurnal with lulls"),
    Scenario("hotmail-like", _build_hotmail, ("trace",),
             "Hotmail-trace shape: PMR ~4-5, weekly dip, bursts"),
    Scenario("bursty", _build_bursty, ("trace",),
             "low base load with flash-crowd bursts"),
    Scenario("onoff", _build_onoff, ("trace",),
             "two-state Markov-modulated demand"),
    Scenario("sawtooth", _build_sawtooth, ("deterministic",),
             "sawtooth oscillation punishing eager switching"),
    Scenario("regime-switching", _build_regime, ("trace",),
             "stepwise regime changes stressing laziness thresholds"),
    Scenario("random-convex", _build_random_convex, ("random",),
             "random convex rows, random beta (property-test family)"),
    Scenario("adversarial-hinge", _build_adversarial_hinge,
             ("adversarial", "deterministic"),
             "Theorem-4 hinge blocks pushing LCP toward ratio 3"),
    Scenario("restricted-diurnal", _build_restricted_diurnal,
             ("restricted", "trace"),
             "eq. (2) restricted model via the perspective encoding",
             build_restricted=_build_restricted_diurnal_ri),
    Scenario("hetero-mix", _build_hetero_mix, ("heterogeneous", "trace"),
             "per-step costs alternate between three convex families"),
    Scenario("hetero-fleet", None, ("heterogeneous",),
             "two-type fleet: fast/hungry vs slow/frugal servers",
             build_hetero=_build_hetero_fleet),
    Scenario("lb-deterministic", None, ("game", "adversarial"),
             "Theorem 4 two-state game vs integral algorithms (-> 3)",
             build_game=_build_lb_deterministic, storable=False),
    Scenario("lb-continuous", None, ("game", "adversarial"),
             "Theorem 6/8 fractional game (B-simulating adversary, -> 2)",
             build_game=_build_lb_continuous, storable=False),
    Scenario("lb-restricted", None, ("game", "adversarial"),
             "Theorem 5/9 game embedded in the restricted model (-> 3)",
             build_game=_build_lb_restricted, storable=False),
    Scenario("sim-diurnal", None, ("game", "simulator"),
             "E13 rollout: Poisson jobs on a diurnal rate curve, "
             "policies replayed through the simulator",
             build_game=_build_sim_diurnal),
    Scenario("case-msr", _build_case_msr, ("trace", "case-study"),
             "E11 case study: MSR-shaped trace, switching cost as a "
             "grid parameter"),
    Scenario("case-hotmail", _build_case_hotmail, ("trace", "case-study"),
             "E11 case study: Hotmail-shaped trace, switching cost as "
             "a grid parameter"),
):
    _CATALOG[_sc.name] = _sc


def scenario_names(tag: str | None = None) -> tuple[str, ...]:
    """All scenario names, optionally filtered by tag."""
    return tuple(n for n, s in _CATALOG.items()
                 if tag is None or tag in s.tags)


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario; raises ``KeyError`` with choices."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from "
                       f"{sorted(_CATALOG)}") from None


def build_instance(name: str, T: int, seed: int = 0,
                   pipeline: str = "general",
                   params: dict | None = None):
    """Build the instance of scenario ``name`` for ``(T, seed)`` under
    one of the engine pipelines
    (``general``/``restricted``/``hetero``/``game``), optionally with
    the scenario-parameter dict of a grid's ``params`` axis."""
    return get_scenario(name).instance(T, seed, pipeline, params)


def trace_suite(T: int = 168, seed: int = 0) -> list:
    """The (name, instance) suite of the five evaluation trace families.

    Replaces the duplicated ``benchmarks/conftest.py:trace_suite``; kept
    as a function so existing benchmarks keep working unchanged.
    """
    return [(name, build_instance(name, T, seed))
            for name in TRACE_FAMILIES]

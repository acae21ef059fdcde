"""Algorithm and solver registry.

Every offline solver and online algorithm of the reproduction is
registered under a stable name with the metadata of the paper's taxonomy
(paper section, problem variant, discrete vs fractional states,
competitive ratio, lookahead/seed support) — mirroring the "List of
Algorithms" tables of the related SOCO implementations.  The registry is
the single point the CLI, the batch engine and the benchmarks resolve
algorithms through, so a new algorithm becomes sweepable by adding one
:class:`AlgorithmSpec`.

Run ``python -m repro.runner.registry`` to print the Markdown algorithm
table embedded in the README.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

__all__ = [
    "AlgorithmSpec",
    "PIPELINES",
    "algorithm_names",
    "algorithm_table",
    "game_names",
    "get_spec",
    "make_algorithm",
    "make_solver",
    "pipeline_optimum",
    "solver_names",
]

#: problem variants, following the taxonomy of the related SOCO repos:
#: 1 — general model, convex ``f_t`` arrive over time (eq. (1));
#: 2 — restricted model, fixed per-server cost ``f`` (eq. (2));
#: 3 — variant 1 with a prediction window of length ``w`` (Section 5.4);
#: 4 — heterogeneous fleet, two server types (the paper's outlook).
VARIANTS = {1: "general", 2: "restricted", 3: "prediction window",
            4: "heterogeneous"}

#: engine pipelines: which instance representation an entry consumes —
#: ``general`` (:class:`~repro.core.instance.Instance`), ``restricted``
#: (:class:`~repro.core.instance.RestrictedInstance`, solved structurally),
#: ``hetero`` (:class:`~repro.extensions.HeterogeneousInstance`) or
#: ``game`` (adversarial games / simulator rollouts played per job:
#: :class:`~repro.lower_bounds.games.LowerBoundGame`,
#: :class:`~repro.simulator.bridge.SimulatorGame`).
PIPELINES = ("general", "restricted", "hetero", "game")


@dataclasses.dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: a named algorithm/solver plus its taxonomy.

    ``factory`` builds the runnable object: for ``kind="online"`` an
    :class:`~repro.online.base.OnlineAlgorithm`, for ``kind="offline"``
    a callable ``solver(instance) -> result`` with ``cost``/``schedule``
    attributes, for ``kind="game"`` a *player*
    ``player(game_instance) -> dict`` returning at least ``cost`` and
    ``opt`` (``None`` defers to the pipeline's hoisted baseline).
    Factories accept the keyword options the spec declares support for
    (``lookahead``, ``seed``).
    """

    name: str
    kind: str                       # "online" | "offline"
    factory: Callable
    section: str                    # paper section the algorithm is from
    variant: int                    # key into VARIANTS
    discrete: bool                  # integer states (vs fractional)
    competitive: float | None       # proven ratio; None for offline/heuristic
    optimal: bool                   # offline: exact optimum; online: ratio
    #                                 matches the model's lower bound
    supports_lookahead: bool = False
    supports_seed: bool = False
    pipeline: str = "general"       # key into PIPELINES
    summary: str = ""
    #: the entry's decisions factor through the work-function bounds
    #: ``(x^L, x^U)``: online consumers set
    #: :attr:`repro.online.OnlineAlgorithm.consumes_bounds`, and the
    #: offline ``backward_lcp`` solver accepts a precomputed bound
    #: trajectory — so the engine may serve several such jobs on one
    #: instance from a single shared work-function sweep.  The
    #: ``threshold``/``memoryless`` rules keep their own state and stay
    #: per-job.
    shares_workfunction: bool = False

    def make(self, *, lookahead: int = 0, seed=None):
        """Instantiate with only the options this spec supports."""
        kwargs = {}
        if self.supports_lookahead and lookahead:
            kwargs["lookahead"] = lookahead
        if self.supports_seed:
            kwargs["seed"] = 0 if seed is None else seed
        return self.factory(**kwargs)


_REGISTRY: dict[str, AlgorithmSpec] = {}


def _register(spec: AlgorithmSpec) -> AlgorithmSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate registry name {spec.name!r}")
    if spec.kind not in ("online", "offline", "game"):
        raise ValueError(f"bad kind {spec.kind!r} for {spec.name!r}")
    if spec.variant not in VARIANTS:
        raise ValueError(f"bad variant {spec.variant!r} for {spec.name!r}")
    if spec.pipeline not in PIPELINES:
        raise ValueError(f"bad pipeline {spec.pipeline!r} for "
                         f"{spec.name!r}")
    if spec.kind == "online" and spec.pipeline != "general":
        raise ValueError(f"online entry {spec.name!r} must use the "
                         "general pipeline (online algorithms consume "
                         "general instances)")
    if (spec.kind == "game") != (spec.pipeline == "game"):
        raise ValueError(f"entry {spec.name!r}: game players and the "
                         "game pipeline go together")
    if spec.shares_workfunction and (spec.pipeline != "general"
                                     or spec.kind == "game"):
        raise ValueError(f"entry {spec.name!r}: only general-pipeline "
                         "entries (online bound consumers or the "
                         "backward work-function solver) can share a "
                         "work-function sweep")
    _REGISTRY[spec.name] = spec
    return spec


# ----------------------------------------------------------------------
# Online algorithm factories (imports deferred so `import repro.runner`
# stays cheap and the workers pay only for what they run).
# ----------------------------------------------------------------------

def _make_lcp(lookahead: int = 0):
    from ..online import LCP
    return LCP(lookahead=lookahead)


def _make_threshold():
    from ..online import ThresholdFractional
    return ThresholdFractional()


def _make_randomized(seed=0):
    from ..online import RandomizedRounding, ThresholdFractional
    return RandomizedRounding(ThresholdFractional(), rng=seed)


def _make_algorithm_b():
    from ..online import AlgorithmB
    return AlgorithmB()


def _make_memoryless():
    from ..online import MemorylessBalance
    return MemorylessBalance()


def _make_followmin():
    from ..online import FollowTheMinimizer
    return FollowTheMinimizer()


def _make_never_switch():
    from ..online import NeverSwitchOn
    return NeverSwitchOn()


def _make_rhc(lookahead: int = 0):
    from ..online import RecedingHorizonControl
    return RecedingHorizonControl(lookahead=lookahead)


def _make_afhc(lookahead: int = 0):
    from ..online import AveragingFixedHorizonControl
    return AveragingFixedHorizonControl(lookahead=lookahead)


def _make_eager_lcp():
    from ..online import EagerLCP
    return EagerLCP()


# ----------------------------------------------------------------------
# Offline solver factories.
# ----------------------------------------------------------------------

def _make_binary_search():
    from ..offline import solve_binary_search
    return solve_binary_search


def _make_dp():
    from ..offline import solve_dp
    return solve_dp


def _make_dp_quadratic():
    from ..offline import solve_dp_quadratic
    return solve_dp_quadratic


def _make_graph():
    from ..offline import solve_graph
    return solve_graph


def _make_bruteforce():
    from ..offline import solve_bruteforce
    return solve_bruteforce


def _make_lp():
    from ..offline import solve_lp
    return solve_lp


def _make_backward_lcp():
    from ..offline import solve_backward_lcp
    return solve_backward_lcp


def _make_fractional():
    from ..offline import solve_fractional
    return solve_fractional


def _make_static():
    from ..online import solve_static
    return solve_static


# ----------------------------------------------------------------------
# Restricted-model and heterogeneous-pipeline solver factories.
# ----------------------------------------------------------------------

def _make_restricted():
    from ..offline import solve_restricted
    return solve_restricted


def _make_dp_hetero():
    from ..extensions import solve_dp_hetero
    return solve_dp_hetero


def _make_static_hetero():
    from ..extensions import solve_static_hetero
    return solve_static_hetero


def _make_greedy_hetero():
    from ..extensions import solve_greedy_hetero
    return solve_greedy_hetero


# ----------------------------------------------------------------------
# Game-pipeline player factories (Section 5 games, E13 rollouts).
# ----------------------------------------------------------------------

def _make_game_lcp(lookahead: int = 0):
    from ..lower_bounds.games import GamePlayer
    return GamePlayer("lcp", lookahead=lookahead)


def _make_game_followmin():
    from ..lower_bounds.games import GamePlayer
    return GamePlayer("followmin")


def _make_game_algorithm_b():
    from ..lower_bounds.games import GamePlayer
    return GamePlayer("algorithm-b")


def _make_game_threshold():
    from ..lower_bounds.games import GamePlayer
    return GamePlayer("threshold")


def _make_game_memoryless():
    from ..lower_bounds.games import GamePlayer
    return GamePlayer("memoryless")


def _make_game_rounded():
    from ..lower_bounds.games import GamePlayer
    return GamePlayer("threshold", randomized=True)


def _make_sim_opt():
    from ..simulator import SimPolicy
    return SimPolicy("opt")


def _make_sim_lcp():
    from ..simulator import SimPolicy
    return SimPolicy("lcp")


def _make_sim_static():
    from ..simulator import SimPolicy
    return SimPolicy("static")


for _spec in (
    # -- online ---------------------------------------------------------
    AlgorithmSpec("lcp", "online", _make_lcp, "3", 1, True, 3.0, True,
                  supports_lookahead=True, shares_workfunction=True,
                  summary="lazy capacity provisioning (Theorem 2)"),
    AlgorithmSpec("threshold", "online", _make_threshold, "4", 1, False,
                  2.0, True,
                  summary="fractional threshold rule (Lemma 15)"),
    AlgorithmSpec("randomized", "online", _make_randomized, "4", 1, True,
                  2.0, True, supports_seed=True,
                  summary="threshold rule + randomized rounding "
                          "(Theorem 3)"),
    AlgorithmSpec("algorithm-b", "online", _make_algorithm_b, "5.3", 1,
                  False, 2.0, True,
                  summary="deterministic fractional algorithm B"),
    AlgorithmSpec("memoryless", "online", _make_memoryless, "related", 1,
                  False, 3.0, True,
                  summary="memoryless balance rule (optimal memoryless)"),
    AlgorithmSpec("followmin", "online", _make_followmin, "baseline", 1,
                  True, None, False,
                  summary="chase the per-step minimizer (unbounded)"),
    AlgorithmSpec("never-off", "online", _make_never_switch, "baseline", 1,
                  True, None, False,
                  summary="power everything up once, never power down"),
    AlgorithmSpec("rhc", "online", _make_rhc, "related", 3, True, None,
                  False, supports_lookahead=True,
                  summary="receding horizon control over the window"),
    AlgorithmSpec("afhc", "online", _make_afhc, "related", 3, True, None,
                  False, supports_lookahead=True,
                  summary="averaging fixed horizon control"),
    AlgorithmSpec("eager-lcp", "online", _make_eager_lcp, "ablation", 1,
                  True, None, False, shares_workfunction=True,
                  summary="anti-laziness LCP ablation (always jump to a "
                          "bound)"),
    # -- offline --------------------------------------------------------
    AlgorithmSpec("binary_search", "offline", _make_binary_search, "2.2",
                  1, True, None, True,
                  summary="O(T log m) binary-search optimum (Theorem 1)"),
    AlgorithmSpec("dp", "offline", _make_dp, "2.1", 1, True, None, True,
                  summary="O(T m) dynamic program"),
    AlgorithmSpec("dp_quadratic", "offline", _make_dp_quadratic, "2.1", 1,
                  True, None, True,
                  summary="naive O(T m^2) DP (ablation reference)"),
    AlgorithmSpec("graph", "offline", _make_graph, "2 (Fig. 1)", 1, True,
                  None, True,
                  summary="shortest path in the explicit layered graph"),
    AlgorithmSpec("bruteforce", "offline", _make_bruteforce, "verify", 1,
                  True, None, True,
                  summary="exhaustive enumeration (tiny instances)"),
    AlgorithmSpec("lp", "offline", _make_lp, "4", 1, False, None, True,
                  summary="LP over the fractional relaxation (HiGHS)"),
    AlgorithmSpec("backward_lcp", "offline", _make_backward_lcp, "3", 1,
                  True, None, True, shares_workfunction=True,
                  summary="backward work-function optimum (shares the "
                          "engine's per-instance sweep)"),
    AlgorithmSpec("fractional", "offline", _make_fractional, "4", 1,
                  False, None, True,
                  summary="optimal fractional schedule (Lemma 4)"),
    AlgorithmSpec("static", "offline", _make_static, "baseline", 1, True,
                  None, False,
                  summary="best constant provisioning in hindsight"),
    # -- restricted-model pipeline --------------------------------------
    AlgorithmSpec("restricted", "offline", _make_restricted, "eq. (2)", 2,
                  True, None, True, pipeline="restricted",
                  summary="exact restricted-model DP (states below the "
                          "load masked per column)"),
    # -- heterogeneous pipeline -----------------------------------------
    AlgorithmSpec("dp_hetero", "offline", _make_dp_hetero, "outlook", 4,
                  True, None, True, pipeline="hetero",
                  summary="exact two-type product DP (factorized "
                          "switching relaxations)"),
    AlgorithmSpec("static_hetero", "offline", _make_static_hetero,
                  "outlook", 4, True, None, False, pipeline="hetero",
                  summary="best static pair in hindsight"),
    AlgorithmSpec("greedy_hetero", "offline", _make_greedy_hetero,
                  "outlook", 4, True, None, False, pipeline="hetero",
                  summary="per-step minimizer of f_t (ignores switching)"),
    # -- game pipeline: Section 5 adversarial games ---------------------
    AlgorithmSpec("game-lcp", "game", _make_game_lcp, "5.1/5.2", 1, True,
                  None, False, supports_lookahead=True, pipeline="game",
                  summary="LCP vs the adaptive adversary (E6/E7 curves)"),
    AlgorithmSpec("game-followmin", "game", _make_game_followmin, "5.1",
                  1, True, None, False, pipeline="game",
                  summary="follow-the-minimizer vs the adversary "
                          "(the bound binds every algorithm)"),
    AlgorithmSpec("game-algorithm-b", "game", _make_game_algorithm_b,
                  "5.3", 1, False, None, False, pipeline="game",
                  summary="algorithm B vs the B-simulating adversary "
                          "(E8 curve)"),
    AlgorithmSpec("game-threshold", "game", _make_game_threshold, "5.3",
                  1, False, None, False, pipeline="game",
                  summary="fractional threshold rule vs the adversary "
                          "(Lemma 23 deviation)"),
    AlgorithmSpec("game-memoryless", "game", _make_game_memoryless,
                  "5.3", 1, False, None, False, pipeline="game",
                  summary="memoryless balance vs the adversary "
                          "(Lemma 23 deviation)"),
    AlgorithmSpec("game-rounded", "game", _make_game_rounded, "5.3", 1,
                  True, None, False, pipeline="game",
                  summary="Theorem 8 reduction: exact expected cost of "
                          "the rounded threshold rule (E9 curve)"),
    # -- game pipeline: E13 simulator rollouts --------------------------
    AlgorithmSpec("sim-opt", "game", _make_sim_opt, "E13", 1, True, None,
                  True, pipeline="game",
                  summary="Section-2 optimal schedule replayed through "
                          "the job-level simulator"),
    AlgorithmSpec("sim-lcp", "game", _make_sim_lcp, "E13", 1, True, None,
                  False, pipeline="game",
                  summary="LCP schedule replayed through the simulator"),
    AlgorithmSpec("sim-static", "game", _make_sim_static, "E13", 1, True,
                  None, False, pipeline="game",
                  summary="best static provisioning replayed through "
                          "the simulator"),
):
    _register(_spec)


#: per pipeline, the registry entry whose solver *is* the engine's
#: per-instance optimum computation — re-running it as a job would
#: repeat the identical call on the identical instance, so its cost is
#: the optimum by construction (the general pipeline is deliberately
#: absent: its exact solvers — binary_search, graph, ... — are
#: *different* algorithms from the optimum's DP and cross-validate it)
_PIPELINE_OPTIMA = {"restricted": "restricted", "hetero": "dp_hetero"}


def pipeline_optimum(pipeline: str) -> str | None:
    """Name of the registry entry defining ``pipeline``'s offline
    optimum, or ``None`` when the optimum is computed independently."""
    return _PIPELINE_OPTIMA.get(pipeline)


def get_spec(name: str) -> AlgorithmSpec:
    """Resolve a registry entry; raises ``KeyError`` with choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; choose from "
                       f"{sorted(_REGISTRY)}") from None


def algorithm_names(pipeline: str | None = None) -> tuple[str, ...]:
    """Names of the registered online algorithms (optionally filtered by
    engine pipeline)."""
    return tuple(n for n, s in _REGISTRY.items() if s.kind == "online"
                 and (pipeline is None or s.pipeline == pipeline))


def solver_names(pipeline: str | None = None) -> tuple[str, ...]:
    """Names of the registered offline solvers (optionally filtered by
    engine pipeline)."""
    return tuple(n for n, s in _REGISTRY.items() if s.kind == "offline"
                 and (pipeline is None or s.pipeline == pipeline))


def game_names() -> tuple[str, ...]:
    """Names of the registered game-pipeline players."""
    return tuple(n for n, s in _REGISTRY.items() if s.kind == "game")


def make_algorithm(name: str, *, lookahead: int = 0, seed=None):
    """Instantiate a registered online algorithm."""
    spec = get_spec(name)
    if spec.kind != "online":
        raise ValueError(f"{name!r} is an offline solver, not an online "
                         "algorithm")
    return spec.make(lookahead=lookahead, seed=seed)


def make_solver(name: str) -> Callable:
    """Resolve a registered offline solver to ``solver(instance)``."""
    spec = get_spec(name)
    if spec.kind != "offline":
        raise ValueError(f"{name!r} is an online algorithm, not an "
                         "offline solver")
    return spec.make()


def algorithm_table() -> str:
    """The registry as a Markdown table (embedded in the README)."""
    header = ("| Name | Paper section | Variant | Discrete? | Online? | "
              "Lookahead? | Competitive ratio | Notes |")
    rule = "|" + " --- |" * 8
    lines = [header, rule]
    yes, no = "yes", "no"
    for spec in _REGISTRY.values():
        if spec.competitive is not None:
            ratio = f"{spec.competitive:g}-competitive"
            if spec.optimal:
                ratio += " (optimal)"
        elif spec.kind == "offline" and spec.optimal:
            ratio = "exact optimum"
        else:
            ratio = "—"
        lines.append(
            f"| `{spec.name}` | {spec.section} | "
            f"{VARIANTS[spec.variant]} | "
            f"{yes if spec.discrete else no} | "
            f"{yes if spec.kind == 'online' else no} | "
            f"{yes if spec.supports_lookahead else no} | "
            f"{ratio} | {spec.summary} |")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(algorithm_table())

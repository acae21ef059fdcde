"""The public import surface: every advertised name must resolve."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.offline",
    "repro.online",
    "repro.lower_bounds",
    "repro.workloads",
    "repro.simulator",
    "repro.extensions",
    "repro.analysis",
    "repro.runner",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    mod = importlib.import_module(module_name)
    assert hasattr(mod, "__all__"), module_name
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module_name}.{name} advertised " \
                                   "in __all__ but missing"


def test_top_level_reexports_cover_core_workflow():
    import repro
    for name in ("Instance", "RestrictedInstance", "solve_binary_search",
                 "solve_dp", "LCP", "ThresholdFractional",
                 "RandomizedRounding", "run_online", "cost"):
        assert name in repro.__all__


def test_runner_exports_cover_executor_and_leasequeue():
    import repro.runner as runner
    for name in ("run_grid", "GridSpec", "EngineConfig", "RunStats",
                 "parallel_map",
                 "shutdown_pool", "Lease", "LeaseLost", "LeaseQueue",
                 "merge_results", "work", "JsonlSink", "ListSink",
                 "ResultSink", "SqliteSink", "make_sink",
                 "RetryPolicy", "FaultPlan", "FaultSpec",
                 "InjectedFault", "MergeError", "failed_jobs",
                 "retry_failed"):
        assert name in runner.__all__, name


def test_runner_exports_cover_serving_layer():
    import repro.runner as runner
    for name in ("GridService", "ServiceClient", "ServiceError",
                 "RequestError", "ServiceUnavailable", "grid_status",
                 "busy_stats", "with_busy_retry"):
        assert name in runner.__all__, name


def test_version_string():
    import repro
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_cli_module_importable_without_side_effects():
    import repro.cli
    parser = repro.cli.build_parser()
    assert parser.prog == "repro"

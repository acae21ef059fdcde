"""Tests for the shared executor: the batching helpers, the one run
API (EngineConfig in, RunStats out, TypeError for anything else), and
job_slice."""

import dataclasses

import pytest

from repro.analysis import sweep
from repro.runner import (EngineConfig, GridSpec, ListSink, RunStats,
                          run_grid, work)
from repro.runner.engine import chunk_list
from repro.runner.executor import iter_batches, run_args

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


def _measure(x):
    return {"y": x * x}


class TestBatchingHelpers:
    def test_iter_batches_validates_eagerly(self):
        def explode():
            raise AssertionError("iterable must not be consumed")
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="batch_size"):
            iter_batches(explode(), 0)

    def test_iter_batches_splits(self):
        assert list(iter_batches(range(5), 2)) == [[0, 1], [2, 3], [4]]
        assert list(iter_batches(range(3), None)) == [[0, 1, 2]]
        assert list(iter_batches([], None)) == []

    def test_chunk_list_in_process_fuses_everything(self):
        assert chunk_list([1, 2, 3], n_jobs=1, chunk_jobs=None) == \
            [[1, 2, 3]]
        assert chunk_list([1, 2, 3], n_jobs=1, chunk_jobs=1) == \
            [[1], [2], [3]]
        assert chunk_list([], n_jobs=4, chunk_jobs=None) == []


# ----------------------------------------------------------------------
# EngineConfig in, RunStats out: the one run API and its type check.
# ----------------------------------------------------------------------

class _OpenSpy(ListSink):
    """List sink that records whether an entry point ever opened it."""

    def __init__(self):
        super().__init__()
        self.opened = False

    def open(self, meta=None):
        self.opened = True
        super().open(meta)


class TestEngineConfig:
    def test_resolve_none_gives_defaults(self):
        config, stats = run_args(None, None)
        assert config == EngineConfig()
        assert config.n_jobs == 1 and config.pipeline_depth == 2
        assert stats == RunStats()

    def test_resolve_passes_config_through_unchanged(self):
        config, stats = EngineConfig(n_jobs=3), RunStats(batches=2)
        out_config, out_stats = run_args(config, stats)
        assert out_config is config
        assert out_stats is stats    # counters accumulate in place

    def test_unknown_kwarg_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="bogus"):
            sweep(_measure, {"x": [1]}, bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            work(tmp_path / "queue", bogus=1)

    def test_disallowed_kwarg_raises_type_error(self):
        """No EngineConfig field is accepted as a keyword argument: the
        pre-EngineConfig spellings (``n_jobs=2``, ``batch_size=3``, ...)
        are plain TypeErrors, not deprecation warnings."""
        for field in dataclasses.fields(EngineConfig):
            kwargs = {field.name: field.default}
            with pytest.raises(TypeError, match=field.name):
                run_grid(SMALL, **kwargs)
            with pytest.raises(TypeError, match=field.name):
                sweep(_measure, {"x": [1]}, **kwargs)

    def test_non_config_positional_raises(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            run_args({"n_jobs": 2}, None)
        with pytest.raises(TypeError, match="EngineConfig"):
            run_grid(SMALL, {"n_jobs": 2})
        with pytest.raises(TypeError, match="EngineConfig"):
            sweep(_measure, {"x": [1]}, {"n_jobs": 2})

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().n_jobs = 2

    def test_run_grid_unknown_kwarg(self):
        with pytest.raises(TypeError, match="bogus"):
            run_grid(SMALL, bogus=1)

    def test_run_grid_legacy_kwargs_raise_and_config_matches(self):
        """The keyword spelling ``batch_size=3`` raises; the EngineConfig
        spelling runs and gives the rows of the default run."""
        sink = _OpenSpy()
        with pytest.raises(TypeError, match="batch_size"):
            run_grid(SMALL, EngineConfig(sink=sink), batch_size=3)
        assert not sink.opened
        assert run_grid(SMALL, EngineConfig(batch_size=3)) == run_grid(SMALL)

    def test_sweep_legacy_kwargs_raise_and_config_matches(self):
        grid = {"x": [1, 2, 3]}
        sink = _OpenSpy()
        with pytest.raises(TypeError, match="batch_size"):
            sweep(_measure, grid, EngineConfig(sink=sink), batch_size=2)
        assert not sink.opened
        assert (sweep(_measure, grid, EngineConfig(batch_size=2))
                == sweep(_measure, grid))

    def test_sweep_rejects_engine_only_kwargs(self):
        with pytest.raises(TypeError, match="store_dir"):
            sweep(_measure, {"x": [1]}, store_dir="/tmp")


# ----------------------------------------------------------------------
# RunStats: typed counters, accumulation, no dict stand-in.
# ----------------------------------------------------------------------

class TestRunStats:
    def test_merge_max(self):
        stats = RunStats(max_pending=4)
        stats.merge_max("max_pending", 2)
        assert stats.max_pending == 4
        stats.merge_max("max_pending", 9)
        assert stats.max_pending == 9

    def test_run_grid_accepts_and_accumulates_run_stats(self):
        stats = RunStats()
        run_grid(SMALL, EngineConfig(batch_size=2), stats=stats)
        first_batches = stats.batches
        assert first_batches == 2 and stats.rows_written == len(SMALL)
        run_grid(SMALL, EngineConfig(batch_size=2), stats=stats)
        assert stats.batches == 2 * first_batches   # counts accumulate
        assert stats.rows_written == 2 * len(SMALL)

    def test_run_grid_rejects_dict_stats_before_sink_opens(self):
        sink = _OpenSpy()
        config = EngineConfig(sink=sink)
        with pytest.raises(TypeError, match="RunStats"):
            run_grid(SMALL, config, stats={})
        assert not sink.opened

    def test_sweep_rejects_dict_stats_before_sink_opens(self):
        sink = _OpenSpy()
        config = EngineConfig(sink=sink)
        with pytest.raises(TypeError, match="RunStats"):
            sweep(_measure, {"x": [1, 2]}, config, stats={})
        assert not sink.opened

    def test_work_rejects_dict_stats_before_queue_opens(self, tmp_path):
        with pytest.raises(TypeError, match="RunStats"):
            work(tmp_path / "queue", stats={})
        with pytest.raises(TypeError, match="EngineConfig"):
            work(tmp_path / "queue", config={"n_jobs": 2})
        assert not (tmp_path / "queue").exists()


# ----------------------------------------------------------------------
# job_slice: the lease seam on run_grid.
# ----------------------------------------------------------------------

class TestJobSlice:
    def test_full_slice_matches_unsliced(self):
        assert run_grid(SMALL, job_slice=(0, len(SMALL))) == run_grid(SMALL)

    def test_slices_concatenate_bit_identically(self):
        full = run_grid(SMALL)
        parts = (run_grid(SMALL, job_slice=(0, 3))
                 + run_grid(SMALL, job_slice=(3, len(SMALL))))
        assert parts == full

    def test_empty_slice_is_empty(self):
        stats = RunStats()
        assert run_grid(SMALL, job_slice=(2, 2), stats=stats) == []
        assert stats.batches == 0

    def test_out_of_range_slice_raises(self):
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(0, len(SMALL) + 1))
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(-1, 2))
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(3, 2))
